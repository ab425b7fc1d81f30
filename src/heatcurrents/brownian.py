"""Algebra-valued Brownian increments with Sobolev-type spectral covariance.

The driving noise lives in the Hilbert space of Lie-algebra-valued fields
with squared norm  integral of <(Laplacian^k + 1) h, h>  over the torus.
Its Gaussian law is diagonal in the Laplacian eigenbasis with mode weights
w_m = (lambda_m^k + 1)^{-1}, independently in each algebra direction.
Sampling is a finite Karhunen-Loeve sum over the truncated basis, evaluated
on the grid by one inverse real FFT (Lord, Powell and Shardlow, An
Introduction to Computational Stochastic PDEs, 2014, ch. 6-7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lie import LieBasis
from .torus import SpectralBasis

__all__ = [
    "CovarianceSpec",
    "synthesize",
    "sample_increment",
    "covariance_kernel",
    "kernel_gram",
    "pointwise_variance",
    "gram_sqrt",
]


@dataclass(frozen=True)
class CovarianceSpec:
    """Covariance of the H-valued Brownian motion.

    Parameters
    ----------
    k : int
        Sobolev order in the (Laplacian^k + 1) form; k >= 1 keeps the field
        continuous in the regimes this package targets.  k = 0 (white noise
        in every mode) is rejected unless `allow_rough` is set; the
        diagnostics use that escape hatch as a divergence control.
    basis : SpectralBasis
    lie : LieBasis
    """

    k: int
    basis: SpectralBasis
    lie: LieBasis
    allow_rough: bool = field(default=False, compare=False)

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 0:
            raise ValueError(f"Sobolev order must be a nonnegative integer, got {self.k}")
        if self.k < 1 and not self.allow_rough:
            raise ValueError(
                "Sobolev order k must be >= 1 (set allow_rough=True for the "
                "k=0 divergence control)"
            )

    @property
    def weights(self) -> np.ndarray:
        """Karhunen-Loeve mode weights w_m = (lambda_m^k + 1)^{-1}."""
        lam = self.basis.eigenvalues
        return 1.0 / (lam**self.k + 1.0)

    @property
    def dim_g(self) -> int:
        return self.lie.dim


def synthesize(basis: SpectralBasis, amp: np.ndarray) -> np.ndarray:
    """Karhunen-Loeve sum on the grid: sum_m amp[m] e_m(S), by inverse FFT.

    amp has the modes on its leading axis, (n_modes, *batch); the result is
    (*grid.shape, *batch).  Mode j contributes amp[j] * basis.values[j] at
    +m and, for m != 0, the conjugate at -m.  Cosine coefficients are real and sine
    coefficients imaginary, so a cosine/sine pair (a_c, a_s) at m becomes
    the coefficient (2pi)^{-d/2} (a_c - i a_s) / sqrt2, assembled part by
    part; the pairs are placed into the half spectrum at `basis.half_cells`
    and inverted without normalization.  Every column of the batch is
    transformed on its own, so a column's result does not depend on the
    batch it travels in.  This is the one synthesis path.
    """
    amp = np.asarray(amp, dtype=float)
    grid = basis.grid
    batch = amp.shape[1:]
    n_pairs = basis.frequencies.shape[0]
    scale = basis.values.reshape((-1,) + (1,) * len(batch))
    coef = np.empty((1 + 2 * n_pairs,) + batch, dtype=complex)
    coef[0] = scale[0].real * amp[0]
    pairs = coef[1 : n_pairs + 1]
    np.multiply(amp[1::2], scale[1::2].real, out=pairs.real)
    np.multiply(amp[2::2], scale[2::2].imag, out=pairs.imag)
    np.conjugate(pairs, out=coef[n_pairs + 1 :])
    half = np.zeros((math.prod(grid.half_shape),) + batch, dtype=complex)
    half[basis.half_cells] = coef[basis.half_sources]
    half = half.reshape(grid.half_shape + batch)
    return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(grid.dim)), norm="forward")


def sample_increment(spec: CovarianceSpec, dt: float, streams) -> np.ndarray:
    """One centered Gaussian increment of the H-valued Brownian motion.

    dB(S) = sum_{m,a} sqrt(dt * w_m) xi_{m,a} e_m(S) T_a with i.i.d.
    standard normal xi.  `streams` holds one RngStream per sample and the
    coefficients have shape (*grid.shape, n_samples, dim_g); sample s draws
    its xi from streams[s] alone, so its column does not depend on the
    others.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    size = (spec.basis.n_modes, spec.dim_g)
    xi = np.stack([stream.normal(size=size) for stream in streams], axis=1)
    scale = np.sqrt(dt * spec.weights)[:, np.newaxis, np.newaxis]
    return synthesize(spec.basis, scale * xi)


def covariance_kernel(spec: CovarianceSpec, s: np.ndarray, s_prime: np.ndarray) -> float:
    """C_k(S, S') = sum_m w_m e_m(S) e_m(S'), per algebra direction."""
    pts = np.stack(
        [np.atleast_1d(np.asarray(s, dtype=float)), np.atleast_1d(np.asarray(s_prime, dtype=float))]
    )
    vals = spec.basis.evaluate(pts)  # (n_modes, 2)
    return float(np.sum(spec.weights * vals[:, 0] * vals[:, 1]))


def kernel_gram(spec: CovarianceSpec, points: np.ndarray) -> np.ndarray:
    """Covariance Gram matrix C_k(S_i, S_j) over a set of points (n, d)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = spec.basis.evaluate(points)  # (n_modes, n)
    return np.einsum("m,mi,mj->ij", spec.weights, vals, vals)


def pointwise_variance(spec: CovarianceSpec) -> float:
    """Closed-form C_k(S, S): (2pi)^{-d} (w_0 + 2 sum over mode pairs).

    Independent of S because cos^2 + sin^2 collapses each pair; this is the
    per-direction variance rate of the driving noise.
    """
    w = spec.weights
    d = spec.basis.grid.dim
    return float((w[0] + 2.0 * np.sum(w[1::2])) / (2.0 * np.pi) ** d)


def gram_sqrt(gram: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by eigen-decomposition.

    Eigenvalues down to -1e-12 * max(1, max |eigenvalue|) are round-off
    and clip to zero; a more negative one is rejected.
    """
    gram = np.asarray(gram, dtype=float)
    w, v = np.linalg.eigh(0.5 * (gram + gram.T))
    floor = -1e-12 * max(1.0, float(np.max(np.abs(w))))
    if np.min(w) < floor:
        raise ValueError(f"matrix is not positive semidefinite (min eig {np.min(w):.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
