"""Finite-dimensional central extension of the current group.

The Killing pairing of an algebra field with the exterior derivative of
another produces a 1-form on the torus; its cohomology class (the constant
part of each component, by Hodge theory on flat tori) is the value of a
Lie-algebra 2-cocycle.  Classes live in a vector space of dimension
N = d * dim(G); a full-rank lattice L turns it into a compact torus Z
carrying Haar measure, and the lifted measure couples a field sample with
an independent Haar point.

The pairing kappa(eta, d eta_1) is scalar-valued per axis.  Classes are
embedded into the N-dimensional space along a fixed reference algebra
direction (index ``EMBED_DIRECTION``), which realizes the scalar class
space inside H^1(M; Lie G) linearly; `cocycle_scalars` gives the per-axis
values before the embedding.

Fields are (*grid.shape, dim_g) coefficient arrays, passed with their
`LieBasis`; a class is its (N,) coordinate array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieBasis, bracket_coeffs, killing_pair
from .rng import RngStream, substream
from .sde import SdeConfig, sample_ensemble
from .torus import TorusGrid, spectral_derivative

__all__ = [
    "LatticeSpec",
    "EMBED_DIRECTION",
    "EXTENSION_CENTRAL_STREAM",
    "leibniz_check",
    "cocycle",
    "cocycle_scalars",
    "reduce_mod_lattice",
    "haar_sample",
    "sample_extension",
    "extended_bracket",
    "central_brownian_marginal",
]

# Reference algebra direction along which scalar cocycle classes embed
# into the N = d*dim(G) coordinate space.
EMBED_DIRECTION = 0

# Stream id offset for the central (Haar / torus Brownian) draws, disjoint
# from the field streams of ensemble samples and from diagnostic streams.
EXTENSION_CENTRAL_STREAM = 1 << 33


@dataclass(frozen=True)
class LatticeSpec:
    """Full-rank lattice in R^N given by generator columns."""

    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"generators must be square, got shape {g.shape}")
        det = np.linalg.det(g)
        if not np.isfinite(det) or det == 0.0:
            raise ValueError("lattice generators must be invertible")
        object.__setattr__(self, "generators", g)

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @classmethod
    def identity(cls, rank: int) -> "LatticeSpec":
        return cls(generators=np.eye(rank))


def _check_grid(grid: TorusGrid, lie: LieBasis, *fields: np.ndarray) -> None:
    want = grid.shape + (lie.dim,)
    for f in fields:
        if f.shape != want:
            raise ValueError(f"field shape {f.shape} is not grid shape + (dim_g,) = {want}")


def leibniz_check(
    grid: TorusGrid, lie: LieBasis, eta: np.ndarray, eta1: np.ndarray
) -> float:
    """Max-norm residual of d kappa(eta, eta1) = kappa(d eta, eta1) + kappa(eta, d eta1).

    A self-test of the derivative/pairing plumbing; zero to round-off on
    fields band-limited well below the product Nyquist threshold.
    """
    _check_grid(grid, lie, eta, eta1)
    scalar = killing_pair(lie, eta, eta1)  # (*grid.shape,)
    lhs = spectral_derivative(grid, scalar)  # (d, *grid.shape)
    d_eta = spectral_derivative(grid, eta)  # (d, *grid.shape, dim_g)
    d_eta1 = spectral_derivative(grid, eta1)
    rhs = np.einsum("i...a,ab,...b->i...", d_eta, lie.killing, eta1)
    rhs += np.einsum("...a,ab,i...b->i...", eta, lie.killing, d_eta1)
    return float(np.max(np.abs(lhs - rhs)))


def cocycle_scalars(
    grid: TorusGrid, lie: LieBasis, eta: np.ndarray, eta1: np.ndarray
) -> np.ndarray:
    """Per-axis scalar class of the 1-form kappa(eta, d eta1): its grid mean, (d,)."""
    _check_grid(grid, lie, eta, eta1)
    d_eta1 = spectral_derivative(grid, eta1)  # (d, *grid.shape, dim_g)
    form = np.einsum("...a,ab,i...b->i...", eta, lie.killing, d_eta1)
    axes = tuple(range(1, 1 + grid.dim))
    return form.mean(axis=axes)


def cocycle(
    grid: TorusGrid, lie: LieBasis, eta: np.ndarray, eta1: np.ndarray
) -> np.ndarray:
    """Killing 2-cocycle omega(eta, eta1) = class of kappa(eta, d eta1).

    Returns the N = d * dim_g harmonic-representative coordinates, indexed
    (axis, direction) row-major: entry i * dim_g + a multiplies dx^i (x) T_a.
    The per-axis scalar classes sit at a = EMBED_DIRECTION; every other
    coordinate is zero.
    """
    comps = np.zeros((grid.dim, lie.dim))
    comps[:, EMBED_DIRECTION] = cocycle_scalars(grid, lie, eta, eta1)
    return comps.reshape(-1)


def reduce_mod_lattice(v: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Fundamental-domain representative: fractional lattice coordinates.

    v has shape (..., N) and so does the result, each entry in [0, 1): the
    point of Z = R^N / L that v projects to, as y - floor(y) for y = G^{-1} v.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (lattice.rank,):
        raise ValueError(f"expected vectors of length {lattice.rank}, got shape {v.shape}")
    y = np.linalg.solve(lattice.generators, v[..., np.newaxis])[..., 0]
    frac = y - np.floor(y)
    frac[frac >= 1.0] -= 1.0  # floor rounding at the seam
    return frac


def haar_sample(lattice: LatticeSpec, stream: RngStream) -> np.ndarray:
    """Uniform draw on the fundamental domain (Haar measure on Z), shape (N,)."""
    u = stream.uniform(size=lattice.rank)
    u[u >= 1.0] = 0.0
    return u


def sample_extension(
    cfg: SdeConfig, lattice: LatticeSpec, n_samples: int = 1, first_stream: int = 0
) -> tuple:
    """n_samples draws of the lifted measure: independent (field, Haar) pairs.

    Returns the fields, (n_samples, *grid.shape, n, n) from one
    `sample_ensemble` call, and the fibers, (n_samples, N) in lattice
    coordinates.  Draw i pairs field stream first_stream + i with central
    stream EXTENSION_CENTRAL_STREAM + first_stream + i; the two id ranges
    are disjoint, so the marginals are independent by construction.  Both
    ranges are checked before any field is sampled.
    """
    if not 0 <= first_stream <= (1 << 64) - EXTENSION_CENTRAL_STREAM - n_samples:
        raise ValueError(
            f"--stream-id {first_stream} with --samples {n_samples} puts a field or "
            f"central stream id outside [0, 2^64): --stream-id + --samples may be at "
            f"most 2^64 - 2^33"
        )
    fields = sample_ensemble(cfg, n_samples, first_stream=first_stream)
    fibers = np.stack(
        [
            haar_sample(lattice, substream(cfg.seed, EXTENSION_CENTRAL_STREAM + i))
            for i in range(first_stream, first_stream + n_samples)
        ]
    )
    return fields, fibers


def extended_bracket(grid: TorusGrid, lie: LieBasis, x: tuple, y: tuple) -> tuple:
    """Centrally extended bracket: ([eta, eta1], omega(eta, eta1)).

    x and y are (coefficient field, central vector) pairs; central
    arguments do not contribute, which is what makes the extension central.
    """
    eta, _ = x
    eta1, _ = y
    omega = cocycle(grid, lie, eta, eta1)  # checks both shapes first
    return bracket_coeffs(lie, eta, eta1), omega


def central_brownian_marginal(
    lattice: LatticeSpec,
    t: float,
    n_samples: int,
    stream: RngStream,
) -> np.ndarray:
    """Exact time-t marginal of Brownian motion on Z from 0, in lattice coords.

    The ambient motion has covariance t*I, so the one-shot draw
    G^{-1} (sqrt(t) xi) mod 1 equals the stepped chain in law.
    Returns (n_samples, N).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    xi = stream.normal(size=(n_samples, lattice.rank))
    return reduce_mod_lattice(np.sqrt(t) * xi, lattice)

