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
space inside H^1(M; Lie G) linearly; `CohomologyVector.axis_values` undoes
the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import AlgebraField, OneFormField, exterior_derivative, field_bracket, field_killing
from .rng import RngStream, substream
from .sde import SdeConfig, sample_ensemble
from .torus import TorusGrid, spectral_derivative

__all__ = [
    "CohomologyVector",
    "LatticeSpec",
    "CentralTorusElement",
    "EMBED_DIRECTION",
    "EXTENSION_CENTRAL_STREAM",
    "leibniz_check",
    "cocycle",
    "cocycle_scalars",
    "harmonic_projection",
    "reduce_mod_lattice",
    "haar_sample",
    "sample_extension",
    "extended_bracket",
    "central_brownian_marginal",
    "wrapped_normal_cdf",
]

# Reference algebra direction along which scalar cocycle classes embed
# into the N = d*dim(G) coordinate space.
EMBED_DIRECTION = 0

# Stream id offset for the central (Haar / torus Brownian) draws, disjoint
# from the field streams of ensemble samples and from diagnostic streams.
EXTENSION_CENTRAL_STREAM = 1 << 33


@dataclass(frozen=True)
class CohomologyVector:
    """A class in H^1(torus; Lie G) by its harmonic-representative coords.

    coords has length N = n_axes * dim_g, indexed as (axis, direction) in
    row-major order: coords[i * dim_g + a] multiplies dx^i (x) T_a.
    """

    coords: np.ndarray
    n_axes: int
    dim_g: int

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.n_axes * self.dim_g,):
            raise ValueError(
                f"expected {self.n_axes * self.dim_g} coordinates, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("cohomology coordinates must be finite")
        object.__setattr__(self, "coords", c)

    def as_components(self) -> np.ndarray:
        """(n_axes, dim_g) view: row i holds the algebra coefficients of dx^i."""
        return self.coords.reshape(self.n_axes, self.dim_g)

    def axis_values(self, direction: int = EMBED_DIRECTION) -> np.ndarray:
        """Scalar class per axis, read off the embedding direction."""
        return self.as_components()[:, direction].copy()

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


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


@dataclass(frozen=True)
class CentralTorusElement:
    """Point of Z = R^N / L in lattice coordinates, each in [0, 1)."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"central coordinates must be a vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("central coordinates must be finite")
        if np.any(c < 0.0) or np.any(c >= 1.0):
            raise ValueError("central coordinates must lie in [0, 1)")
        object.__setattr__(self, "coords", c)


def leibniz_check(grid: TorusGrid, eta: AlgebraField, eta1: AlgebraField) -> float:
    """Max-norm residual of d kappa(eta, eta1) = kappa(d eta, eta1) + kappa(eta, d eta1).

    A self-test of the derivative/pairing plumbing; zero to round-off on
    fields band-limited well below the product Nyquist threshold.
    """
    scalar = field_killing(eta, eta1)  # (*grid.shape,)
    lhs = spectral_derivative(grid, scalar)  # (d, *grid.shape)
    d_eta = exterior_derivative(grid, eta).components
    d_eta1 = exterior_derivative(grid, eta1).components
    rhs = np.einsum("i...a,ab,...b->i...", d_eta, eta.lie.killing, eta1.coeffs)
    rhs += np.einsum("...a,ab,i...b->i...", eta.coeffs, eta.lie.killing, d_eta1)
    return float(np.max(np.abs(lhs - rhs)))


def cocycle_scalars(grid: TorusGrid, eta: AlgebraField, eta1: AlgebraField) -> np.ndarray:
    """Per-axis scalar class of the 1-form kappa(eta, d eta1): its grid mean."""
    d_eta1 = exterior_derivative(grid, eta1).components
    form = np.einsum("...a,ab,i...b->i...", eta.coeffs, eta.lie.killing, d_eta1)
    axes = tuple(range(1, 1 + grid.dim))
    return form.mean(axis=axes)


def cocycle(grid: TorusGrid, eta: AlgebraField, eta1: AlgebraField) -> CohomologyVector:
    """Killing 2-cocycle omega(eta, eta1) = class of kappa(eta, d eta1).

    Builds the algebra-valued 1-form (scalar pairing times the reference
    embedding direction) and projects it to its harmonic part.
    """
    scalars = cocycle_scalars(grid, eta, eta1)  # (d,)
    dim_g = eta.lie.dim
    comps = np.zeros((grid.dim,) + grid.shape + (dim_g,))
    comps[..., EMBED_DIRECTION] = scalars.reshape((grid.dim,) + (1,) * grid.dim)
    return harmonic_projection(grid, OneFormField(components=comps, lie=eta.lie))


def harmonic_projection(grid: TorusGrid, omega: OneFormField) -> CohomologyVector:
    """Constant part of each component: the Hodge representative on T^d.

    coords[(i, a)] is the grid mean of component i in algebra direction a
    (equivalently the Killing pairing with the kappa-dual basis).
    """
    if omega.grid_shape != grid.shape:
        raise ValueError(
            f"one-form grid shape {omega.grid_shape} does not match {grid.shape}"
        )
    axes = tuple(range(1, 1 + grid.dim))
    means = omega.components.mean(axis=axes)  # (d, dim_g)
    return CohomologyVector(
        coords=means.reshape(-1), n_axes=grid.dim, dim_g=omega.lie.dim
    )


def reduce_mod_lattice(v: np.ndarray, lattice: LatticeSpec) -> CentralTorusElement:
    """Fundamental-domain representative: fractional lattice coordinates."""
    v = np.asarray(v, dtype=float)
    if v.shape != (lattice.rank,):
        raise ValueError(f"expected vector of length {lattice.rank}, got shape {v.shape}")
    y = np.linalg.solve(lattice.generators, v)
    frac = y - np.floor(y)
    frac[frac >= 1.0] -= 1.0  # floor rounding at the seam
    return CentralTorusElement(coords=frac)


def haar_sample(lattice: LatticeSpec, stream: RngStream) -> CentralTorusElement:
    """Uniform draw on the fundamental domain (Haar measure on Z)."""
    u = stream.uniform(size=lattice.rank)
    u[u >= 1.0] = 0.0
    return CentralTorusElement(coords=u)


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
            haar_sample(lattice, substream(cfg.seed, EXTENSION_CENTRAL_STREAM + i)).coords
            for i in range(first_stream, first_stream + n_samples)
        ]
    )
    return fields, fibers


def extended_bracket(
    grid: TorusGrid,
    x: tuple,
    y: tuple,
) -> tuple:
    """Centrally extended bracket: ([eta, eta1], omega(eta, eta1)).

    x and y are (AlgebraField, central vector) pairs; central arguments do
    not contribute, which is what makes the extension central.
    """
    eta, _ = x
    eta1, _ = y
    return field_bracket(eta, eta1), cocycle(grid, eta, eta1)


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
    y = np.linalg.solve(lattice.generators, (np.sqrt(t) * xi).T).T
    frac = y - np.floor(y)
    frac[frac >= 1.0] -= 1.0
    return frac


def wrapped_normal_cdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    """CDF on [0, 1) of a normal(mean, var) wrapped around the unit circle.

    Reference law for the central Brownian marginal per lattice coordinate,
    summed over 64 wraps either side of the circle.
    """
    from scipy.stats import norm

    x = np.asarray(x, dtype=float)
    sd = np.sqrt(var)
    total = np.zeros_like(x)
    for j in range(-64, 65):
        total += norm.cdf(x + j, loc=mean, scale=sd) - norm.cdf(j, loc=mean, scale=sd)
    return total
