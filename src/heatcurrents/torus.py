"""Flat torus [0, 2pi)^d: uniform grids, Laplacian eigenbasis, derivatives.

The real eigenbasis of -Laplacian is indexed by integer frequency vectors m
with a canonical sign representative (first nonzero component positive).
Each nonzero representative carries a cosine and a sine mode; the zero
vector carries the constant mode.  All modes are L2-normalized so that
integrating e_m * e_m' over the torus gives delta_{mm'}.

The basis is never tabulated on the grid.  On the grid each mode is a
single Fourier coefficient, so `SpectralBasis` keeps that coefficient and
the cell of the grid's half spectrum (the layout `irfftn` reads) it sits
in, and a sum over modes is one inverse real FFT (`brownian.synthesize`);
`SpectralBasis.evaluate` tabulates modes at off-grid points on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralBasis",
    "build_grid",
    "build_spectrum",
    "quadrature",
    "spectral_derivative",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid with P points per axis on [0, 2pi)^d.

    P is constrained to powers of two (>= 4) so FFT sizes stay exact and
    grid refinement ladders nest.
    """

    dim: int
    points_per_axis: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError(f"torus dimension must be 1, 2 or 3, got {self.dim}")
        p = self.points_per_axis
        if p < 4 or (p & (p - 1)) != 0:
            raise ValueError(
                f"points_per_axis must be a power of two >= 4, got {p}"
            )

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def n_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def spacing(self) -> float:
        return TWO_PI / self.points_per_axis

    @property
    def half_shape(self) -> tuple:
        """Shape of a real field's half spectrum: last axis 0 .. P/2."""
        return self.shape[:-1] + (self.points_per_axis // 2 + 1,)

    def axes(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def coordinates(self) -> np.ndarray:
        """Grid coordinates, shape (*shape, dim)."""
        ax = self.axes()
        mesh = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1)


def _canonical_representatives(dim: int, max_mode: int) -> np.ndarray:
    """Nonzero frequency vectors with first nonzero component positive.

    Sorted by (|m|^2, lexicographic), so the spectrum is enumerated from the
    bottom up and ties break deterministically.
    """
    rng = np.arange(-max_mode, max_mode + 1)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    all_m = np.stack([g.ravel() for g in grids], axis=-1)
    first_nonzero = all_m[np.arange(len(all_m)), np.argmax(all_m != 0, axis=1)]
    reps = all_m[first_nonzero > 0]
    order = np.lexsort(tuple(reps[:, i] for i in reversed(range(dim))))
    reps = reps[order]
    order = np.argsort(np.sum(reps * reps, axis=1), kind="stable")
    return reps[order]


@dataclass(frozen=True)
class SpectralBasis:
    """Real orthonormal Laplacian eigenbasis truncated at a per-axis cutoff
    |m_i| <= M, which `build_spectrum` takes as max_mode: (2M+1)^d functions.

    Attributes
    ----------
    grid : TorusGrid
    frequencies : int array, shape (n_pairs, dim)
        Canonical representatives of the nonzero modes.
    eigenvalues : float array, shape (n_modes,)
        |m|^2 per basis function, constant mode first, then for each
        representative its cosine mode followed by its sine mode.
    values : complex array, shape (n_modes,)
        The basis on the grid in Fourier space: the coefficient a unit
        amplitude of each mode puts at +m in an unnormalized inverse DFT,
        (2pi)^{-d/2} for the constant mode, (2pi)^{-d/2}/sqrt2 for a cosine
        and -i (2pi)^{-d/2}/sqrt2 for a sine (the conjugate goes to -m).
        This replaces a table of grid values, which would have shape
        (n_modes, P^d).
    half_cells, half_sources : int arrays, shape (n_cells,)
        Half-spectrum placement of the modes: flat index
        ``half_cells[j]`` of an array of shape ``grid.half_shape`` receives
        entry ``half_sources[j]`` of the complex coefficients
        ``[c_0, c_1 .. c_R, conj(c_1) .. conj(c_R)]``, where c_0 is the
        constant mode's and c_r that of representative r at +m_r.  A
        representative goes to +m_r if its last component is positive and
        as a conjugate to -m_r if negative; one with last component 0 goes
        to both, since the inverse real FFT keeps only the real part there.
    """

    grid: TorusGrid
    frequencies: np.ndarray
    eigenvalues: np.ndarray
    values: np.ndarray
    half_cells: np.ndarray
    half_sources: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Tabulate all basis functions at arbitrary points (..., dim).

        Returns (n_modes, ...).  Meant for a few off-grid points; on the
        grid, `brownian.synthesize` sums the modes without a table.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.grid.dim:
            raise ValueError(
                f"points have dimension {points.shape[-1]}, grid is {self.grid.dim}-d"
            )
        norm = TWO_PI ** (-0.5 * self.grid.dim)
        out = np.empty((self.n_modes,) + points.shape[:-1])
        out[0] = norm
        phases = np.tensordot(self.frequencies.astype(float), points, axes=(1, -1))
        out[1::2] = np.sqrt(2.0) * norm * np.cos(phases)
        out[2::2] = np.sqrt(2.0) * norm * np.sin(phases)
        return out


def build_grid(dim: int, points_per_axis: int) -> TorusGrid:
    return TorusGrid(dim=dim, points_per_axis=points_per_axis)


def build_spectrum(dim: int, points_per_axis: int, max_mode: int) -> SpectralBasis:
    """Eigenbasis up to max_mode; requires points_per_axis > 2*max_mode.

    The strict inequality keeps every retained mode below the grid Nyquist
    frequency, so modes stay orthonormal under the grid quadrature, FFT
    derivatives of basis functions are exact, and no two modes share a
    half-spectrum cell.
    """
    grid = TorusGrid(dim=dim, points_per_axis=points_per_axis)
    if max_mode < 0:
        raise ValueError(f"max_mode must be >= 0, got {max_mode}")
    if grid.points_per_axis <= 2 * max_mode:
        raise ValueError(
            f"aliasing: points_per_axis={grid.points_per_axis} must exceed "
            f"2*max_mode={2 * max_mode}"
        )
    reps = _canonical_representatives(grid.dim, max_mode)
    n_pairs = reps.shape[0]
    n_modes = 1 + 2 * n_pairs

    eigs = np.empty(n_modes)
    eigs[0] = 0.0
    pair_eigs = np.sum(reps * reps, axis=1).astype(float)
    eigs[1::2] = pair_eigs
    eigs[2::2] = pair_eigs

    values = np.empty(n_modes, dtype=complex)
    norm = TWO_PI ** (-0.5 * grid.dim)
    values[0] = norm
    values[1::2] = np.sqrt(0.5) * norm
    values[2::2] = -1j * (np.sqrt(0.5) * norm)

    p = grid.points_per_axis
    last = reps[:, -1]
    flip = last < 0
    pair_ids = np.arange(1, n_pairs + 1)
    mirror = last == 0

    def cells(m):
        return np.ravel_multi_index(tuple((m % p).T), grid.half_shape)

    half_cells = np.concatenate(
        [[0], cells(np.where(flip[:, None], -reps, reps)), cells(-reps[mirror])]
    )
    half_sources = np.concatenate(
        [[0], pair_ids + n_pairs * flip, pair_ids[mirror] + n_pairs]
    )
    return SpectralBasis(
        grid=grid,
        frequencies=reps,
        eigenvalues=eigs,
        values=values,
        half_cells=half_cells.astype(np.intp),
        half_sources=half_sources.astype(np.intp),
    )


def quadrature(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Integrate over the torus: grid mean times volume (2pi)^d.

    `field` has shape (*grid.shape, ...); trailing axes pass through.
    Exact for trigonometric polynomials below the Nyquist frequency.
    """
    field = np.asarray(field)
    if field.shape[: grid.dim] != grid.shape:
        raise ValueError(
            f"field leading shape {field.shape[:grid.dim]} does not match "
            f"grid shape {grid.shape}"
        )
    axes = tuple(range(grid.dim))
    return field.mean(axis=axes) * (TWO_PI**grid.dim)


def spectral_derivative(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """Spectral partial derivatives: (*shape, ...) -> (dim, *shape, ...).

    Real FFT along each grid axis with multiplier i*k; the unmatched Nyquist
    frequency (even P) is zeroed, the standard choice that keeps derivatives
    of real fields real and exact below the cutoff.
    """
    field = np.asarray(field, dtype=float)
    if field.shape[: grid.dim] != grid.shape:
        raise ValueError(
            f"field leading shape {field.shape[:grid.dim]} does not match "
            f"grid shape {grid.shape}"
        )
    p = grid.points_per_axis
    freqs = np.fft.fftfreq(p, d=1.0 / p)  # integer wavenumbers
    if p % 2 == 0:
        freqs[p // 2] = 0.0
    out = np.empty((grid.dim,) + field.shape)
    for axis in range(grid.dim):
        spec = np.fft.fft(field, axis=axis)
        shape = [1] * field.ndim
        shape[axis] = p
        spec *= 1j * freqs.reshape(shape)
        out[axis] = np.real(np.fft.ifft(spec, axis=axis))
    return out
