"""Grid, eigenbasis normalization, quadrature exactness, and the spectral
derivative against finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcurrents.brownian import synthesize
from heatcurrents.torus import (
    TorusGrid,
    build_grid,
    build_spectrum,
    quadrature,
    spectral_derivative,
)

TWO_PI = 2.0 * np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(0, 8)
    with pytest.raises(ValueError):
        build_grid(4, 8)
    with pytest.raises(ValueError):
        build_grid(1, 12)  # not a power of two
    with pytest.raises(ValueError):
        build_grid(1, 2)


def test_grid_spacing_and_coordinates():
    g = build_grid(2, 8)
    assert g.n_points == 64
    assert g.spacing == pytest.approx(TWO_PI / 8)
    coords = g.coordinates()
    assert coords.shape == (8, 8, 2)
    assert coords[3, 5, 0] == pytest.approx(3 * g.spacing)
    assert coords[3, 5, 1] == pytest.approx(5 * g.spacing)


@pytest.mark.parametrize(
    "d,m,expected",
    [(1, 0, 1), (1, 3, 7), (2, 1, 9), (3, 1, 27), (1, 16, 33)],
)
def test_mode_count(d, m, expected):
    basis = build_spectrum(d, 64 if m > 15 else 32, m)
    assert basis.n_modes == expected


def test_eigenvalue_ladder_d1():
    basis = build_spectrum(1, 16, 3)
    assert list(basis.eigenvalues) == [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]


def test_aliasing_rejected():
    with pytest.raises(ValueError, match="aliasing"):
        build_spectrum(1, 64, 32)
    build_spectrum(1, 64, 31)  # strict inequality boundary


def test_quadrature_volume_and_orthonormality():
    basis = build_spectrum(1, 32, 5)
    grid = basis.grid
    values = basis.evaluate(grid.coordinates())
    assert quadrature(grid, np.ones(grid.shape)) == pytest.approx(TWO_PI)
    gram = np.array(
        [
            [quadrature(grid, values[i] * values[j]) for j in range(basis.n_modes)]
            for i in range(basis.n_modes)
        ]
    )
    assert np.max(np.abs(gram - np.eye(basis.n_modes))) < 1e-10


def test_quadrature_orthonormality_d2():
    basis = build_spectrum(2, 8, 1)
    grid = basis.grid
    values = basis.evaluate(grid.coordinates())
    for i in range(basis.n_modes):
        for j in range(basis.n_modes):
            val = quadrature(grid, values[i] * values[j])
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-10


def test_rayleigh_quotients_match_eigenvalues():
    # second spectral derivative oracle: -f'' / f integrates to lambda
    basis = build_spectrum(1, 32, 4)
    grid = basis.grid
    values = basis.evaluate(grid.coordinates())
    for i in range(basis.n_modes):
        f = values[i]
        d2 = spectral_derivative(grid, spectral_derivative(grid, f)[0])[0]
        lam = quadrature(grid, -d2 * f)  # modes are L2-normalized
        assert lam == pytest.approx(basis.eigenvalues[i], abs=1e-9)


def test_spectral_derivative_sin3x():
    grid = build_grid(1, 64)
    x = grid.axes()
    d = spectral_derivative(grid, np.sin(3 * x))[0]
    assert np.max(np.abs(d - 3 * np.cos(3 * x))) < 1e-12
    # central finite-difference oracle, O(h^2) agreement
    h = grid.spacing
    fd = (np.roll(np.sin(3 * x), -1) - np.roll(np.sin(3 * x), 1)) / (2 * h)
    assert np.max(np.abs(d - fd)) < 3**3 * h**2


def test_spectral_derivative_constant_and_linearity():
    grid = build_grid(1, 16)
    assert np.max(np.abs(spectral_derivative(grid, np.ones(16)))) == 0.0
    rng = np.random.default_rng(7)
    basis = build_spectrum(1, 16, 5)
    values = basis.evaluate(grid.coordinates())
    f = np.tensordot(rng.normal(size=basis.n_modes), values, axes=(0, 0))
    g = np.tensordot(rng.normal(size=basis.n_modes), values, axes=(0, 0))
    lhs = spectral_derivative(grid, f + g)
    rhs = spectral_derivative(grid, f) + spectral_derivative(grid, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mixed_partials_commute_d2():
    # d o d = 0 on scalars: antisymmetrized second derivative vanishes
    basis = build_spectrum(2, 16, 3)
    grid = basis.grid
    rng = np.random.default_rng(8)
    values = basis.evaluate(grid.coordinates())
    f = np.tensordot(rng.normal(size=basis.n_modes), values, axes=(0, 0))
    first = spectral_derivative(grid, f)
    dxy = spectral_derivative(grid, first[0])[1]
    dyx = spectral_derivative(grid, first[1])[0]
    assert np.max(np.abs(dxy - dyx)) < 1e-10


def test_parseval():
    basis = build_spectrum(1, 64, 10)
    grid = basis.grid
    rng = np.random.default_rng(9)
    c = rng.normal(size=basis.n_modes)
    f = np.tensordot(c, basis.evaluate(grid.coordinates()), axes=(0, 0))
    assert quadrature(grid, f * f) == pytest.approx(np.sum(c * c), abs=1e-8)


# Largest grid per dimension at which the evaluate() oracle table stays small.
_ORACLE_GRIDS = {1: (4, 8, 16, 32, 64), 2: (4, 8, 16, 32), 3: (4, 8)}


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_synthesize_matches_evaluate(d, data):
    p = data.draw(st.sampled_from(_ORACLE_GRIDS[d]), label="P")
    m = data.draw(st.integers(0, p // 2 - 1), label="M")
    batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    basis = build_spectrum(d, p, m)
    values = basis.evaluate(basis.grid.coordinates())  # (n_modes, *shape)
    # unit amplitudes: column j of the synthesis is basis function j
    unit = synthesize(basis, np.eye(basis.n_modes))
    assert np.max(np.abs(np.moveaxis(unit, -1, 0) - values)) < 1e-13
    amp = np.random.default_rng(seed).normal(size=(basis.n_modes,) + batch)
    got = synthesize(basis, amp)
    assert got.shape == basis.grid.shape + batch
    want = np.tensordot(values, amp, axes=(0, 0))
    assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.abs(amp).sum(axis=0).max())


def test_spectrum_keeps_no_table():
    basis = build_spectrum(2, 16, 5)
    # no array of the basis grows with the grid: one Fourier coefficient per mode
    arrays = [v for v in vars(basis).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < basis.grid.n_points
    assert basis.values.shape == (basis.n_modes,)
    # a unit amplitude of mode j synthesizes to twice the real part of
    # values[j] e^{i m.S}, which is basis function j
    pts = basis.grid.coordinates()
    m = np.concatenate([np.zeros((1, 2), int), np.repeat(basis.frequencies, 2, axis=0)])
    waves = np.exp(1j * np.tensordot(m.astype(float), pts, axes=(1, -1)))
    mult = np.where(np.arange(basis.n_modes) == 0, 1.0, 2.0)
    want = mult[:, None, None] * np.real(basis.values[:, None, None] * waves)
    assert np.max(np.abs(want - basis.evaluate(pts))) < 1e-13
    # one cell per mode pair, two for pairs with last component 0, plus m = 0
    n_pairs = basis.frequencies.shape[0]
    n_zero_last = int(np.sum(basis.frequencies[:, -1] == 0))
    assert basis.half_cells.shape == (1 + n_pairs + n_zero_last,)
    assert len(np.unique(basis.half_cells)) == basis.half_cells.size


def test_evaluate_rejects_wrong_dimension():
    basis = build_spectrum(2, 8, 1)
    with pytest.raises(ValueError):
        basis.evaluate(np.zeros((4, 3)))


def test_derivative_annihilates_nyquist():
    # even-P grids carry an unmatched cos(Px/2) mode; its derivative is set to 0
    grid = build_grid(1, 8)
    x = grid.axes()
    nyq = np.cos(4 * x)
    assert np.max(np.abs(spectral_derivative(grid, nyq)[0])) < 1e-12
