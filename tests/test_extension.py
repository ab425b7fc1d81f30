"""Killing cocycle, torus fiber, and the lifted measure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from heatcurrents.extension import (
    EMBED_DIRECTION,
    EXTENSION_CENTRAL_STREAM,
    LatticeSpec,
    central_brownian_marginal,
    cocycle,
    cocycle_scalars,
    extended_bracket,
    haar_sample,
    leibniz_check,
    reduce_mod_lattice,
    sample_extension,
)
from heatcurrents.brownian import CovarianceSpec
from heatcurrents.lie import bracket_coeffs, build_basis, killing_pair
from heatcurrents.rng import substream
from heatcurrents.sde import SdeConfig, sample_field
from heatcurrents.torus import build_grid, build_spectrum, quadrature

LIE2 = build_basis(2)


def wrapped_normal_cdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    """CDF on [0, 1) of a normal(mean, var) wrapped around the unit circle.

    Reference law for the central Brownian marginal per lattice coordinate,
    summed over 64 wraps either side of the circle.
    """
    x = np.asarray(x, dtype=float)
    sd = np.sqrt(var)
    total = np.zeros_like(x)
    for j in range(-64, 65):
        total += norm.cdf(x + j, loc=mean, scale=sd) - norm.cdf(j, loc=mean, scale=sd)
    return total


def band_limited(grid, stream, m_max=5, scale=1.0):
    """Random real trig polynomial per algebra direction, modes <= m_max:
    a (*grid.shape, dim_g) coefficient field."""
    basis = build_spectrum(grid.dim, grid.points_per_axis, m_max)
    coef = scale * stream.normal(size=(basis.n_modes, LIE2.dim))
    return np.tensordot(basis.evaluate(grid.coordinates()), coef, axes=(0, 0))


def test_cocycle_coordinate_layout():
    # N = d * dim_g coordinates, (axis, direction) row-major; only the
    # embedding direction carries the per-axis scalar classes
    grid = build_grid(2, 16)
    stream = substream(33, 2)
    eta = band_limited(grid, stream, m_max=3)
    eta1 = band_limited(grid, stream, m_max=3)
    coords = cocycle(grid, LIE2, eta, eta1)
    assert coords.shape == (grid.dim * LIE2.dim,)
    comps = coords.reshape(grid.dim, LIE2.dim)
    scalars = cocycle_scalars(grid, LIE2, eta, eta1)
    assert np.all(np.abs(scalars) > 1e-3)
    assert np.array_equal(comps[:, EMBED_DIRECTION], scalars)
    others = np.delete(comps, EMBED_DIRECTION, axis=1)
    assert np.all(others == 0.0)


def test_leibniz_residual_small_for_band_limited():
    grid = build_grid(1, 64)
    stream = substream(33, 0)
    for _ in range(5):
        eta = band_limited(grid, stream, m_max=7)
        eta1 = band_limited(grid, stream, m_max=7)
        assert leibniz_check(grid, LIE2, eta, eta1) < 1e-10


def test_grid_shape_must_match():
    # a (16, 16, 3) field on the 1-D P=16 grid passes spectral_derivative's
    # leading-axis check, so only the full grid-shape check catches it; a
    # (16, 4) field has the grid right and the su(2) coefficient count wrong
    grid = build_grid(1, 16)
    good = band_limited(grid, substream(33, 1))
    for shape in ((8, 3), (16, 16, 3), (16, 4)):
        bad = np.zeros(shape)
        for fn in (cocycle, cocycle_scalars, leibniz_check):
            for args in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="grid shape"):
                    fn(grid, LIE2, *args)


def test_cocycle_constant_second_argument_vanishes():
    grid = build_grid(1, 32)
    eta = band_limited(grid, substream(34, 0))
    const = np.ones((32, 3)) * [0.2, -1.0, 0.5]
    assert np.linalg.norm(cocycle(grid, LIE2, eta, const)) < 1e-14


def test_cocycle_bilinear():
    grid = build_grid(1, 32)
    stream = substream(35, 0)
    eta, eta1, eta2 = (band_limited(grid, stream) for _ in range(3))
    lhs = cocycle(grid, LIE2, 2.0 * eta - 0.5 * eta2, eta1)
    rhs = 2.0 * cocycle(grid, LIE2, eta, eta1) - 0.5 * cocycle(grid, LIE2, eta2, eta1)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cocycle_antisymmetric():
    grid = build_grid(1, 64)
    stream = substream(36, 0)
    for _ in range(5):
        eta = band_limited(grid, stream, m_max=7)
        eta1 = band_limited(grid, stream, m_max=7)
        total = cocycle(grid, LIE2, eta, eta1) + cocycle(grid, LIE2, eta1, eta)
        assert np.max(np.abs(total)) < 1e-10


def test_circle_cocycle_value():
    # eta = cos(x) X, eta1 = sin(x) X on the circle: the class equals
    # kappa(X, X) * mean(cos^2) = kappa(X, X)/2, checked against quadrature
    grid = build_grid(1, 64)
    x = grid.coordinates()[:, 0]
    coef = np.array([0.3, -0.7, 0.4])
    eta = np.cos(x)[:, None] * coef
    eta1 = np.sin(x)[:, None] * coef

    kappa_xx = float(coef @ LIE2.killing @ coef)
    assert cocycle_scalars(grid, LIE2, eta, eta1)[0] == pytest.approx(
        0.5 * kappa_xx, abs=1e-12
    )

    # independent route: quadrature of the pairing over the circle / (2 pi)
    d_eta1 = np.cos(x)[:, None] * coef
    oracle = quadrature(grid, killing_pair(LIE2, eta, d_eta1)) / (2 * np.pi)
    got = cocycle(grid, LIE2, eta, eta1)
    assert got[EMBED_DIRECTION] == pytest.approx(oracle, abs=1e-12)
    assert got[1] == 0.0 and got[2] == 0.0


def test_reduce_mod_lattice():
    lat = LatticeSpec.identity(2)
    assert np.allclose(
        reduce_mod_lattice(np.array([1.25, -0.5]), lat), [0.25, 0.5]
    )
    # lattice vectors reduce to zero
    gen = np.array([[2.0, 1.0], [0.0, 1.0]])
    lat2 = LatticeSpec(generators=gen)
    for vec in (gen[:, 0], gen[:, 1], 3 * gen[:, 0] - 2 * gen[:, 1]):
        assert np.allclose(reduce_mod_lattice(vec, lat2), 0.0, atol=1e-12)
    # idempotence in lattice coordinates
    v = np.array([0.37, -1.12])
    once = reduce_mod_lattice(v, lat2)
    twice = reduce_mod_lattice(lat2.generators @ once, lat2)
    assert np.allclose(once, twice, atol=1e-12)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduce_mod_lattice_at_the_seam(data):
    # a few ulps either side of a lattice vector, where floor() and the
    # solve round-off decide between coordinate 0 and coordinate 1; the
    # vectors also go in as one stacked batch, row by row the same bits
    rank = data.draw(st.integers(1, 4), label="rank")
    tilt = data.draw(st.sampled_from([0.0, 0.3]), label="tilt")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n_rows = data.draw(st.integers(1, 3), label="rows")
    row = st.lists(st.integers(-5, 5), min_size=rank, max_size=rank)
    ints = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows), label="k")
    row = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    ulps = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows), label="ulps")
    gen = np.eye(rank) + tilt * np.random.default_rng(seed).uniform(-1, 1, (rank, rank))
    lattice = LatticeSpec(generators=gen)
    vs = np.array(
        [
            [_nudge(x, u) for x, u in zip(gen @ np.array(k, dtype=float), du)]
            for k, du in zip(ints, ulps)
        ]
    )
    batch = reduce_mod_lattice(vs, lattice)
    assert batch.shape == vs.shape
    for v, from_batch in zip(vs, batch):
        coords = reduce_mod_lattice(v, lattice)
        assert np.array_equal(from_batch, coords)
        assert np.all((coords >= 0.0) & (coords < 1.0))
        shift = np.linalg.solve(gen, gen @ coords - v)  # lattice coordinates of G c - v
        assert np.max(np.abs(shift - np.round(shift))) < 1e-9


def test_reduce_mod_lattice_homomorphism():
    lat = LatticeSpec(generators=np.array([[1.5, 0.25], [0.0, 0.75]]))
    stream = substream(37, 0)
    for _ in range(50):
        a = stream.normal(size=2) * 3
        b = stream.normal(size=2) * 3
        direct = reduce_mod_lattice(a + b, lat)
        stepwise = reduce_mod_lattice(
            lat.generators @ reduce_mod_lattice(a, lat)
            + lat.generators @ reduce_mod_lattice(b, lat),
            lat,
        )
        diff = np.abs(direct - stepwise)
        diff = np.minimum(diff, 1.0 - diff)  # classes may differ by a wrap
        assert np.max(diff) < 1e-12


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(generators=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LatticeSpec(generators=np.ones((2, 3)))
    with pytest.raises(ValueError):
        reduce_mod_lattice(np.zeros(3), LatticeSpec.identity(2))


def test_haar_sample_uniform():
    lat = LatticeSpec.identity(3)
    stream = substream(38, EXTENSION_CENTRAL_STREAM)
    draws = np.array([haar_sample(lat, stream) for _ in range(4000)])
    assert draws.shape == (4000, 3)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    for axis in range(3):
        assert kstest(draws[:, axis], "uniform").pvalue > 0.01
    assert abs(draws.mean() - 0.5) < 4.0 * draws.std() / np.sqrt(draws.size)


def test_haar_translation_invariant():
    # shifted Haar draws match fresh Haar draws in distribution
    from scipy.stats import ks_2samp

    lat = LatticeSpec.identity(1)
    s1 = substream(39, 1)
    s2 = substream(39, 2)
    a = np.array([haar_sample(lat, s1)[0] for _ in range(3000)])
    b = np.array([haar_sample(lat, s2)[0] for _ in range(3000)])
    shifted = (a + 0.37) % 1.0
    assert ks_2samp(shifted, b).pvalue > 0.01


def make_cfg(seed=0):
    spec = CovarianceSpec(k=2, basis=build_spectrum(1, 16, 3), lie=LIE2)
    return SdeConfig(spec=spec, n_steps=4, seed=seed)


def test_sample_extension_components():
    cfg = make_cfg(seed=12)
    lat = LatticeSpec.identity(6)
    fields, fibers = sample_extension(cfg, lat, first_stream=2)
    # field part reuses ensemble stream for the same index
    direct = sample_field(cfg, stream=substream(12, 2))
    assert np.array_equal(fields[0], direct.mats)
    assert fibers.shape == (1, 6)
    # central stream disjoint from field streams: changing the index moves
    # both parts, same index reproduces both
    _, again = sample_extension(cfg, lat, first_stream=2)
    assert np.array_equal(again, fibers)
    _, other = sample_extension(cfg, lat, first_stream=3)
    assert not np.array_equal(other, fibers)
    # a batch pairs field stream 2 + i with central stream 2^33 + 2 + i
    batch_fields, batch_fibers = sample_extension(cfg, lat, n_samples=2, first_stream=2)
    assert np.array_equal(batch_fields[0], fields[0])
    assert np.array_equal(batch_fibers, np.concatenate([fibers, other]))


def test_extended_bracket_structure():
    grid = build_grid(1, 64)
    stream = substream(40, 0)
    eta = band_limited(grid, stream, m_max=7)
    eta1 = band_limited(grid, stream, m_max=7)
    z = np.array([0.3])

    fld, cls = extended_bracket(grid, LIE2, (eta, z), (eta1, z))
    assert np.allclose(fld, bracket_coeffs(LIE2, eta, eta1))

    # alternating: [x, x] = 0 in both slots
    fld_xx, cls_xx = extended_bracket(grid, LIE2, (eta, z), (eta, z))
    assert np.max(np.abs(fld_xx)) < 1e-12
    assert np.linalg.norm(cls_xx) < 1e-11

    # central arguments never contribute
    zero = np.zeros_like(eta)
    fld_c, cls_c = extended_bracket(grid, LIE2, (zero, np.array([5.0])), (eta1, z))
    assert np.max(np.abs(fld_c)) == 0.0
    assert np.linalg.norm(cls_c) < 1e-14


def test_extended_jacobi():
    # cyclic sum of ([[x,y],z], omega([x,y],z)) vanishes in both components
    grid = build_grid(1, 64)
    stream = substream(41, 0)
    for _ in range(5):
        fields = [band_limited(grid, stream, m_max=5, scale=0.8) for _ in range(3)]
        field_resid = np.zeros_like(fields[0])
        central_resid = np.zeros(3)
        for i in range(3):
            x, y, z = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
            inner = bracket_coeffs(LIE2, x, y)
            field_resid += bracket_coeffs(LIE2, inner, z)
            central_resid += cocycle(grid, LIE2, inner, z)
        assert np.max(np.abs(field_resid)) < 1e-10
        assert np.max(np.abs(central_resid)) < 1e-9


def test_central_brownian_marginal_matches_wrapped_normal():
    lat = LatticeSpec.identity(2)
    draws = central_brownian_marginal(lat, 0.1, 8000, substream(42, 0))
    for axis in range(2):
        stat = kstest(
            draws[:, axis], lambda x: wrapped_normal_cdf(x, 0.0, 0.1)
        )
        assert stat.pvalue > 0.01


def test_central_brownian_mixes_to_haar():
    # KS distance to the uniform law decreases as t grows
    lat = LatticeSpec.identity(1)
    stats = []
    for slot, t in enumerate((0.1, 1.0, 10.0)):
        draws = central_brownian_marginal(lat, t, 4000, substream(43, slot))
        stats.append(kstest(draws[:, 0], "uniform").statistic)
    assert stats[0] > stats[1] > stats[2] or stats[2] < 0.02
    assert kstest(
        central_brownian_marginal(lat, 10.0, 4000, substream(43, 9))[:, 0], "uniform"
    ).pvalue > 0.01


def test_central_brownian_validation():
    lat = LatticeSpec.identity(1)
    with pytest.raises(ValueError):
        central_brownian_marginal(lat, 0.0, 10, substream(0, 0))


def test_wrapped_normal_cdf_endpoints():
    assert wrapped_normal_cdf(np.array([0.0]), 0.3, 0.2)[0] == pytest.approx(0.0, abs=1e-12)
    assert wrapped_normal_cdf(np.array([1.0]), 0.3, 0.2)[0] == pytest.approx(1.0, abs=1e-12)
    vals = wrapped_normal_cdf(np.linspace(0, 1, 11), 0.0, 0.05)
    assert np.all(np.diff(vals) > 0)
