"""Geodesic Euler integrator: invariants, determinism, dual-route agreement."""

import math

import numpy as np
import pytest

from heatcurrents import diagnostics, sde
from heatcurrents.brownian import CovarianceSpec, covariance_kernel, pointwise_variance
from heatcurrents.diagnostics import default_config, strong_convergence_test, weak_order_test
from heatcurrents.lie import build_basis, exp_batch, multiply
from heatcurrents.rng import substream
from heatcurrents.sde import (
    FieldState,
    SdeConfig,
    flow,
    identity,
    sample_ensemble,
    sample_field,
    sample_marginal,
    step,
)
from heatcurrents.torus import build_grid, build_spectrum

LIE2 = build_basis(2)


def make_cfg(k=2, p=16, m=3, d=1, n_steps=8, t_end=1.0, seed=0, n=2):
    spec = CovarianceSpec(k=k, basis=build_spectrum(d, p, m), lie=build_basis(n))
    return SdeConfig(spec=spec, n_steps=n_steps, t_end=t_end, seed=seed)


def test_initial_state_is_identity():
    # the identity start of every flow, as a field state
    state = FieldState(grid=build_grid(1, 16), mats=identity((16,), 2))
    assert np.array_equal(state.mats, np.broadcast_to(np.eye(2), (16, 2, 2)))
    assert state.unitarity_defect() == 0.0
    assert state.det_defect() == 0.0


def test_config_validation():
    spec = CovarianceSpec(k=2, basis=build_spectrum(1, 16, 3), lie=LIE2)
    for bad_steps in (0, -4):
        with pytest.raises(ValueError):
            SdeConfig(spec=spec, n_steps=bad_steps)
    for bad_t in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            SdeConfig(spec=spec, n_steps=8, t_end=bad_t)
    assert SdeConfig(spec=spec, n_steps=10).dt == pytest.approx(0.1)


def test_step_zero_increment():
    grid = build_grid(1, 16)
    state = FieldState(grid=grid, mats=identity(grid.shape, 2))
    out = step(LIE2, state, np.zeros((16, 3)))
    assert np.array_equal(out.mats, state.mats)


def test_step_shape_mismatch():
    state = FieldState(grid=build_grid(1, 16), mats=identity((16,), 2))
    with pytest.raises(ValueError, match="shape"):
        step(LIE2, state, np.zeros((8, 3)))


def test_field_state_validation():
    grid = build_grid(1, 16)
    with pytest.raises(ValueError):
        FieldState(grid=grid, mats=np.zeros((8, 2, 2), dtype=complex))


def test_group_invariants_along_path():
    cfg = make_cfg(n_steps=64)
    state = sample_field(cfg)
    assert state.unitarity_defect() < 1e-12
    assert state.det_defect() < 1e-12


def test_sample_field_deterministic():
    cfg = make_cfg(seed=9)
    a = sample_field(cfg)
    b = sample_field(cfg)
    assert np.array_equal(a.mats, b.mats)


def test_constant_mode_only_is_spatially_constant():
    # M = 0 keeps just the flat mode, so the field never varies in S
    cfg = make_cfg(m=0, n_steps=4)
    state = sample_field(cfg)
    assert np.max(np.abs(state.mats - state.mats[:1])) == 0.0


def test_nonfinite_abort(monkeypatch):
    cfg = make_cfg(n_steps=4)

    def poisoned(spec, dt, streams):
        coeffs = np.zeros((16, len(streams), 3))
        coeffs[0, 0] = np.nan
        return coeffs

    monkeypatch.setattr(sde, "sample_increment", poisoned)
    with pytest.raises(FloatingPointError, match="step 1/4"):
        sample_field(cfg)


def test_left_invariance():
    cfg = make_cfg(n_steps=16, seed=4)
    base = sample_field(cfg, stream=substream(4, 0))
    rng = np.random.default_rng(7)
    a = exp_batch(LIE2, rng.normal(size=3))
    shifted = sde._flow_field(cfg, [substream(4, 0)], np.broadcast_to(a, (16, 1, 2, 2)))
    assert np.max(np.abs(shifted[:, 0] - a @ base.mats)) < 1e-12


def test_ensemble_matches_single_stream():
    cfg = make_cfg(seed=5)
    mats = sample_ensemble(cfg, n_samples=3)
    assert mats.shape[0] == 3
    for i in (0, 2):
        direct = sample_field(cfg, stream=substream(5, i))
        assert np.array_equal(mats[i], direct.mats)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d,p", [(1, 16), (2, 8)])
def test_ensemble_bytes_independent_of_blocks(monkeypatch, n, d, p):
    cfg = make_cfg(p=p, d=d, n_steps=4, seed=12, n=n)
    firsts = (0, 5)
    one_block = {s: sample_ensemble(cfg, 7, first_stream=s).tobytes() for s in firsts}
    # CHUNK of 2 fields gives blocks of 2, 2, 2, 1 samples
    monkeypatch.setattr(sde, "CHUNK", 2 * p**d)
    for s in firsts:
        mats = sample_ensemble(cfg, 7, first_stream=s)
        assert mats.tobytes() == one_block[s]
        for i in range(7):
            direct = sample_field(cfg, stream=substream(12, s + i))
            assert mats[i].tobytes() == direct.mats.tobytes()


def test_ensemble_rejects_bad_counts():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        sample_ensemble(cfg, n_samples=0)


def test_drift_small_after_many_steps():
    cfg = make_cfg(p=16, m=3, n_steps=200)
    state = sample_field(cfg)
    assert state.unitarity_defect() < 1e-11
    assert state.det_defect() < 1e-11


def test_su3_drift_small_after_1000_steps():
    # the closed-form SU(3) exponential keeps a long flow on the group
    state = sample_field(make_cfg(p=16, m=3, n_steps=1000, n=3))
    assert state.unitarity_defect() <= 1e-10
    assert state.det_defect() <= 1e-10


def phi(n, v):
    """E Re tr exp(X) / n for X in su(n) with i.i.d. N(0, v) coefficients:
    L^(1)_{n-1}(v/2) / n * exp(-(n-1) v / (4n)), the GUE Fourier transform.
    n = 3 gives (v^2/8 - 3v/2 + 3)/3 e^{-v/6}; n = 4 gives
    (4 - 6x + 2x^2 - x^3/6)/4 e^{-3v/16} with x = v/2."""
    x = v / 2.0
    laguerre = sum(
        (-1) ** i * math.comb(n, n - 1 - i) * x**i / math.factorial(i) for i in range(n)
    )
    return laguerre / n * np.exp(-(n - 1) * v / (4.0 * n))


@pytest.mark.parametrize(
    "n, seed",
    [
        pytest.param(3, 2027, id="2027"),
        pytest.param(3, 2028, id="2028"),
        pytest.param(4, 2027, id="su4-2027"),
        pytest.param(4, 2028, id="su4-2028"),
    ],
)
def test_su3_marginal_matches_exact_finite_step_law(n, seed):
    # N i.i.d. Ad-invariant steps of per-direction variance v = C(0,0) dt
    # give E g_N = phi_n(v)^N I exactly, not only as N grows; at N = 2 the
    # continuum value exp(-(n^2 - 1) C(0,0) t / (4n)) lies many standard
    # errors away.  n = 3 runs the closed-form exponential, n = 4 the eigh one
    cfg = default_config(n=n, n_steps=2, seed=seed)
    origin = np.zeros((1, 1))
    mats = sample_marginal(cfg, origin, 200_000, stream=substream(seed, 0))
    vals = np.real(np.trace(mats[:, 0], axis1=-2, axis2=-1)) / n
    c = covariance_kernel(cfg.spec, origin[0], origin[0])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    exact = phi(n, c * cfg.dt) ** cfg.n_steps
    continuum = np.exp(-(n * n - 1) * c * cfg.t_end / (4.0 * n))
    assert abs(vals.mean() - exact) <= 4.0 * se
    assert abs(vals.mean() - continuum) > 8.0 * se


def test_marginal_matches_full_grid_moments():
    # two routes to E[Re tr g_t(S0)]: pointwise restriction vs full field
    cfg = make_cfg(p=16, m=4, n_steps=16, seed=8)
    point = np.array([cfg.spec.basis.grid.coordinates()[3]])

    n_marg = 20_000
    mats = sample_marginal(cfg, point, n_marg, stream=substream(8, 100))
    tr_marg = np.real(np.trace(mats[:, 0], axis1=-2, axis2=-1))

    n_full = 2000
    mats_full = sample_ensemble(cfg, n_samples=n_full)
    tr_full = np.real(np.trace(mats_full[:, 3], axis1=-2, axis2=-1))

    se = np.sqrt(
        tr_marg.var(ddof=1) / n_marg + tr_full.var(ddof=1) / n_full
    )
    assert abs(tr_marg.mean() - tr_full.mean()) <= 4.0 * se


def test_marginal_variance_short_time():
    # over one tiny step the trace fluctuation tracks the kernel variance:
    # Re tr g = 2 cos(|dB|/2) so E[2 - Re tr g] ~ E|dB|^2/4 = 3*c*dt/4
    cfg = make_cfg(p=64, m=16, n_steps=1, t_end=0.001)
    point = np.zeros((1, 1))
    mats = sample_marginal(cfg, point, 50_000, stream=substream(2, 0))
    gap = 2.0 - np.real(np.trace(mats[:, 0], axis1=-2, axis2=-1))
    c = pointwise_variance(cfg.spec)
    target = 0.75 * c * cfg.dt
    se = gap.std(ddof=1) / np.sqrt(len(gap))
    assert abs(gap.mean() - target) <= max(4.0 * se, 0.02 * target)


def test_marginal_rejects_bad_points():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        sample_marginal(cfg, np.zeros((1, 2)), 10, stream=substream(0, 0))
    with pytest.raises(ValueError):
        sample_marginal(cfg, np.zeros((1, 1)), 0, stream=substream(0, 0))


class PoisonedStream:
    """Small normal draws, with one NaN planted in the `poison_call`-th draw."""

    def __init__(self, poison_call, index=0):
        self.rng = np.random.default_rng(0)
        self.poison_call = poison_call
        self.index = index
        self.calls = 0

    def normal(self, size):
        self.calls += 1
        x = 0.1 * self.rng.normal(size=size)
        if self.calls == self.poison_call:
            x.flat[self.index] = np.nan
        return x


def test_flow_rejects_mismatched_increment():
    g0 = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
    with pytest.raises(ValueError, match="step 1/2"):
        flow(LIE2, g0, 2, lambda i: np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        flow(LIE2, g0, 2, lambda i: np.zeros((4, 1, 3)))


@pytest.mark.parametrize("n", [2, 3])
def test_flow_zero_increments_leave_g_unchanged(n):
    lie = build_basis(n)
    g0 = exp_batch(lie, np.random.default_rng(3).normal(size=(5, 7, lie.dim)))
    g = flow(lie, g0, 4, lambda i: np.zeros((5, 7, lie.dim)))
    assert g.tobytes() == g0.tobytes()


def test_flow_matches_stepwise_products():
    rng = np.random.default_rng(4)
    incr = rng.normal(size=(3, 6, 3))
    g0 = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2))
    want, matmul = g0, g0
    for i in range(3):
        want = multiply(LIE2, want, exp_batch(LIE2, incr[i]))
        matmul = matmul @ exp_batch(LIE2, incr[i])
    got = flow(LIE2, g0, 3, lambda i: incr[i])
    assert np.array_equal(got, want)
    # the quaternion product rounds differently from the complex matmul
    assert np.abs(got - matmul).max() < 1e-14


def test_nan_increment_aborts_marginal():
    cfg = make_cfg(n_steps=4)
    with pytest.raises(FloatingPointError, match="step 3/4"):
        sample_marginal(cfg, np.zeros((2, 1)), 10, stream=PoisonedStream(3))


@pytest.mark.parametrize("test", [weak_order_test, strong_convergence_test])
def test_nan_increment_aborts_ladder(monkeypatch, test):
    # one fine draw (8 steps) per sample; the NaN sits in fine step 5 of
    # sample 0, which the coarsest level (2 steps of 4) meets at step 2
    cfg = make_cfg()
    stream = PoisonedStream(1, index=5 * 3)
    monkeypatch.setattr(diagnostics, "diagnostic_stream", lambda seed, slot: stream)
    with pytest.raises(FloatingPointError, match="step 2/2"):
        test(cfg, n_levels=3, n_samples=10)
