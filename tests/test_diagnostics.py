"""Report plumbing plus reduced-size runs of each statistical check."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, kstwo

from heatcurrents import diagnostics
from heatcurrents.brownian import CovarianceSpec, covariance_kernel, pointwise_variance
from heatcurrents.diagnostics import (
    REGULARITY_STRIDE,
    character_target,
    character_test,
    covariance_test,
    default_config,
    drift_report,
    fd_variance_target,
    ks_uniform,
    make_report,
    one_sided_report,
    random_band_limited,
    regularity_probe,
    regularity_stream_ids,
    reports_to_json,
    run_check,
    strong_convergence_test,
    weak_order_test,
)
from heatcurrents.extension import EXTENSION_CENTRAL_STREAM, extended_bracket
from heatcurrents.lie import build_basis
from heatcurrents.rng import DIAGNOSTIC_STREAM_BASE, diagnostic_stream
from heatcurrents.sde import FieldState, identity, sample_field
from heatcurrents.torus import build_spectrum


def test_make_report_band():
    # exactly at the 4 sigma edge passes, just beyond fails
    assert make_report("x", 1.4, 1.0, 0.1, 10).passed
    assert not make_report("x", 1.41, 1.0, 0.1, 10).passed
    # atol floor takes over when the stderr is tiny
    assert make_report("x", 1.05, 1.0, 1e-6, 10, atol=0.1).passed
    assert not make_report("x", 1.2, 1.0, 1e-6, 10, atol=0.1).passed


def test_one_sided_report():
    assert one_sided_report("x", 2.0, 1.5, 0.0, 10, "min").passed
    assert not one_sided_report("x", 1.0, 1.5, 0.0, 10, "min").passed
    assert one_sided_report("x", 0.005, 0.01, 0.0, 10, "max").passed
    assert not one_sided_report("x", 0.02, 0.01, 0.0, 10, "max").passed


def test_reports_to_json_shape():
    r = make_report("demo", 1.0, 1.0, 0.1, 42)
    blob = reports_to_json([r])
    assert blob == reports_to_json([r])
    assert blob.endswith(b"\n")
    # finite reports keep the bytes of a plain json.dumps
    assert blob == (json.dumps([r.to_dict()], indent=2, sort_keys=True) + "\n").encode()
    doc = json.loads(blob)
    assert doc[0]["name"] == "demo"
    assert doc[0]["pass"] is True
    assert doc[0]["n_samples"] == 42


def test_character_target_properties():
    assert character_target(0.5, 0.0) == pytest.approx(2.0)
    ts = np.linspace(0.0, 1.0, 9)
    vals = [character_target(0.34, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_character_test_small_run():
    cfg = default_config(n_steps=64, seed=1)
    report = character_test(cfg, n_samples=20_000)
    assert report.passed, f"estimate {report.estimate} vs {report.target}"
    assert report.name == "character"
    assert report.n_samples == 20_000


def test_character_test_surfaces_covariance_change():
    # fewer modes shrink c, so the target moves; both runs must still pass
    lo = character_test(default_config(m_max=0, n_steps=64, seed=2), n_samples=20_000)
    hi = character_test(default_config(m_max=16, n_steps=64, seed=2), n_samples=20_000)
    assert lo.target > hi.target
    assert lo.passed and hi.passed


def test_character_test_requires_su2():
    cfg = default_config(n=3, n_steps=8)
    with pytest.raises(ValueError, match="SU\\(2\\)"):
        character_test(cfg, n_samples=10)


def test_antipodal_kernel_value():
    # k=1, M=2: C(0, pi) = (1 - 2/2 + 2/5) / (2 pi), sign from cos(m pi)
    spec = CovarianceSpec(k=1, basis=build_spectrum(1, 8, 2), lie=build_basis(2))
    val = covariance_kernel(spec, np.array([0.0]), np.array([np.pi]))
    assert val == pytest.approx(0.4 / (2 * np.pi), abs=1e-14)


def test_covariance_test_small_run():
    cfg = default_config(n_steps=32, t_end=0.05, seed=3)
    h = cfg.spec.basis.grid.spacing
    pairs = [(np.array([0.0]), np.array([0.0])), (np.array([0.0]), np.array([8 * h]))]
    reports = covariance_test(cfg, pairs, n_samples=20_000)
    names = [r.name for r in reports]
    assert names[0] == "covariance_log_failure_rate"
    assert len(reports) == 1 + 2 * len(pairs)
    for r in reports:
        assert r.passed, f"{r.name}: {r.estimate} vs {r.target}"


def test_weak_order_validation():
    cfg = default_config(n_steps=64)
    with pytest.raises(ValueError, match="3 ladder levels"):
        weak_order_test(cfg, n_levels=2, n_samples=10)
    with pytest.raises(ValueError, match="divisible by 2\\^3"):
        weak_order_test(default_config(n_steps=12), n_levels=4, n_samples=10)
    with pytest.raises(ValueError, match="SU\\(2\\)"):
        weak_order_test(default_config(n=3, n_steps=64), n_samples=10)


def test_weak_order_small_run():
    cfg = default_config(n_steps=64, seed=4)
    report = weak_order_test(cfg, n_samples=200_000)
    assert report.name == "weak_order"
    assert report.passed, f"slope {report.estimate} +- {report.stderr}"
    assert 0.7 <= report.estimate <= 1.3


def test_weak_order_inconclusive_at_tiny_n():
    # with almost no samples the level differences drown in noise; the
    # report must say so rather than fit a slope through noise
    cfg = default_config(n_steps=64, seed=5)
    report = weak_order_test(cfg, n_samples=200)
    if not report.passed and np.isnan(report.estimate):
        assert "inconclusive" in report.tolerance_rule
    else:  # tiny chance the noise lines up; the pass band still applies
        assert report.passed


def test_strong_order_small_run():
    cfg = default_config(n_steps=512, seed=6)
    report = strong_convergence_test(cfg, n_levels=4, n_samples=1024)
    assert report.passed, f"exponent {report.estimate} +- {report.stderr}"
    assert 0.4 <= report.estimate <= 0.6


def test_ladder_independent_of_chunking(monkeypatch):
    # 37 samples in one chunk, then in chunks of 5 with a short last one
    cfg = default_config(n_steps=16, seed=8)

    def run():
        return diagnostics._ladder(
            cfg, 3, 37, diagnostic_stream(8, 3), lambda c, f: np.abs(c - f).sum(axis=(-2, -1))
        )

    whole = run()
    monkeypatch.setattr(diagnostics, "_LADDER_BUDGET", 5 * cfg.n_steps)
    chunked = run()
    assert whole.shape == (2, 37)
    assert np.array_equal(whole, chunked)


def test_strong_order_memory_bounded_in_samples(monkeypatch):
    # chunks of 1024 samples: the traced peak follows the chunk, not
    # n_samples (all samples in one draw peaked 6.8x higher at 8192)
    monkeypatch.setattr(diagnostics, "_LADDER_BUDGET", 1024 * 64)
    cfg = default_config(n_steps=64, seed=9)

    def peak(n_samples):
        tracemalloc.start()
        try:
            strong_convergence_test(cfg, n_levels=3, n_samples=n_samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # first-call allocations out of the way
    small, large = peak(1024), peak(8192)
    assert large <= 1.5 * small, (small, large)


def test_fd_variance_target_oracle():
    # brute force: tabulate the forward difference of every mode function
    lie = build_basis(2)
    for k, r in ((2, 1), (1, 2), (2, 0)):
        spec = CovarianceSpec(k=k, basis=build_spectrum(1, 32, 8), lie=lie)
        grid = spec.basis.grid
        t = 0.37
        vals = spec.basis.evaluate(grid.coordinates())  # (modes, P)
        fd = vals.copy()
        for _ in range(r):
            fd = (np.roll(fd, -1, axis=1) - fd) / grid.spacing
        oracle = t * np.sum(spec.weights[:, None] * fd**2, axis=0).mean()
        assert fd_variance_target(spec, t, r) == pytest.approx(oracle, rel=1e-12)


def test_fd_variance_target_rejects_higher_dim():
    spec = CovarianceSpec(k=2, basis=build_spectrum(2, 8, 2), lie=build_basis(2))
    with pytest.raises(ValueError):
        fd_variance_target(spec, 1.0, 1)


def test_regularity_probe_small_run():
    # final ratio compares the last two levels; the smooth plateau needs
    # the mode tail beyond P=64 to be negligible, hence the 128 endpoint
    reports = regularity_probe(
        k_values=(2,), grid_ladder=(32, 64, 128), n_samples=512, seed=7
    )
    assert len(reports) == 4  # three levels and one ratio
    for r in reports:
        assert r.passed, f"{r.name}: {r.estimate} vs {r.target}"
    ratio = reports[-1]
    assert ratio.name == "regularity_ratio_k2"
    assert abs(ratio.estimate - 1.0) < 0.1 + 4 * ratio.stderr


def test_regularity_probe_rough_control_diverges():
    reports = regularity_probe(
        k_values=(0,), grid_ladder=(16, 32, 64), n_samples=512, seed=8
    )
    ratio = reports[-1]
    assert ratio.name == "regularity_ratio_k0"
    assert ratio.passed
    assert ratio.estimate >= 1.5


def test_regularity_stream_ids_disjoint():
    # the acceptance probe has 8 levels; the fixed diagnostic slots are 0-3
    # and 32-33, 16-17 are retired, central draws start at
    # EXTENSION_CENTRAL_STREAM
    reserved = [range(DIAGNOSTIC_STREAM_BASE + lo, DIAGNOSTIC_STREAM_BASE + hi + 1)
                for lo, hi in ((0, 3), (16, 17), (32, 33))]
    reserved.append(range(EXTENSION_CENTRAL_STREAM, EXTENSION_CENTRAL_STREAM + 2**32))
    for n in (1, 4096, REGULARITY_STRIDE):
        levels = [regularity_stream_ids(j, n) for j in range(8)]
        assert all(len(ids) == n for ids in levels)
        spans = sorted((r.start, r.stop) for r in levels + reserved)
        assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))
    with pytest.raises(ValueError, match="stream-id ranges"):
        regularity_stream_ids(0, REGULARITY_STRIDE + 1)
    last = (EXTENSION_CENTRAL_STREAM - DIAGNOSTIC_STREAM_BASE) // REGULARITY_STRIDE - 2
    assert regularity_stream_ids(last, REGULARITY_STRIDE).stop == EXTENSION_CENTRAL_STREAM
    with pytest.raises(ValueError):
        regularity_stream_ids(last + 1, 1)


def test_drift_report():
    grid = build_spectrum(1, 16, 3).grid
    state = FieldState(grid=grid, mats=identity(grid.shape, 2))
    assert drift_report(state).passed
    bad = state.mats.copy()
    bad[0] *= 1.1  # off the unitary manifold
    report = drift_report(FieldState(grid=state.grid, mats=bad))
    assert not report.passed
    assert report.estimate > 1e-2


def test_drift_after_long_run():
    cfg = default_config(p=16, m_max=3, n_steps=500, seed=9)
    state = sample_field(cfg)
    assert drift_report(state).passed


def test_jacobi_residuals_match_extended_bracket():
    # the shared triple loop equals the cyclic sum of nested extended
    # brackets, both components bit for bit, and draws exactly 3 fields
    # per triple from its stream
    lie = build_basis(2)
    basis = build_spectrum(1, 64, 10)
    grid = basis.grid
    zero = np.zeros(grid.dim * lie.dim)
    ref = diagnostic_stream(5, 33)
    field_ref = central_ref = 0.0
    for _ in range(3):
        e0, e1, e2 = ((random_band_limited(basis, lie, ref), zero) for _ in range(3))
        terms = [
            extended_bracket(grid, lie, extended_bracket(grid, lie, x, y), z)
            for x, y, z in ((e0, e1, e2), (e1, e2, e0), (e2, e0, e1))
        ]
        f_total = terms[0][0] + terms[1][0] + terms[2][0]
        c_total = terms[0][1] + terms[1][1] + terms[2][1]
        field_ref = max(field_ref, float(np.max(np.abs(f_total))))
        central_ref = max(central_ref, float(np.max(np.abs(c_total))))

    stream = diagnostic_stream(5, 33)
    assert diagnostics._jacobi_residuals(lie, stream, 3) == (field_ref, central_ref)
    assert 0.0 < central_ref < 1e-9
    assert np.array_equal(stream.normal(size=4), ref.normal(size=4))


@pytest.mark.parametrize("n", [2, 50, 10_000])
def test_ks_uniform_statistic_matches_scipy(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.random(n)
        assert ks_uniform(x)[0] == kstest(x, "uniform").statistic


@pytest.mark.parametrize("n", [1000, 10_000])
def test_ks_uniform_pvalue_matches_kolmogorov_law(n):
    # tolerance against the exact finite-n law: absolute 5e-3 everywhere,
    # relative 3% where the exact p lies in (1e-4, 0.05).  The sample
    # s * (i - 1/2) / n has D = 1 - s * (1 - 1/(2n)), so D runs from 1/(2n)
    # (s = 1) to where the exact p is 1e-4.  The first point is the evenly
    # spaced sample: exact p = 1, where the alternating series alone gives
    # p = 0.397 at n = 10 000.
    i = np.arange(1, n + 1)
    d_targets = np.linspace(1 / (2 * n), kstwo.isf(1e-4, n), 400)
    for d_target in d_targets:
        s = (1 - d_target) / (1 - 1 / (2 * n))
        d, p = ks_uniform(s * (i - 0.5) / n)
        exact = kstwo.sf(d, n)
        assert abs(p - exact) <= 5e-3, (d, p, exact)
        if 1e-4 < exact < 0.05:
            assert abs(p - exact) <= 0.03 * exact, (d, p, exact)


def test_run_check_unknown_name():
    with pytest.raises(KeyError, match="unknown check"):
        run_check("nonsense")


def test_run_check_drift():
    reports = run_check("drift", seed=10)
    assert len(reports) == 1
    assert reports[0].name == "drift"
    assert reports[0].passed
