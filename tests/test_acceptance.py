"""Full-size verification gate.

Each test runs one headline property at its contract scale and tolerance
and prints a PASS/FAIL line (visible under `pytest -s`).  These are the
slow, definitive runs; the per-module tests cover the same machinery at
reduced sizes.
"""

import json
import time

import numpy as np
import pytest

from heatcurrents.brownian import covariance_kernel
from heatcurrents.cli import run_cli
from heatcurrents.diagnostics import (
    character_test,
    cocycle_suite,
    covariance_test,
    default_config,
    drift_report,
    haar_suite,
    regularity_probe,
    strong_convergence_test,
    weak_order_test,
)
from heatcurrents.sde import sample_ensemble, sample_field
from heatcurrents.storage import read_ensemble


def announce(label, report):
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} {label}: estimate={report.estimate:.6g} "
        f"target={report.target:.6g} stderr={report.stderr:.3g} "
        f"[{report.tolerance_rule}]"
    )
    return report.passed


def test_group_preservation():
    # d=1, P=64, k=2, M_max=16, SU(2), 1000 steps, under 10 seconds
    cfg = default_config(n_steps=1000)
    start = time.perf_counter()
    state = sample_field(cfg)
    elapsed = time.perf_counter() - start
    unit = state.unitarity_defect()
    det = state.det_defect()
    ok = unit <= 1e-10 and det <= 1e-10
    print(
        f"{'PASS' if ok else 'FAIL'} group preservation: "
        f"unitarity={unit:.3e} det={det:.3e} (<=1e-10), {elapsed:.2f}s"
    )
    assert announce("drift report", drift_report(state))
    assert ok
    assert elapsed < 10.0, f"1000-step run took {elapsed:.1f}s"


def test_heat_kernel_marginal():
    # N = 2e5 paths of 256 steps; closed-form target 2 exp(-(3/8) c)
    cfg = default_config(n_steps=256)
    start = time.perf_counter()
    report = character_test(cfg, n_samples=200_000)
    elapsed = time.perf_counter() - start
    assert announce("heat-kernel character", report)
    assert elapsed < 300.0, f"character run took {elapsed:.1f}s"


def test_covariance_match():
    # log-field covariance vs t*C_k(S,S') delta_ab at pairs where the
    # kernel is above 10% of its diagonal; 5% relative tolerance
    cfg = default_config(n_steps=32, t_end=0.05)
    h = cfg.spec.basis.grid.spacing
    c0 = covariance_kernel(cfg.spec, np.zeros(1), np.zeros(1))
    pairs = []
    for sep in (0, 2, 4, 8, 12):
        s, sp = np.array([0.0]), np.array([sep * h])
        if abs(covariance_kernel(cfg.spec, s, sp)) > 0.1 * c0:
            pairs.append((s, sp))
    assert len(pairs) >= 3
    reports = covariance_test(cfg, pairs, n_samples=100_000)
    ok = all(announce(r.name, r) for r in reports)
    assert ok


def test_weak_order():
    cfg = default_config(n_steps=64)
    report = weak_order_test(cfg, n_levels=4, n_samples=1_000_000)
    assert announce("weak order slope", report)
    assert 0.7 <= report.estimate <= 1.3


def test_strong_self_convergence():
    cfg = default_config(n_steps=1024)
    report = strong_convergence_test(cfg, n_samples=4096)
    assert announce("strong rate exponent", report)
    assert 0.4 <= report.estimate <= 0.6


def test_cocycle_suite():
    reports = cocycle_suite(seed=0, n_triples=100)
    by_name = {r.name: r for r in reports}
    assert announce("Leibniz residual", by_name["cocycle_leibniz"])
    assert announce("antisymmetry residual", by_name["cocycle_antisymmetry"])
    assert announce("cyclic identity (100 triples)", by_name["cocycle_cyclic"])
    assert announce("circle closed form", by_name["cocycle_circle_value"])


def test_haar_extension_suite():
    reports = haar_suite(seed=0, n_samples=10_000)
    by_name = {r.name: r for r in reports}
    assert announce("Haar KS min p-value", by_name["haar_ks_min_pvalue"])
    assert announce("field/fiber correlation", by_name["extension_independence"])
    assert announce("extended Jacobi (field)", by_name["extended_jacobi_field"])
    assert announce("extended Jacobi (central)", by_name["extended_jacobi_central"])


def test_regularity_probe():
    reports = regularity_probe(k_values=(2, 0), grid_ladder=(16, 32, 64, 128), n_samples=4096)
    ok = all(announce(r.name, r) for r in reports)
    assert ok


def test_reproducibility(tmp_path, capsys):
    # byte-identical manifests, payloads and verify reports across reruns
    argv = ["ensemble", "--grid", "16", "--modes", "3", "--steps", "8",
            "--samples", "4", "--seed", "11"]
    assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(argv + ["--out", str(tmp_path / "b")]) == 0
    payload_same = (
        (tmp_path / "a.f64le").read_bytes() == (tmp_path / "b.f64le").read_bytes()
    )
    manifest_same = (
        (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    )

    cfg = default_config(p=16, m_max=3, n_steps=8, seed=11)
    direct = sample_ensemble(cfg, 4)
    _, loaded = read_ensemble(tmp_path / "a")
    library_same = np.array_equal(direct, loaded)

    assert run_cli(["verify", "--check", "drift", "--out", str(tmp_path / "r1.json")]) == 0
    assert run_cli(["verify", "--check", "drift", "--out", str(tmp_path / "r2.json")]) == 0
    capsys.readouterr()
    reports_same = (
        (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    )
    json.loads((tmp_path / "r1.json").read_text())

    ok = payload_same and manifest_same and library_same and reports_same
    print(
        f"{'PASS' if ok else 'FAIL'} reproducibility: payload={payload_same} "
        f"manifest={manifest_same} library={library_same} reports={reports_same}"
    )
    assert ok
