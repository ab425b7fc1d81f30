"""Full-size verification gate.

Every named `verify` check runs at seed 0 and its acceptance size, through
the same `run_check` call as `heatcurrents verify`, and prints a PASS/FAIL
line per report (visible under `pytest -s`).  A few checks carry bounds
beyond their reports' own rules: a wall-time limit, or a band on the
fitted estimate.  These are the slow, definitive runs; the per-module tests
cover the same machinery at reduced sizes.
"""

import json
import time

import numpy as np
import pytest

from heatcurrents.cli import run_cli
from heatcurrents.diagnostics import CHECK_NAMES, default_config, run_check
from heatcurrents.sde import sample_ensemble
from heatcurrents.storage import read_ensemble

# seconds a whole check may take
TIME_LIMIT = {"drift": 10.0, "character": 300.0}

# band on the single report's estimate, tighter than its own rule
ESTIMATE_BAND = {"weak_order": (0.7, 1.3), "strong_order": (0.4, 0.6)}


@pytest.mark.parametrize("name", sorted(CHECK_NAMES))
def test_check_at_acceptance_size(name):
    start = time.perf_counter()
    reports = run_check(name)
    elapsed = time.perf_counter() - start
    for r in reports:
        print(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: estimate={r.estimate:.6g} "
            f"target={r.target:.6g} stderr={r.stderr:.3g} [{r.tolerance_rule}]"
        )
    print(f"{name}: {len(reports)} reports in {elapsed:.2f}s")
    assert all(r.passed for r in reports)
    if name in TIME_LIMIT:
        assert elapsed < TIME_LIMIT[name], f"{name} took {elapsed:.1f}s"
    if name in ESTIMATE_BAND:
        (report,) = reports
        lo, hi = ESTIMATE_BAND[name]
        assert lo <= report.estimate <= hi


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
