"""Smoke test of the benchmark itself, every workload at toy size.

    python3 -m pytest bench/test_smoke.py -q

Runs the same code as `run.py`, checks that each result carries every
metric of BENCHMARK.json with its unit, that a corrupted payload counts as
a failed iteration, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from spans import TARGETS, Recorder, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _toy(name: str, trace: bool, tamper=None) -> tuple:
    return harness.run_workload(
        name, seed=3, seconds=0.0, trace=trace, root=ROOT, blas_threads=1, toy=True, tamper=tamper
    )


def test_spec_lists_the_harness_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_toy_run_reports_every_metric(name, trace):
    detail, line, _ = _toy(name, trace)
    assert line["correct"] is True, detail["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if trace:
        assert detail["absent_targets"] == [] and detail["absent_metrics"] == []
        # The layers' self times account for the traced iteration time,
        # apart from the harness's own few microseconds per iteration.
        assert line["metrics"]["trace.self_cover_share"]["value"] > 0.9
    else:
        assert all(line["metrics"][k]["value"] > 0 for k in harness.END_TO_END)


def _flip_first_payload_byte(stem: str) -> None:
    path = Path(stem + ".f64le")
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", ["field_d2", "ensemble_d1"])
def test_corrupted_payload_counts_as_failed(name):
    detail, line, _ = _toy(name, False, tamper=_flip_first_payload_byte)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert "ChecksumMismatchError" in detail["failures"][0]["problems"][0]


def test_missing_targets_are_reported_absent():
    tracer = Tracer(Recorder(), {})
    assert tracer.absent == [t.path for t in TARGETS]
    tracer.install()
    tracer.uninstall()


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field_d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
