"""Run one workload: timed set-up, timed iterations, untimed gate, metrics.

Set-up imports the package afresh and builds the workload's config objects,
`SETUP_REPS` times; `setup_s` is the median.  One untimed warm-up iteration
lets lazy imports and allocator caches settle.  Then iterations run back to
back (a closed loop with one caller) until their summed wall time reaches
the requested seconds, each followed by the untimed correctness gate.
Reported times are scaled to a fixed machine speed by `Reference`.

With tracing on, iterations alternate between plain and traced, so the
traced run also measures its own overhead.  Per-layer metrics are per
traced iteration, and their times are raw wall seconds.
"""

from __future__ import annotations

import importlib
import importlib.metadata
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import ROOT_SPAN, Recorder, Tracer
from workloads import WORKLOADS

SETUP_REPS = 9
LAYERS = ("rng", "torus", "brownian", "lie", "sde", "storage", "diagnostics", "cli")

END_TO_END = {
    "setup_s": "s",
    "elem_steps_per_s": "1/s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, per traced iteration.  Sources: the self time of one
# span name, the summed self time of a layer's spans, or a counter scaled
# into the metric's unit.
SPAN, LAYER, COUNT = "span", "layer", "count"
PER_LAYER_SOURCES = {
    "rng.draw_s": ("s", SPAN, "rng.draw"),
    "rng.draw_calls": ("count", COUNT, "rng.draw_calls"),
    "rng.normals": ("count", COUNT, "rng.normals"),
    "torus.build_spectrum_s": ("s", SPAN, "torus.build_spectrum"),
    "torus.table_mb": ("MB", COUNT, "torus.table_bytes", 1e-6),
    "brownian.synth_s": ("s", SPAN, "brownian.synth"),
    "brownian.synth_calls": ("count", COUNT, "brownian.synth_calls"),
    "brownian.synth_gflop_computed": ("GFLOP", COUNT, "brownian.synth_flop", 1e-9),
    "brownian.synth_table_gb_computed": ("GB", COUNT, "brownian.synth_table_bytes", 1e-9),
    "brownian.gram_sqrt_s": ("s", SPAN, "brownian.gram_sqrt"),
    "lie.exp_s": ("s", SPAN, "lie.exp"),
    "lie.exp_calls": ("count", COUNT, "lie.exp_calls"),
    "lie.exp_elems": ("count", COUNT, "lie.exp_elems"),
    "lie.log_s": ("s", SPAN, "lie.log"),
    "lie.log_calls": ("count", COUNT, "lie.log_calls"),
    "lie.log_elems": ("count", COUNT, "lie.log_elems"),
    "sde.self_s": ("s", LAYER, "sde"),
    "sde.step_calls": ("count", COUNT, "sde.step_calls"),
    "diagnostics.self_s": ("s", LAYER, "diagnostics"),
    "storage.write_s": ("s", SPAN, "storage.write"),
    "storage.read_s": ("s", SPAN, "storage.read"),
    "storage.checksum_s": ("s", SPAN, "storage.checksum"),
    "storage.bytes_written": ("B", COUNT, "storage.bytes_written"),
    "storage.bytes_read": ("B", COUNT, "storage.bytes_read"),
    "cli.self_s": ("s", LAYER, "cli"),
    "bench.self_s": ("s", LAYER, "bench"),
}
PER_LAYER = {name: src[0] for name, src in PER_LAYER_SOURCES.items()} | {
    "brownian.synth_flop_per_byte_computed": "FLOP/B",
    "diagnostics.log_branch_reject_share": "share",
    "work.elem_steps": "count",
    "trace.overhead_share": "share",
    "trace.self_cover_share": "share",
}


def import_package() -> dict:
    """Import `heatcurrents` from scratch; returns the package and its layers."""
    for name in [m for m in sys.modules if m == "heatcurrents" or m.startswith("heatcurrents.")]:
        del sys.modules[name]
    mods = {"heatcurrents": importlib.import_module("heatcurrents")}
    importlib.import_module("heatcurrents.cli")
    for layer in LAYERS:
        mods[layer] = sys.modules.get(f"heatcurrents.{layer}")
    return mods


def _attempt(prepared, workdir: Path, tracer: Tracer | None, iteration: int):
    """One timed iteration; a raised exception is returned, not propagated."""
    if tracer is not None:
        tracer.rec.current_iteration = iteration
        tracer.install()
        root = tracer.rec.open(ROOT_SPAN)
    try:
        t0 = time.perf_counter()
        try:
            result, error = prepared.run(workdir), None
        except Exception as exc:  # a failing iteration is counted, not fatal
            result, error = None, exc
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.rec.close(root)
            tracer.uninstall()
    return result, error, seconds


class Reference:
    """Fixed kernels timed before each iteration, to scale out machine speed.

    The 2-vCPU box this benchmark was tuned on shares its cores with other
    tenants: the wall time of an unchanged iteration drifted by up to 45%
    from one minute to the next, and CPU time drifted alike.  An interpreter
    loop, a small batched matmul and a table contraction, timed just before
    the iteration, slow down with it.  Times are therefore reported scaled by
    NOMINAL_S over the geometric mean of the three, that is, as seconds on a
    machine where each kernel takes about NOMINAL_S; the raw times are kept
    in the detail record.
    """

    NOMINAL_S = 0.01

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = rng.random((64, 2, 2)) + 0j
        self._table = rng.random((1089, 512))
        self._vec = rng.random((1089, 3))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i
        t1 = time.perf_counter()
        for _ in range(300):
            self._mats @ self._mats
        t2 = time.perf_counter()
        for _ in range(20):
            np.tensordot(self._table, self._vec, axes=(0, 0))
        t3 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)


def _gate(prepared, result, error, spot: bool) -> list:
    if error is not None:
        return [f"{type(error).__name__}: {error}"]
    try:
        return prepared.check(result, spot)
    except Exception as exc:  # a gate that cannot read the result fails it
        return [f"gate raised {type(exc).__name__}: {exc}"]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten iterations beyond it (50 at least)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def _end_to_end(prepared, setup_times: list, times: list) -> dict:
    # Throughput over the median iteration rather than the mean: on a shared
    # machine the mean follows bursts of contention from other tenants.
    q = tail_percentile(len(times))
    p50 = statistics.median(times)
    return {
        "setup_s": statistics.median(setup_times),
        "elem_steps_per_s": prepared.elem_steps / p50,
        "iter_s_p50": p50,
        "iter_s_tail": float(np.percentile(times, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(
    rec: Recorder, tracer: Tracer, prepared, plain: list, traced: list, observed: dict
) -> tuple:
    """Per-layer metrics per traced iteration, and the names marked absent."""
    n = len(traced)
    own = rec.self_times()
    layer_own = defaultdict(float)
    for span, seconds in own.items():
        layer_own[span.split(".")[0]] += seconds
    installed_layers = {span.split(".")[0] for span in tracer.spans} | {"bench"}

    values, absent = {}, []
    for name, (_, kind, source, *scale) in PER_LAYER_SOURCES.items():
        if kind == SPAN:
            present, total = source in tracer.spans, own.get(source, 0.0)
        elif kind == LAYER:
            present, total = source in installed_layers, layer_own.get(source, 0.0)
        else:
            present = source in tracer.counters and source not in rec.failed_counters
            total = rec.counters.get(source, 0.0) * (scale[0] if scale else 1.0)
        values[name] = total / n
        if not present:
            absent.append(name)

    table_bytes = rec.counters.get("brownian.synth_table_bytes", 0.0)
    values["brownian.synth_flop_per_byte_computed"] = (
        rec.counters.get("brownian.synth_flop", 0.0) / table_bytes if table_bytes else 0.0
    )
    if {"brownian.synth_gflop_computed", "brownian.synth_table_gb_computed"} & set(absent):
        absent.append("brownian.synth_flop_per_byte_computed")
    values["diagnostics.log_branch_reject_share"] = observed.get(
        "diagnostics.log_branch_reject_share", 0.0
    ) / n
    values["work.elem_steps"] = float(prepared.elem_steps)
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    root_total = sum(rec.root_seconds())
    values["trace.self_cover_share"] = sum(
        s for layer, s in layer_own.items() if layer != "bench"
    ) / root_total
    return values, absent


def _cpu_info() -> dict:
    info = {"cpu_model": None, "cache_size": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["cpu_model"] is None:
                    info["cpu_model"] = value.strip()
                elif key == "cache size" and info["cache_size"] is None:
                    info["cache_size"] = value.strip()  # last-level cache on x86
    except OSError:
        pass
    return info


def _git_sha(root: Path):
    """HEAD commit read from `.git` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, blas_threads: int, table_mb: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **_cpu_info(),
        "torus_table_mb": table_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "src_lines": src_lines,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    blas_threads: int,
    toy: bool = False,
    tamper=None,
) -> tuple:
    """Run one workload; returns (detail record, result line, span recorder).

    The recorder is None when `trace` is off.  `toy` selects each workload's
    small size and `tamper`, a test hook, is called on an ensemble's output
    stem before it is read back.
    """
    prepare = WORKLOADS[name]
    reference = Reference()
    setup_raw, setup_scale = [], []
    for _ in range(SETUP_REPS):
        setup_scale.append(Reference.NOMINAL_S / reference.seconds())
        t0 = time.perf_counter()
        mods = import_package()
        prepared = prepare(mods, seed, toy)
        setup_raw.append(time.perf_counter() - t0)
    if tamper is not None:
        prepared.tamper = tamper

    rec = Recorder() if trace else None
    tracer = Tracer(rec, mods) if trace else None
    raw, scale, plain, traced, failures = [], [], [], [], []
    observed = defaultdict(float)
    failed = 0
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_work-") as tmp:
        workdir = Path(tmp)
        _attempt(prepared, workdir, None, -1)  # warm-up
        while sum(raw) < seconds or len(raw) < (2 if trace else 1):
            i = len(raw)
            scale.append(Reference.NOMINAL_S / reference.seconds())
            traced_now = trace and i % 2 == 1
            result, error, dt = _attempt(prepared, workdir, tracer if traced_now else None, i)
            raw.append(dt)
            (traced if traced_now else plain).append(dt * scale[-1])
            problems = _gate(prepared, result, error, spot=(i == 0))
            if problems:
                failed += 1
                failures.append({"iteration": i, "problems": problems})
            elif traced_now:
                for key, value in prepared.observe(result).items():
                    observed[key] += value

    if trace:
        values, absent = _per_layer(rec, tracer, prepared, plain, traced, observed)
        units = PER_LAYER
    else:
        times = [t * k for t, k in zip(raw, scale)]
        setup = [t * k for t, k in zip(setup_raw, setup_scale)]
        values, units = _end_to_end(prepared, setup, times), END_TO_END
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "iterations": len(raw),
        "elem_steps_per_iteration": prepared.elem_steps,
        "iter_s_raw": raw,
        "iter_scale": scale,
        "setup_s_raw": setup_raw,
        "setup_scale": setup_scale,
        "failures": failures[:5],
        "environment": environment(root, blas_threads, prepared.table_mb),
    }
    if trace:
        detail |= {
            "traced_iterations": len(traced),
            "absent_targets": tracer.absent,
            "absent_metrics": absent,
            "self_s_total": rec.self_times(),
            "counters_total": rec.counters,
        }
    else:
        detail |= {
            "iter_s_p50_raw": statistics.median(raw),
            "iter_s_tail_percentile": tail_percentile(len(times)),
            "iter_s_tail_beyond": sum(t > values["iter_s_tail"] for t in times),
        }
    line = {
        "correct": failed == 0,
        "attempted": len(raw),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail["result"] = line
    return detail, line, rec
