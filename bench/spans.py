"""In-memory span recorder and the wrappers that feed it in traced runs.

A traced iteration replaces selected public functions of the package with
thin wrappers, at the module attribute each caller looks them up under
(``sde.exp_batch`` and ``diagnostics.exp_batch`` are both wrapped, because
each module calls its own imported name).  Every wrapped call records one
span -- name, start, end, parent span and iteration -- plus the counters
its target declares.  Spans stay in flat arrays until the run ends.  A
span's self time is its duration minus the durations of its children, so
the self times of one iteration add up to that iteration's root span.

A target whose owner or attribute no longer exists is reported as absent
instead of raising, so a refactor of the package cannot crash the
benchmark; the metrics fed only by absent targets are marked absent.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from typing import Callable, NamedTuple

import numpy as np

ROOT_SPAN = "bench.iteration"


class Recorder:
    """Spans and counters of the traced iterations of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.failed_counters: set[str] = set()
        self.current_iteration = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.current_iteration)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name over all recorded spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32),
            weights=dur - children,
            minlength=len(self.names),
        )
        return dict(zip(self.names, own.tolist()))

    def root_seconds(self) -> list[float]:
        """Duration of each traced iteration's root span."""
        root = self._name_ids.get(ROOT_SPAN)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return dur[ids == root].tolist() if root is not None else []

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            iteration=np.frombuffer(self.iteration, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_draw(args, kwargs, out) -> dict:
    return {"rng.draw_calls": 1, "rng.normals": math.prod(_arg(args, kwargs, 1, "size"))}


def _count_table(args, kwargs, out) -> dict:
    return {"torus.table_bytes": out.values.nbytes}


def _count_synth(args, kwargs, out) -> dict:
    # Dense Karhunen-Loeve contraction: one multiply-add per (mode, point,
    # algebra direction), reading the whole (n_modes, n_points) table.
    spec = _arg(args, kwargs, 0, "spec")
    table = spec.basis.values
    return {
        "brownian.synth_calls": 1,
        "brownian.synth_flop": 2 * table.size * spec.dim_g,
        "brownian.synth_table_bytes": table.nbytes,
    }


def _count_exp(args, kwargs, out) -> dict:
    coeffs = _arg(args, kwargs, 1, "coeffs")
    return {"lie.exp_calls": 1, "lie.exp_elems": math.prod(np.shape(coeffs)[:-1])}


def _count_log(args, kwargs, out) -> dict:
    mats = _arg(args, kwargs, 1, "mats")
    return {"lie.log_calls": 1, "lie.log_elems": math.prod(np.shape(mats)[:-2])}


def _count_step(args, kwargs, out) -> dict:
    return {"sde.step_calls": 1}


def _count_write(args, kwargs, out) -> dict:
    return {"storage.bytes_written": out.expected_payload_bytes()}


def _count_read(args, kwargs, out) -> dict:
    return {"storage.bytes_read": out[0].expected_payload_bytes()}


def _count_checksum(args, kwargs, out) -> dict:
    return {"storage.checksum_bytes": len(_arg(args, kwargs, 0, "payload"))}


class Target(NamedTuple):
    """One attribute to wrap: ``<module>[.<Class>].<attr>`` under the package."""

    path: str
    span: str
    counters: tuple = ()
    count: Callable | None = None


TARGETS = (
    Target("rng.RngStream.normal", "rng.draw", ("rng.draw_calls", "rng.normals"), _count_draw),
    Target("cli.build_spectrum", "torus.build_spectrum", ("torus.table_bytes",), _count_table),
    Target(
        "diagnostics.build_spectrum", "torus.build_spectrum", ("torus.table_bytes",), _count_table
    ),
    Target(
        "sde.sample_increment",
        "brownian.synth",
        ("brownian.synth_calls", "brownian.synth_flop", "brownian.synth_table_bytes"),
        _count_synth,
    ),
    Target("sde.kernel_gram", "brownian.kernel_gram"),
    Target("sde.gram_sqrt", "brownian.gram_sqrt"),
    Target("diagnostics.covariance_kernel", "brownian.covariance_kernel"),
    Target("cli.build_basis", "lie.build_basis"),
    Target("diagnostics.build_basis", "lie.build_basis"),
    Target("sde.exp_batch", "lie.exp", ("lie.exp_calls", "lie.exp_elems"), _count_exp),
    Target("diagnostics.exp_batch", "lie.exp", ("lie.exp_calls", "lie.exp_elems"), _count_exp),
    Target("diagnostics.log_batch", "lie.log", ("lie.log_calls", "lie.log_elems"), _count_log),
    Target("cli.sample_ensemble", "sde.sample_ensemble"),
    Target("cli.sample_field", "sde.sample_field"),
    Target("sde.sample_field", "sde.sample_field"),
    Target("sde.step", "sde.step", ("sde.step_calls",), _count_step),
    Target("diagnostics.sample_marginal", "sde.sample_marginal"),
    Target("cli.run_check", "diagnostics.run_check"),
    Target("diagnostics.default_config", "diagnostics.default_config"),
    Target("diagnostics.character_test", "diagnostics.character_test"),
    Target("diagnostics.strong_convergence_test", "diagnostics.strong_convergence_test"),
    Target("diagnostics.covariance_test", "diagnostics.covariance_test"),
    Target("cli.reports_to_json", "diagnostics.reports_to_json"),
    Target("cli.write_ensemble", "storage.write", ("storage.bytes_written",), _count_write),
    Target("storage.read_ensemble", "storage.read", ("storage.bytes_read",), _count_read),
    Target(
        "storage.payload_checksum", "storage.checksum", ("storage.checksum_bytes",), _count_checksum
    ),
    Target("cli.run_cli", "cli.run_cli"),
)


def _wrap(rec: Recorder, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(target.span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if target.count is not None:
            try:
                counts = target.count(args, kwargs, out)
            except (AttributeError, TypeError, KeyError, IndexError):
                rec.failed_counters.update(target.counters)
            else:
                for name, value in counts.items():
                    rec.add(name, value)
        return out

    return traced


class Tracer:
    """Installs and removes the wrappers of `TARGETS` on the package modules."""

    def __init__(self, rec: Recorder, modules: dict) -> None:
        self.rec = rec
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        for target in TARGETS:
            owner_path, attr = target.path.rsplit(".", 1)
            owner_parts = owner_path.split(".")
            owner = modules.get(owner_parts[0])
            for part in owner_parts[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target.path)
                continue
            self._patches.append((owner, attr, original, _wrap(rec, target, original)))
        present = [t for t in TARGETS if t.path not in self.absent]
        # Span and counter names that at least one installed wrapper can record.
        self.spans = {t.span for t in present}
        self.counters = {c for t in present for c in t.counters}

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
