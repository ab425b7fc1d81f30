"""The benchmark's four workloads, each at its full size and a toy size.

Each workload drives the package's public API: the command line through
``cli.run_cli`` where the command line can express the workload, and the
library otherwise.  The benchmark only generates the argv or the config
objects; the seed of a run fixes every input.  A prepared workload offers
``run(workdir)``, one timed iteration, and ``check(result, spot)``, the
untimed correctness gate, which returns the list of problems it found.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

GROUP_TOL = 1e-10

# Verification settings of `verify --check character --check strong_order`
# at the seed commit: `_check_character` steps 256 times, and
# `strong_convergence_test` walks the default ladder below.
CHARACTER_STEPS = 256
STRONG_LADDER = (64, 128, 256, 512, 1024)

# `covariance_test` pairs for verify_su3: separations in grid steps.
SU3_SEPARATIONS = (0, 4, 8)


def _quiet_cli(mods: dict, argv: list) -> int:
    """`run_cli` with its report and progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mods["cli"].run_cli(argv)


def group_problems(mats: np.ndarray) -> list:
    """Finiteness, unitarity and unit-determinant defects of (..., n, n)."""
    if not np.isfinite(mats.view(float)).all():
        return ["non-finite group entries"]
    n = mats.shape[-1]
    gram = np.einsum("...ji,...jk->...ik", mats.conj(), mats) - np.eye(n)
    unitarity = float(np.sqrt(np.sum(np.abs(gram) ** 2, axis=(-2, -1))).max())
    det = float(np.abs(np.linalg.det(mats) - 1.0).max())
    problems = []
    if not unitarity <= GROUP_TOL:
        problems.append(f"unitarity defect {unitarity:.3e} > {GROUP_TOL:g}")
    if not det <= GROUP_TOL:
        problems.append(f"determinant defect {det:.3e} > {GROUP_TOL:g}")
    return problems


def _table_mb(basis) -> float:
    """Size of the dense tabulated basis, or 0 where the basis keeps none."""
    values = getattr(basis, "values", None)
    return values.nbytes / 1e6 if values is not None else 0.0


class EnsembleRun:
    """`heatcurrents ensemble ... --out STEM`, then `read_ensemble(STEM)`.

    The gate checks the manifest against the request, the group defects of
    every sample and, once per run, that one seed-chosen sample equals
    `sample_field` on its substream bit for bit.  `read_ensemble` verifies
    the checksum itself; a mismatch raises and fails the iteration.
    """

    def __init__(self, mods: dict, seed: int, size: dict, explicit: tuple) -> None:
        hc = mods["heatcurrents"]
        self.mods = mods
        self.seed = seed
        self.size = size
        basis = hc.build_spectrum(size["dim"], size["grid"], size["modes"])
        spec = hc.CovarianceSpec(k=size["k"], basis=basis, lie=hc.build_basis(size["n"]))
        self.cfg = hc.SdeConfig(spec=spec, n_steps=size["steps"], t_end=1.0, seed=seed)
        flags = {
            "dim": "--dim", "grid": "--grid", "modes": "--modes", "k": "--sobolev-k",
            "n": "--group-n", "steps": "--steps",
        }
        self.argv = ["ensemble"]
        for key in explicit:
            self.argv += [flags[key], str(size[key])]
        self.argv += ["--samples", str(size["samples"]), "--workers", "1", "--seed", str(seed)]
        self.elem_steps = size["samples"] * basis.grid.n_points * size["steps"]
        self.table_mb = _table_mb(basis)
        self.spot_index = random.Random(seed).randrange(size["samples"])
        self.tamper = None  # test hook: called with the output stem before reading

    def run(self, workdir: Path):
        stem = str(workdir / "ensemble")
        rc = _quiet_cli(self.mods, self.argv + ["--out", stem])
        if self.tamper is not None:
            self.tamper(stem)
        manifest, mats = self.mods["storage"].read_ensemble(stem)
        return rc, manifest, mats

    def check(self, result, spot: bool) -> list:
        rc, manifest, mats = result
        if rc != 0:
            return [f"ensemble exited {rc}"]
        want = {
            "d": self.size["dim"],
            "p": self.size["grid"],
            "m_max": self.size["modes"],
            "k": self.size["k"],
            "n": self.size["n"],
            "n_steps": self.size["steps"],
            "n_samples": self.size["samples"],
            "seed": self.seed,
        }
        problems = [
            f"manifest {key}={getattr(manifest, key)!r}, requested {value!r}"
            for key, value in want.items()
            if getattr(manifest, key) != value
        ]
        problems += group_problems(mats)
        if spot and not problems:
            hc = self.mods["heatcurrents"]
            i = self.spot_index
            ref = hc.sample_field(self.cfg, stream=hc.substream(self.seed, i)).mats
            if np.ascontiguousarray(mats[i]).tobytes() != np.ascontiguousarray(ref).tobytes():
                problems.append(f"sample {i} differs from sample_field on substream {i}")
        return problems

    def observe(self, result) -> dict:
        return {}


class VerifySu2Run:
    """`heatcurrents verify --check character --check strong_order`."""

    def __init__(self, mods: dict, seed: int, n_samples: int) -> None:
        self.mods = mods
        self.argv = [
            "verify", "--check", "character", "--check", "strong_order",
            "--samples", str(n_samples), "--seed", str(seed),
        ]
        # One point per path: the character walk plus every ladder level.
        self.elem_steps = n_samples * (CHARACTER_STEPS + sum(STRONG_LADDER))
        self.table_mb = 0.0

    def run(self, workdir: Path):
        out = workdir / "verify.json"
        rc = _quiet_cli(self.mods, self.argv + ["--out", str(out)])
        return rc, out

    def check(self, result, spot: bool) -> list:
        rc, out = result
        reports = json.loads(out.read_text())
        problems = [] if rc == 0 else [f"verify exited {rc}"]
        names = sorted(r["name"] for r in reports)
        if names != ["character", "strong_order"]:
            problems.append(f"unexpected reports {names}")
        problems += [f"{r['name']} failed: {r}" for r in reports if r["pass"] is not True]
        return problems

    def observe(self, result) -> dict:
        return {}


class VerifySu3Run:
    """Library `covariance_test` on SU(3): the general-n `eigh` exp and `log`."""

    def __init__(self, mods: dict, seed: int, n_samples: int) -> None:
        self.mods = mods
        self.n_samples = n_samples
        self.cfg = mods["heatcurrents"].default_config(n=3, n_steps=32, t_end=0.05, seed=seed)
        h = self.cfg.spec.basis.grid.spacing
        self.pairs = [(np.array([0.0]), np.array([sep * h])) for sep in SU3_SEPARATIONS]
        n_points = len({0.0} | {sep * h for sep in SU3_SEPARATIONS})
        self.elem_steps = n_samples * n_points * self.cfg.n_steps
        self.table_mb = _table_mb(self.cfg.spec.basis)

    def run(self, workdir: Path):
        covariance_test = self.mods["diagnostics"].covariance_test
        return covariance_test(self.cfg, self.pairs, n_samples=self.n_samples)

    def check(self, result, spot: bool) -> list:
        expected = 1 + 2 * len(self.pairs)
        problems = [f"{r.name} failed: {r}" for r in result if not r.passed]
        if len(result) != expected:
            problems.append(f"{len(result)} reports, expected {expected}")
        return problems

    def observe(self, result) -> dict:
        rate = [r.estimate for r in result if r.name == "covariance_log_failure_rate"]
        return {"diagnostics.log_branch_reject_share": rate[0]} if rate else {}


def _field_d2(mods, seed, toy):
    size = dict(dim=2, grid=64, modes=16, k=2, n=2, samples=2, steps=8)
    if toy:
        size.update(grid=8, modes=2, steps=2)
    return EnsembleRun(mods, seed, size, explicit=("dim", "grid", "modes", "k", "n", "steps"))


def _ensemble_d1(mods, seed, toy):
    # The command-line defaults (d=1, P=64, M=16, k=2, SU(2), 256 steps)
    # are left to the command line; the gate checks the manifest echoes them.
    size = dict(dim=1, grid=64, modes=16, k=2, n=2, samples=64, steps=256)
    if toy:
        size.update(grid=16, modes=4, samples=2, steps=4)
        return EnsembleRun(mods, seed, size, explicit=("grid", "modes", "steps"))
    return EnsembleRun(mods, seed, size, explicit=())


def _verify_su2(mods, seed, toy):
    return VerifySu2Run(mods, seed, n_samples=32 if toy else 256)


def _verify_su3(mods, seed, toy):
    return VerifySu3Run(mods, seed, n_samples=64 if toy else 2048)


WORKLOADS = {
    "field_d2": _field_d2,
    "ensemble_d1": _ensemble_d1,
    "verify_su2": _verify_su2,
    "verify_su3": _verify_su3,
}
