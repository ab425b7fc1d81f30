"""Command-line entry points: sampling, ensembles, verification, cocycle
evaluation, and extended sampling.

Configuration precedence is defaults < --config JSON < explicit flags.
All outputs are deterministic functions of the resolved configuration:
ensembles use one substream per sample index.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .brownian import CovarianceSpec
from .diagnostics import CHECK_NAMES, reports_to_json, run_check
from .extension import LatticeSpec, cocycle, sample_extension
from .lie import build_basis
from .rng import substream
from .sde import SdeConfig, sample_ensemble, sample_field
from .storage import EnsembleManifest, StorageError, ensemble_files, write_ensemble, write_files
from .torus import build_grid, build_spectrum

__all__ = ["run_cli", "main"]

# Configuration key -> (flag, type, default, help); `lattice` has no flag
# and is set through --config only.
_OPTIONS = {
    "dim": ("--dim", int, 1, "torus dimension d"),
    "group_n": ("--group-n", int, 2, "SU(n) rank parameter"),
    "sobolev_k": ("--sobolev-k", int, 2, "Sobolev order k"),
    "modes": ("--modes", int, 16, "per-axis frequency cutoff M_max"),
    "grid": ("--grid", int, 64, "grid points per axis P"),
    "steps": ("--steps", int, 256, "number of time steps"),
    "t_end": ("--t-end", float, 1.0, "terminal time in (0, 1]"),
    "samples": ("--samples", int, 1, "number of samples"),
    "seed": ("--seed", int, 0, "root seed"),
    "stream_id": ("--stream-id", int, 0, "RNG substream id (default 0)"),
    "workers": ("--workers", int, 1, "must be 1: ensembles run on one thread"),
    "out": ("--out", str, None, "output path stem"),
    "lattice": (None, None, None, None),
}

_FIELD_KEYS = ("dim", "group_n", "sobolev_k", "modes", "grid", "steps", "t_end")

# Subcommand -> (help, the configuration keys it reads); it accepts no others.
_COMMAND_KEYS = {
    "sample": ("draw one terminal field", _FIELD_KEYS + ("seed", "stream_id", "out")),
    "ensemble": (
        "draw an ensemble of terminal fields",
        _FIELD_KEYS + ("samples", "seed", "workers", "out"),
    ),
    "verify": ("run diagnostics, emit JSON report", ("samples", "seed", "out")),
    "cocycle": ("evaluate the cocycle on stored fields", ("group_n",)),
    "extend": (
        "sample the lifted measure (field, fiber)",
        _FIELD_KEYS + ("samples", "seed", "stream_id", "out", "lattice"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcurrents",
        description="Heat-kernel measures on current groups over the torus",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (text, keys) in _COMMAND_KEYS.items():
        sub = commands[command] = subs.add_parser(command, help=text)
        for key in keys:
            flag, kind, _, help_text = _OPTIONS[key]
            if (command, key) == ("verify", "samples"):
                help_text = (
                    "samples per check (default: its acceptance size): at least 2, "
                    "or 1 for cocycle; drift has a fixed size and does not read it"
                )
            if flag is not None:
                sub.add_argument(flag, type=kind, dest=key, help=help_text)
        sub.add_argument("--config", type=str, help="JSON config file; flags override")
    commands["verify"].add_argument(
        "--check",
        action="append",
        choices=sorted(CHECK_NAMES),
        help="named check (repeatable; default: all)",
    )
    commands["cocycle"].add_argument(
        "--eta", type=str, required=True, help=".npy coefficient field"
    )
    commands["cocycle"].add_argument(
        "--eta1", type=str, required=True, help=".npy coefficient field"
    )
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    keys = _COMMAND_KEYS[args.command][1]
    cfg = {key: _OPTIONS[key][2] for key in keys}
    if args.command == "verify":
        cfg["samples"] = None  # each check runs at its own acceptance size
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError(
                f"--config must hold a JSON object, got {type(raw).__name__}"
            )
        unknown = set(raw) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, val in raw.items():
            _check_config_type(key, val)
        cfg.update(raw)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _is_number(val) -> bool:
    """A JSON number that converts to a finite float; bools are not numbers."""
    if isinstance(val, float):
        return math.isfinite(val)
    return isinstance(val, int) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def _check_config_type(key: str, val) -> None:
    """Reject a config value the flag's type would not produce."""
    if key == "lattice":  # no flag; its rank is checked where it is read
        if not (
            isinstance(val, list)
            and all(isinstance(row, list) and len(row) == len(val) for row in val)
            and all(_is_number(x) for row in val for x in row)
        ):
            raise ValueError(
                "config key 'lattice' must be an N x N nested list of finite numbers"
            )
        return
    kind = _OPTIONS[key][1]
    accepted = (int, float) if kind is float else kind
    if isinstance(val, bool) or not isinstance(val, accepted):
        raise ValueError(
            f"config key {key!r} must be {kind.__name__}, got {type(val).__name__}"
        )


def _make_sde_config(cfg: dict) -> SdeConfig:
    basis = build_spectrum(cfg["dim"], cfg["grid"], cfg["modes"])
    lie = build_basis(cfg["group_n"])
    spec = CovarianceSpec(k=cfg["sobolev_k"], basis=basis, lie=lie)
    return SdeConfig(
        spec=spec, n_steps=cfg["steps"], t_end=cfg["t_end"], seed=cfg["seed"]
    )


def _manifest(cfg: dict, n_samples: int) -> EnsembleManifest:
    return EnsembleManifest(
        d=cfg["dim"],
        n=cfg["group_n"],
        k=cfg["sobolev_k"],
        m_max=cfg["modes"],
        p=cfg["grid"],
        n_steps=cfg["steps"],
        t_end=cfg["t_end"],
        n_samples=n_samples,
        seed=cfg["seed"],
        lattice=cfg.get("lattice"),
    )


def _require_out(cfg: dict) -> str:
    out = cfg.get("out")
    if not out:
        raise ValueError("--out is required for this subcommand")
    # a stem with no file name would write hidden files such as `runs/.json`
    _check_names_a_file(out, "a file stem such as runs/ens")
    return out


def _check_names_a_file(out: str, example: str) -> None:
    if os.path.basename(out) in ("", ".", ".."):
        raise ValueError(f"--out {out!r} names no file: give {example}")


def _lattice_from_config(cfg: dict, rank: int) -> LatticeSpec:
    raw = cfg.get("lattice")
    if raw is None:
        return LatticeSpec.identity(rank)
    gen = np.asarray(raw, dtype=float)
    if gen.shape != (rank, rank):
        raise ValueError(
            f"config key 'lattice' must hold {rank}x{rank} lattice generators for "
            f"this configuration, got shape {gen.shape}"
        )
    return LatticeSpec(generators=gen)


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = _require_out(cfg)
    sde_cfg = _make_sde_config(cfg)
    state = sample_field(sde_cfg, stream=substream(cfg["seed"], cfg["stream_id"]))
    manifest = _manifest(cfg, 1)
    write_ensemble(out, manifest, state.mats[np.newaxis])
    print(f"wrote {out}.json and {out}.f64le")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if cfg["workers"] != 1:
        raise ValueError(
            f"--workers must be 1, got {cfg['workers']}: ensembles run on one thread"
        )
    out = _require_out(cfg)
    sde_cfg = _make_sde_config(cfg)
    mats = sample_ensemble(sde_cfg, cfg["samples"])
    manifest = _manifest(cfg, cfg["samples"])
    write_ensemble(out, manifest, mats)
    print(f"wrote {out}.json and {out}.f64le")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    # the report path is checked before the checks run, which can take minutes
    if cfg["out"]:
        _check_names_a_file(cfg["out"], "a file name such as runs/verify.json")
        if os.path.isdir(cfg["out"]):
            raise ValueError(f"--out {cfg['out']!r} is a directory: give a file name")
    names = args.check or sorted(CHECK_NAMES)
    reports = []
    for name in names:
        reports.extend(run_check(name, seed=cfg["seed"], n_samples=cfg["samples"]))
    payload = reports_to_json(reports)
    sys.stdout.write(payload.decode("utf-8"))
    if cfg["out"]:
        write_files({cfg["out"]: payload})
    return 0 if all(r.passed for r in reports) else 1


def _load_field(path: str) -> np.ndarray:
    """A real, finite .npy coefficient array (*grid, dim_g) as float64."""
    c = np.load(path)
    if not isinstance(c, np.ndarray):  # an .npz archive
        c.close()
        raise ValueError(f"{path}: expected a .npy array, got {type(c).__name__}")
    if c.ndim < 2:
        raise ValueError(f"{path}: expected a (*grid, dim_g) array, got shape {c.shape}")
    if c.dtype.kind not in "biuf":
        raise ValueError(f"{path}: su(n) coefficients are real numbers, got dtype {c.dtype}")
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError(f"{path}: algebra field contains non-finite entries")
    return c


def _cmd_cocycle(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    lie = build_basis(cfg["group_n"])
    eta_c = _load_field(args.eta)
    eta1_c = _load_field(args.eta1)
    if eta_c.shape != eta1_c.shape:
        raise ValueError(
            f"field shapes differ: {eta_c.shape} vs {eta1_c.shape}"
        )
    if eta_c.shape[-1] != lie.dim:
        raise ValueError(
            f"fields have {eta_c.shape[-1]} algebra coefficients, su({lie.n}) "
            f"needs {lie.dim}"
        )
    grid = build_grid(eta_c.ndim - 1, eta_c.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        coords = cocycle(grid, lie, eta_c, eta1_c)
    if not np.isfinite(coords).all():
        raise ValueError("cohomology coordinates must be finite")
    print(json.dumps({"coords": coords.tolist()}, sort_keys=True, allow_nan=False))
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = _require_out(cfg)
    sde_cfg = _make_sde_config(cfg)
    rank = cfg["dim"] * (cfg["group_n"] ** 2 - 1)
    lattice = _lattice_from_config(cfg, rank)
    fields, fibers = sample_extension(
        sde_cfg, lattice, cfg["samples"], first_stream=cfg["stream_id"]
    )
    cfg["lattice"] = lattice.generators.tolist()
    _, files = ensemble_files(out, _manifest(cfg, cfg["samples"]), fields)
    central_doc = {"central": fibers.tolist()}
    files[out + ".central.json"] = (
        json.dumps(central_doc, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    write_files(files)  # the three files replace their predecessors together
    print(f"wrote {out}.json, {out}.f64le and {out}.central.json")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "ensemble": _cmd_ensemble,
    "verify": _cmd_verify,
    "cocycle": _cmd_cocycle,
    "extend": _cmd_extend,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, MemoryError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
