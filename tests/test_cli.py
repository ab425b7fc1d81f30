"""Command-line behavior: precedence, determinism, exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatcurrents
from heatcurrents import cli, diagnostics, extension
from heatcurrents.diagnostics import REGULARITY_STRIDE, make_report
from heatcurrents.extension import EXTENSION_CENTRAL_STREAM, LatticeSpec, cocycle, haar_sample
from heatcurrents.lie import build_basis
from heatcurrents.rng import substream
from heatcurrents.storage import read_ensemble
from heatcurrents.torus import build_grid


def run(argv, capsys):
    rc = cli.run_cli(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_sample_requires_out(capsys):
    rc, _, err = run(["sample", "--grid", "16", "--modes", "3", "--steps", "2"], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert "--out" in err


def test_sample_writes_ensemble_of_one(tmp_path, capsys):
    out = str(tmp_path / "one")
    rc, msg, _ = run(
        ["sample", "--grid", "16", "--modes", "3", "--steps", "4", "--out", out],
        capsys,
    )
    assert rc == 0
    assert "wrote" in msg
    manifest, mats = read_ensemble(out)
    assert mats.shape == (1, 16, 2, 2)
    assert manifest.m_max == 3
    assert manifest.n_steps == 4
    assert manifest.t_end == 1.0


def test_sample_reproducible(tmp_path, capsys):
    args = ["sample", "--grid", "16", "--modes", "3", "--steps", "4", "--seed", "7"]
    run(args + ["--out", str(tmp_path / "a")], capsys)
    run(args + ["--out", str(tmp_path / "b")], capsys)
    assert (tmp_path / "a.f64le").read_bytes() == (tmp_path / "b.f64le").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_ensemble_worker_independent_bytes(tmp_path, capsys):
    base = ["ensemble", "--grid", "16", "--modes", "3", "--steps", "4", "--samples", "4"]
    rc1, _, _ = run(base + ["--workers", "1", "--out", str(tmp_path / "w1")], capsys)
    rc3, _, _ = run(base + ["--workers", "3", "--out", str(tmp_path / "w3")], capsys)
    assert rc1 == rc3 == 0
    assert (tmp_path / "w1.f64le").read_bytes() == (tmp_path / "w3.f64le").read_bytes()


def test_ensemble_equals_indexed_samples(tmp_path, capsys):
    common = ["--grid", "16", "--modes", "3", "--steps", "4", "--seed", "3"]
    run(["ensemble", *common, "--samples", "3", "--out", str(tmp_path / "ens")], capsys)
    _, ens = read_ensemble(tmp_path / "ens")
    for i in range(3):
        run(
            ["sample", *common, "--stream-id", str(i), "--out", str(tmp_path / f"s{i}")],
            capsys,
        )
        _, single = read_ensemble(tmp_path / f"s{i}")
        assert np.array_equal(ens[i], single[0])


def test_aliasing_rejected_cleanly(capsys, tmp_path):
    rc, _, err = run(
        ["sample", "--grid", "16", "--modes", "8", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 1
    assert "aliasing" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run_cli(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run_cli(["sample", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run_cli(["cocycle"])  # --eta/--eta1 are required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run_cli(["verify", "--check", "bogus"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 32, "modes": 8, "steps": 4}))
    out = str(tmp_path / "run")
    rc, _, _ = run(
        ["sample", "--config", str(cfg), "--modes", "4", "--out", out], capsys
    )
    assert rc == 0
    manifest, mats = read_ensemble(out)
    assert manifest.p == 32  # from config file
    assert manifest.m_max == 4  # flag wins over config
    assert mats.shape == (1, 32, 2, 2)


def test_subcommands_reject_flags_they_do_not_use():
    for argv in (
        ["verify", "--check", "drift", "--dim", "2"],
        ["verify", "--check", "drift", "--grid", "16"],
        ["sample", "--samples", "3", "--out", "x"],
        ["ensemble", "--stream-id", "1", "--out", "x"],
        ["cocycle", "--eta", "a.npy", "--eta1", "b.npy", "--modes", "4"],
        ["extend", "--workers", "2", "--out", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.run_cli(argv)
        assert exc.value.code == 2, argv


def test_config_key_unused_by_subcommand(tmp_path, capsys):
    for command, key in (("sample", "samples"), ("ensemble", "lattice"), ("verify", "dim")):
        cfg = tmp_path / f"{command}-cfg.json"
        cfg.write_text(json.dumps({key: 2}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        rc, _, err = run(argv, capsys)
        assert rc == 1
        assert err.startswith("error:") and f"['{key}']" in err
    # nothing was written
    assert {p.name for p in tmp_path.iterdir()} == {
        "sample-cfg.json", "ensemble-cfg.json", "verify-cfg.json"
    }


def test_verify_honours_config_samples(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 7, "seed": 2}))
    rc, out, _ = run(["verify", "--check", "cocycle", "--config", str(cfg)], capsys)
    _, flags, _ = run(
        ["verify", "--check", "cocycle", "--samples", "7", "--seed", "2"], capsys
    )
    assert rc == 0
    assert out == flags
    counts = {r["name"]: r["n_samples"] for r in json.loads(out)}
    assert counts["cocycle_cyclic"] == 7


def test_config_values_are_type_checked(tmp_path, capsys):
    cases = (
        ("sample", {"grid": "32"}, "config key 'grid' must be int, got str"),
        ("sample", {"steps": 4.0}, "config key 'steps' must be int, got float"),
        ("sample", {"seed": True}, "config key 'seed' must be int, got bool"),
        ("sample", {"t_end": "1"}, "config key 't_end' must be float, got str"),
        ("ensemble", {"workers": None}, "config key 'workers' must be int, got NoneType"),
        ("verify", {"out": 3}, "config key 'out' must be str, got int"),
    )
    for command, raw, message in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert rc == 1, raw
        assert err == f"error: {message}\n"
    # t_end takes an int as well as a float
    cfg.write_text(json.dumps({"t_end": 1, "grid": 16, "modes": 3, "steps": 2}))
    rc, _, _ = run(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert rc == 0
    assert read_ensemble(str(tmp_path / "o"))[0].t_end == 1.0


def test_counts_below_one_rejected(tmp_path, capsys):
    small = ["--grid", "16", "--modes", "3", "--steps", "2"]
    for argv in (
        ["verify", "--check", "haar", "--samples", "0"],
        ["verify", "--check", "drift", "--samples", "-1"],
        ["ensemble", *small, "--workers", "0", "--out", str(tmp_path / "w0")],
        ["ensemble", *small, "--workers", "-3", "--out", str(tmp_path / "w3")],
        ["extend", *small, "--samples", "0", "--out", str(tmp_path / "e0")],
    ):
        rc, out, err = run(argv, capsys)
        assert rc == 1, argv
        assert out == "" and err.startswith("error:") and "must be >= 1" in err
    assert list(tmp_path.iterdir()) == []


def test_one_sample_rejected_where_a_stderr_is_estimated(tmp_path, capsys):
    # a standard error from one sample is NaN (or a meaningless 0)
    for check in ("character", "covariance", "weak_order", "strong_order", "regularity", "haar"):
        argv = ["verify", "--check", check, "--samples", "1", "--out", str(tmp_path / check)]
        rc, out, err = run(argv, capsys)
        assert rc == 1, check
        assert out == "" and err.startswith("error:") and "must be >= 2" in err
    assert list(tmp_path.iterdir()) == []
    # cocycle's exact identities take one sample; drift does not read it
    argv = ["verify", "--check", "cocycle", "--check", "drift", "--samples", "1"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    counts = {r["name"]: r["n_samples"] for r in json.loads(out)}
    assert counts["cocycle_cyclic"] == 1 and counts["drift"] > 1


def test_seed_and_stream_id_outside_64_bits_rejected(tmp_path, capsys):
    small = ["--grid", "16", "--modes", "3", "--steps", "2"]
    top = str((1 << 64) - 1)
    for argv in (
        ["sample", *small, "--seed", str(1 << 64), "--out", str(tmp_path / "big")],
        ["sample", *small, "--seed", "-1", "--out", str(tmp_path / "neg")],
        # the second pair's field stream would be 2^64
        ["extend", *small, "--stream-id", top, "--samples", "2", "--out", str(tmp_path / "x")],
    ):
        rc, out, err = run(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("error:") and "2^64" in err
    assert list(tmp_path.iterdir()) == []


def test_extend_central_stream_ids_checked_before_sampling(tmp_path, monkeypatch, capsys):
    # the field ids fit, but the last central id 2^33 + stream id + 63 is 2^64
    def must_not_sample(*args, **kwargs):
        raise AssertionError("extend sampled before checking its central stream ids")

    monkeypatch.setattr(extension, "sample_ensemble", must_not_sample)
    stream_id = str((1 << 64) - EXTENSION_CENTRAL_STREAM - 63)
    argv = ["extend", "--samples", "64", "--stream-id", stream_id, "--out", str(tmp_path / "x")]
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert out == "" and err.startswith("error:")
    assert f"--stream-id {stream_id}" in err and "--samples 64" in err
    assert str(1 << 64) not in err  # the derived id is not the user's
    assert list(tmp_path.iterdir()) == []


def test_regularity_samples_that_overlap_stream_ranges_rejected(monkeypatch, capsys):
    # rejected before any level samples; should the check slip, fail
    # instead of sampling a million fields
    def must_not_sample(*args, **kwargs):
        raise AssertionError("regularity sampled before rejecting --samples")

    monkeypatch.setattr(diagnostics, "sample_ensemble", must_not_sample)
    too_many = str(REGULARITY_STRIDE + 1)
    rc, out, err = run(["verify", "--check", "regularity", "--samples", too_many], capsys)
    assert rc == 1
    assert out == "" and err.startswith("error:") and "stream-id ranges" in err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gird": 32}))
    rc, _, err = run(["sample", "--config", str(cfg), "--out", "x"], capsys)
    assert rc == 1
    assert "unknown config keys" in err


def test_verify_single_check(capsys):
    rc, out, _ = run(["verify", "--check", "drift"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["name"] == "drift"
    assert doc[0]["pass"] is True


def test_verify_deterministic_output(tmp_path, capsys):
    rc1, out1, _ = run(
        ["verify", "--check", "drift", "--out", str(tmp_path / "r1.json")], capsys
    )
    rc2, out2, _ = run(
        ["verify", "--check", "drift", "--out", str(tmp_path / "r2.json")], capsys
    )
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.json").read_text() == out1


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli,
        "run_check",
        lambda name, seed=0, n_samples=None: [make_report(name, 9.0, 0.0, 0.0, 1)],
    )
    rc, out, _ = run(["verify", "--check", "drift"], capsys)
    assert rc == 1
    assert json.loads(out)[0]["pass"] is False


def test_verify_multiple_checks(capsys):
    rc, out, _ = run(
        ["verify", "--check", "drift", "--check", "cocycle", "--samples", "10"],
        capsys,
    )
    assert rc == 0
    names = {r["name"] for r in json.loads(out)}
    assert "drift" in names
    assert any(n.startswith("cocycle") or "leibniz" in n for n in names)


def test_verify_writes_strict_json(tmp_path, capsys):
    # too few samples for weak_order to resolve its level differences: the
    # inconclusive report's NaN estimate and stderr are written as null
    def no_constants(token):
        raise AssertionError(f"non-JSON token {token}")

    rc, out, _ = run(
        ["verify", "--check", "weak_order", "--samples", "1000", "--out", str(tmp_path / "r")],
        capsys,
    )
    assert rc == 1
    (report,) = json.loads(out, parse_constant=no_constants)
    assert report["estimate"] is None and report["stderr"] is None
    assert "inconclusive" in report["tolerance_rule"]
    assert (tmp_path / "r").read_text() == out


def test_cocycle_round_trip(tmp_path, capsys):
    grid = build_grid(1, 32)
    lie = build_basis(2)
    x = grid.coordinates()[:, 0]
    eta_c = np.stack([np.cos(x), np.sin(2 * x), 0 * x], axis=-1)
    eta1_c = np.stack([np.sin(x), 0 * x, np.cos(3 * x)], axis=-1)
    np.save(tmp_path / "eta.npy", eta_c)
    np.save(tmp_path / "eta1.npy", eta1_c)

    rc, out, _ = run(
        [
            "cocycle",
            "--eta", str(tmp_path / "eta.npy"),
            "--eta1", str(tmp_path / "eta1.npy"),
        ],
        capsys,
    )
    assert rc == 0
    coords = np.asarray(json.loads(out)["coords"])
    expected = cocycle(grid, lie, eta_c, eta1_c)
    assert np.allclose(coords, expected, atol=1e-14)


def test_cocycle_circle_example(tmp_path, capsys):
    # eta = cos(x) T1, eta1 = sin(x) T1: class is kappa(T1, T1)/2 = -1
    grid = build_grid(1, 64)
    x = grid.coordinates()[:, 0]
    eta_c = np.stack([np.cos(x), 0 * x, 0 * x], axis=-1)
    eta1_c = np.stack([np.sin(x), 0 * x, 0 * x], axis=-1)
    np.save(tmp_path / "eta.npy", eta_c)
    np.save(tmp_path / "eta1.npy", eta1_c)
    rc, out, _ = run(
        [
            "cocycle",
            "--eta", str(tmp_path / "eta.npy"),
            "--eta1", str(tmp_path / "eta1.npy"),
        ],
        capsys,
    )
    assert rc == 0
    coords = json.loads(out)["coords"]
    assert coords[0] == pytest.approx(-1.0, abs=1e-12)
    assert coords[1] == coords[2] == 0.0


def test_cocycle_on_small_grid_needs_no_flags(tmp_path, capsys):
    # a 16-point field is valid; the default --modes used to reject it
    grid = build_grid(1, 16)
    lie = build_basis(2)
    x = grid.coordinates()[:, 0]
    eta_c = np.stack([np.cos(x), np.sin(3 * x), 0 * x], axis=-1)
    eta1_c = np.stack([np.sin(x), 0 * x, np.cos(2 * x)], axis=-1)
    np.save(tmp_path / "eta.npy", eta_c)
    np.save(tmp_path / "eta1.npy", eta1_c)
    rc, out, err = run(
        ["cocycle", "--eta", str(tmp_path / "eta.npy"), "--eta1", str(tmp_path / "eta1.npy")],
        capsys,
    )
    assert rc == 0, err
    expected = cocycle(grid, lie, eta_c, eta1_c)
    assert json.loads(out)["coords"] == expected.tolist()


def test_cocycle_shape_mismatch(tmp_path, capsys):
    np.save(tmp_path / "eta.npy", np.zeros((16, 3)))
    np.save(tmp_path / "eta1.npy", np.zeros((32, 3)))
    rc, _, err = run(
        [
            "cocycle",
            "--eta", str(tmp_path / "eta.npy"),
            "--eta1", str(tmp_path / "eta1.npy"),
        ],
        capsys,
    )
    assert rc == 1
    assert "shapes differ" in err


def _cocycle_pair(tmp_path, eta_c, eta1_c, capsys):
    np.save(tmp_path / "eta.npy", eta_c)
    np.save(tmp_path / "eta1.npy", eta1_c)
    return run(
        ["cocycle", "--eta", str(tmp_path / "eta.npy"), "--eta1", str(tmp_path / "eta1.npy")],
        capsys,
    )


def _circle_pair():
    x = build_grid(1, 32).coordinates()[:, 0]
    return (
        np.stack([np.cos(x), np.sin(2 * x), 0 * x], axis=-1),
        np.stack([np.sin(x), 0 * x, np.cos(3 * x)], axis=-1),
    )


def _with_nan(c):
    c = c.copy()
    c[5, 1] = np.nan
    return c


@pytest.mark.parametrize(
    "transform, message",
    [
        pytest.param(_with_nan, "non-finite", id="nan"),
        pytest.param(lambda c: c.astype(complex), "real", id="complex"),
        pytest.param(lambda c: c[0, 0], "got shape ()", id="scalar"),
        # finite inputs whose pairing overflows: the class must not reach stdout
        pytest.param(lambda c: 1e200 * c, "must be finite", id="overflow"),
    ],
)
def test_cocycle_rejects_bad_input(tmp_path, capsys, transform, message):
    eta_c, eta1_c = _circle_pair()
    rc, out, err = _cocycle_pair(tmp_path, transform(eta_c), transform(eta1_c), capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_cocycle_accepts_integer_and_bool_fields(tmp_path, capsys):
    grid = build_grid(1, 16)
    eta_c = np.arange(48).reshape(16, 3) % 5
    eta1_c = (np.arange(48).reshape(16, 3) % 3).astype(bool)
    rc, out, err = _cocycle_pair(tmp_path, eta_c, eta1_c, capsys)
    assert rc == 0, err
    expected = cocycle(grid, build_basis(2), eta_c.astype(float), eta1_c.astype(float))
    assert json.loads(out)["coords"] == expected.tolist()


def test_extend_outputs(tmp_path, capsys):
    out = str(tmp_path / "ext")
    rc, msg, _ = run(
        [
            "extend",
            "--grid", "16", "--modes", "3", "--steps", "2",
            "--samples", "2", "--seed", "5", "--out", out,
        ],
        capsys,
    )
    assert rc == 0
    assert "central.json" in msg
    manifest, mats = read_ensemble(out)
    assert mats.shape == (2, 16, 2, 2)
    assert manifest.lattice == np.eye(3).tolist()
    central = np.asarray(json.loads((tmp_path / "ext.central.json").read_text())["central"])
    assert central.shape == (2, 3)
    assert np.all((central >= 0.0) & (central < 1.0))
    assert not np.array_equal(central[0], central[1])


def test_extend_reproducible_and_field_matches_sample(tmp_path, capsys):
    common = ["--grid", "16", "--modes", "3", "--steps", "2", "--seed", "5"]
    run(["extend", *common, "--out", str(tmp_path / "e1")], capsys)
    run(["extend", *common, "--out", str(tmp_path / "e2")], capsys)
    assert (tmp_path / "e1.f64le").read_bytes() == (tmp_path / "e2.f64le").read_bytes()
    assert (
        tmp_path / "e1.central.json"
    ).read_bytes() == (tmp_path / "e2.central.json").read_bytes()
    # the field marginal coincides with plain sampling at the same stream
    run(["sample", *common, "--out", str(tmp_path / "plain")], capsys)
    _, ext_mats = read_ensemble(tmp_path / "e1")
    _, plain = read_ensemble(tmp_path / "plain")
    assert np.array_equal(ext_mats, plain)


def test_extend_stream_id_offsets_every_pair(tmp_path, capsys):
    common = ["--grid", "16", "--modes", "3", "--steps", "2", "--seed", "5"]
    rc, _, _ = run(
        ["extend", *common, "--stream-id", "3", "--samples", "3", "--out", str(tmp_path / "e")],
        capsys,
    )
    assert rc == 0
    payload = b""
    for sid in (3, 4, 5):
        run(["sample", *common, "--stream-id", str(sid), "--out", str(tmp_path / f"s{sid}")],
            capsys)
        payload += (tmp_path / f"s{sid}.f64le").read_bytes()
    assert (tmp_path / "e.f64le").read_bytes() == payload
    # fiber i comes from central stream EXTENSION_CENTRAL_STREAM + 3 + i
    central = json.loads((tmp_path / "e.central.json").read_text())["central"]
    lattice = LatticeSpec.identity(3)
    for i, coords in enumerate(central):
        stream = substream(5, EXTENSION_CENTRAL_STREAM + 3 + i)
        assert coords == haar_sample(lattice, stream).tolist()


def test_extend_custom_lattice(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    gens = (2.0 * np.eye(3)).tolist()
    cfg.write_text(json.dumps({"lattice": gens, "grid": 16, "modes": 3, "steps": 2}))
    out = str(tmp_path / "ext")
    rc, _, _ = run(["extend", "--config", str(cfg), "--out", out], capsys)
    assert rc == 0
    manifest, _ = read_ensemble(out)
    assert manifest.lattice == gens


def test_extend_lattice_shape_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": [[1.0, 0.0], [0.0, 1.0]]}))
    rc, _, err = run(
        ["extend", "--config", str(cfg), "--grid", "16", "--modes", "3",
         "--steps", "2", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 1
    assert "lattice generators" in err


DRIFT_ARGV = ["verify", "--check", "drift"]


def launch(command):
    """Run `command` in a child process that imports the same `heatcurrents`
    sources as this test, whatever the working directory."""
    env = dict(os.environ)
    src = str(Path(heatcurrents.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(command, capture_output=True, timeout=120, env=env)


def test_console_script_runs():
    # `python -m heatcurrents` enters through cli.main, like the installed
    # script, but needs no `pip install` to put an executable on PATH.
    proc = launch([sys.executable, "-m", "heatcurrents", *DRIFT_ARGV])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["name"] == "drift"


@pytest.mark.skipif(
    shutil.which("heatcurrents") is None,
    reason="no `heatcurrents` executable on PATH (run `pip install -e .`)",
)
def test_installed_script_runs():
    proc = launch(["heatcurrents", *DRIFT_ARGV])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["name"] == "drift"
    module = launch([sys.executable, "-m", "heatcurrents", *DRIFT_ARGV])
    assert proc.stdout == module.stdout


def test_every_exported_name_resolves():
    package = Path(heatcurrents.__file__).parent
    for name in ["heatcurrents"] + [f"heatcurrents.{p.stem}" for p in package.glob("*.py")]:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], name


def test_console_script_targets_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["heatcurrents"]
    assert target == "heatcurrents.cli:main"
    assert importlib.import_module("heatcurrents.__main__").main is cli.main
