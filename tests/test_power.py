"""Power of the named checks: each injected defect must fail its check."""

from heatcurrents import diagnostics, extension, sde
from heatcurrents.diagnostics import run_check


def test_drift_catches_an_exp_off_the_group(monkeypatch):
    exp_batch = sde.exp_batch
    monkeypatch.setattr(sde, "exp_batch", lambda lie, x: exp_batch(lie, x) * (1 + 1e-9))
    (report,) = run_check("drift")
    # 1000 steps of a 1e-9 scale error drift ~1e-6 off the group; unpatched ~1e-14
    assert report.estimate > 1e-7
    assert not report.passed


def test_cocycle_sign_error_seen_only_by_the_closed_form_value(monkeypatch):
    def negated(scalars):
        return lambda *args: -scalars(*args)

    monkeypatch.setattr(extension, "cocycle_scalars", negated(extension.cocycle_scalars))
    monkeypatch.setattr(diagnostics, "cocycle_scalars", negated(diagnostics.cocycle_scalars))
    reports = {r.name: r for r in run_check("cocycle", n_samples=5)}
    assert not reports["cocycle_circle_value"].passed
    # antisymmetry and the cyclic identity are linear in the cocycle and
    # Leibniz does not read it, so a flipped sign passes all three
    for name in ("cocycle_leibniz", "cocycle_antisymmetry", "cocycle_cyclic"):
        assert reports[name].passed, name
