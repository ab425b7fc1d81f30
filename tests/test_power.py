"""Power of the named checks: each injected defect must fail its check."""

import numpy as np

from heatcurrents import diagnostics, extension, sde
from heatcurrents.diagnostics import run_check
from heatcurrents.extension import EMBED_DIRECTION, extended_bracket, haar_sample
from heatcurrents.lie import killing_pair


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


def test_covariance_catches_a_scaled_gram(monkeypatch):
    kernel_gram = sde.kernel_gram
    monkeypatch.setattr(sde, "kernel_gram", lambda spec, pts: 1.1 * kernel_gram(spec, pts))
    reports = [r for r in run_check("covariance", n_samples=20_000)
               if r.name.startswith("covariance_diag_")]
    assert len(reports) == 4
    for r in reports:
        assert not r.passed, r.name


def test_character_catches_a_scaled_gram(monkeypatch):
    kernel_gram = sde.kernel_gram
    monkeypatch.setattr(sde, "kernel_gram", lambda spec, pts: 1.05 * kernel_gram(spec, pts))
    (report,) = run_check("character", n_samples=20_000)
    assert report.estimate < report.target
    assert not report.passed


def test_haar_catches_a_skewed_fiber(monkeypatch):
    def skewed(lattice, stream):
        return haar_sample(lattice, stream) ** 1.1

    monkeypatch.setattr(extension, "haar_sample", skewed)
    monkeypatch.setattr(diagnostics, "haar_sample", skewed)
    reports = {r.name: r for r in run_check("haar")}
    assert not reports["haar_ks_min_pvalue"].passed


def test_haar_catches_a_central_term_that_is_not_a_cocycle(monkeypatch):
    # the grid mean of kappa(eta, eta1) is symmetric and ad-invariant, so its
    # cyclic sum on brackets is three times one term instead of zero
    def skewed(grid, lie, x, y):
        bracket, omega = extended_bracket(grid, lie, x, y)
        extra = np.zeros((grid.dim, lie.dim))
        extra[:, EMBED_DIRECTION] = 1e-3 * killing_pair(lie, x[0], y[0]).mean()
        return bracket, omega + extra.reshape(-1)

    monkeypatch.setattr(extension, "extended_bracket", skewed)
    monkeypatch.setattr(diagnostics, "extended_bracket", skewed)
    reports = {r.name: r for r in run_check("haar", n_samples=100)}
    assert not reports["extended_jacobi_central"].passed
    assert reports["extended_jacobi_field"].passed
