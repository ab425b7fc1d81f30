"""Exact-identity checks for the cocycle and extension machinery.

These complement the statistical suite in `diagnostics`: the quantities
here are algebraic identities that must hold to round-off on band-limited
fields, plus the distributional checks on the central torus (Haar
uniformity, field/fiber independence).

Band limits carry safety margins: pairings of two fields produce modes up
to 2M and their spectral derivative needs 2M < P/2, triple products need
3M < P for exact grid means.  The generators below stay well inside both.
"""

from __future__ import annotations

import numpy as np

from .brownian import synthesize
from .diagnostics import default_config, make_report, one_sided_report
from .extension import (
    EXTENSION_CENTRAL_STREAM,
    cocycle,
    cocycle_scalars,
    extended_bracket,
    leibniz_check,
)
from .lie import LieBasis, bracket_coeffs, build_basis
from .rng import diagnostic_stream, substream
from .sde import sample_marginal
from .torus import SpectralBasis, build_spectrum

__all__ = [
    "random_band_limited",
    "cocycle_suite",
    "haar_suite",
]


def random_band_limited(basis: SpectralBasis, lie: LieBasis, stream) -> np.ndarray:
    """Random (*grid.shape, dim_g) field, i.i.d. normal over the truncated basis."""
    return synthesize(basis, stream.normal(size=(basis.n_modes, lie.dim)))


def cocycle_suite(seed: int, n_triples: int) -> list:
    """Leibniz, projected antisymmetry, cyclic identity, closed-form value."""
    lie = build_basis(2)
    stream = diagnostic_stream(seed, 32)
    reports = []

    # (a) Leibniz rule for the pairing: products reach 2M, so M <= 15 at P=64
    basis_pair = build_spectrum(1, 64, 15)
    grid = basis_pair.grid
    resid = 0.0
    for _ in range(20):
        eta = random_band_limited(basis_pair, lie, stream)
        eta1 = random_band_limited(basis_pair, lie, stream)
        resid = max(resid, leibniz_check(grid, lie, eta, eta1))
    reports.append(
        make_report("cocycle_leibniz", resid, 0.0, 0.0, 20, atol=1e-10)
    )

    # (b) antisymmetry after projection: the symmetric part is an exact form
    anti = 0.0
    for _ in range(20):
        eta = random_band_limited(basis_pair, lie, stream)
        eta1 = random_band_limited(basis_pair, lie, stream)
        v = cocycle(grid, lie, eta, eta1) + cocycle(grid, lie, eta1, eta)
        anti = max(anti, float(np.max(np.abs(v))))
    reports.append(
        make_report("cocycle_antisymmetry", anti, 0.0, 0.0, 20, atol=1e-10)
    )

    # (c) cyclic 2-cocycle identity on brackets: triples reach 3M, margin at M=10
    basis_tri = build_spectrum(1, 64, 10)
    grid_tri = basis_tri.grid
    cyc = 0.0
    for _ in range(n_triples):
        e0 = random_band_limited(basis_tri, lie, stream)
        e1 = random_band_limited(basis_tri, lie, stream)
        e2 = random_band_limited(basis_tri, lie, stream)
        total = (
            cocycle(grid_tri, lie, bracket_coeffs(lie, e0, e1), e2)
            + cocycle(grid_tri, lie, bracket_coeffs(lie, e1, e2), e0)
            + cocycle(grid_tri, lie, bracket_coeffs(lie, e2, e0), e1)
        )
        cyc = max(cyc, float(np.max(np.abs(total))))
    reports.append(
        make_report("cocycle_cyclic", cyc, 0.0, 0.0, n_triples, atol=1e-9)
    )

    # (d) closed-form value on the circle: eta = cos(x) X, eta1 = sin(x) X
    x_coeff = stream.normal(size=lie.dim)
    kappa_xx = float(x_coeff @ lie.killing @ x_coeff)
    coords = basis_pair.grid.coordinates()[..., 0]
    eta = np.cos(coords)[..., np.newaxis] * x_coeff
    eta1 = np.sin(coords)[..., np.newaxis] * x_coeff
    value = cocycle_scalars(grid, lie, eta, eta1)[0]
    reports.append(
        make_report(
            "cocycle_circle_value", value, 0.5 * kappa_xx, 0.0, 1, atol=1e-8
        )
    )
    return reports


def haar_suite(seed: int, n_samples: int) -> list:
    """Haar uniformity, field/fiber independence, extended-bracket Jacobi."""
    from scipy.stats import kstest

    reports = []

    # per-coordinate Kolmogorov-Smirnov against uniform [0, 1): `haar_sample`
    # on the rank-3 identity lattice is one uniform draw of 3 coordinates,
    # so n_samples of them from one stream are one (n_samples, 3) draw
    stream = substream(seed, EXTENSION_CENTRAL_STREAM)
    draws = stream.uniform(size=(n_samples, 3))
    min_p = min(float(kstest(draws[:, j], "uniform").pvalue) for j in range(3))
    reports.append(
        one_sided_report("haar_ks_min_pvalue", min_p, 0.01, 0.0, n_samples, "min")
    )

    # independence of the field marginal and the central coordinates;
    # same product construction as the extension sampler (disjoint streams)
    cfg = default_config(n_steps=16, seed=seed)
    point = np.zeros((1, 1))
    mats = sample_marginal(cfg, point, n_samples, stream=substream(seed, 0))
    field_obs = np.real(np.trace(mats[:, 0], axis1=-2, axis2=-1))
    fc = field_obs - field_obs.mean()
    cc = draws - draws.mean(axis=0)
    corr = fc @ cc / (
        n_samples * field_obs.std(ddof=0) * draws.std(axis=0, ddof=0)
    )
    max_corr = float(np.max(np.abs(corr)))
    reports.append(
        one_sided_report(
            "extension_independence",
            max_corr,
            4.0 / np.sqrt(n_samples),
            1.0 / np.sqrt(n_samples),
            n_samples,
            "max",
        )
    )

    # Jacobi identity for the extended bracket on random band-limited triples
    lie = build_basis(2)
    basis = build_spectrum(1, 64, 10)
    grid = basis.grid
    gen = diagnostic_stream(seed, 33)
    field_resid = 0.0
    central_resid = 0.0
    for _ in range(100):
        e0 = random_band_limited(basis, lie, gen)
        e1 = random_band_limited(basis, lie, gen)
        e2 = random_band_limited(basis, lie, gen)
        zero = np.zeros(grid.dim * lie.dim)
        b01, c01 = extended_bracket(grid, lie, (e0, zero), (e1, zero))
        b12, c12 = extended_bracket(grid, lie, (e1, zero), (e2, zero))
        b20, c20 = extended_bracket(grid, lie, (e2, zero), (e0, zero))
        f_total = (
            bracket_coeffs(lie, b01, e2)
            + bracket_coeffs(lie, b12, e0)
            + bracket_coeffs(lie, b20, e1)
        )
        c_total = (
            cocycle(grid, lie, b01, e2)
            + cocycle(grid, lie, b12, e0)
            + cocycle(grid, lie, b20, e1)
        )
        field_resid = max(field_resid, float(np.max(np.abs(f_total))))
        central_resid = max(central_resid, float(np.max(np.abs(c_total))))
    reports.append(
        make_report("extended_jacobi_field", field_resid, 0.0, 0.0, 100, atol=1e-10)
    )
    reports.append(
        make_report("extended_jacobi_central", central_resid, 0.0, 0.0, 100, atol=1e-9)
    )
    return reports
