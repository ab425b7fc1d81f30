"""Verification: marginal law, covariance, convergence orders, regularity
across grid refinement, group-manifold drift, the cocycle's exact
identities, and the central torus.

Every check emits StatReport records with a uniform pass rule
|estimate - target| <= max(4 * stderr, absolute tolerance) (one-sided
variants note it in tolerance_rule).  Convergence ladders use common
random numbers: coarse increments are block sums of fine ones, so level
differences estimate pure discretization effects with the Monte Carlo
noise mostly cancelled.

The identity checks (`cocycle_suite`, the Jacobi part of `haar_suite`)
must hold to round-off on band-limited fields.  Pairings of two fields
produce modes up to 2M and their spectral derivative needs 2M < P/2;
triple products need 3M < P for exact grid means.  The generators stay
well inside both.  Their Jacobi sums nest the shipped `extended_bracket`.
`haar_suite` also tests the Haar uniformity of the shipped `haar_sample`
on the central torus and the independence of field and fiber.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .brownian import CovarianceSpec, covariance_kernel, synthesize
from .extension import (
    EXTENSION_CENTRAL_STREAM,
    LatticeSpec,
    cocycle,
    cocycle_scalars,
    extended_bracket,
    haar_sample,
    leibniz_check,
)
from .lie import LieBasis, build_basis, log_batch
from .lie import exp_batch  # noqa: F401  unused here; bench/spans.py traces this name
from .rng import DIAGNOSTIC_STREAM_BASE, RngStream, diagnostic_stream, substream
from .sde import CHUNK, FieldState, SdeConfig, flow, identity
from .sde import sample_ensemble, sample_field, sample_marginal
from .torus import SpectralBasis, build_spectrum

__all__ = [
    "StatReport",
    "make_report",
    "one_sided_report",
    "character_target",
    "character_test",
    "covariance_test",
    "weak_order_test",
    "strong_convergence_test",
    "regularity_probe",
    "regularity_stream_ids",
    "drift_report",
    "random_band_limited",
    "cocycle_suite",
    "ks_uniform",
    "haar_suite",
    "fd_variance_target",
    "default_config",
    "run_check",
    "CHECK_NAMES",
    "reports_to_json",
]


@dataclass(frozen=True)
class StatReport:
    """One verified statistic with its pass/fail resolution."""

    name: str
    estimate: float
    target: float
    stderr: float
    n_samples: int
    passed: bool
    tolerance_rule: str

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


def make_report(
    name: str,
    estimate: float,
    target: float,
    stderr: float,
    n_samples: int,
    atol: float = 0.0,
) -> StatReport:
    band = max(4.0 * stderr, atol)
    rule = f"|estimate - target| <= max(4*stderr, {atol:g})"
    return StatReport(
        name=name,
        estimate=float(estimate),
        target=float(target),
        stderr=float(stderr),
        n_samples=int(n_samples),
        passed=bool(abs(estimate - target) <= band),
        tolerance_rule=rule,
    )


def one_sided_report(
    name: str,
    estimate: float,
    bound: float,
    stderr: float,
    n_samples: int,
    direction: str,
) -> StatReport:
    if direction == "min":
        ok = estimate >= bound
        rule = f"one-sided: estimate >= {bound:g}"
    else:
        ok = estimate <= bound
        rule = f"one-sided: estimate <= {bound:g}"
    return StatReport(
        name=name,
        estimate=float(estimate),
        target=float(bound),
        stderr=float(stderr),
        n_samples=int(n_samples),
        passed=bool(ok),
        tolerance_rule=rule,
    )


def reports_to_json(reports: list) -> bytes:
    """Deterministic JSON array of report objects.  JSON (RFC 8259) has no
    token for a non-finite number, so one is written as null."""
    doc = [
        {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in d.items()}
        for d in (r.to_dict() for r in reports)
    ]
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def default_config(
    m_max: int = 16,
    p: int = 64,
    n: int = 2,
    n_steps: int = 256,
    t_end: float = 1.0,
    seed: int = 0,
) -> SdeConfig:
    """The package-wide reference configuration, on the circle (d = 1)
    with Sobolev order k = 2."""
    basis = build_spectrum(1, p, m_max)
    lie = build_basis(n)
    spec = CovarianceSpec(k=2, basis=basis, lie=lie)
    return SdeConfig(spec=spec, n_steps=n_steps, t_end=t_end, seed=seed)


# ---------------------------------------------------------------------------
# marginal law at one point


def character_target(c: float, t: float) -> float:
    """E[Re tr g_t(S)] for SU(2): 2 exp(-(3/8) c t).

    3/8 = (1/2) * (3/4) * (1/2)... spelled out: the quadratic Casimir of the
    orthonormal su(2) basis is sum_a T_a^2 = -(3/4) I and the per-direction
    variance rate is c, giving d/dt E[g] = -(3/8) c E[g].
    """
    return 2.0 * np.exp(-0.375 * c * t)


def character_test(cfg: SdeConfig, n_samples: int) -> StatReport:
    """Empirical E[Re tr g_1(S)] against the closed-form heat-kernel value.

    Uses the restricted-marginal sampler at the origin, whose law matches
    the full-field restriction exactly.
    """
    if cfg.spec.lie.n != 2:
        raise ValueError("analytic character target implemented for SU(2) only")
    origin = np.zeros(cfg.spec.basis.grid.dim)
    stream = diagnostic_stream(cfg.seed, 0)
    mats = sample_marginal(cfg, origin[np.newaxis, :], n_samples, stream=stream)
    vals = np.real(np.trace(mats[:, 0], axis1=-2, axis2=-1))
    c = covariance_kernel(cfg.spec, origin, origin)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return make_report(
        "character", est, character_target(c, cfg.t_end), se, n_samples
    )


# ---------------------------------------------------------------------------
# spatial covariance of the log-field at small time

_LOG_BRANCH_LIMIT = 1.0  # exclude ||g - I||_F >= 1 from log statistics


def covariance_test(cfg: SdeConfig, pairs: list, n_samples: int) -> list:
    """Log-field covariance vs t_end * C_k(S, S') * delta_ab at given pairs.

    `pairs` is a list of (S, S') coordinate pairs.  Emits one diagonal
    (a = b, pooled over directions) and one cross (a != b) report per pair,
    plus a log-branch failure-rate report; failures above 1% fail.
    """
    pts = []
    index = {}
    for s, sp in pairs:
        for q in (tuple(np.atleast_1d(s)), tuple(np.atleast_1d(sp))):
            if q not in index:
                index[q] = len(pts)
                pts.append(q)
    points = np.asarray(pts, dtype=float)
    mats = sample_marginal(cfg, points, n_samples, stream=diagnostic_stream(cfg.seed, 1))

    eye = np.eye(cfg.spec.lie.n)
    dist = np.sqrt(np.sum(np.abs(mats - eye) ** 2, axis=(-2, -1)))
    good = dist < _LOG_BRANCH_LIMIT  # (n_samples, n_pts)
    coeffs = log_batch(cfg.spec.lie, mats)  # (n_samples, n_pts, dim_g)

    fail_rate = float(1.0 - good.all(axis=1).mean())
    reports = [
        one_sided_report(
            "covariance_log_failure_rate",
            fail_rate,
            0.01,
            np.sqrt(max(fail_rate, 1.0 / n_samples) / n_samples),
            n_samples,
            "max",
        )
    ]

    dim_g = cfg.spec.dim_g
    for s, sp in pairs:
        i = index[tuple(np.atleast_1d(s))]
        j = index[tuple(np.atleast_1d(sp))]
        keep = good[:, i] & good[:, j]
        x = coeffs[keep, i, :]
        y = coeffs[keep, j, :]
        m = int(keep.sum())
        target = cfg.t_end * covariance_kernel(
            cfg.spec, np.atleast_1d(s), np.atleast_1d(sp)
        )
        label = f"({np.atleast_1d(s)},{np.atleast_1d(sp)})"

        # diagonal a = b, pooled over the dim_g directions
        prod = x * y  # (m, dim_g)
        est = float(prod.mean())
        se = float(prod.mean(axis=1).std(ddof=1) / np.sqrt(m))
        reports.append(
            make_report(
                f"covariance_diag_{label}",
                est,
                target,
                se,
                m,
                atol=0.05 * abs(target),
            )
        )

        # cross directions a != b: independent, zero mean
        iu, ju = np.triu_indices(dim_g, k=1)
        cross = 0.5 * (x[:, iu] * y[:, ju] + x[:, ju] * y[:, iu])
        cest = float(cross.mean())
        cse = float(cross.mean(axis=1).std(ddof=1) / np.sqrt(m))
        reports.append(
            make_report(f"covariance_cross_{label}", cest, 0.0, cse, m)
        )
    return reports


# ---------------------------------------------------------------------------
# convergence orders under common random numbers


def _slope_fit(cfg: SdeConfig, y: np.ndarray, yvar: np.ndarray) -> tuple:
    """OLS slope of y on log h over every ladder level but the finest, with
    delta-method variance from var(y)."""
    x = np.log(cfg.t_end / cfg.n_steps * 2.0 ** np.arange(len(y), 0, -1))
    dx = x - x.mean()
    denom = np.sum(dx * dx)
    slope = float(np.sum(dx * y) / denom)
    var = float(np.sum((dx / denom) ** 2 * yvar))
    return slope, np.sqrt(var)


def _coarse_terminal(lie: LieBasis, incr: np.ndarray, n_steps: int) -> np.ndarray:
    """Terminal g over n_steps steps whose increments are block sums of the
    fine increments incr (m, n_fine, dim_g): the common-random-number path."""
    m, n_fine, dim_g = incr.shape
    coarse = incr if n_steps == n_fine else (
        incr.reshape(m, n_steps, n_fine // n_steps, dim_g).sum(axis=2)
    )
    return flow(lie, identity((m,), lie.n), n_steps, lambda s: coarse[:, s, :])


# Fine increments per ladder chunk.  Chunks bound memory only; 2^22 keeps
# the strong_order acceptance run (4096 samples of 1024 steps) in one chunk,
# since every further chunk repeats the per-step overhead.
_LADDER_BUDGET = 1 << 22


def _ladder(
    cfg: SdeConfig, n_levels: int, n_samples: int, stream: RngStream, observe
) -> np.ndarray:
    """observe(g_coarse, g_fine) per sample between consecutive levels,
    (n_levels - 1, n_samples): the finest level steps cfg.n_steps times and
    each coarser one halves it.  Sample paths are drawn at the origin from
    `stream` in sample order; C_k(S, S) is the same at every S."""
    if n_levels < 3:
        raise ValueError(f"need at least 3 ladder levels, got {n_levels}")
    if cfg.n_steps % 2 ** (n_levels - 1):
        raise ValueError(f"n_steps {cfg.n_steps} is not divisible by 2^{n_levels - 1}")
    origin = np.zeros(cfg.spec.basis.grid.dim)
    scale = np.sqrt(cfg.t_end / cfg.n_steps * covariance_kernel(cfg.spec, origin, origin))
    chunk = max(1, min(CHUNK, _LADDER_BUDGET // cfg.n_steps))
    out = np.empty((n_levels - 1, n_samples))
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        incr = stream.normal(size=(hi - lo, cfg.n_steps, cfg.spec.dim_g))
        incr *= scale
        g = [_coarse_terminal(cfg.spec.lie, incr, cfg.n_steps >> j)
             for j in range(n_levels - 1, -1, -1)]
        for li in range(n_levels - 1):
            out[li, lo:hi] = observe(g[li], g[li + 1])
    return out


def weak_order_test(
    cfg: SdeConfig,
    n_levels: int = 4,
    *,
    n_samples: int,
) -> StatReport:
    """Log-log slope of the character bias vs step size, via level differences.

    The finest of n_levels levels takes cfg.n_steps steps and each coarser
    one sums its finer neighbour's increments in pairs, so the differences
    f_l - f_{l+1} cancel most Monte Carlo noise and estimate bias(h_l) -
    bias(h_{l+1}), which scales like h_l^p for a weak order-p scheme.  A
    difference within 2 standard errors of zero fails as inconclusive.
    """
    if cfg.spec.lie.n != 2:
        raise ValueError("character observable requires SU(2)")

    diffs = _ladder(
        cfg, n_levels, n_samples, diagnostic_stream(cfg.seed, 2),
        lambda c, f: np.real(c[:, 0, 0] + c[:, 1, 1]) - np.real(f[:, 0, 0] + f[:, 1, 1]),
    )
    mean_d = diffs.mean(axis=1)
    se_d = np.sqrt(diffs.var(axis=1) / n_samples)
    if np.any(np.abs(mean_d) < 2.0 * se_d):
        return StatReport(
            name="weak_order",
            estimate=float("nan"),
            target=1.0,
            stderr=float("nan"),
            n_samples=n_samples,
            passed=False,
            tolerance_rule="inconclusive: level bias below 2 standard errors",
        )

    logd = np.log(np.abs(mean_d))
    logd_var = (se_d / mean_d) ** 2
    slope, slope_se = _slope_fit(cfg, logd, logd_var)
    return make_report("weak_order", slope, 1.0, slope_se, n_samples, atol=0.3)


def strong_convergence_test(
    cfg: SdeConfig,
    n_levels: int = 5,
    *,
    n_samples: int,
) -> StatReport:
    """Rate exponent of pathwise differences on weak_order_test's ladder.

    RMS ||g^(l) - g^(l+1)||_F over samples scales like h_l^rho with rho =
    1/2 for this scheme; reports the fitted rho with band [0.4, 0.6].
    """
    sq = _ladder(
        cfg, n_levels, n_samples, diagnostic_stream(cfg.seed, 3),
        lambda c, f: np.sum(np.abs(c - f) ** 2, axis=(-2, -1)),
    )
    mean_sq = sq.mean(axis=1)
    # log rms = log(mean_sq)/2, so var = var(mean_sq) / (2 mean_sq)^2
    log_rms_var = sq.var(axis=1, ddof=1) / n_samples / (2.0 * mean_sq) ** 2
    slope, slope_se = _slope_fit(cfg, np.log(np.sqrt(mean_sq)), log_rms_var)
    return make_report("strong_order", slope, 0.5, slope_se, n_samples, atol=0.1)


# ---------------------------------------------------------------------------
# regularity across grid refinement


def fd_variance_target(spec: CovarianceSpec, t: float, r: int) -> float:
    """Closed spectral sum for Var of the order-r forward difference.

    d=1 only: t * (2pi)^{-1} * [w_0 1_{r=0} + 2 sum_m w_m (2 sin(m h/2)/h)^{2r}]
    with h the grid spacing; the finite-difference symbol is evaluated
    exactly, so this is the discrete-operator target, not a continuum limit.
    It is the variance of the linear field B_t, whose covariance is t C_k,
    not of log g_t: the log-field of the group flow reads slightly higher
    (about 0.3% at k = 0, P = 128, t = 0.01), a bias that the probe's 10%
    band absorbs.
    """
    grid = spec.basis.grid
    if grid.dim != 1:
        raise ValueError("closed finite-difference sums implemented for d=1 only")
    h = grid.spacing
    w = spec.weights
    m_values = spec.basis.frequencies[:, 0].astype(float)
    w_pairs = spec.weights[1::2]
    gain = (2.0 * np.abs(np.sin(m_values * h / 2.0)) / h) ** (2 * r)
    const = w[0] if r == 0 else 0.0
    return float(t * (const + 2.0 * np.sum(w_pairs * gain)) / (2.0 * np.pi))


# The probe runs in d = 1, differences to first order, and integrates to
# time 0.01 in 8 steps.
_REGULARITY_T = 0.01
_REGULARITY_STEPS = 8

# Level j of the probe (k-major over the grid ladder) draws sample i from
# diagnostic slot REGULARITY_STRIDE * (j + 1) + i, one stream per sample:
# above the fixed slots 0-33 and below EXTENSION_CENTRAL_STREAM.
REGULARITY_STRIDE = 1 << 20


def regularity_stream_ids(level: int, n_samples: int) -> range:
    """Stream ids of regularity level `level`, one per sample.

    Raises ValueError when the range would overrun its level's stride or
    reach the central-draw ids, so level ranges never overlap.
    """
    start = DIAGNOSTIC_STREAM_BASE + REGULARITY_STRIDE * (level + 1)
    if n_samples > REGULARITY_STRIDE or start + n_samples > EXTENSION_CENTRAL_STREAM:
        raise ValueError(
            f"regularity level {level} cannot hold {n_samples} samples: at most "
            f"{REGULARITY_STRIDE} per level keep the stream-id ranges disjoint"
        )
    return range(start, start + n_samples)


def regularity_probe(
    k_values: tuple = (2, 0),
    grid_ladder: tuple = (16, 32, 64, 128),
    *,
    n_samples: int,
    seed: int = 0,
) -> list:
    """Variance of the first difference of the log-field across refinement.

    Each level P carries M_max = P/4, so refinement genuinely adds modes.
    Smooth noise (2k > d + 2r, here d = r = 1) plateaus; k = 0 must
    diverge.  Every level draws its fields through `sample_ensemble` on its
    own range of `regularity_stream_ids`.  Emits per-level variance reports
    against the closed sums and one final-ratio report per k.
    """
    n_levels = len(k_values) * len(grid_ladder)
    regularity_stream_ids(n_levels - 1, n_samples)  # reject an overrun before sampling
    lie = build_basis(2)
    reports = []
    for ki, k in enumerate(k_values):
        level_vars = []
        level_ses = []
        for pi, p in enumerate(grid_ladder):
            basis = build_spectrum(1, p, p // 4)
            spec = CovarianceSpec(k=k, basis=basis, lie=lie, allow_rough=(k < 1))
            cfg = SdeConfig(spec, _REGULARITY_STEPS, t_end=_REGULARITY_T, seed=seed)
            ids = regularity_stream_ids(ki * len(grid_ladder) + pi, n_samples)
            coeffs = log_batch(lie, sample_ensemble(cfg, n_samples, first_stream=ids.start))
            fd = (np.roll(coeffs, -1, axis=1) - coeffs) / basis.grid.spacing
            per_sample = np.mean(fd**2, axis=tuple(range(1, fd.ndim)))
            est = float(per_sample.mean())
            se = float(per_sample.std(ddof=1) / np.sqrt(n_samples))
            target = fd_variance_target(spec, _REGULARITY_T, 1)
            level_vars.append(est)
            level_ses.append(se)
            reports.append(
                make_report(
                    f"regularity_variance_k{k}_P{p}",
                    est,
                    target,
                    se,
                    n_samples,
                    atol=0.10 * target,
                )
            )
        ratio = level_vars[-1] / level_vars[-2]
        ratio_se = ratio * np.sqrt(
            (level_ses[-1] / level_vars[-1]) ** 2
            + (level_ses[-2] / level_vars[-2]) ** 2
        )
        if k >= 1:
            reports.append(
                make_report(
                    f"regularity_ratio_k{k}",
                    ratio,
                    1.0,
                    ratio_se,
                    n_samples,
                    atol=0.1,
                )
            )
        else:
            reports.append(
                one_sided_report(
                    f"regularity_ratio_k{k}", ratio, 1.5, ratio_se, n_samples, "min"
                )
            )
    return reports


# ---------------------------------------------------------------------------
# group-manifold drift


def drift_report(state: FieldState) -> StatReport:
    """Max unitarity and determinant defects over the grid, against 1e-10."""
    est = max(state.unitarity_defect(), state.det_defect())
    return make_report("drift", est, 0.0, 0.0, state.mats.size // state.group_n**2, atol=1e-10)


# ---------------------------------------------------------------------------
# exact identities of the cocycle and the extended bracket


def random_band_limited(basis: SpectralBasis, lie: LieBasis, stream) -> np.ndarray:
    """Random (*grid.shape, dim_g) field, i.i.d. normal over the truncated basis."""
    return synthesize(basis, stream.normal(size=(basis.n_modes, lie.dim)))


def _jacobi_residuals(lie: LieBasis, stream: RngStream, n_triples: int) -> tuple:
    """Max |Jacobi sum| of the extended bracket over n_triples random
    band-limited triples, as (field, central): the field part is the
    bracket's Jacobi identity, the central part the cocycle's cyclic
    identity omega([e0, e1], e2) + omega([e1, e2], e0) + omega([e2, e0], e1)
    = 0.  Triples reach 3M, so M = 10 at P = 64."""
    basis = build_spectrum(1, 64, 10)
    grid = basis.grid
    zero = np.zeros(grid.dim * lie.dim)
    field_resid = 0.0
    central_resid = 0.0
    for _ in range(n_triples):
        e0, e1, e2 = ((random_band_limited(basis, lie, stream), zero) for _ in range(3))
        a, b, c = (
            extended_bracket(grid, lie, extended_bracket(grid, lie, x, y), z)
            for x, y, z in ((e0, e1, e2), (e1, e2, e0), (e2, e0, e1))
        )
        field_resid = max(field_resid, float(np.max(np.abs(a[0] + b[0] + c[0]))))
        central_resid = max(central_resid, float(np.max(np.abs(a[1] + b[1] + c[1]))))
    return field_resid, central_resid


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

    # (c) cyclic 2-cocycle identity on brackets
    _, cyc = _jacobi_residuals(lie, stream, n_triples)
    reports.append(
        make_report("cocycle_cyclic", cyc, 0.0, 0.0, n_triples, atol=1e-9)
    )

    # (d) closed-form value on the circle: eta = cos(x) X, eta1 = sin(x) X
    x_coeff = stream.normal(size=lie.dim)
    kappa_xx = float(x_coeff @ lie.killing @ x_coeff)
    coords = grid.coordinates()[..., 0]
    eta = np.cos(coords)[..., np.newaxis] * x_coeff
    eta1 = np.sin(coords)[..., np.newaxis] * x_coeff
    value = cocycle_scalars(grid, lie, eta, eta1)[0]
    reports.append(
        make_report(
            "cocycle_circle_value", value, 0.5 * kappa_xx, 0.0, 1, atol=1e-8
        )
    )
    return reports


# ---------------------------------------------------------------------------
# the central torus


def ks_uniform(x) -> tuple[float, float]:
    """Kolmogorov-Smirnov test of `x` against uniform [0, 1): (D, p).

    D = max_i max(i/n - x_(i), x_(i) - (i-1)/n), as scipy computes it.  p is
    Kolmogorov's limit law at lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) D
    (Stephens, J. R. Stat. Soc. B 32, 1970), 8 terms of its theta form below
    lambda = 1.18 and of its alternating form above, which alone is wrong at
    small lambda.  Its error against the exact law is at most 4.2e-3 at
    n = 1000 and 1.4e-3 at n = 10 000, and 2.1% relative for p in
    (1e-4, 0.05) at n >= 1000; at n <= 10 it is coarse.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - x)), float(np.max(x - (i - 1) / n)))
    lam = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
    j = np.arange(1, 9)
    if lam < 1.18:
        tail = np.exp(-((2 * j - 1) ** 2) * np.pi**2 / (8 * lam**2)).sum()
        p = 1.0 - np.sqrt(2 * np.pi) / lam * tail
    else:
        p = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j**2 * lam**2))
    return d, float(p)


def haar_suite(seed: int, n_samples: int) -> list:
    """Haar uniformity, field/fiber independence, extended-bracket Jacobi.

    Uniformity is a per-coordinate KS test with the asymptotic Kolmogorov
    p-value of `ks_uniform`, within 1.4e-3 of the exact law at n = 10 000.
    """
    reports = []

    # per-coordinate Kolmogorov-Smirnov against uniform [0, 1) of the
    # shipped fiber sampler on the rank-3 identity lattice
    lattice = LatticeSpec.identity(3)
    stream = substream(seed, EXTENSION_CENTRAL_STREAM)
    draws = np.stack([haar_sample(lattice, stream) for _ in range(n_samples)])
    min_p = min(ks_uniform(draws[:, j])[1] for j in range(3))
    reports.append(
        one_sided_report("haar_ks_min_pvalue", min_p, 0.01, 0.0, n_samples, "min")
    )

    # independence of the field marginal, drawn by `sample_marginal` on
    # stream (seed, 0), and the central coordinates above
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
    field_resid, central_resid = _jacobi_residuals(
        build_basis(2), diagnostic_stream(seed, 33), 100
    )
    reports.append(
        make_report("extended_jacobi_field", field_resid, 0.0, 0.0, 100, atol=1e-10)
    )
    reports.append(
        make_report("extended_jacobi_central", central_resid, 0.0, 0.0, 100, atol=1e-9)
    )
    return reports


# ---------------------------------------------------------------------------
# named checks for the command line


def _check_drift(seed: int, n_samples: int | None) -> list:
    # A fixed-size check: one field of 1000 steps, whatever n_samples says.
    cfg = default_config(n_steps=1000, seed=seed)
    state = sample_field(cfg)
    return [drift_report(state)]


def _check_character(seed: int, n_samples: int | None) -> list:
    cfg = default_config(n_steps=256, seed=seed)
    return [character_test(cfg, n_samples=200_000 if n_samples is None else n_samples)]


def _check_covariance(seed: int, n_samples: int | None) -> list:
    cfg = default_config(n_steps=32, t_end=0.05, seed=seed)
    h = cfg.spec.basis.grid.spacing
    pairs = [(np.array([0.0]), np.array([sep * h])) for sep in (0, 4, 8, 12)]
    return covariance_test(cfg, pairs, n_samples=100_000 if n_samples is None else n_samples)


def _check_weak_order(seed: int, n_samples: int | None) -> list:
    cfg = default_config(n_steps=64, seed=seed)
    return [weak_order_test(cfg, n_samples=1_000_000 if n_samples is None else n_samples)]


def _check_strong_order(seed: int, n_samples: int | None) -> list:
    cfg = default_config(n_steps=1024, seed=seed)
    return [strong_convergence_test(cfg, n_samples=4096 if n_samples is None else n_samples)]


def _check_regularity(seed: int, n_samples: int | None) -> list:
    return regularity_probe(seed=seed, n_samples=4096 if n_samples is None else n_samples)


def _check_cocycle(seed: int, n_samples: int | None) -> list:
    return cocycle_suite(seed=seed, n_triples=100 if n_samples is None else n_samples)


def _check_haar(seed: int, n_samples: int | None) -> list:
    return haar_suite(seed=seed, n_samples=10_000 if n_samples is None else n_samples)


CHECK_NAMES = {
    "drift": _check_drift,
    "character": _check_character,
    "covariance": _check_covariance,
    "weak_order": _check_weak_order,
    "strong_order": _check_strong_order,
    "regularity": _check_regularity,
    "cocycle": _check_cocycle,
    "haar": _check_haar,
}


def run_check(name: str, seed: int = 0, n_samples: int | None = None) -> list:
    """Run one named diagnostic; returns its StatReport list.

    n_samples None runs the check at its acceptance size; `drift` has a
    fixed size and ignores n_samples, and every check that estimates a
    standard error (all but `cocycle`) needs at least 2.
    """
    if name not in CHECK_NAMES:
        raise KeyError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECK_NAMES))}"
        )
    if n_samples is not None and n_samples < 1:
        raise ValueError(f"samples must be >= 1, got {n_samples}")
    if n_samples == 1 and name not in ("drift", "cocycle"):
        raise ValueError(f"check {name!r} estimates a standard error: samples must be >= 2")
    return CHECK_NAMES[name](seed, n_samples)
