"""Group-valued stochastic flow: pointwise left-invariant geodesic stepping.

The field g_t on the torus solves the Stratonovich equation
dg_t(S) = g_t(S) dB_t(S) with g_0 = identity, driven by the spectral
Brownian motion of `brownian`.  The integrator is the exponential Euler
(geodesic) scheme g <- g . exp(dB), which stays on the group to round-off
by construction and has weak order one.

`flow` is the single stepping path: every sampler in the package, here
and in `diagnostics`, advances its batch of group elements through it and
differs only in the increments it supplies.  `brownian.synthesize` is the
single synthesis path for increments built from the spectral basis.
`_flow_field` is the one full-grid flow: it advances a
(*grid, sample, n, n) batch with one stream per sample.  `sample_ensemble`
runs it on blocks of samples for the `ensemble` and `extend` commands and
the regularity probe, and `sample_field` is the one-sample block.

Two sampling routes exist on purpose.  `sample_field` integrates the full
grid field.  `sample_marginal` integrates only a chosen subset of points:
the restriction of the driving noise to finitely many points is again a
Gaussian vector with covariance given by the kernel Gram matrix, so the
restricted dynamics have exactly the law of the full-field restriction.
The statistical tests lean on the second route for sample counts the full
grid could not reach.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .brownian import CovarianceSpec, gram_sqrt, kernel_gram, sample_increment
from .lie import LieBasis, exp_batch
from .rng import RngStream, substream
from .torus import TorusGrid

__all__ = [
    "FieldState",
    "SdeConfig",
    "CHUNK",
    "flow",
    "identity",
    "step",
    "sample_field",
    "sample_ensemble",
    "sample_marginal",
]


# Group elements per batch in the batched samplers.  Where one stream feeds
# the whole batch it fixes the draw order, so it is part of what makes their
# output reproducible; `sample_ensemble` draws per sample and does not depend
# on it.
CHUNK = 50_000


def flow(lie: LieBasis, g0: np.ndarray, n_steps: int, draw) -> np.ndarray:
    """Geodesic flow g <- g . exp(draw(i)) for i = 0 .. n_steps-1, pointwise.

    g0 has shape (*batch, n, n) and may be a read-only broadcast view; each
    increment draw(i) holds algebra coefficients of shape (*batch, dim_g).
    Returns the terminal (*batch, n, n) array.  A mismatched increment
    raises ValueError and non-finite group entries abort at the first bad
    step, both naming the step as i/n_steps.
    """
    g = g0
    for i in range(n_steps):
        incr = draw(i)
        if incr.shape[:-1] != g.shape[:-2]:
            raise ValueError(
                f"increment shape {incr.shape} does not match group batch shape "
                f"{g.shape[:-2]} at step {i + 1}/{n_steps}"
            )
        g = g @ exp_batch(lie, incr)
        if not np.isfinite(g).all():
            bad = int(np.sum(~np.isfinite(g.view(float))))
            raise FloatingPointError(
                f"non-finite group entries after step {i + 1}/{n_steps} "
                f"({bad} bad float components)"
            )
    return g


@dataclass(frozen=True)
class FieldState:
    """Group-valued grid function at a fixed time.

    mats has shape (*grid.shape, n, n); t lies in [0, 1].
    """

    grid: TorusGrid
    mats: np.ndarray
    t: float

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=complex)
        if m.shape[: self.grid.dim] != self.grid.shape or m.shape[-2] != m.shape[-1]:
            raise ValueError(
                f"field shape {m.shape} incompatible with grid {self.grid.shape}"
            )
        t = float(self.t)
        if not (0.0 <= t <= 1.0):
            # accumulated dt can overshoot 1 by round-off; anything else is a bug
            if 1.0 < t < 1.0 + 1e-9:
                t = 1.0
            else:
                raise ValueError(f"time must lie in [0, 1], got {t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mats", m)

    @property
    def group_n(self) -> int:
        return self.mats.shape[-1]

    def unitarity_defect(self) -> float:
        """Max over the grid of ||g^dagger g - I||_F."""
        gram = np.einsum("...ji,...jk->...ik", self.mats.conj(), self.mats)
        gram[..., range(self.group_n), range(self.group_n)] -= 1.0
        return float(np.sqrt(np.sum(np.abs(gram) ** 2, axis=(-2, -1))).max())

    def det_defect(self) -> float:
        """Max over the grid of |det g - 1|."""
        return float(np.abs(np.linalg.det(self.mats) - 1.0).max())


@dataclass(frozen=True)
class SdeConfig:
    """Integration setup: covariance, step count, horizon, root seed."""

    spec: CovarianceSpec
    n_steps: int
    t_end: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        if not (0.0 < self.t_end <= 1.0):
            raise ValueError(f"t_end must lie in (0, 1], got {self.t_end}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps


def identity(shape: tuple, n: int) -> np.ndarray:
    """Read-only identity batch (*shape, n, n): the starting point of a flow."""
    return np.broadcast_to(np.eye(n, dtype=complex), tuple(shape) + (n, n))


def step(lie: LieBasis, state: FieldState, incr: np.ndarray, dt: float) -> FieldState:
    """One geodesic step g <- g . exp(incr) pointwise, t <- t + dt; incr
    holds the (*grid.shape, dim_g) algebra coefficients of dB."""
    mats = flow(lie, state.mats, 1, lambda _: incr)
    return FieldState(grid=state.grid, mats=mats, t=state.t + dt)


def _flow_field(cfg: SdeConfig, streams, g0: np.ndarray) -> np.ndarray:
    """Flow g0 (*grid.shape, n_samples, n, n) on the grid for cfg.n_steps
    steps of synthesized noise, sample s drawing from streams[s]."""
    dt = cfg.dt
    return flow(
        cfg.spec.lie,
        g0,
        cfg.n_steps,
        lambda _: sample_increment(cfg.spec, dt, streams),
    )


def sample_field(cfg: SdeConfig, stream: RngStream | None = None) -> FieldState:
    """Terminal field after n_steps equal steps on [0, t_end]: the
    one-sample block of `sample_ensemble`.

    With the default stream this equals ensemble sample 0 for the same
    seed.  Non-finite values abort immediately rather than propagate.
    """
    if stream is None:
        stream = substream(cfg.seed, 0)
    grid = cfg.spec.basis.grid
    g0 = identity(grid.shape + (1,), cfg.spec.lie.n)
    mats = _flow_field(cfg, [stream], g0)[..., 0, :, :]
    return FieldState(grid=grid, mats=mats, t=cfg.t_end)


def sample_ensemble(
    cfg: SdeConfig, n_samples: int, n_workers: int = 1, first_stream: int = 0
) -> np.ndarray:
    """n_samples independent terminal fields, (n_samples, *grid.shape, n, n).

    Sample i draws from substream(seed, first_stream + i).  Samples flow
    in blocks of max(1, CHUNK // n_points), each block as one batch;
    `n_workers` threads run blocks concurrently.  Every sample's
    noise comes from its own stream and is synthesized column by column,
    so sample i equals `sample_field` on substream(seed, first_stream + i)
    bit for bit, whatever the block size or the worker count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    grid = cfg.spec.basis.grid
    n = cfg.spec.lie.n
    block = max(1, CHUNK // grid.n_points)
    out = np.empty((n_samples,) + grid.shape + (n, n), dtype=complex)

    def run_block(lo: int) -> None:
        hi = min(lo + block, n_samples)
        streams = [substream(cfg.seed, first_stream + i) for i in range(lo, hi)]
        g0 = identity(grid.shape + (hi - lo,), n)
        out[lo:hi] = np.moveaxis(_flow_field(cfg, streams, g0), grid.dim, 0)

    starts = range(0, n_samples, block)
    if n_workers == 1:  # no thread: a worker thread's stack and arena cost ~1 MB RSS
        for lo in starts:
            run_block(lo)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_block, starts))  # reading each result re-raises its error
    return out


def sample_marginal(
    cfg: SdeConfig,
    points: np.ndarray,
    n_samples: int,
    stream: RngStream | None = None,
) -> np.ndarray:
    """Terminal fields at a subset of points only; exact restricted law.

    Returns (n_samples, n_points, n, n).  Increment coefficients at the
    points are jointly Gaussian with covariance dt * Gram, realized through
    the symmetric PSD square root; algebra directions are independent.
    Samples are drawn in batches of CHUNK, in fixed order from one stream,
    so results are reproducible for a given stream regardless of platform
    threading.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if stream is None:
        stream = substream(cfg.seed, 0)
    n_pts = points.shape[0]
    n = cfg.spec.lie.n
    dim_g = cfg.spec.dim_g
    root = gram_sqrt(cfg.dt * kernel_gram(cfg.spec, points))

    out = np.empty((n_samples, n_pts, n, n), dtype=complex)
    for lo in range(0, n_samples, CHUNK):
        hi = min(lo + CHUNK, n_samples)
        size = (hi - lo, n_pts, dim_g)
        out[lo:hi] = flow(
            cfg.spec.lie,
            identity((hi - lo, n_pts), n),
            cfg.n_steps,
            lambda _: np.einsum("ij,sja->sia", root, stream.normal(size=size)),
        )
    return out
