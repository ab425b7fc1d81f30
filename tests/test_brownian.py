"""Karhunen-Loeve increment sampling against the closed covariance sums."""

import tracemalloc

import numpy as np
import pytest

from heatcurrents.brownian import (
    CovarianceSpec,
    covariance_kernel,
    gram_sqrt,
    kernel_gram,
    pointwise_variance,
    sample_increment,
)
from heatcurrents.lie import build_basis
from heatcurrents.rng import substream
from heatcurrents.torus import build_spectrum

LIE2 = build_basis(2)


def make_spec(k=2, p=64, m=16, d=1, allow_rough=False):
    return CovarianceSpec(
        k=k, basis=build_spectrum(d, p, m), lie=LIE2, allow_rough=allow_rough
    )


def one_increment(spec, dt, stream):
    """Coefficients (*grid.shape, dim_g) of a one-sample increment."""
    return sample_increment(spec, dt, [stream])[..., 0, :]


def test_weights_formula():
    spec = make_spec(k=2, p=16, m=3)
    lam = spec.basis.eigenvalues
    assert np.allclose(spec.weights, 1.0 / (lam**2 + 1.0))
    assert np.all(spec.weights > 0.0)
    assert np.all(spec.weights <= 1.0)


def test_rough_order_needs_escape_hatch():
    with pytest.raises(ValueError):
        make_spec(k=0)
    spec = make_spec(k=0, allow_rough=True)
    assert np.allclose(spec.weights, 0.5)
    with pytest.raises(ValueError):
        make_spec(k=-1, allow_rough=True)


def test_increment_rejects_bad_dt():
    spec = make_spec(p=16, m=3)
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError):
            sample_increment(spec, dt, [substream(0, 0)])


def test_increment_sqrt_dt_scaling():
    # same stream key, two dt values: fields differ by exactly sqrt(dt'/dt)
    spec = make_spec(p=16, m=3)
    a = one_increment(spec, 1.0, substream(3, 5))
    b = one_increment(spec, 4.0, substream(3, 5))
    assert np.max(np.abs(b - 2.0 * a)) < 1e-14


def test_increment_mean_zero():
    spec = make_spec(p=16, m=3)
    stream = substream(11, 0)
    n = 10_000
    acc = np.zeros(spec.basis.grid.shape + (3,))
    acc2 = np.zeros_like(acc)
    for _ in range(n):
        c = one_increment(spec, 1.0, stream)
        acc += c
        acc2 += c * c
    mean = acc / n
    se = np.sqrt(acc2 / n - mean**2) / np.sqrt(n)
    assert np.all(np.abs(mean) <= 4.0 * se)


def test_pointwise_variance_closed_sum():
    # d=1, k=2, M=16: c = (2pi)^{-1} sum (m^4+1)^{-1} over signed modes
    spec = make_spec()
    m = np.arange(1, 17, dtype=float)
    expected = (1.0 + 2.0 * np.sum(1.0 / (m**4 + 1.0))) / (2 * np.pi)
    assert pointwise_variance(spec) == pytest.approx(expected, rel=1e-13)
    s0 = spec.basis.grid.coordinates()[5]
    assert covariance_kernel(spec, s0, s0) == pytest.approx(expected, rel=1e-12)


def test_empirical_variance_matches_closed_sum():
    spec = make_spec()
    stream = substream(12, 0)
    n = 4000
    acc2 = np.zeros(spec.basis.grid.shape + (3,))
    for _ in range(n):
        c = one_increment(spec, 0.5, stream)
        acc2 += c * c
    var = acc2 / n / 0.5
    c_target = pointwise_variance(spec)
    # 3% tolerance from the module contract; pooled grid points tighten noise
    assert abs(var.mean() - c_target) / c_target < 0.03


def test_independent_streams_uncorrelated():
    spec = make_spec(p=16, m=3)
    s1, s2 = substream(13, 1), substream(13, 2)
    n = 5000
    x = np.empty(n)
    y = np.empty(n)
    for i in range(n):
        x[i] = one_increment(spec, 1.0, s1)[0, 0]
        y[i] = one_increment(spec, 1.0, s2)[0, 0]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_kernel_symmetry_and_homogeneity():
    spec = make_spec()
    pts = spec.basis.grid.coordinates()
    a, b = pts[3], pts[40]
    assert covariance_kernel(spec, a, b) == pytest.approx(
        covariance_kernel(spec, b, a), abs=1e-14
    )
    diag = [covariance_kernel(spec, pts[i], pts[i]) for i in range(0, 64, 7)]
    assert np.max(np.abs(np.diff(diag))) < 1e-12


def test_kernel_gram_psd():
    spec = make_spec()
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 2 * np.pi, size=(8, 1))
    gram = kernel_gram(spec, pts)
    assert np.max(np.abs(gram - gram.T)) < 1e-14
    assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_increment_pair_covariance():
    # empirical cov at grid pairs converges to dt*C(S,S')*delta_ab
    spec = make_spec()
    stream = substream(14, 0)
    n = 30_000
    dt = 1.0
    idx = [0, 8]
    acc = np.zeros((2, 2, 3, 3))
    for _ in range(n):
        c = one_increment(spec, dt, stream)[idx]  # (2, 3)
        acc += np.einsum("ia,jb->ijab", c, c)
    cov = acc / n
    pts = spec.basis.grid.coordinates()
    for i, gi in enumerate(idx):
        for j, gj in enumerate(idx):
            target = dt * covariance_kernel(spec, pts[gi], pts[gj])
            diag = np.diag(cov[i, j])
            assert np.max(np.abs(diag - target)) < 0.05 * pointwise_variance(spec)
            off = cov[i, j] - np.diag(diag)
            assert np.max(np.abs(off)) < 0.05 * pointwise_variance(spec)


def test_variance_monotone_in_k():
    sums = [pointwise_variance(make_spec(k=k)) for k in (1, 2, 3, 4)]
    assert all(b <= a + 1e-15 for a, b in zip(sums, sums[1:]))


def test_gram_sqrt():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(6, 6))
    gram = a @ a.T
    root = gram_sqrt(gram)
    assert np.max(np.abs(root @ root - gram)) < 1e-10
    with pytest.raises(ValueError):
        gram_sqrt(-np.eye(3))


def test_d3_increment_without_a_table():
    # a dense (n_modes, P^3) table at d=3, P=64, M=16 would take 75 GB
    tracemalloc.start()
    try:
        spec = make_spec(p=64, m=16, d=3)
        incr = one_increment(spec, 1e-3, substream(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert incr.shape == (64, 64, 64, 3)
    assert peak < 256e6


def test_increment_per_sample_streams():
    # one stream per sample: column s equals the one-sample increment of
    # stream s bit for bit, and each stream advances as it would alone
    spec = make_spec(p=16, m=5, d=2)
    batch = sample_increment(spec, 0.1, [substream(4, i) for i in range(3)])
    assert batch.shape == (16, 16, 3, 3)
    for i in range(3):
        alone = one_increment(spec, 0.1, substream(4, i))
        assert batch[:, :, i].tobytes() == alone.tobytes()
