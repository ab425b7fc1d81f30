"""Basis orthonormality, bracket algebra, Killing form, and exponential
accuracy for the su(n) kernels."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heatcurrents.lie import (
    bracket_coeffs,
    build_basis,
    coeffs_to_matrix,
    exp_batch,
    killing_pair,
    log_batch,
    matrix_to_coeffs,
    multiply,
)
from heatcurrents.sde import FieldState
from heatcurrents.torus import build_grid


def expm_series(x, squarings=8, terms=20):
    """Scaling-and-squaring Taylor oracle, independent of the library path."""
    y = x / 2.0**squarings
    acc = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ y / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_orthonormal(n):
    b = build_basis(n)
    assert b.dim == n * n - 1
    gram = np.real(-2.0 * np.einsum("aij,bji->ab", b.matrices, b.matrices))
    assert np.max(np.abs(gram - np.eye(b.dim))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_basis_antihermitian_traceless(n):
    b = build_basis(n)
    for t in b.matrices:
        assert np.max(np.abs(t + t.conj().T)) < 1e-14
        assert abs(np.trace(t)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_totally_antisymmetric(n):
    f = build_basis(n).structure
    assert np.max(np.abs(f + np.transpose(f, (1, 0, 2)))) < 1e-12
    assert np.max(np.abs(f + np.transpose(f, (0, 2, 1)))) < 1e-12


def test_su2_cyclic_bracket():
    # direct matrix commutator oracle: [T_1, T_2] = T_3 cyclically
    b = build_basis(2)
    for a, c, d in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        comm = b.matrices[a] @ b.matrices[c] - b.matrices[c] @ b.matrices[a]
        assert np.max(np.abs(comm - b.matrices[d])) < 1e-14


def test_build_basis_rejects_small_n():
    with pytest.raises(ValueError):
        build_basis(1)


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_matches_matrix_commutator(n):
    b = build_basis(n)
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.normal(size=b.dim)
        y = rng.normal(size=b.dim)
        via_struct = coeffs_to_matrix(b, bracket_coeffs(b, x, y))
        xm, ym = coeffs_to_matrix(b, x), coeffs_to_matrix(b, y)
        direct = xm @ ym - ym @ xm
        assert np.max(np.abs(via_struct - direct)) < 1e-12


def test_bracket_antisymmetry_and_jacobi():
    b = build_basis(2)
    rng = np.random.default_rng(42)
    for _ in range(20):
        x, y, z = (rng.normal(size=3) for _ in range(3))
        assert np.max(np.abs(bracket_coeffs(b, x, x))) == 0.0
        jac = (
            bracket_coeffs(b, x, bracket_coeffs(b, y, z))
            + bracket_coeffs(b, y, bracket_coeffs(b, z, x))
            + bracket_coeffs(b, z, bracket_coeffs(b, x, y))
        )
        assert np.max(np.abs(jac)) < 1e-12


def test_killing_symmetry_and_ad_invariance():
    b = build_basis(3)
    rng = np.random.default_rng(43)
    for _ in range(10):
        x, y, z = (rng.normal(size=b.dim) for _ in range(3))
        assert abs(killing_pair(b, x, y) - killing_pair(b, y, x)) < 1e-10
        invar = killing_pair(b, bracket_coeffs(b, z, x), y) + killing_pair(
            b, x, bracket_coeffs(b, z, y)
        )
        assert abs(invar) < 1e-10


def test_killing_su2_equals_4_trace():
    # independent oracle: ad matrices assembled from bracket columns
    b = build_basis(2)
    rng = np.random.default_rng(44)
    x = rng.normal(size=3)
    y = rng.normal(size=3)

    def ad(v):
        cols = [bracket_coeffs(b, v, e) for e in np.eye(3)]
        return np.stack(cols, axis=1)

    oracle = np.trace(ad(x) @ ad(y))
    kappa = killing_pair(b, x, y)
    assert abs(kappa - oracle) < 1e-10
    trace = np.trace(coeffs_to_matrix(b, x) @ coeffs_to_matrix(b, y))
    assert abs(kappa - 4.0 * np.real(trace)) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_killing_negative_definite(n):
    b = build_basis(n)
    rng = np.random.default_rng(45)
    x = rng.normal(size=(100, b.dim))
    assert np.all(killing_pair(b, x, x) < 0.0)


def test_exp_identity_and_inverse():
    b = build_basis(2)
    assert np.array_equal(exp_batch(b, np.zeros(3)), np.eye(2))
    rng = np.random.default_rng(46)
    x = rng.normal(size=3)
    prod = exp_batch(b, x) @ exp_batch(b, -x)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_exp_su2_eigenphases():
    # X = theta T_3 rotates the diagonal by phases -+ theta/2
    b = build_basis(2)
    theta = 1.234
    x = np.array([0.0, 0.0, theta])
    g = exp_batch(b, x)
    oracle = expm_series(coeffs_to_matrix(b, x))
    assert np.max(np.abs(g - oracle)) < 1e-13
    phases = np.angle(np.linalg.eigvals(g))
    assert np.allclose(sorted(phases), sorted([-theta / 2, theta / 2]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_exp_accuracy_against_series(n):
    b = build_basis(n)
    rng = np.random.default_rng(47)
    for scale in (0.1, 1.0, 5.0):
        coeffs = rng.normal(size=b.dim)
        coeffs *= scale / np.linalg.norm(coeffs)
        g = exp_batch(b, coeffs[np.newaxis])[0]
        oracle = expm_series(coeffs_to_matrix(b, coeffs))
        assert np.max(np.abs(g - oracle)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_exp_stays_on_group(n):
    b = build_basis(n)
    rng = np.random.default_rng(48)
    coeffs = rng.normal(size=(32, b.dim))
    coeffs *= rng.uniform(0, 10, size=(32, 1)) / np.linalg.norm(coeffs, axis=1, keepdims=True)
    g = FieldState(grid=build_grid(1, 32), mats=exp_batch(b, coeffs))
    assert g.unitarity_defect() < 1e-10
    assert g.det_defect() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_log_inverts_exp(n):
    b = build_basis(n)
    rng = np.random.default_rng(49)
    coeffs = rng.normal(size=(30, b.dim))
    norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
    coeffs *= rng.uniform(0.01, 2.5, size=norms.shape) / norms  # inside principal domain
    back = log_batch(b, exp_batch(b, coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-10


def algebra_with_phases(b, phases, seed):
    """Coefficients of U diag(i phases) U^dagger, U Haar-random from `seed`;
    the phases sum to zero and are the eigenphases of its exponential."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(b.n, b.n)) + 1j * rng.normal(size=(b.n, b.n)))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return matrix_to_coeffs(b, q @ np.diag(1j * np.asarray(phases)) @ q.conj().T)


def eigh_exp(b, coeffs):
    """Reference exp through the Hermitian eigendecomposition of iX."""
    w, v = np.linalg.eigh(1j * coeffs_to_matrix(b, coeffs))
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w), v.conj())


def max_group_defects(g):
    """Largest |g^dagger g - I| entry and |det g - 1| over a batch."""
    gram = np.einsum("...ji,...jk->...ik", g.conj(), g) - np.eye(g.shape[-1])
    return np.max(np.abs(gram)), np.max(np.abs(np.linalg.det(g) - 1.0))


@pytest.mark.parametrize("norm", [0.0, 1e-160, 1e-100, 1e-8, 1e-2, 1.0, np.pi, 10.0])
def test_su3_closed_form_exp_matches_eigh(norm):
    b = build_basis(3)
    rng = np.random.default_rng(51)
    generic = rng.normal(size=(6, 8))
    generic *= norm / np.linalg.norm(generic, axis=1, keepdims=True)
    # exactly degenerate spectra (theta, theta, -2 theta), both signs of
    # det Q, diagonal and Haar-rotated; their coefficient norm is sqrt(12) theta
    theta = norm / np.sqrt(12.0)
    degenerate = [
        matrix_to_coeffs(b, np.diag(1j * np.array([t, t, -2.0 * t]))) for t in (theta, -theta)
    ] + [algebra_with_phases(b, [t, t, -2.0 * t], seed) for t in (theta, -theta) for seed in (0, 1)]
    coeffs = np.concatenate([generic, np.stack(degenerate)])  # 12 elements
    for shape in ((8,), (5, 8), (2, 3, 8)):
        x = coeffs[: int(np.prod(shape[:-1]))].reshape(shape)
        g = exp_batch(b, x)
        assert g.shape == shape[:-1] + (3, 3)
        assert np.max(np.abs(g - eigh_exp(b, x))) <= 1e-13
        unitarity, det = max_group_defects(g)
        assert unitarity <= 1e-13 and det <= 1e-13


def test_log_at_identity_is_zero():
    for n in (3, 4):
        b = build_basis(n)
        eye = np.broadcast_to(np.eye(n, dtype=complex), (4, n, n))
        assert np.max(np.abs(log_batch(b, eye))) <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gap", [0.0, 1e-16, 1e-12, 1e-9, 1e-6])
def test_log_at_degenerate_spectra(n, gap):
    # two eigenphases `gap` apart, the same phase at gap 0
    b = build_basis(n)
    for theta in (0.3, -1.2):
        phases = np.array([theta, theta + gap] + [0.7] * (n - 3))
        phases = np.append(phases, -phases.sum())
        for seed in (0, 1, 2):
            x = algebra_with_phases(b, phases, seed)
            back = log_batch(b, exp_batch(b, x))
            assert np.max(np.abs(back - x)) <= 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_log_batch_shapes(n):
    b = build_basis(n)
    rng = np.random.default_rng(52)
    x = rng.normal(size=(2, 3, b.dim))
    x *= rng.uniform(0.01, 2.5, size=(2, 3, 1)) / np.linalg.norm(x, axis=-1, keepdims=True)
    g = exp_batch(b, x)
    whole = log_batch(b, g)
    assert whole.shape == (2, 3, b.dim)
    assert np.max(np.abs(whole - x)) < 1e-10
    assert np.max(np.abs(log_batch(b, g[1]) - whole[1])) <= 1e-15
    single = log_batch(b, g[1, 2])
    assert single.shape == (b.dim,)
    assert np.max(np.abs(single - whole[1, 2])) <= 1e-15


_NEAR_CUT = np.pi - 1e-6


@settings(max_examples=100, deadline=None)
@given(
    phase=st.floats(0.0, _NEAR_CUT),
    phase2=st.floats(-_NEAR_CUT, _NEAR_CUT),
    seed=st.integers(0, 2**32 - 1),
)
@example(phase=_NEAR_CUT, phase2=-_NEAR_CUT / 2, seed=0)
@example(phase=_NEAR_CUT, phase2=-_NEAR_CUT, seed=1)
@pytest.mark.parametrize("n", [2, 3])
def test_exp_log_round_trip_near_branch_cut(n, phase, phase2, seed):
    # every eigenphase up to pi - 1e-6 in magnitude, on both group paths
    b = build_basis(n)
    phases = np.array([phase, -phase] if n == 2 else [phase, phase2, -phase - phase2])
    assume(np.max(np.abs(phases)) <= _NEAR_CUT)  # the third phase may leave it
    x = algebra_with_phases(b, phases, seed)
    g = exp_batch(b, x)
    back = log_batch(b, g)
    # The closed SU(2) form is exact to round-off.  The general path meets
    # the conditioning of log itself, the largest divided difference
    # |theta_i - theta_j| / |e^{i theta_i} - e^{i theta_j}|, which reaches
    # 3e6 when two eigenvalues close in on -1 from either side of the cut.
    i, j = np.triu_indices(n, 1)
    gap = np.abs(np.exp(1j * phases[i]) - np.exp(1j * phases[j]))
    kappa = np.max(np.abs(phases[i] - phases[j]) / np.maximum(gap, 1e-300))
    tol = 1e-10 if n == 2 else 1e-10 + 1e-14 * kappa
    assert np.max(np.abs(back - x)) < tol
    assert np.max(np.abs(exp_batch(b, back) - g)) < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    phase=st.floats(-2 * np.pi, 2 * np.pi),
    phase2=st.floats(-2 * np.pi, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
@example(phase=4.0, phase2=-2.0, seed=0)
def test_su3_log_past_the_cut_is_central_multiple(phase, phase2, seed):
    # past pi the principal log wraps a phase by 2 pi; its traceless part
    # then exponentiates to omega g with omega a cube root of unity
    b = build_basis(3)
    g = exp_batch(b, algebra_with_phases(b, [phase, phase2, -phase - phase2], seed))
    h = exp_batch(b, log_batch(b, g))
    omega = np.trace(h @ g.conj().T) / 3
    assert abs(omega**3 - 1) < 1e-10
    assert np.max(np.abs(h - omega * g)) < 1e-10
    if (phase, phase2) == (4.0, -2.0):
        # 4 wraps to 4 - 2 pi and the others stay: omega = exp(2 pi i / 3)
        assert abs(omega - np.exp(2j * np.pi / 3)) < 1e-10


def test_su2_multiply_matches_matmul():
    b = build_basis(2)
    rng = np.random.default_rng(11)
    g = exp_batch(b, rng.normal(size=(16, 32, 3)) * 3.0)
    h = exp_batch(b, rng.normal(size=(16, 32, 3)) * 3.0)
    prod = multiply(b, g, h)
    assert prod.shape == (16, 32, 2, 2)
    assert np.abs(prod - g @ h).max() < 1e-15
    # exact at the identity, on either side
    eye = np.broadcast_to(np.eye(2, dtype=complex), g.shape)
    assert np.array_equal(multiply(b, g, eye), g)
    assert np.array_equal(multiply(b, eye, h), h)
    # elementwise: one column at a time gives the same bits as the batch
    for j in range(g.shape[1]):
        assert np.array_equal(multiply(b, g[:, j], h[:, j]), prod[:, j])


@pytest.mark.parametrize("n", [3, 4])
def test_multiply_is_matmul_past_su2(n):
    b = build_basis(n)
    rng = np.random.default_rng(n)
    g = exp_batch(b, rng.normal(size=(5, b.dim)))
    h = exp_batch(b, rng.normal(size=(5, b.dim)))
    assert np.array_equal(multiply(b, g, h), g @ h)


def test_coeff_matrix_round_trip():
    b = build_basis(3)
    rng = np.random.default_rng(50)
    coeffs = rng.normal(size=(7, b.dim))
    assert np.max(np.abs(matrix_to_coeffs(b, coeffs_to_matrix(b, coeffs)) - coeffs)) < 1e-12


def test_field_state_defects_flag_corruption():
    grid = build_grid(1, 4)
    eye = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
    assert FieldState(grid=grid, mats=eye).unitarity_defect() == 0.0
    mats = eye.copy()
    mats[2] *= 1.5
    bad = FieldState(grid=grid, mats=mats)
    assert bad.unitarity_defect() > 1.0
    assert bad.det_defect() > 1.0
