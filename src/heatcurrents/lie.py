"""su(n) / SU(n) kernels: orthonormal basis, bracket, Killing form, exponential.

The Lie algebra su(n) is represented by real coefficient vectors relative to
a fixed orthonormal basis ``{T_a}`` (generalized Gell-Mann matrices divided
by 2i), orthonormal under the positive-definite pairing

    <X, Y> = -2 tr(X Y).

Group elements are plain n x n complex unitary matrices with unit
determinant.  Everything here is pure and immutable; batched variants
(`exp_batch`, `log_batch`) act on arrays with arbitrary leading shape and are
the inner kernels of the field samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LieBasis",
    "build_basis",
    "bracket_coeffs",
    "killing_pair",
    "exp_batch",
    "log_batch",
    "coeffs_to_matrix",
    "matrix_to_coeffs",
]


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis of su(n) with its structure constants.

    Attributes
    ----------
    n : int
        Group rank parameter (matrices are n x n).
    matrices : complex array, shape (dim, n, n)
        Anti-Hermitian traceless basis matrices T_a with <T_a,T_b> = delta_ab.
    structure : real array, shape (dim, dim, dim)
        f[a,b,c] defined by [T_a, T_b] = sum_c f[a,b,c] T_c; totally
        antisymmetric because the basis is orthonormal.
    killing : real array, shape (dim, dim)
        Killing matrix K[a,b] = tr(ad_{T_a} ad_{T_b}), computed from the
        structure constants.
    """

    n: int
    matrices: np.ndarray
    structure: np.ndarray
    killing: np.ndarray

    @property
    def dim(self) -> int:
        return self.n * self.n - 1


def build_basis(n: int) -> LieBasis:
    """Orthonormal su(n) basis (generalized Gell-Mann matrices over 2i).

    Enumeration: for each column k, the symmetric and antisymmetric
    off-diagonal pairs with every row j < k, then the n-1 diagonal
    generators.  For n=2 this yields T_a = sigma_a / 2i and the cyclic
    bracket [T_1, T_2] = T_3.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"group rank must be an integer >= 2, got {n}")
    n = int(n)

    hermitian = []
    for k in range(1, n):
        for j in range(k):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((n, n), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            hermitian.extend([sym, anti])
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        diag[:l, :l] = np.eye(l)
        diag[l, l] = -l
        hermitian.append(diag * np.sqrt(2.0 / (l * (l + 1))))

    # tr(lambda_a lambda_b) = 2 delta_ab, so T_a = lambda_a / 2i gives
    # -2 tr(T_a T_b) = delta_ab.
    mats = np.stack(hermitian) / 2j

    dim = n * n - 1
    comm = np.einsum("aij,bjk->abik", mats, mats) - np.einsum(
        "bij,ajk->abik", mats, mats
    )
    # Projection onto the orthonormal basis: f_abc = <[T_a,T_b], T_c>.
    structure = np.real(-2.0 * np.einsum("abij,cji->abc", comm, mats))

    # ad_{T_a} as a dim x dim matrix: (ad_a)[c, b] = f[a, b, c].
    ad = np.transpose(structure, (0, 2, 1))
    killing = np.einsum("aij,bji->ab", ad, ad)

    return LieBasis(n=n, matrices=mats, structure=structure, killing=killing)


def coeffs_to_matrix(basis: LieBasis, coeffs: np.ndarray) -> np.ndarray:
    """Reconstruct matrices from coefficient arrays of shape (..., dim)."""
    return np.tensordot(np.asarray(coeffs, dtype=float), basis.matrices, axes=(-1, 0))


def matrix_to_coeffs(basis: LieBasis, mats: np.ndarray) -> np.ndarray:
    """Orthonormal projection <X, T_a> of matrices (..., n, n) onto the basis."""
    return np.real(-2.0 * np.einsum("...ij,aji->...a", np.asarray(mats), basis.matrices))


def bracket_coeffs(basis: LieBasis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched commutator on coefficient arrays of shape (..., dim)."""
    return np.einsum("...a,...b,abc->...c", x, y, basis.structure)


def killing_pair(basis: LieBasis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise Killing pairing of coefficient arrays (..., dim) -> (...)."""
    return np.einsum("...a,ab,...b->...", x, basis.killing, y)


def exp_batch(basis: LieBasis, coeffs: np.ndarray) -> np.ndarray:
    """exp of algebra coefficients, batched: (..., dim) -> (..., n, n).

    SU(2) uses the closed Pauli form; general n diagonalizes the Hermitian
    matrix iX, so results are unitary to round-off in both paths.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if basis.n == 2:
        return _exp_su2(coeffs)
    x = coeffs_to_matrix(basis, coeffs)
    w, v = np.linalg.eigh(1j * x)  # iX is Hermitian
    phases = np.exp(-1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phases, v.conj())


def _exp_su2(coeffs: np.ndarray) -> np.ndarray:
    """exp(sum_a v_a T_a) = cos(|v|/2) I - i sin(|v|/2) (v.sigma)/|v|."""
    v1, v2, v3 = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    norm = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    half = 0.5 * norm
    c = np.cos(half)
    # sin(|v|/2)/|v|, continuous at 0.
    k = 0.5 * np.sinc(half / np.pi)
    out = np.empty(coeffs.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c - 1j * k * v3
    out[..., 0, 1] = -k * v2 - 1j * k * v1
    out[..., 1, 0] = k * v2 - 1j * k * v1
    out[..., 1, 1] = c + 1j * k * v3
    return out


def log_batch(basis: LieBasis, mats: np.ndarray) -> np.ndarray:
    """Principal logarithm as algebra coefficients: (..., n, n) -> (..., dim).

    exp(log g) = g while every eigenphase of g lies in (-pi, pi).  Past pi
    the general-n path wraps a phase by 2 pi, the log of each eigenvalue no
    longer sums to zero, and its traceless part gives exp(log g) = omega g
    with omega^n = 1 (omega = exp(2 pi i / 3) for phases (4, -2, -2) on
    SU(3)).  Callers in the diagnostics guard the domain explicitly.
    """
    mats = np.asarray(mats, dtype=complex)
    if basis.n == 2:
        return _log_su2(mats)
    # General n: unitary matrices are normal, so the Schur form is diagonal.
    import scipy.linalg

    flat = mats.reshape(-1, basis.n, basis.n)
    logs = np.empty_like(flat)
    for i, g in enumerate(flat):
        t, z = scipy.linalg.schur(g, output="complex")
        logs[i] = z @ np.diag(np.log(np.diag(t))) @ z.conj().T
    return matrix_to_coeffs(basis, logs.reshape(mats.shape))


def _log_su2(mats: np.ndarray) -> np.ndarray:
    """Closed-form principal log on SU(2): g = a0 I - i a.sigma."""
    a0 = 0.5 * (mats[..., 0, 0].real + mats[..., 1, 1].real)
    a1 = -0.5 * (mats[..., 0, 1].imag + mats[..., 1, 0].imag)
    a2 = 0.5 * (mats[..., 1, 0].real - mats[..., 0, 1].real)
    a3 = 0.5 * (mats[..., 1, 1].imag - mats[..., 0, 0].imag)
    norm = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    theta = 2.0 * np.arctan2(norm, a0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(norm > 0, theta / np.maximum(norm, 1e-300), 2.0)
    return np.stack([a1 * scale, a2 * scale, a3 * scale], axis=-1)
