"""su(n) / SU(n) kernels: orthonormal basis, bracket, Killing form, exp and log.

The Lie algebra su(n) is represented by real coefficient vectors relative to
a fixed orthonormal basis ``{T_a}`` (generalized Gell-Mann matrices divided
by 2i), orthonormal under the positive-definite pairing

    <X, Y> = -2 tr(X Y).

Group elements are plain n x n complex unitary matrices with unit
determinant.  Everything here is pure and immutable; batched variants
(`exp_batch`, `log_batch`, and the group product `multiply`) act on arrays
with arbitrary leading shape and are the inner kernels of the field
samplers.

Each group gets the exponential its size allows: a closed Pauli form on
SU(2), the closed Cayley-Hamilton form of Morningstar and Peardon on SU(3),
and a Hermitian eigendecomposition for n >= 4.  The logarithm is closed
form on SU(2) and one batched eigendecomposition for every n >= 3.  The
SU(2) product is the Hamilton product of unit quaternions in real
arithmetic; n >= 3 uses the batched matrix product.  Only numpy is used.
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
    "multiply",
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

    SU(2) uses the closed Pauli form and SU(3) the closed Cayley-Hamilton
    form; n >= 4 diagonalizes the Hermitian matrix iX.  Results are unitary
    to round-off on every path.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if basis.n == 2:
        return _exp_su2(coeffs)
    if basis.n == 3:
        return _exp_su3(basis, coeffs)
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


def multiply(basis: LieBasis, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Group product g @ h, batched: (..., n, n) x (..., n, n) -> (..., n, n).

    On SU(2) each factor is read as the unit quaternion of its first row,
    g = [[p, q], [-conj q, conj p]] (p = a0 - i a3, q = -a2 - i a1 for
    g = a0 I - i a.sigma, as in `_log_su2`), and the product is formed in
    real arithmetic: 16 multiplies and 12 adds on the .real/.imag views,
    then all four complex entries are written.  Elementwise real multiply
    and add round the same way at every SIMD width, so the SU(2) result is
    bit-equal across numpy's CPU dispatch levels; complex multiply and
    matmul are not.  n >= 3 returns g @ h.
    """
    if basis.n != 2:
        return g @ h
    px, py = g[..., 0, 0].real, g[..., 0, 0].imag
    qx, qy = g[..., 0, 1].real, g[..., 0, 1].imag
    rx, ry = h[..., 0, 0].real, h[..., 0, 0].imag
    sx, sy = h[..., 0, 1].real, h[..., 0, 1].imag
    out = np.empty(np.broadcast_shapes(g.shape, h.shape), dtype=complex)
    p, q = out[..., 0, 0], out[..., 0, 1]
    # p' = p r - q conj(s), q' = p s + q conj(r)
    p.real = px * rx - py * ry - qx * sx - qy * sy
    p.imag = px * ry + py * rx - qy * sx + qx * sy
    q.real = px * sx - py * sy + qx * rx + qy * ry
    q.imag = px * sy + py * sx + qy * rx - qx * ry
    # second row [-conj q', conj p']
    out[..., 1, 0].real = -q.real
    out[..., 1, 0].imag = q.imag
    out[..., 1, 1].real = p.real
    out[..., 1, 1].imag = -p.imag
    return out


# Below this c1 = |Q|^2 / 2 the closed form would divide underflowing
# quantities (NaN near |X| = 1e-157), and exp(iQ) = I + iQ - Q^2/2 holds to
# |Q|^3 / 6 < 1e-36.
_SU3_TAYLOR_C1 = 1e-24


def _exp_su3(basis: LieBasis, coeffs: np.ndarray) -> np.ndarray:
    """exp(X) = exp(iQ) = f0 I + f1 Q + f2 Q^2 with Q = -iX Hermitian, traceless.

    Each entry of Q and Q^2 is one array over the batch; the upper triangle
    determines both, and `_su3_exp_coefficients` gives f_j from the
    invariants c0 = det Q and c1 = tr Q^2 / 2.
    """
    batch = coeffs.shape[:-1]
    x = coeffs.reshape(-1, 8).T
    # Q_00, Q_11, Q_22, then Q_01, Q_02, Q_12.
    upper = (-1j * basis.matrices)[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    q00, q11, q22 = upper[:, :3].real.T @ x
    q01, q02, q12 = upper[:, 3:].real.T @ x + 1j * (upper[:, 3:].imag.T @ x)
    n01, n02, n12 = (z.real * z.real + z.imag * z.imag for z in (q01, q02, q12))
    s00 = q00 * q00 + n01 + n02
    s11 = q11 * q11 + n01 + n12
    s22 = q22 * q22 + n02 + n12
    s01 = (q00 + q11) * q01 + q02 * q12.conj()
    s02 = (q00 + q22) * q02 + q01 * q12
    s12 = q01.conj() * q02 + (q11 + q22) * q12
    c0 = q00 * q11 * q22 - q00 * n12 - q11 * n02 - q22 * n01
    c0 += 2.0 * (q01 * q12 * q02.conj()).real
    f0, f1, f2 = _su3_exp_coefficients(c0, 0.5 * (s00 + s11 + s22))

    out = np.empty((c0.size, 3, 3), dtype=complex)
    for i, qii, sii in ((0, q00, s00), (1, q11, s11), (2, q22, s22)):
        out[:, i, i] = f0 + f1 * qii + f2 * sii
    for i, j, qij, sij in ((0, 1, q01, s01), (0, 2, q02, s02), (1, 2, q12, s12)):
        out[:, i, j] = f1 * qij + f2 * sij
        out[:, j, i] = f1 * qij.conj() + f2 * sij.conj()
    return out.reshape(batch + (3, 3))


def _su3_exp_coefficients(c0: np.ndarray, c1: np.ndarray) -> tuple:
    """f0, f1, f2 with exp(iQ) = f0 I + f1 Q + f2 Q^2, from c0 = det Q, c1 = tr Q^2 / 2.

    Morningstar and Peardon, Phys. Rev. D 69, 054501 (2004): the
    eigenvalues of Q are 2u and -u +- w, from the trigonometric solution of
    the characteristic cubic.  The formulas are evaluated at |c0| and mapped
    back through f_j(-c0) = (-1)^j conj f_j(c0), which keeps them well
    conditioned.
    """
    small = c1 < _SU3_TAYLOR_C1
    c1 = np.where(small, 1.0, c1)  # keeps the unused branch finite
    c0_max = 2.0 * (c1 / 3.0) ** 1.5
    theta = np.arccos(np.minimum(np.abs(c0) / c0_max, 1.0))
    u = np.sqrt(c1 / 3.0) * np.cos(theta / 3.0)
    w = np.sqrt(c1) * np.sin(theta / 3.0)
    uu, ww = u * u, w * w
    cos_w = np.cos(w)
    xi0 = np.divide(np.sin(w), w, out=np.ones_like(w), where=w > 0.0)  # sin(w)/w
    emiu = np.cos(u) - 1j * np.sin(u)  # e^{-iu}
    e2iu = emiu.conj() ** 2
    # 9u^2 - w^2 >= 2 c1 because theta / 3 lies in [0, pi/6].
    scale = 1.0 / (9.0 * uu - ww)
    h0 = (uu - ww) * e2iu + emiu * (8.0 * uu * cos_w + 2j * u * (3.0 * uu + ww) * xi0)
    h1 = 2.0 * u * e2iu - emiu * (2.0 * u * cos_w - 1j * (3.0 * uu - ww) * xi0)
    h2 = e2iu - emiu * (cos_w + 3j * u * xi0)
    neg = c0 < 0.0
    f0 = np.where(small, 1.0, scale * np.where(neg, h0.conj(), h0))
    f1 = np.where(small, 1j, scale * np.where(neg, -h1.conj(), h1))
    f2 = np.where(small, -0.5, scale * np.where(neg, h2.conj(), h2))
    return f0, f1, f2


def log_batch(basis: LieBasis, mats: np.ndarray) -> np.ndarray:
    """Principal logarithm as algebra coefficients: (..., n, n) -> (..., dim).

    exp(log g) = g while every eigenphase of g lies in (-pi, pi).  Past pi
    the general-n path wraps a phase by 2 pi, the log of each eigenvalue no
    longer sums to zero, and its traceless part gives exp(log g) = omega g
    with omega^n = 1 (omega = exp(2 pi i / 3) for phases (4, -2, -2) on
    SU(3)).  Callers in the diagnostics guard the domain explicitly.

    SU(2) uses a closed form.  Every n >= 3 runs one batched
    eigendecomposition g = V diag(w) V^-1 over the whole batch and takes
    the principal log of each eigenvalue w.
    """
    mats = np.asarray(mats, dtype=complex)
    if basis.n == 2:
        return _log_su2(mats)
    # Inside a (near-)degenerate cluster of eigenvalues the computed V need
    # not be unitary, but the logs of the cluster agree to its width, so
    # V^-1 rather than V^dagger keeps the result accurate there.
    w, v = np.linalg.eig(mats)
    logs = (v * np.log(w)[..., np.newaxis, :]) @ np.linalg.inv(v)
    return matrix_to_coeffs(basis, logs)


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
