"""Two-qubit machinery: X/O split, the X-matrix bound, and exact concurrence.

Basis order is {|00>, |01>, |10>, |11>}, so the X part of a 4x4 density matrix
consists of the diagonal plus the (0,3) and (1,2) coherences (and conjugates).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import OutOfRange, WrongDimensions
from .highdim import (_EPS, _EXACT_TOL, _ROUNDOFF_ULPS, _best_margin, _check_below_exact,
                      _column_concurrence, _pair_grid)
from .linalg import DensityMatrix, PureState, _eigen_factor, _qr

# The signs that turn a reversed column (d, c, b, a) into -sy(x)sy (a, b, c, d).
_MINOR_SIGNS = np.array([[1.0], [-1.0], [-1.0], [1.0]])
# The two X witnesses (c1, c2), built once: highdim._pair_grid(2, 2) is read-only.
_X_GRID = _pair_grid(2, 2)


@dataclass(frozen=True)
class XCore:
    """The seven entries of the X part of a two-qubit density matrix."""

    d11: float
    d22: float
    d33: float
    d44: float
    q14: complex
    q23: complex

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.d11, self.d22, self.d33, self.d44
        m[0, 3], m[3, 0] = self.q14, np.conj(self.q14)
        m[1, 2], m[2, 1] = self.q23, np.conj(self.q23)
        return m


@dataclass(frozen=True)
class BoundReport:
    """Signed coherence margins, the resulting lower bound, and optional exact value."""

    c1: float
    c2: Optional[float]
    bound: float
    exact: Optional[float] = None

    @property
    def entangled(self) -> bool:
        return self.bound > 0.0


def _require_2x2(q: DensityMatrix | PureState) -> None:
    if (q.dimA, q.dimB) != (2, 2):
        raise WrongDimensions(f"expected dims (2,2), got ({q.dimA},{q.dimB})")


_X_MASK = np.zeros((4, 4), dtype=bool)
_X_MASK[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = True


def x_decompose(q: DensityMatrix) -> tuple[XCore, np.ndarray]:
    """Split a two-qubit state into its X part and the remainder.

    The returned pieces satisfy X + O == Q entrywise with no roundoff: each
    entry of Q lands in exactly one of the two matrices.
    """
    _require_2x2(q)
    m = q.mat
    x = XCore(
        d11=m[0, 0].real,
        d22=m[1, 1].real,
        d33=m[2, 2].real,
        d44=m[3, 3].real,
        q14=m[0, 3],
        q23=m[1, 2],
    )
    return x, np.where(_X_MASK, 0.0, m)


def x_concurrence(x: XCore) -> BoundReport:
    """Concurrence of an X matrix: 2*max{0, |q14|-sqrt(d22 d33), |q23|-sqrt(d11 d44)}.

    c1 and c2 are the signed margins of the 2x2 pair grid; `bound` is their
    maximum by highdim._best_margin, 0 where that is within roundoff of zero.
    """
    best = _best_margin(x.as_matrix(), 2, 2, _X_GRID)
    c1, c2 = best.margins.ravel().tolist()
    return BoundReport(c1=c1, c2=c2, bound=best.bound)


def pure_concurrence_2q(psi: PureState) -> float:
    """Concurrence 2|ad - bc| of a normalized two-qubit pure state (highdim's kernel)."""
    _require_2x2(psi)
    return float(_column_concurrence(psi.amps[:, None], 2, 2)[0])


def _spin_flip(a: np.ndarray) -> np.ndarray:
    """The complex symmetric r x r matrix a^T (-sy(x)sy) a of a (..., 4, r) stack a.

    -sy(x)sy is applied as a row reversal signed by _MINOR_SIGNS.
    Its diagonal holds each column's preconcurrence, 2(ad - bc), whose
    modulus is the column's concurrence.
    """
    return np.swapaxes(a, -1, -2) @ (a[..., ::-1, :] * _MINOR_SIGNS)


def _wootters_factor(a: np.ndarray, s) -> np.ndarray:
    """Exact concurrence of every two-qubit state rho = a a^dag / s, for a (..., 4, r) stack a.

    max{0, l1 - l2 - l3 - l4} (Wootters, PRL 80, 2245 (1998)), where the
    l_i are, in decreasing order, the square roots of the eigenvalues of
    rho (sy(x)sy) rho* (sy(x)sy).  They are the singular values of the
    r x r matrix a^T (sy(x)sy) a / s, zero-padded to 4, so no square root of
    a near-zero eigenvalue is taken.  sy(x)sy is applied as a signed row
    reversal (_spin_flip): that is -sy(x)sy, and no singular value sees the
    sign.  s broadcasts against the stack's shape.

    The form depends only on r.  At r = 1 the value is |m| / s.  At r = 2 it
    is (s1^2 - s2^2) / (s1 + s2) / s, with s1^2 - s2^2 = hypot(p00 - p11,
    2|p01|) from P = m^dag m and s1 + s2 = sqrt(|m|_F^2 + 2|det m|): no two
    nearly equal singular values are subtracted near s1 = s2, the separable
    boundary, and m = 0 (e.g. factor columns |00> and |01>) gives 0.  At
    r = 3 and 4 the SVD stays: a closed form would take the roots of a
    cubic or quartic in the l_i^2, and so square roots of near-zero
    eigenvalues again.
    """
    m = _spin_flip(a)
    r = m.shape[-1]
    if r == 1:
        return np.abs(m[..., 0, 0]) / s
    if r == 2:
        m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        sq = m.real ** 2 + m.imag ** 2
        p00, p11 = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
        diff = np.hypot(p00 - p11, 2.0 * np.abs(m00.conj() * m01 + m10.conj() * m11))
        total = np.sqrt(p00 + p11 + 2.0 * np.abs(m00 * m11 - m01 * m10))
        return np.divide(diff, total, out=np.zeros_like(diff), where=total > 0.0) / s
    lam = np.linalg.svd(m, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)) / s


def wootters_concurrence(q: DensityMatrix) -> float:
    """Exact two-qubit concurrence of q (Wootters, PRL 80, 2245 (1998)), on _eigen_factor(q.mat)."""
    _require_2x2(q)
    return float(_wootters_factor(_eigen_factor(q.mat), 1.0))


# The real orthogonal 4 x 4 mixing of Wootters' decomposition: every entry is +-1/2.
_HADAMARD = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                            [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def _takagi(tau: np.ndarray, tiny: float) -> tuple[np.ndarray, np.ndarray]:
    """sigma and a unitary u with tau conj(u) = u diag(sigma), for a complex symmetric r x r tau.

    Each eigenvector (a; b) of the real symmetric [[Re tau, Im tau],
    [Im tau, -Re tau]] with eigenvalue sigma gives u = a + ib, and its
    partner (-b; a) has eigenvalue -sigma.  The r largest eigenvalues, in
    decreasing order, are taken; those at most tiny are roundoff, set to 0,
    and their columns come from the QR completion (linalg._qr) of the
    others by unit vectors, which also makes u unitary to roundoff.
    """
    r = tau.shape[0]
    big = np.empty((2 * r, 2 * r))
    big[:r, :r], big[:r, r:], big[r:, :r], big[r:, r:] = tau.real, tau.imag, tau.imag, -tau.real
    evals, vecs = np.linalg.eigh(big)
    sigma, top = evals[: r - 1 : -1], vecs[:, : r - 1 : -1]
    kept = np.count_nonzero(sigma > tiny)
    sigma[kept:] = 0.0
    basis = np.hstack([top[:r, :kept] + 1j * top[r:, :kept], np.eye(r)])
    return sigma, _qr(basis[:, :r])[0]


def _triangle_angles(a: float, b: float, base: float) -> tuple[float, float]:
    """alpha, beta >= 0 with a e^{i alpha} + b e^{-i beta} = base, for a >= b and a triangle.

    The area comes from Kahan's stable form of Heron's formula, and atan2
    of it against the law of cosines keeps every digit of a flat
    triangle's angles, where acos of the cosine keeps half of them.
    """
    x, y, z = sorted((a, b, base), reverse=True)
    area4 = math.sqrt(max(0.0, (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))))
    d = a - b
    return (math.atan2(area4, base * base + d * (a + b)),
            math.atan2(area4, (base - d) * (base + d) - 2.0 * d * b))


def _closure_phases(lam: np.ndarray) -> np.ndarray:
    """Phases theta with sum_j lam_j e^{i theta_j} = max(0, l1 - l2 - l3 - l4), for decreasing lam.

    Entangled (l1 > l2 + l3 + l4): theta = (0, pi, pi, pi).  Otherwise the
    sum closes to 0 on two triangles with the base L = max(l1 - l2, l3 - l4):
    l1 e^{i t1} + l2 e^{i t2} = L and l3 e^{i t3} + l4 e^{i t4} = -L.
    """
    l1, l2, l3, l4 = lam.tolist()
    if l1 > l2 + l3 + l4:
        return np.array([0.0, math.pi, math.pi, math.pi])
    base = max(l1 - l2, l3 - l4)
    if base == 0.0:  # l1 = l2 and l3 = l4: two opposite pairs
        return np.array([0.0, math.pi, 0.0, math.pi])
    t1, t2 = _triangle_angles(l1, l2, base)
    t3, t4 = _triangle_angles(l3, l4, base)
    return np.array([t1, -t2, math.pi + t3, math.pi - t4])


def _wootters_decomposition(w: np.ndarray) -> np.ndarray:
    """The 4 columns of an optimal decomposition of rho = w w^dag, for a 4 x r factor w, r >= 2.

    Wootters' construction (PRL 80, 2245 (1998)).  The Takagi vectors u of
    tau = _spin_flip(w) give columns w conj(u) whose preconcurrences are
    the Wootters l_i and whose cross terms vanish.  The columns get phases
    e^{i theta / 2} with sum l_j e^{i theta_j} = C = max(0, l1 - l2 - l3 -
    l4) (_closure_phases), are padded to 4 and mixed by _HADAMARD, which
    gives every column preconcurrence sum l_j e^{i theta_j} / 4 = C / 4:
    each of the 4 columns carries weight x concurrence C / 4, so a
    separable state gets 4 product columns.  The mixing is unitary, so the
    columns reproduce rho; their concurrences sum to C.
    """
    r = w.shape[1]
    scale = float((w.real**2 + w.imag**2).sum())  # Tr rho, which bounds every l_i
    sigma, u = _takagi(_spin_flip(w), _ROUNDOFF_ULPS * _EPS * scale)
    lam = np.zeros(4)
    lam[:r] = sigma
    phased = u.conj() * np.exp(0.5j * _closure_phases(lam)[:r])
    return w @ (np.hstack([phased, np.zeros((r, 4 - r))]) @ _HADAMARD)


def x_lower_bound(q: DensityMatrix) -> BoundReport:
    """X-matrix lower bound on the concurrence, with the exact value attached."""
    rep = x_concurrence(x_decompose(q)[0])
    exact = wootters_concurrence(q)
    _check_below_exact(rep.bound, exact)
    return replace(rep, exact=exact)


def certify_from_elements(q14_abs: float, d22: float, d33: float) -> BoundReport:
    """Entanglement certificate from three measured density-matrix elements.

    Only |Q14| and the two diagonals Q22, Q33 are needed, each a number in
    [0, 1] and not a bool (else OutOfRange); the phase of Q14 is irrelevant.
    c2 is then exactly 0, so a c1 above roundoff (see highdim._best_margin)
    certifies entanglement; any other c1 is inconclusive.  Elements that no
    state has, 2|Q14| + Q22 + Q33 > 1 beyond _EXACT_TOL, raise OutOfRange
    too, as every state has |Q14| <= sqrt(Q11 Q44) <= (Q11 + Q44) / 2.
    """
    for name, v in (("|q14|", q14_abs), ("d22", d22), ("d33", d33)):
        if isinstance(v, (bool, np.bool_)) or not 0.0 <= v <= 1.0:
            raise OutOfRange(f"{name} must be a number in [0, 1], got {v!r}")
    total = 2.0 * q14_abs + d22 + d33
    if total > 1.0 + _EXACT_TOL:
        raise OutOfRange(f"no state has these elements: 2|q14| + d22 + d33 = {total!r} > 1")
    return replace(x_concurrence(XCore(0.0, d22, d33, 0.0, q14_abs, 0.0)), c2=None)
