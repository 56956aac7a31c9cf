"""Two-qubit machinery: X/O split, the X-matrix bound, and exact concurrence.

Basis order is {|00>, |01>, |10>, |11>}, so the X part of a 4x4 density matrix
consists of the diagonal plus the (0,3) and (1,2) coherences (and conjugates).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import OutOfRange, WrongDimensions
from .highdim import (_MINOR_SIGNS, _best_margin, _check_below_exact, _column_concurrence,
                      _pair_grid)
from .linalg import DensityMatrix, PureState, clipped_sqrt

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
    return BoundReport(c1=c1, c2=c2, bound=float(best.bound))


def pure_concurrence_2q(psi: PureState) -> float:
    """Concurrence 2|ad - bc| of a normalized two-qubit pure state (highdim's kernel)."""
    _require_2x2(psi)
    return float(_column_concurrence(psi.amps[:, None], 2, 2)[0])


def _wootters_factor(a: np.ndarray, s) -> np.ndarray:
    """Exact concurrence of every two-qubit state rho = a a^dag / s, for a (..., 4, r) stack a.

    max{0, l1 - l2 - l3 - l4} (Wootters, PRL 80, 2245 (1998)), where the
    l_i are, in decreasing order, the square roots of the eigenvalues of
    rho (sy(x)sy) rho* (sy(x)sy).  They are the singular values of the
    r x r matrix a^T (sy(x)sy) a / s, zero-padded to 4, so no square root of
    a near-zero eigenvalue is taken.  sy(x)sy is applied as a signed row
    reversal, with highdim._MINOR_SIGNS: that is -sy(x)sy, and no singular
    value sees the sign.  s broadcasts against the stack's shape.
    """
    m = np.swapaxes(a, -1, -2) @ (a[..., ::-1, :] * _MINOR_SIGNS)
    lam = np.linalg.svd(m, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)) / s


def _wootters(mats: np.ndarray) -> np.ndarray:
    """Exact concurrence of every two-qubit state in a (..., 4, 4) stack, by _wootters_factor.

    The factor is V sqrt(L) from the eigendecomposition rho = V L V^dag.
    """
    evals, vecs = np.linalg.eigh(mats)
    return _wootters_factor(vecs * clipped_sqrt(evals)[..., None, :], 1.0)


def wootters_concurrence(q: DensityMatrix) -> float:
    """Exact two-qubit concurrence of q (Wootters, PRL 80, 2245 (1998)); see _wootters."""
    _require_2x2(q)
    return float(_wootters(q.mat))


def x_lower_bound(q: DensityMatrix) -> BoundReport:
    """X-matrix lower bound on the concurrence, with the exact value attached."""
    rep = x_concurrence(x_decompose(q)[0])
    exact = wootters_concurrence(q)
    _check_below_exact(rep.bound, exact)
    return replace(rep, exact=exact)


def certify_from_elements(q14_abs: float, d22: float, d33: float) -> BoundReport:
    """Entanglement certificate from three measured density-matrix elements.

    Only |Q14| and the two diagonals Q22, Q33 are needed, each in [0, 1]
    (else OutOfRange); the phase of Q14 is irrelevant.  c2 is then exactly
    0, so a c1 above roundoff (see highdim._best_margin) certifies
    entanglement; any other c1 is inconclusive.
    """
    for name, v in (("|q14|", q14_abs), ("d22", d22), ("d33", d33)):
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"{name} must lie in [0, 1], got {v}")
    return replace(x_concurrence(XCore(0.0, d22, d33, 0.0, q14_abs, 0.0)), c2=None)
