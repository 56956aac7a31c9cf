"""Two-qubit machinery: X/O split, the X-matrix bound, and exact concurrence.

Basis order is {|00>, |01>, |10>, |11>}, so the X part of a 4x4 density matrix
consists of the diagonal plus the (0,3) and (1,2) coherences (and conjugates).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import OutOfRange, WrongDimensions
from .highdim import _best_margin, _check_below_exact, _column_concurrence, _pair_grid
from .linalg import DensityMatrix, PureState, clipped_sqrt

_SY2 = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)  # sigma_y (x) sigma_y


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


def _require_2x2(q: DensityMatrix) -> None:
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
    o = np.where(_X_MASK, 0.0, m)
    _warn_if_x_inconsistent(m)
    return x, o


def _warn_if_x_inconsistent(m: np.ndarray, slack: float = 1e-8) -> None:
    """Warn if the X part of any 4x4 matrix in the (..., 4, 4) stack m is not positive.

    The X part of a valid state is itself a valid state; a violated
    positivity constraint here is numerical noise upstream, not an error.
    """
    d = np.maximum(np.diagonal(m, axis1=-2, axis2=-1).real, 0.0)
    if np.any(np.abs(m[..., 0, 3]) > np.sqrt(d[..., 0] * d[..., 3]) + slack):
        warnings.warn("X-part positivity |q14| <= sqrt(d11*d44) violated beyond tolerance")
    if np.any(np.abs(m[..., 1, 2]) > np.sqrt(d[..., 1] * d[..., 2]) + slack):
        warnings.warn("X-part positivity |q23| <= sqrt(d22*d33) violated beyond tolerance")


def x_concurrence(x: XCore) -> BoundReport:
    """Concurrence of an X matrix: 2*max{0, |q14|-sqrt(d22 d33), |q23|-sqrt(d11 d44)}.

    c1 and c2 are the signed margins of the 2x2 pair grid; `bound` is their
    maximum by highdim._best_margin, 0 where that is within roundoff of zero.
    """
    best = _best_margin(x.as_matrix(), 2, 2, _pair_grid(2, 2))
    c1, c2 = best.margins.ravel().tolist()
    return BoundReport(c1=c1, c2=c2, bound=float(best.bound))


def pure_concurrence_2q(psi: PureState) -> float:
    """Concurrence 2|ad - bc| of a normalized two-qubit pure state (highdim's kernel)."""
    if (psi.dimA, psi.dimB) != (2, 2):
        raise WrongDimensions(f"expected dims (2,2), got ({psi.dimA},{psi.dimB})")
    return float(_column_concurrence(psi.amps[:, None], 2, 2)[0])


def _wootters(mats: np.ndarray) -> np.ndarray:
    """Exact concurrence of every two-qubit state in a (..., 4, 4) stack.

    max{0, l1 - l2 - l3 - l4}, where the l_i are, in decreasing order, the
    square roots of the eigenvalues of rho * rho~ with
    rho~ = (sy(x)sy) rho* (sy(x)sy).  Computed here as the singular values of
    sqrt(rho) (sy(x)sy) sqrt(rho)*, which is numerically stable (no square
    root of near-zero eigenvalues).
    """
    evals, vecs = np.linalg.eigh(mats)
    sqrt_rho = (vecs * clipped_sqrt(evals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    a = sqrt_rho @ _SY2 @ sqrt_rho.conj()
    lam = np.linalg.svd(a, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


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

    Only |Q14| and the two diagonals Q22, Q33 are needed; the phase of Q14 is
    irrelevant.  c2 is then exactly 0, so a c1 above roundoff (see
    highdim._best_margin) certifies entanglement; any other c1 is inconclusive.
    """
    if not (math.isfinite(q14_abs) and q14_abs >= 0):
        raise OutOfRange(f"|q14| must be finite and non-negative, got {q14_abs}")
    for name, v in (("d22", d22), ("d33", d33)):
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"{name} must lie in [0, 1], got {v}")
    return replace(x_concurrence(XCore(0.0, d22, d33, 0.0, q14_abs, 0.0)), c2=None)
