"""Bound and concurrence beyond two qubits.

For pure states of any bipartite dimension the concurrence is
sqrt(2(1 - Tr[Q_A^2])), equivalently twice the root-sum-square of the 2x2
minors of the amplitude matrix; _column_concurrence is the one kernel for it,
shared by the two-qubit code and the convex-roof oracle.  For mixed states
the coherence-vs-diagonal comparison 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)),
maximized over index pairs, is a lower bound on the convex-roof concurrence;
_pair_terms is the one kernel for its terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, InvariantViolation
from .linalg import DensityMatrix, PureState

# A best margin within this many float64 ulps of its own scale is roundoff,
# not signal (on pure product states, whose margin is 0, it reaches about 3).
_ROUNDOFF_ULPS = 16
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PairIndex:
    """A pair of A-levels (i<j) and B-levels (k<l) selecting a 2x2 sub-block."""

    i: int
    j: int
    k: int
    l: int


@dataclass(frozen=True)
class GeneralBoundReport:
    """Lower bound with the witnessing index pair.

    `mirrored` records which coherence orientation achieved the maximum:
    False compares |Q_ik,jl| against the (il),(jk) diagonals, True compares
    |Q_il,jk| against the (ik),(jl) diagonals.
    """

    bound: float
    argmax_pair: PairIndex
    mirrored: bool
    value: float


def _column_concurrence(cols: np.ndarray, dimA: int, dimB: int, smoothing: float = 0.0,
                        grad: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Concurrence of every column of cols (D x m), and with grad=True its gradient.

    Degree-2 homogeneous in the weight: a column sqrt(p) psi gives p C(psi).
    Each value is sqrt(S + smoothing^2) with S the squared concurrence, so
    smoothing = 0 gives the concurrence itself and smoothing > 0 rounds off
    its kink at product columns.  With grad=True the result is (values,
    gradient), the gradient being d/dRe + i d/dIm of each value, and 0 where
    the value is 0.
    """
    two_qubit = dimA == 2 and dimB == 2
    if two_qubit:
        g = cols[0] * cols[3] - cols[1] * cols[2]
        sq = 4.0 * (g.real**2 + g.imag**2)
    else:
        m = cols.shape[1]
        mats = cols.reshape(dimA, dimB, m)
        gram = np.einsum("abm,cbm->acm", mats, mats.conj())
        tr = np.einsum("aam->m", gram).real
        tr2 = np.einsum("acm,cam->m", gram, gram).real
        sq = np.clip(2.0 * (tr * tr - tr2), 0.0, None)
    conc = np.sqrt(sq + smoothing * smoothing)
    if not grad:
        return conc
    if two_qubit:
        num = 4.0 * g * np.stack([cols[3], -cols[2], -cols[1], cols[0]]).conj()
    else:
        num = 4.0 * (tr * mats - np.einsum("acm,cbm->abm", gram, mats))
        num = num.reshape(dimA * dimB, m)
    return conc, num * np.divide(1.0, conc, out=np.zeros_like(conc), where=conc > 0.0)


def i_concurrence_pure(psi: PureState) -> float:
    """Pure-state concurrence sqrt(2(1 - Tr[Q_A^2])) for any bipartite dims.

    The value comes from _column_concurrence and is cross-checked against
    the independent minor form; they must agree to 1e-10 or an
    InvariantViolation is raised.
    """
    value = float(_column_concurrence(psi.amps[:, None], psi.dimA, psi.dimB)[0])
    minor_form = _iconc_from_minors(psi.amps, psi.dimA, psi.dimB)
    if abs(value - minor_form) > 1e-10:
        raise InvariantViolation(
            f"kernel value {value:.15g} and minor form {minor_form:.15g} disagree"
        )
    return value


def _iconc_from_minors(amps: np.ndarray, dimA: int, dimB: int) -> float:
    m = amps.reshape(dimA, dimB)
    total = 0.0
    for i, j in combinations(range(dimA), 2):
        for k, l in combinations(range(dimB), 2):
            total += abs(m[i, k] * m[j, l] - m[i, l] * m[j, k]) ** 2
    return 2.0 * math.sqrt(total)


def _check_pair(q: DensityMatrix, p: PairIndex) -> None:
    if not (0 <= p.i < p.j < q.dimA and 0 <= p.k < p.l < q.dimB):
        raise IndexOutOfRange(
            f"pair {p} out of range for dims ({q.dimA},{q.dimB}); need i<j and k<l"
        )


def _pair_terms(q: DensityMatrix, i, j, k, l) -> tuple[np.ndarray, np.ndarray]:
    """The coherence |Q_ik,jl| and the diagonal root sqrt(Q_il,il Q_jk,jk).

    Elementwise over index arrays that broadcast together; scalars give one
    pair.  Swapping k and l gives the mirrored orientation.
    """
    t = q.mat.reshape(q.dimA, q.dimB, q.dimA, q.dimB)
    d = np.diagonal(q.mat).real.reshape(q.dimA, q.dimB)
    return np.abs(t[i, k, j, l]), np.sqrt(np.maximum(d[i, l] * d[j, k], 0.0))


def pair_bound(q: DensityMatrix, p: PairIndex, mirrored: bool = False) -> float:
    """Signed margin 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)) for one index pair.

    With mirrored=True the roles of k and l swap: the (il),(jk) coherence is
    compared against the (ik),(jl) diagonals.
    """
    _check_pair(q, p)
    k, l = (p.l, p.k) if mirrored else (p.k, p.l)
    coh, root = _pair_terms(q, p.i, p.j, k, l)
    return float(2.0 * (coh - root))


def generalized_lower_bound(q: DensityMatrix) -> GeneralBoundReport:
    """Maximize the pair margin over all index pairs and both orientations.

    One _pair_terms call evaluates every margin, laid out as (A-pair,
    B-pair, mirrored) with the pairs in lexicographic order, so the first
    maximum is the lexicographic tie-break on (i, j, k, l, mirrored).  A best
    margin within roundoff of zero (_ROUNDOFF_ULPS units of the witness
    pair's |coherence| + sqrt(diagonal product)) gives bound 0: on a pure
    product state the margin is exactly 0 but evaluates to a few ulps either
    side, and a positive roundoff must not certify entanglement.  `value`
    keeps the raw signed margin.
    """
    rows = np.array(list(combinations(range(q.dimA), 2)), dtype=int).reshape(-1, 1, 1, 2)
    cols = np.array([((k, l), (l, k)) for k, l in combinations(range(q.dimB), 2)],
                    dtype=int).reshape(1, -1, 2, 2)
    coh, root = _pair_terms(q, rows[..., 0], rows[..., 1], cols[..., 0], cols[..., 1])
    margins = 2.0 * (coh - root)
    if margins.size == 0:
        raise IndexOutOfRange("dims too small: need dimA >= 2 and dimB >= 2")
    best = np.unravel_index(np.argmax(margins), margins.shape)
    a, b, mirrored = (int(n) for n in best)
    value = float(margins[best])
    roundoff = _ROUNDOFF_ULPS * _EPS * (coh[best] + root[best])
    (i, j), (k, l) = rows[a, 0, 0], cols[0, b, 0]
    return GeneralBoundReport(
        bound=value if value > roundoff else 0.0,
        argmax_pair=PairIndex(int(i), int(j), int(k), int(l)),
        mirrored=bool(mirrored),
        value=value,
    )
