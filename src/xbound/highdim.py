"""Bound and concurrence beyond two qubits.

For pure states of any bipartite dimension the concurrence is
sqrt(2(1 - Tr[Q_A^2])), equivalently twice the root-sum-square of the 2x2
minors of the amplitude matrix.  For mixed states the coherence-vs-diagonal
comparison 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)), maximized over index pairs,
is a lower bound on the convex-roof concurrence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, InvariantViolation
from .linalg import DensityMatrix, PureState, partial_trace_B_vec

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


def i_concurrence_pure(psi: PureState) -> float:
    """Pure-state concurrence sqrt(2(1 - Tr[Q_A^2])) for any bipartite dims.

    Both the reduced-purity form and the minor form are evaluated; they must
    agree to 1e-10 or an InvariantViolation is raised.
    """
    purity_form = _iconc_from_purity(psi.amps, psi.dimA, psi.dimB)
    minor_form = _iconc_from_minors(psi.amps, psi.dimA, psi.dimB)
    if abs(purity_form - minor_form) > 1e-10:
        raise InvariantViolation(
            f"purity form {purity_form:.15g} and minor form {minor_form:.15g} disagree"
        )
    return purity_form


def _iconc_from_purity(amps: np.ndarray, dimA: int, dimB: int) -> float:
    qa = partial_trace_B_vec(amps, dimA, dimB)
    purity = np.trace(qa @ qa).real
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


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


def _pair_terms(q: DensityMatrix, p: PairIndex, mirrored: bool) -> tuple[float, float]:
    """The coherence |Q_ik,jl| and the diagonal root sqrt(Q_il,il Q_jk,jk) of one pair."""
    m, dB = q.mat, q.dimB
    ik = p.i * dB + p.k
    il = p.i * dB + p.l
    jk = p.j * dB + p.k
    jl = p.j * dB + p.l
    if mirrored:
        coh = abs(m[il, jk])
        diag = m[ik, ik].real * m[jl, jl].real
    else:
        coh = abs(m[ik, jl])
        diag = m[il, il].real * m[jk, jk].real
    return coh, math.sqrt(max(diag, 0.0))


def pair_bound(q: DensityMatrix, p: PairIndex, mirrored: bool = False) -> float:
    """Signed margin 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)) for one index pair.

    With mirrored=True the roles of k and l swap: the (il),(jk) coherence is
    compared against the (ik),(jl) diagonals.
    """
    _check_pair(q, p)
    coh, root = _pair_terms(q, p, mirrored)
    return float(2.0 * (coh - root))


def generalized_lower_bound(q: DensityMatrix) -> GeneralBoundReport:
    """Maximize the pair margin over all index pairs and both orientations.

    Ties break lexicographically on (i, j, k, l, mirrored) after the full
    enumeration, so the result is independent of evaluation order.  A best
    margin within roundoff of zero (_ROUNDOFF_ULPS units of the witness
    pair's |coherence| + sqrt(diagonal product)) gives bound 0: on a pure
    product state the margin is exactly 0 but evaluates to a few ulps either
    side, and a positive roundoff must not certify entanglement.  `value`
    keeps the raw signed margin.
    """
    best_value = -math.inf
    best_pair = None
    best_mirrored = False
    for i, j in combinations(range(q.dimA), 2):
        for k, l in combinations(range(q.dimB), 2):
            p = PairIndex(i, j, k, l)
            for mirrored in (False, True):
                v = pair_bound(q, p, mirrored=mirrored)
                if v > best_value:
                    best_value = v
                    best_pair = p
                    best_mirrored = mirrored
    if best_pair is None:
        raise IndexOutOfRange("dims too small: need dimA >= 2 and dimB >= 2")
    coh, root = _pair_terms(q, best_pair, best_mirrored)
    roundoff = _ROUNDOFF_ULPS * _EPS * (coh + root)
    return GeneralBoundReport(
        bound=best_value if best_value > roundoff else 0.0,
        argmax_pair=best_pair,
        mirrored=best_mirrored,
        value=best_value,
    )
