"""Bound and concurrence beyond two qubits.

For pure states of any bipartite dimension the concurrence is
sqrt(2(1 - Tr[Q_A^2])), equivalently twice the root-sum-square of the 2x2
minors of the amplitude matrix; _column_concurrence is the one kernel for it,
shared by the two-qubit code and the convex-roof oracle.  For mixed states
the pair margin 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)), maximized over index
pairs, is a lower bound on the convex-roof concurrence; _pair_terms is the one
kernel for its terms, over any stack, and every margin in the package uses it.
_best_margin is the one reduction of the margins to the bound, with its
roundoff rule, and every bound in the package comes from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, InvariantViolation
from .linalg import DensityMatrix, PureState, _check_int

# A best margin within this many float64 ulps of its own scale is roundoff,
# not signal (on pure product states, whose margin is 0, it reaches about 3).
_ROUNDOFF_ULPS = 16
_EPS = float(np.finfo(float).eps)
# A lower bound may exceed the concurrence it bounds by this much, for roundoff.
_EXACT_TOL = 1e-10


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
    the value is 0.  Values alone at 2x2 are 2|ad - bc|, which keeps its
    digits on near-product columns; the general form loses half of them.
    """
    if dimA == 2 and dimB == 2 and not grad:
        g = cols[0] * cols[3] - cols[1] * cols[2]
        return np.sqrt(4.0 * (g.real**2 + g.imag**2) + smoothing * smoothing)
    # One dimA x dimB amplitude matrix per column; gram is its reduced
    # state, Hermitian, so Tr[gram^2] is the sum of |gram|^2.
    mats = cols.T.reshape(-1, dimA, dimB)
    gram = mats @ mats.conj().transpose(0, 2, 1)
    tr = gram.trace(axis1=1, axis2=2).real
    tr2 = np.square(gram.view(float)).sum(axis=(1, 2))
    sq = np.maximum(2.0 * (tr * tr - tr2), 0.0)
    conc = np.sqrt(sq + smoothing * smoothing)
    if not grad:
        return conc
    num = (tr[:, None, None] * mats - gram @ mats).reshape(-1, dimA * dimB).T
    return conc, num * np.divide(4.0, conc, out=np.zeros_like(conc), where=conc > 0.0)


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


def _pair_grid(dimA: int, dimB: int) -> tuple[np.ndarray, ...]:
    """Index arrays (i, j, k, l) of every pair and orientation, for _pair_terms.

    The A-pairs i < j are shaped (nA, 1, 1), each B-pair k < l and then its
    mirror (1, nB, 2), both in lexicographic order.  At 2x2 the grid is the
    two X witnesses, c1 (Q_14 against Q_22 Q_33) and then c2.  The arrays are
    read-only, so a grid can be built once and shared, and contiguous, which
    numpy gathers by faster.
    """
    a, b = (np.fromiter(chain.from_iterable(combinations(range(n), 2)), int, n * (n - 1))
            for n in (dimA, dimB))
    i, j = a.reshape(-1, 2).T.copy()[..., None, None]
    k = b.reshape(1, -1, 2)
    grid = i, j, k, k[..., ::-1].copy()
    for x in grid:
        x.flags.writeable = False
    return grid


def _pair_terms(mat: np.ndarray, dimA: int, dimB: int,
                i, j, k, l) -> tuple[np.ndarray, np.ndarray]:
    """The coherence |Q_ik,jl| and the diagonal root sqrt(Q_il,il Q_jk,jk).

    Over a (..., D, D) stack and index arrays that broadcast together; swapping
    k and l mirrors.  |coh| is by hypot: the same float alone or in a stack.
    """
    c = mat.reshape(*mat.shape[:-2], dimA, dimB, dimA, dimB)[..., i, k, j, l]
    d = mat.diagonal(0, -2, -1).real.reshape(*mat.shape[:-2], dimA, dimB)
    return np.hypot(c.real, c.imag), np.sqrt(np.maximum(d[..., i, l] * d[..., j, k], 0.0))


def pair_bound(q: DensityMatrix, p: PairIndex, mirrored: bool = False) -> float:
    """Signed margin 2(|Q_ik,jl| - sqrt(Q_il,il Q_jk,jk)) for one index pair.

    With mirrored=True the roles of k and l swap: the (il),(jk) coherence is
    compared against the (ik),(jl) diagonals.  A non-integer index, a bool
    too, or one out of range raises IndexOutOfRange.
    """
    for name in "ijkl":
        _check_int(name, getattr(p, name), IndexOutOfRange)
    if not (0 <= p.i < p.j < q.dimA and 0 <= p.k < p.l < q.dimB):
        raise IndexOutOfRange(
            f"pair {p} out of range for dims ({q.dimA},{q.dimB}); need i<j and k<l"
        )
    k, l = (p.l, p.k) if mirrored else (p.k, p.l)
    coh, root = _pair_terms(q.mat, q.dimA, q.dimB, p.i, p.j, k, l)
    return float(2.0 * (coh - root))


class _BestMargin(NamedTuple):
    """Margins (..., nA, nB, 2) of a (..., D, D) stack; bound, value, witness per matrix."""

    margins: np.ndarray
    bound: np.ndarray | float
    value: np.ndarray | float
    witness: np.ndarray | int


def _best_margin(mat: np.ndarray, dimA: int, dimB: int, grid) -> _BestMargin:
    """Every pair margin of each matrix in a (..., D, D) stack, and their maximum.

    grid is _pair_grid(dimA, dimB), and the margins keep its layout.  Per
    matrix, `value` is the maximum, the raw signed margin.  Roundoff is
    _ROUNDOFF_ULPS units of the maximal margin's |coherence| + sqrt(diagonal
    product), and `witness` is the flat grid index of the first margin within
    roundoff of the maximum, so margins that are mathematically equal (the
    plain and mirrored margins of a product state) are not told apart by
    their last bits.  `bound` is the maximum, or 0 where it is within
    roundoff of zero: a pure product state's margins are 0 but evaluate to a
    few ulps either side, and roundoff must not certify entanglement.  Each
    matrix gives the same bits alone or in a stack; for one D x D matrix
    bound, value and witness are Python scalars.
    """
    coh, root = _pair_terms(mat, dimA, dimB, *grid)
    margins = 2.0 * (coh - root)
    n = math.prod(margins.shape[-3:])
    if n == 0:
        raise IndexOutOfRange("dims too small: need dimA >= 2 and dimB >= 2")
    stack = mat.shape[:-2]
    if stack:
        flat = margins.reshape(-1, n)
        top = flat.argmax(axis=1)[:, None]
        value = np.take_along_axis(flat, top, 1)
        scale = np.take_along_axis((coh + root).reshape(flat.shape), top, 1)
    else:  # the same arithmetic on the one row, read out as Python scalars
        flat = margins.reshape(n)
        top = int(flat.argmax())
        value, scale = flat.item(top), coh.item(top) + root.item(top)
    roundoff = _ROUNDOFF_ULPS * _EPS * scale
    witness = (flat >= value - roundoff).argmax(axis=-1)
    bound = np.where(value > roundoff, value, 0.0)
    if stack:
        return _BestMargin(margins, bound.reshape(stack), value.reshape(stack),
                           witness.reshape(stack))
    return _BestMargin(margins, float(bound), value, int(witness))


def _check_below_exact(bound: float, exact: float, what: str = "lower bound") -> None:
    """Raise InvariantViolation if bound exceeds the exact concurrence by more than _EXACT_TOL."""
    if bound > exact + _EXACT_TOL:
        raise InvariantViolation(f"{what} {bound:.12g} exceeds exact concurrence {exact:.12g}")


def generalized_lower_bound(q: DensityMatrix) -> GeneralBoundReport:
    """Maximize the pair margin over all index pairs and both orientations.

    The bound, value and witness are _best_margin's: the reported pair and
    orientation are the lexicographically first (i, j, k, l, mirrored) whose
    margin lies within roundoff of the maximum.
    """
    i, j, k, l = grid = _pair_grid(q.dimA, q.dimB)
    best = _best_margin(q.mat, q.dimA, q.dimB, grid)
    a, rest = divmod(best.witness, k.size)
    b, mirrored = divmod(rest, 2)
    return GeneralBoundReport(
        bound=best.bound,
        argmax_pair=PairIndex(i.item(a, 0, 0), j.item(a, 0, 0), k.item(0, b, 0), l.item(0, b, 0)),
        mirrored=bool(mirrored),
        value=best.value,
    )
