"""Numerical ground truth and adversarial search.

convex_roof_upper returns a pure decomposition and its average concurrence,
an upper bound on the true concurrence.  It picks the decomposition's
columns from the scaled eigenvectors (the state itself at rank 1, Wootters'
optimal decomposition on two qubits, where the bound is exact, otherwise the
best mixing that _roof_search finds by L-BFGS), then takes one value and one
witness from them.  fuzz_inequality hammers the lower bound against that
reference (or the exact two-qubit value).  optimize_basis searches local
unitaries for the basis that maximizes the X bound, on the analytic
gradient of one X witness's margin: any pair's margin is pair (0, 1, 0, 1)'s
after a local permutation of levels, itself a local unitary.  Both searches
run _multistart, one L-BFGS run per start and stage through minimize (which
drives scipy's L-BFGS-B core directly), and take their isometries as the QR
factor of an unconstrained complex matrix (linalg._isometry, _isometry_grad).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize._lbfgsb import setulb

from .errors import InvalidRank, InvariantViolation, OutOfRange, WrongDimensions
from .highdim import (_EPS, _EXACT_TOL, _best_margin, _check_below_exact, _column_concurrence,
                      _pair_grid, _pair_terms, generalized_lower_bound)
# sample_random_density is unused here, but the benchmark's fuzz-2q marks
# replace it in this module by name, so it stays importable from it.
from .linalg import (DensityMatrix, PureState, _check_int, _check_ranks,  # noqa: F401
                     _isometry, _isometry_grad, _local_product, _trial_densities,
                     sample_random_density)
from .two_qubit import _wootters_decomposition, _wootters_factor, wootters_concurrence

_RANK_TOL = 1e-12
# Each start runs one L-BFGS stage per width: the smoothed stages carry the
# search past the kinks where a column turns product (see
# highdim._column_concurrence), and the last stage minimizes the average itself.
_SMOOTHING = (1e-3, 1e-6, 0.0)
# Fuzz trials are evaluated this many at a time on two qubits, and
# proportionally fewer in larger dimensions, so the stacked buffers stay a
# few MB whatever the trial count.
_FUZZ_CHUNK = 2048
# L-BFGS ftol and gtol of the roof search, and of the basis search (below
# the _EXACT_TOL of its early stop).
_ROOF_TOL = 1e-8
_BASIS_TOL = 1e-12
# scipy's L-BFGS-B settings: stored corrections, line-search steps per
# iteration and the evaluation budget (its maxcor, maxls and maxfun).
_LBFGS_MEMORY = 10
_LBFGS_MAX_LINE_SEARCH = 20
_LBFGS_MAX_FEV = 15000


class MinimizeResult(NamedTuple):
    """End point of minimize: x, the objective there, evaluations and iterations."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def minimize(fun, x0: np.ndarray, args: tuple = (), *, maxiter: int, ftol: float,
             gtol: float) -> MinimizeResult:
    """Minimize fun(x, *args) -> (value, gradient) by unbounded L-BFGS-B from x0.

    The loop drives scipy's L-BFGS-B core (Byrd, Lu, Nocedal & Zhu, SIAM J.
    Sci. Comput. 16, 1190 (1995)) the way scipy.optimize.minimize(jac=True,
    method="L-BFGS-B") does, with the same memory, line search, stopping
    rules and evaluation cache, so the iterates, value, nfev and nit are
    bitwise the same; what it leaves out is the wrapper's per-evaluation
    bookkeeping.  The core writes x in place; fun must not keep it.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    m = _LBFGS_MEMORY
    no_bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)  # 0: no bound on any variable
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / _EPS
    f, g = 0.0, np.zeros(n)
    # Like scipy's ScalarFunction, a request at the last evaluated point is
    # answered from it; NaN compares unequal, so the first request evaluates.
    x_fun = np.full(n, np.nan)
    nfev = nit = 0
    while True:
        setulb(m, x, no_bound, no_bound, nbd, f, g, factr, gtol, wa, iwa, task,
               lsave, isave, dsave, _LBFGS_MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # FG: the core wants the value and gradient at x
            if not (x == x_fun).all():
                f, g_fun = fun(x, *args)
                x_fun = x.copy()
                nfev += 1
            g = np.array(g_fun, dtype=float)  # the core may write into g
        elif task[0] == 1:  # NEW_X: an iteration is complete
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > _LBFGS_MAX_FEV:
                task[:] = 5, 502  # STOP: evaluation limit
        else:  # converged, stopped, or the line search failed
            return MinimizeResult(x, f, nfev, nit)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of both searches; a field not an integer or below its minimum raises OutOfRange."""

    restarts: int = 10
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            _check_int(name, value, OutOfRange)
            if value < low:
                raise OutOfRange(f"{name} must be >= {low}, got {value}")


# The fuzz's reference only needs to dominate the true concurrence, which any
# decomposition average does, so its roof search runs lean.
_FUZZ_ORACLE = OptimizerConfig(restarts=1, max_iters=150)


@dataclass(frozen=True, eq=False)
class DecompositionCandidate:
    """A pure-state ensemble reproducing a target density matrix."""

    weights: np.ndarray
    states: list[PureState]

    def reconstruction_residual(self, q: DensityMatrix) -> float:
        acc = np.zeros_like(q.mat)
        for w, psi in zip(self.weights, self.states):
            acc += w * np.outer(psi.amps, psi.amps.conj())
        return float(np.abs(acc - q.mat).max())


@dataclass(frozen=True, eq=False)
class RoofResult:
    """value is the average concurrence of witness, a pure decomposition of the state."""

    value: float
    witness: DecompositionCandidate


def _ensemble_average(params: np.ndarray, w: np.ndarray, m: int, r: int,
                      dimA: int, dimB: int, smoothing: float = 0.0) -> tuple[float, np.ndarray]:
    """Ensemble-average concurrence of the decomposition params encodes, and its gradient.

    The isometry is Q from the m x r matrix params holds (_isometry), and the
    decomposition's subnormalized states are the columns of w Q^T.  The
    gradient is back-propagated through the QR factorization
    (_isometry_grad).  smoothing is passed to _column_concurrence.
    """
    iso, tri = _isometry(params, m, r)  # m x r, iso^dag iso = I
    cols = w @ iso.T  # D x m; sum_j col col^dag reproduces the state
    conc, gcols = _column_concurrence(cols, dimA, dimB, smoothing, grad=True)
    return float(conc.sum()), _isometry_grad(iso, tri, (w.conj().T @ gcols).T)


def convex_roof_upper(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> RoofResult:
    """Upper-bound the concurrence by the average over a pure decomposition.

    The decomposition's subnormalized columns, sqrt(p) psi each, come from
    the scaled eigenvectors w: w itself at rank 1, Wootters' optimal
    decomposition of w on two qubits (two_qubit._wootters_decomposition, at
    most 4 states, average exact), and otherwise the best mixing w Q^T that
    _roof_search finds, at a size it sets from the rank.  The value is the
    columns' summed concurrence, the witness's own average since
    _column_concurrence is degree-2 homogeneous.  On two qubits a value more
    than _EXACT_TOL from the Wootters kernel on w raises InvariantViolation.
    Only the search reads restarts, max_iters and seed.
    """
    evals, vecs = np.linalg.eigh(q.mat)
    keep = evals > _RANK_TOL
    w = vecs[:, keep] * np.sqrt(evals[keep])  # columns are subnormalized eigenvectors
    dimA, dimB = q.dimA, q.dimB
    if w.shape[1] == 1:
        cols = w
    elif (dimA, dimB) == (2, 2):
        cols = _wootters_decomposition(w)
    else:
        # The search never beats the true concurrence, which is at least
        # the algebraic lower bound, so that bound is its floor.
        cols = _roof_search(w, dimA, dimB, cfg, generalized_lower_bound(q).bound)

    value = float(_column_concurrence(cols, dimA, dimB).sum())
    if (dimA, dimB) == (2, 2):
        exact = float(_wootters_factor(w, 1.0))
        if abs(value - exact) > _EXACT_TOL:
            raise InvariantViolation(
                f"Wootters decomposition average {value:.12g} differs from the exact "
                f"concurrence {exact:.12g}")
    return RoofResult(value=value, witness=_candidate(cols, dimA, dimB))


def _roof_search(w: np.ndarray, dimA: int, dimB: int, cfg: OptimizerConfig,
                 floor: float) -> np.ndarray:
    """Columns w Q^T of the best size-m ensemble found, Q an m x r isometry.

    Every size-m ensemble is w Q^T for some Q.  m = min(r^2, max(8, r + 4)):
    an optimal one needs at most r^2 states (Carathéodory), and r + 4 takes
    full-rank isotropic states within 3e-6 of exact, where m = r stayed
    2-4e-2 above.  _multistart minimizes the average through the _SMOOTHING
    stages, scoring each end point on the exact average, until the best is
    within 1e-6 of floor, a lower bound on it.  Only the random starts reach
    size m: the identity start's rows r..m-1 are 0, their columns are zero
    and so is a zero column's gradient, so every L-BFGS step keeps them 0 and
    that start searches size-r ensembles whatever m is.
    """
    r = w.shape[1]
    m = min(r * r, max(8, r + 4))

    def columns(x: np.ndarray) -> np.ndarray:
        return w @ _isometry(x, m, r)[0].T

    def objective(x: np.ndarray, smoothing: float = 0.0) -> tuple[float, np.ndarray]:
        return _ensemble_average(x, w, m, r, dimA, dimB, smoothing)

    def average(x: np.ndarray) -> float:
        return float(_column_concurrence(columns(x), dimA, dimB).sum())

    x_eye = np.concatenate([np.eye(m, r).ravel(), np.zeros(m * r)])
    return columns(_multistart(objective, [(s,) for s in _SMOOTHING], average, x_eye,
                               average(x_eye), floor + 1e-6, cfg, _ROOF_TOL)[0])


def _multistart(objective, stages: list[tuple], score, x0: np.ndarray, best: float,
                target: float, cfg: OptimizerConfig, tol: float) -> tuple[np.ndarray, float]:
    """Best point and score of an L-BFGS search from cfg.restarts starts.

    Start 0 is x0, whose score the caller has taken as best; start k > 0 is
    drawn from default_rng(cfg.seed) when its turn comes.  Each start runs
    one minimize per entry of stages, passed as args (cfg.max_iters its
    maxiter, tol its ftol and gtol), and every stage's end point competes on
    score, since a later stage can end above an earlier one.  No start
    begins once the best score is at or below target.
    """
    rng = np.random.default_rng(cfg.seed)
    best_x = x0
    for k in range(cfg.restarts):
        if best <= target:
            break
        x = x0 if k == 0 else rng.standard_normal(x0.size)
        for args in stages:
            x = minimize(objective, x, args=args, maxiter=cfg.max_iters, ftol=tol, gtol=tol).x
            value = score(x)
            if value < best:
                best, best_x = value, x
    return best_x, best


def _candidate(cols: np.ndarray, dimA: int, dimB: int) -> DecompositionCandidate:
    """The ensemble of the subnormalized columns of cols, those of weight above 1e-14."""
    weights, states = [], []
    for col in cols.T:
        p = float(np.linalg.norm(col) ** 2)
        if p > 1e-14:
            weights.append(p)
            states.append(PureState(dimA, dimB, col / math.sqrt(p)))
    return DecompositionCandidate(weights=np.array(weights), states=states)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a randomized sweep of the main inequality."""

    trials: int
    dimA: int
    dimB: int
    seed: int
    violations: int
    max_gap: float
    min_slack: float
    oracle_tolerance: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def fuzz_inequality(
    trials: int,
    dims: tuple[int, int],
    seed: int,
    ranks: Optional[list[int]] = None,
) -> FuzzReport:
    """Sample random mixed states and compare the bound against a reference.

    On (2,2) the reference is the exact Wootters concurrence; otherwise it is
    the convex-roof upper bound, which dominates the true concurrence, so the
    comparison is safe at the same direction.  Either way only roundoff needs
    slack, so the tolerance is _EXACT_TOL.  Ranks cycle through
    1..dimA*dimB unless an explicit list is given.  Rank-1 two-qubit trials
    additionally check the signed pure-state inequality |c1| <= C.  Trial t
    always samples from SeedSequence([seed, t]), so seed must be an integer
    >= 0 and trials an integer in [1, 2**32] (t is one 32-bit entropy word);
    both raise OutOfRange otherwise.  A non-integer dim or one below 2 raises
    WrongDimensions, and an empty ranks list or a rank in it that is not an
    integer in [1, dimA dimB] InvalidRank; every check comes before the
    first sample.  Trials run in chunks of _FUZZ_CHUNK * 16 /
    (dimA dimB)^2, at least one, sampled stacked (linalg._trial_densities)
    and bounded in one highdim._best_margin call.  On two qubits the
    reference is the Wootters value from each trial's Ginibre factor
    (two_qubit._wootters_factor, one call per rank), else one lean
    convex_roof_upper (_FUZZ_ORACLE) per trial t, seeded t.
    """
    dimA, dimB = dims
    _check_int("seed", seed, OutOfRange)
    _check_int("trials", trials, OutOfRange)
    _check_int("dimA", dimA, WrongDimensions)
    _check_int("dimB", dimB, WrongDimensions)
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    if not 1 <= trials <= 2**32:
        raise OutOfRange(f"trials must be in [1, 2**32], got {trials}")
    if dimA < 2 or dimB < 2:
        raise WrongDimensions(f"dims must both be >= 2, got ({dimA},{dimB})")
    d = dimA * dimB
    if ranks is not None:
        if not ranks:
            raise InvalidRank("ranks must not be empty")
        _check_ranks(ranks, d)
    two_qubit = (dimA, dimB) == (2, 2)
    cycle = np.asarray(ranks if ranks is not None else range(1, d + 1))
    grid = _pair_grid(dimA, dimB)
    chunk = max(1, _FUZZ_CHUNK * 16 // (d * d))
    violations, min_slack, max_gap = 0, math.inf, -math.inf
    for start in range(0, trials, chunk):
        t = np.arange(start, min(trials, start + chunk))
        rank = cycle[t % cycle.size]
        m, factors = _trial_densities(dimA, dimB, seed, start, rank)
        best = _best_margin(m, dimA, dimB, grid)
        if two_qubit:
            reference = np.empty(t.size)
            for idx, g, tr in factors:
                reference[idx] = _wootters_factor(g, tr)
            # Rank-1 trials also check the signed pure-state inequality |c1| <= C.
            c1 = best.margins[:, 0, 0, 0]
            violations += int(np.count_nonzero((rank == 1) & (np.abs(c1) > reference + _EXACT_TOL)))
        else:
            cfgs = (replace(_FUZZ_ORACLE, seed=n) for n in t.tolist())
            reference = np.array([convex_roof_upper(DensityMatrix(dimA, dimB, mat), cfg).value
                                  for mat, cfg in zip(m, cfgs)])
        violations += int(np.count_nonzero(best.bound > reference + _EXACT_TOL))
        slack = reference - best.bound
        min_slack = min(min_slack, float(slack.min()))
        max_gap = max(max_gap, float(slack.max()))
    return FuzzReport(
        trials=trials,
        dimA=dimA,
        dimB=dimB,
        seed=seed,
        violations=violations,
        max_gap=max_gap,
        min_slack=min_slack,
        oracle_tolerance=_EXACT_TOL,
    )


@dataclass(frozen=True, eq=False)
class BasisResult:
    """best_bound is the X bound of U rho U^dag, U = uA (x) uB the best basis found;
    original_bound is rho's own X bound, and exact its Wootters concurrence.
    """

    best_bound: float
    uA: np.ndarray
    uB: np.ndarray
    original_bound: float
    exact: float


def _basis_margin(params: np.ndarray, rho: np.ndarray, dimA: int,
                  dimB: int) -> tuple[float, np.ndarray]:
    """Negated margin of pair (0, 1, 0, 1) (see _pair_terms) in a local basis, and its gradient.

    params holds a dimA x dimA and then a dimB x dimB complex matrix, each
    laid out as _isometry reads it (2 dimA^2 + 2 dimB^2 real numbers); uA and
    uB are their unitary QR factors, and the margin is read from
    rho' = U rho U^dag with U = uA (x) uB.  Where |coh| or root is 0 that term
    contributes gradient 0, as _column_concurrence does where its value is 0.
    """
    nA = 2 * dimA * dimA
    uA, triA = _isometry(params[:nA], dimA, dimA)
    uB, triB = _isometry(params[nA:], dimB, dimB)
    u = _local_product(uA, uB)
    r = u @ rho @ u.conj().T
    coh, root = _pair_terms(r, dimA, dimB, 0, 1, 0, 1)
    rt = r.reshape(dimA, dimB, dimA, dimB)
    g = np.zeros_like(r)  # gradient of the margin in the entries of rho'
    gt = g.reshape(dimA, dimB, dimA, dimB)
    if coh > 0.0:
        gt[0, 0, 1, 1] = 2.0 * rt[0, 0, 1, 1] / coh
    if root > 0.0:
        gt[0, 1, 0, 1], gt[1, 0, 1, 0] = -rt[1, 0, 1, 0].real / root, -rt[0, 1, 0, 1].real / root
    # Through rho' = U rho U^dag the gradient in U is (g + g^dag) U rho; its
    # factors for uA and uB contract it with the other unitary.
    gu = ((g + g.conj().T) @ u @ rho).reshape(dimA, dimB, dimA, dimB)
    gA = np.einsum("abcd,bd->ac", gu, uB.conj())
    gB = np.einsum("abcd,ac->bd", gu, uA.conj())
    grad = np.concatenate([_isometry_grad(uA, triA, gA), _isometry_grad(uB, triB, gB)])
    return -2.0 * (coh - root), -grad


def optimize_basis(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> BasisResult:
    """Search local unitaries uA, uB maximizing the X bound of the rotated state.

    uA and uB are the unitary QR factors of unconstrained complex matrices
    (_isometry).  One witness suffices, as a local permutation of levels
    maps any pair to (0, 1, 0, 1): _multistart maximizes its margin
    (_basis_margin), scores each run's end on the X bound, and stops once
    that reaches the exact concurrence, which no basis exceeds.  Start 0,
    scored once, keeps the result at or above the bound in the original
    basis.  It is the identity, unless that bound is more than _EXACT_TOL
    below exact and the Schmidt basis of the principal eigenvector scores
    strictly higher.  There a pure state is an X state whose bound is its
    concurrence, so pure states run no L-BFGS.  The guard keeps every
    separable state, whose exact value is 0, at the identity: the Schmidt
    basis of a pure product state can read a few ulps above 0, which would
    certify entanglement.
    """
    exact = wootters_concurrence(q)
    dimA, dimB = q.dimA, q.dimB
    grid = _pair_grid(dimA, dimB)
    nA = 2 * dimA * dimA

    def unitaries(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _isometry(x[:nA], dimA, dimA)[0], _isometry(x[nA:], dimB, dimB)[0]

    def negated_bound(x: np.ndarray) -> float:
        u = _local_product(*unitaries(x))
        return -float(_best_margin(u @ q.mat @ u.conj().T, dimA, dimB, grid).bound)

    def layout(uA: np.ndarray, uB: np.ndarray) -> np.ndarray:
        # _isometry's layout; _qr of a unitary is that unitary.
        return np.concatenate([uA.real.ravel(), uA.imag.ravel(), uB.real.ravel(), uB.imag.ravel()])

    x0 = layout(np.eye(dimA), np.eye(dimB))
    best = negated_bound(x0)
    original_bound = -best
    if original_bound < exact - _EXACT_TOL:
        # The principal eigenvector's Schmidt basis, from M = U S V^dag.
        u, _, vh = np.linalg.svd(np.linalg.eigh(q.mat)[1][:, -1].reshape(dimA, dimB))
        x_schmidt = layout(u.conj().T, vh.conj())
        schmidt = negated_bound(x_schmidt)
        if schmidt < best:
            x0, best = x_schmidt, schmidt
    best_x, best = _multistart(_basis_margin, [(q.mat, dimA, dimB)], negated_bound, x0, best,
                               -(exact - _EXACT_TOL), cfg, _BASIS_TOL)
    _check_below_exact(-best, exact, "optimized bound")
    uA, uB = unitaries(best_x)
    return BasisResult(best_bound=-best, uA=uA, uB=uB, original_bound=original_bound,
                       exact=exact)
