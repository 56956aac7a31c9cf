"""Numerical ground truth and adversarial search.

convex_roof_upper minimizes the ensemble-average pure-state concurrence over
pure decompositions by L-BFGS with an analytic gradient; the result is an
upper bound on the true concurrence.
fuzz_inequality hammers the lower bound against that reference (or against the
exact two-qubit value).  optimize_basis searches local unitaries exp(iH) for
the basis that maximizes the X bound, by L-BFGS on the analytic gradient of
each X witness's margin.  Both searches run through minimize, which drives
scipy's L-BFGS-B core directly.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack
from scipy.optimize._lbfgsb import setulb

from .errors import InvalidRank, OutOfRange, WrongDimensions
from .highdim import (_EPS, _EXACT_TOL, _best_margin, _check_below_exact, _column_concurrence,
                      _pair_grid, _pair_terms, generalized_lower_bound)
# sample_random_density is unused here, but the benchmark's fuzz-2q marks
# replace it in this module by name, so it stays importable from it.
from .linalg import (DensityMatrix, PureState, _check_int,  # noqa: F401
                     _local_product, _trial_densities, sample_random_density)
from .two_qubit import _wootters_factor, wootters_concurrence

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
    decomp_size: Optional[int] = None  # defaults to max(rank, min(rank^2, 8))

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0), ("decomp_size", 1)):
            value = getattr(self, name)
            if value is not None:
                _check_int(name, value, OutOfRange)
                if value < low:
                    raise OutOfRange(f"{name} must be >= {low}, got {value}")


# The fuzz's reference only needs to dominate the true concurrence, which any
# decomposition average does, so its roof search runs lean.
_FUZZ_ORACLE = OptimizerConfig(restarts=1, max_iters=150)


@dataclass(frozen=True)
class DecompositionCandidate:
    """A pure-state ensemble reproducing a target density matrix."""

    weights: np.ndarray
    states: list[PureState]

    def reconstruction_residual(self, q: DensityMatrix) -> float:
        acc = np.zeros_like(q.mat)
        for w, psi in zip(self.weights, self.states):
            acc += w * np.outer(psi.amps, psi.amps.conj())
        return float(np.abs(acc - q.mat).max())


@dataclass(frozen=True)
class RoofResult:
    value: float
    witness: DecompositionCandidate
    improved: bool  # False: no restart beat the plain eigendecomposition average


@functools.cache
def _strict_lower(r: int) -> np.ndarray:
    """Read-only mask of the strictly lower triangle of an r x r matrix."""
    mask = np.tri(r, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _isometry(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization z = QR with R's (real) diagonal made non-negative.

    Householder QR (LAPACK's zgeqrf, whose R has a real diagonal) flips the
    sign of a column of Q between z = I and any z perturbed below the
    diagonal; fixing the sign makes Q smooth in z, so the objective has no
    kink at the identity start.
    """
    r = z.shape[1]
    qr, tau, _, _ = lapack.zgeqrf(z)
    iso, _, _ = lapack.zungqr(qr, tau)
    sign = np.copysign(1.0, qr.diagonal().real)
    tri = qr[:r] * sign[:, None]
    tri[_strict_lower(r)] = 0.0
    return iso * sign, tri


def _ensemble_average(params: np.ndarray, w: np.ndarray, m: int, r: int,
                      dimA: int, dimB: int, smoothing: float = 0.0) -> tuple[float, np.ndarray]:
    """Ensemble-average concurrence of the decomposition params encodes, and its gradient.

    params holds the real and imaginary parts of an m x r matrix z; the
    isometry is Q from z = QR (_isometry), and the decomposition's
    subnormalized states are the columns of w Q^T.  The gradient is
    back-propagated through the QR factorization, whose R has a real
    diagonal.  smoothing is passed to _column_concurrence.
    """
    n = m * r
    z = np.empty((m, r), dtype=complex)
    z.real = params[:n].reshape(m, r)
    z.imag = params[n:].reshape(m, r)
    iso, tri = _isometry(z)  # m x r, iso^dag iso = I
    cols = w @ iso.T  # D x m; sum_j col col^dag reproduces the state
    conc, gcols = _column_concurrence(cols, dimA, dimB, smoothing, grad=True)
    g_iso = (w.conj().T @ gcols).T
    # With b = iso^dag g_iso, the gradient in z is (g_iso - iso h) R^-dag,
    # h the Hermitian matrix with b's upper triangle and real diagonal.
    h = iso.conj().T @ g_iso
    np.copyto(h, h.conj().T, where=_strict_lower(r))
    h.imag.flat[:: r + 1] = 0.0
    g_zh, info = lapack.ztrtrs(tri, (g_iso - iso @ h).conj().T)
    if info:
        raise np.linalg.LinAlgError(f"singular R in the isometry (ztrtrs info {info})")
    grad = np.empty(2 * n)
    grad[:n].reshape(m, r)[...] = g_zh.real.T
    np.negative(g_zh.imag.T, out=grad[n:].reshape(m, r))
    return float(conc.sum()), grad


def convex_roof_upper(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> RoofResult:
    """Upper-bound the concurrence by minimizing over pure decompositions.

    Decompositions of size m are parameterized by m x r isometries mixing the
    scaled eigenvectors (every size-m ensemble arises this way); the isometry
    comes from the QR factorization of an unconstrained complex matrix, and
    the objective is minimized by L-BFGS with its analytic gradient, from the
    eigendecomposition and then from seeded random starts.  _ROOF_TOL is
    L-BFGS's ftol and gtol, and cfg.max_iters its maxiter in each stage.
    The result is the end point of whichever stage, over all starts, has the
    lowest exact (unsmoothed) average.
    """
    evals, vecs = np.linalg.eigh(q.mat)
    keep = evals > _RANK_TOL
    evals, vecs = evals[keep], vecs[:, keep]
    r = evals.size
    w = vecs * np.sqrt(evals)  # columns are subnormalized eigenvectors
    dimA, dimB = q.dimA, q.dimB

    if r == 1:
        psi = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        cand = DecompositionCandidate(
            weights=np.array([1.0]), states=[PureState(dimA, dimB, psi)]
        )
        value = float(_column_concurrence(psi[:, None], dimA, dimB)[0])
        return RoofResult(value=value, witness=cand, improved=True)

    # For two qubits an optimal decomposition of size 4 always exists, and
    # ensembles that large make the landscape much easier than m = r (rank-3
    # separable states reliably stall at m = 3); elsewhere larger ensembles
    # can be strictly better, so allow up to min(r^2, 8).
    if cfg.decomp_size is not None:
        m = cfg.decomp_size
    elif (dimA, dimB) == (2, 2):
        m = max(r, min(r * r, 4))
    else:
        m = max(r, min(r * r, 8))
    if m < r:
        raise OutOfRange(f"decomposition size {m} below rank {r}")
    n_par = 2 * m * r

    def objective(x: np.ndarray, smoothing: float = 0.0) -> tuple[float, np.ndarray]:
        return _ensemble_average(x, w, m, r, dimA, dimB, smoothing)

    # Identity isometry reproduces the eigendecomposition itself.
    x_eye = np.concatenate([np.eye(m, r).ravel(), np.zeros(m * r)])
    baseline = objective(x_eye)[0]

    # The optimizer can never beat the true concurrence, which in turn is at
    # least the algebraic lower bound, so once the gap to that floor closes
    # further restarts are pointless.
    floor = generalized_lower_bound(q).bound
    stop_slack = 1e-6

    rng = np.random.default_rng(cfg.seed)
    best_x, best_val = x_eye, baseline
    for k in range(cfg.restarts):
        # Once the floor is reached further restarts cannot help.
        if best_val <= floor + stop_slack:
            break
        x = x_eye if k == 0 else rng.standard_normal(n_par)
        for smoothing in _SMOOTHING:
            res = minimize(objective, x, args=(smoothing,), maxiter=cfg.max_iters,
                           ftol=_ROOF_TOL, gtol=_ROOF_TOL)
            x = res.x
            # A later stage can end above an earlier one, so every stage's
            # end point competes on its exact average.
            value = res.fun if smoothing == 0.0 else objective(x)[0]
            if value < best_val:
                best_val, best_x = value, x

    improved = best_val < baseline - 1e-12
    z = (best_x[: m * r] + 1j * best_x[m * r :]).reshape(m, r)
    cols = w @ _isometry(z)[0].T
    weights, states = [], []
    for j in range(m):
        p = float(np.linalg.norm(cols[:, j]) ** 2)
        if p > 1e-14:
            weights.append(p)
            states.append(PureState(dimA, dimB, cols[:, j] / math.sqrt(p)))
    cand = DecompositionCandidate(weights=np.array(weights), states=states)
    return RoofResult(value=float(best_val), witness=cand, improved=improved)


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
    WrongDimensions and an empty ranks list InvalidRank; every check comes
    before the first sample.  Trials run in chunks of _FUZZ_CHUNK * 16 /
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
    if ranks is not None and not ranks:
        raise InvalidRank("ranks must not be empty")
    d = dimA * dimB
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


@dataclass(frozen=True)
class BasisResult:
    best_bound: float
    uA: np.ndarray
    uB: np.ndarray
    original_bound: float
    exact: float


def _expi(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = exp(iH), with H's eigenvalues and eigenvectors, for H = ((1+i) M + (1-i) M^T) / 2.

    M is the real n x n matrix p holds, so H_jk = (M_jk + M_kj)/2 +
    i (M_jk - M_kj)/2: a linear bijection from n^2 real parameters onto the
    Hermitian matrices.
    """
    m = p.reshape(n, n)
    lam, v = np.linalg.eigh(0.5 * ((1.0 + 1.0j) * m + (1.0 - 1.0j) * m.T))
    return (v * np.exp(1j * lam)) @ v.conj().T, lam, v


def _expi_grad(gu: np.ndarray, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Back-propagate a gradient gu of u = exp(iH) to the parameters of H.

    By the Daleckii-Krein formula du = V (L o (V^dag dH V)) V^dag, where L
    holds the divided differences (e^{i a} - e^{i b}) / (a - b) of exp(i x)
    at H's eigenvalues, i e^{i a} where a = b; written with sinc they need no
    case for equal eigenvalues.  Gradients are d/dRe + i d/dIm, as in
    highdim._column_concurrence.
    """
    dd = 1j * np.exp(0.5j * (lam[:, None] + lam)) * np.sinc((lam[:, None] - lam) / (2 * np.pi))
    gh = v @ (dd.conj() * (v.conj().T @ gu @ v)) @ v.conj().T
    return (0.5 * ((1.0 - 1.0j) * gh + (1.0 + 1.0j) * gh.T)).real.ravel()


def _basis_margin(params: np.ndarray, rho: np.ndarray, dimA: int, dimB: int,
                  pair: tuple[int, int, int, int]) -> tuple[float, np.ndarray]:
    """Negated margin of pair (i, j, k, l) (see _pair_terms) in a local basis, and its gradient.

    params holds the generators of uA = exp(iH_A) and uB = exp(iH_B) (dimA^2
    and dimB^2 real numbers, see _expi), and the margin is read from
    rho' = U rho U^dag with U = uA (x) uB.  Where |coh| or root is 0 that term
    contributes gradient 0, as _column_concurrence does where its value is 0.
    """
    i, j, k, l = pair
    uA, lamA, vA = _expi(params[: dimA * dimA], dimA)
    uB, lamB, vB = _expi(params[dimA * dimA :], dimB)
    u = _local_product(uA, uB)
    r = u @ rho @ u.conj().T
    coh, root = _pair_terms(r, dimA, dimB, i, j, k, l)
    rt = r.reshape(dimA, dimB, dimA, dimB)
    g = np.zeros_like(r)  # gradient of the margin in the entries of rho'
    gt = g.reshape(dimA, dimB, dimA, dimB)
    if coh > 0.0:
        gt[i, k, j, l] = 2.0 * rt[i, k, j, l] / coh
    if root > 0.0:
        gt[i, l, i, l], gt[j, k, j, k] = -rt[j, k, j, k].real / root, -rt[i, l, i, l].real / root
    # Through rho' = U rho U^dag the gradient in U is (g + g^dag) U rho; its
    # factors for uA and uB contract it with the other unitary.
    gu = ((g + g.conj().T) @ u @ rho).reshape(dimA, dimB, dimA, dimB)
    gA = np.einsum("abcd,bd->ac", gu, uB.conj())
    gB = np.einsum("abcd,ac->bd", gu, uA.conj())
    grad = np.concatenate([_expi_grad(gA, lamA, vA), _expi_grad(gB, lamB, vB)])
    return -2.0 * (coh - root), -grad


def optimize_basis(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> BasisResult:
    """Search local unitaries uA, uB maximizing the X bound of the rotated state.

    uA = exp(iH_A) and uB = exp(iH_B) with Hermitian generators.  Each X
    witness's margin is maximized on its own by L-BFGS with its analytic
    gradient (_basis_margin), from the identity and then from seeded random
    generators, each drawn in turn; the result is the best X bound.  The search
    stops once the bound reaches the exact concurrence, which no basis
    exceeds.  The identity start guarantees the result never falls below the
    bound in the original basis.
    """
    exact = wootters_concurrence(q)
    dimA, dimB = q.dimA, q.dimB
    grid = _pair_grid(dimA, dimB)

    def rotated_bound(uA: np.ndarray, uB: np.ndarray) -> float:
        u = _local_product(uA, uB)
        return float(_best_margin(u @ q.mat @ u.conj().T, dimA, dimB, grid).bound)

    best_uA, best_uB = np.eye(dimA, dtype=complex), np.eye(dimB, dtype=complex)
    orig = best_bound = rotated_bound(best_uA, best_uB)
    rng = np.random.default_rng(cfg.seed)
    n_par = dimA * dimA + dimB * dimB
    pairs = np.stack(np.broadcast_arrays(*grid), axis=-1).reshape(-1, 4)
    x0 = np.zeros(n_par)  # start 0 is the identity
    for run in range(cfg.restarts * len(pairs)):
        if best_bound >= exact - _EXACT_TOL:
            break
        start, w = divmod(run, len(pairs))
        if start > 0 and w == 0:
            x0 = rng.standard_normal(n_par)
        res = minimize(_basis_margin, x0, args=(q.mat, dimA, dimB, pairs[w]),
                       maxiter=cfg.max_iters, ftol=_BASIS_TOL, gtol=_BASIS_TOL)
        uA, uB = _expi(res.x[: dimA * dimA], dimA)[0], _expi(res.x[dimA * dimA :], dimB)[0]
        value = rotated_bound(uA, uB)
        if value > best_bound:
            best_bound, best_uA, best_uB = value, uA, uB

    _check_below_exact(best_bound, exact, "optimized bound")
    return BasisResult(
        best_bound=best_bound,
        uA=best_uA,
        uB=best_uB,
        original_bound=orig,
        exact=exact,
    )
