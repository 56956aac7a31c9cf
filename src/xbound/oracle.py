"""Numerical ground truth and adversarial search.

convex_roof_upper minimizes the ensemble-average pure-state concurrence over
pure decompositions by L-BFGS with an analytic gradient; the result is an
upper bound on the true concurrence.
fuzz_inequality hammers the lower bound against that reference (or against the
exact two-qubit value).  optimize_basis searches local unitaries for the basis
that maximizes the X bound.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .highdim import generalized_lower_bound
from .linalg import DensityMatrix, PureState, sample_random_density
from .two_qubit import (
    BoundReport,
    wootters_concurrence,
    x_concurrence,
    x_decompose,
)
from .errors import InvariantViolation

_RANK_TOL = 1e-12
# Each start runs one L-BFGS stage per width: the smoothed stages carry the
# search past the kinks where a column turns product (see
# _column_concurrence), and the last stage minimizes the average itself.
_SMOOTHING = (1e-3, 1e-6, 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 10
    max_iters: int = 2000
    tol: float = 1e-8
    seed: int = 0
    decomp_size: Optional[int] = None  # defaults to max(rank, min(rank^2, 8))


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


def _column_concurrence(cols: np.ndarray, dimA: int, dimB: int,
                        smoothing: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence of every column of cols (D x m) and its gradient.

    Degree-2 homogeneous in the weight: a column sqrt(p) psi gives p C(psi).
    Each value is sqrt(S + smoothing^2) with S the squared concurrence, so
    smoothing = 0 gives the concurrence itself and smoothing > 0 rounds off
    its kink at product columns.  The gradient is d/dRe + i d/dIm of each
    value, and 0 where the value is 0.
    """
    if dimA == 2 and dimB == 2:
        g = cols[0] * cols[3] - cols[1] * cols[2]
        sq = 4.0 * (g.real**2 + g.imag**2)
        num = 4.0 * g * np.stack([cols[3], -cols[2], -cols[1], cols[0]]).conj()
    else:
        m = cols.shape[1]
        mats = cols.reshape(dimA, dimB, m)
        gram = np.einsum("abm,cbm->acm", mats, mats.conj())
        tr = np.einsum("aam->m", gram).real
        tr2 = np.einsum("acm,cam->m", gram, gram).real
        sq = np.clip(2.0 * (tr * tr - tr2), 0.0, None)
        num = 4.0 * (tr * mats - np.einsum("acm,cbm->abm", gram, mats))
        num = num.reshape(dimA * dimB, m)
    conc = np.sqrt(sq + smoothing * smoothing)
    return conc, num * np.divide(1.0, conc, out=np.zeros_like(conc), where=conc > 0.0)


def _ensemble_average(params: np.ndarray, w: np.ndarray, m: int, r: int,
                      dimA: int, dimB: int, smoothing: float = 0.0) -> tuple[float, np.ndarray]:
    """Ensemble-average concurrence of the decomposition params encodes, and its gradient.

    params holds the real and imaginary parts of an m x r matrix z; the
    isometry is Q from z = QR, and the decomposition's subnormalized states
    are the columns of w Q^T.  The gradient is back-propagated through the
    QR factorization, whose R has a real diagonal.  smoothing is passed to
    _column_concurrence.
    """
    z = (params[: m * r] + 1j * params[m * r :]).reshape(m, r)
    iso, tri = np.linalg.qr(z)  # m x r, iso^dag iso = I
    cols = w @ iso.T  # D x m; sum_j col col^dag reproduces the state
    conc, gcols = _column_concurrence(cols, dimA, dimB, smoothing)
    g_iso = (w.conj().T @ gcols).T
    b = iso.conj().T @ g_iso
    k = np.tril(b - b.conj().T, -1) + 1j * np.diag(np.diag(b).imag)
    g_z = np.linalg.solve(tri, (g_iso - iso @ b + iso @ k).conj().T).conj().T
    return float(conc.sum()), np.concatenate([g_z.real.ravel(), g_z.imag.ravel()])


def convex_roof_upper(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> RoofResult:
    """Upper-bound the concurrence by minimizing over pure decompositions.

    Decompositions of size m are parameterized by m x r isometries mixing the
    scaled eigenvectors (every size-m ensemble arises this way); the isometry
    comes from the QR factorization of an unconstrained complex matrix, and
    the objective is minimized by L-BFGS with its analytic gradient, from the
    eigendecomposition and then from seeded random starts.  cfg.tol is
    L-BFGS's ftol and gtol, and cfg.max_iters its maxiter in each stage.
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
        value = float(_column_concurrence(psi[:, None], dimA, dimB)[0][0])
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
        raise ValueError(f"decomposition size {m} below rank {r}")
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
            res = minimize(
                objective, x, args=(smoothing,), jac=True, method="L-BFGS-B",
                options={"maxiter": cfg.max_iters, "ftol": cfg.tol, "gtol": cfg.tol},
            )
            x = res.x
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x

    improved = best_val < baseline - 1e-12
    z = (best_x[: m * r] + 1j * best_x[m * r :]).reshape(m, r)
    iso, _ = np.linalg.qr(z)
    cols = w @ iso.T
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
        return json.dumps(
            {
                "trials": self.trials,
                "dimA": self.dimA,
                "dimB": self.dimB,
                "seed": self.seed,
                "violations": self.violations,
                "max_gap": float(self.max_gap),
                "min_slack": float(self.min_slack),
                "oracle_tolerance": float(self.oracle_tolerance),
            },
            sort_keys=True,
        )


def fuzz_inequality(
    trials: int,
    dims: tuple[int, int],
    seed: int,
    ranks: Optional[list[int]] = None,
    oracle_cfg: Optional[OptimizerConfig] = None,
) -> FuzzReport:
    """Sample random mixed states and compare the bound against a reference.

    On (2,2) the reference is the exact Wootters concurrence; otherwise it is
    the convex-roof upper bound, which dominates the true concurrence, so the
    comparison is safe at the same direction.  Either way only roundoff needs
    slack, so the tolerance is 1e-10.  Ranks cycle through 1..dimA*dimB
    unless an explicit list is given.  Rank-1 two-qubit trials additionally
    check the signed pure-state inequality |c1| <= C.
    """
    dimA, dimB = dims
    exact_ref = (dimA, dimB) == (2, 2)
    cmp_tol = 1e-10
    # The reference only needs to dominate the true concurrence, which any
    # decomposition average does, so the fuzz oracle can run lean.
    if not exact_ref and oracle_cfg is None:
        oracle_cfg = OptimizerConfig(restarts=1, max_iters=150)
    rank_cycle = ranks if ranks is not None else list(range(1, dimA * dimB + 1))

    violations = 0
    max_gap = -math.inf
    min_slack = math.inf
    for t in range(trials):
        rank = rank_cycle[t % len(rank_cycle)]
        q = sample_random_density(dimA, dimB, rank, np.random.SeedSequence([seed, t]))
        if exact_ref:
            rep = x_lower_bound_unchecked(q)
            reference = rep.exact
            bound = rep.bound
            if rank == 1 and abs(rep.c1) > reference + 1e-10:
                violations += 1
        else:
            bound = generalized_lower_bound(q).bound
            reference = convex_roof_upper(
                q, OptimizerConfig(
                    restarts=oracle_cfg.restarts,
                    max_iters=oracle_cfg.max_iters,
                    tol=oracle_cfg.tol,
                    seed=oracle_cfg.seed + t,
                    decomp_size=oracle_cfg.decomp_size,
                )
            ).value
        slack = float(reference - bound)
        min_slack = min(min_slack, slack)
        max_gap = max(max_gap, slack)
        if bound > reference + cmp_tol:
            violations += 1
    return FuzzReport(
        trials=trials,
        dimA=dimA,
        dimB=dimB,
        seed=seed,
        violations=violations,
        max_gap=max_gap,
        min_slack=min_slack,
        oracle_tolerance=cmp_tol,
    )


def x_lower_bound_unchecked(q: DensityMatrix):
    """x_lower_bound without the bound<=exact guard; the fuzzer counts instead."""
    x, _ = x_decompose(q)
    rep = x_concurrence(x)
    return BoundReport(
        c1=rep.c1, c2=rep.c2, bound=rep.bound, exact=wootters_concurrence(q)
    )


def _su2(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


@dataclass(frozen=True)
class BasisResult:
    best_bound: float
    uA: np.ndarray
    uB: np.ndarray
    original_bound: float
    exact: float


def optimize_basis(q: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> BasisResult:
    """Search local unitaries uA, uB maximizing the X bound of the rotated state.

    Six angles parameterize SU(2) x SU(2) (global phases cancel in the
    conjugation).  The identity start guarantees the result never falls below
    the bound in the original basis.
    """
    exact = wootters_concurrence(q)

    def rotated_bound(angles: np.ndarray) -> float:
        uA = _su2(*angles[:3])
        uB = _su2(*angles[3:])
        u = np.kron(uA, uB)
        qc = u @ q.mat @ u.conj().T
        c1 = 2.0 * (abs(qc[0, 3]) - math.sqrt(max(qc[1, 1].real * qc[2, 2].real, 0.0)))
        c2 = 2.0 * (abs(qc[1, 2]) - math.sqrt(max(qc[0, 0].real * qc[3, 3].real, 0.0)))
        return max(0.0, c1, c2)

    def objective(angles: np.ndarray) -> float:
        return -rotated_bound(angles)

    rng = np.random.default_rng(cfg.seed)
    best_angles = np.zeros(6)
    best_val = objective(best_angles)
    for k in range(cfg.restarts):
        x0 = np.zeros(6) if k == 0 else rng.uniform(0, 2 * math.pi, 6)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "xatol": 1e-10,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        if res.fun < best_val:
            best_val, best_angles = res.fun, res.x

    best_bound = -best_val
    if best_bound > exact + 1e-10:
        raise InvariantViolation(
            f"optimized bound {best_bound:.12g} exceeds exact concurrence {exact:.12g}"
        )
    orig = x_concurrence(x_decompose(q)[0]).bound
    return BasisResult(
        best_bound=best_bound,
        uA=_su2(*best_angles[:3]),
        uB=_su2(*best_angles[3:]),
        original_bound=orig,
        exact=exact,
    )
