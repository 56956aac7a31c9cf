"""Independent checks of xbound's outputs.

Everything here is plain numpy and imports nothing from xbound, so a fault in
one of the program's result functions cannot hide itself by also being the
reference.  Each ``check_*`` function returns a list of error strings; an
empty list means the output passed.
"""
from __future__ import annotations

import math
import re

import numpy as np

# sigma_y (x) sigma_y in the basis {|00>, |01>, |10>, |11>}
SY2 = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)

FUZZ_TOL = 1e-9  # fuzz report: slack extremes recomputed to this precision
ROOF_TOL = 1e-9  # oracle and basis results
PRINT_TOL = 6e-7  # values the CLI prints with six decimals


# --- reference quantities -------------------------------------------------

def ginibre_factor(d: int, rank: int, seed) -> np.ndarray:
    """Factor A (d x rank) of the Ginibre state A A^dag drawn from ``seed``.

    Follows the sampling protocol of the fuzzer: a complex Gaussian G from
    ``default_rng(seed)``, real parts first, normalized to unit trace.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g / math.sqrt(float(np.sum(np.abs(g) ** 2)))


def wootters_from_factor(a: np.ndarray) -> float:
    """Wootters concurrence of the two-qubit state rho = A A^dag.

    The l_i of the Wootters formula are the square roots of the eigenvalues
    of rho (sy x sy) rho* (sy x sy).  Those eigenvalues are the squared
    singular values of the rank x rank matrix A^T (sy x sy) A, which gives
    the l_i without taking square roots of roundoff-level eigenvalues (that
    route errs by ~3e-8 on rank-deficient states).
    """
    lam = np.zeros(4)
    sv = np.linalg.svd(a.T @ SY2 @ a, compute_uv=False)
    lam[: sv.size] = sv
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def wootters(rho: np.ndarray) -> float:
    """Wootters concurrence of a 4x4 density matrix, via its eigen-factor."""
    evals, vecs = np.linalg.eigh(rho)
    return wootters_from_factor(vecs * np.sqrt(np.clip(evals, 0.0, None)))


def x_margins(rho: np.ndarray) -> tuple[float, float]:
    """Signed X-matrix margins (c1, c2) of a 4x4 density matrix."""
    c1 = 2.0 * (abs(rho[0, 3]) - math.sqrt(max(rho[1, 1].real * rho[2, 2].real, 0.0)))
    c2 = 2.0 * (abs(rho[1, 2]) - math.sqrt(max(rho[0, 0].real * rho[3, 3].real, 0.0)))
    return c1, c2


def pair_margins(rho: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """M[i,k,j,l] = 2(|T[i,k,j,l]| - sqrt(D[i,l] D[j,k])), T = rho as (dA,dB,dA,dB).

    Entries with i < j and k != l are the pair margins: k < l is the pair
    (i,j,k,l) and k > l its mirrored orientation (i,j,l,k).  Other entries
    are -inf.
    """
    t = rho.reshape(dA, dB, dA, dB)
    diag = np.einsum("ikik->ik", t).real
    prod = np.einsum("il,jk->ikjl", diag, diag)
    m = 2.0 * (np.abs(t) - np.sqrt(np.clip(prod, 0.0, None)))
    valid = (np.arange(dA)[:, None, None, None] < np.arange(dA)[None, None, :, None]) & (
        np.arange(dB)[None, :, None, None] != np.arange(dB)[None, None, None, :]
    )
    return np.where(valid, m, -np.inf)


def pair_margin_at(margins: np.ndarray, i: int, j: int, k: int, l: int,
                   mirrored: bool) -> float:
    """Margin of the printed witness pair (i<j, k<l) in the given orientation."""
    return float(margins[i, l, j, k] if mirrored else margins[i, k, j, l])


def pure_concurrence(psi: np.ndarray, dA: int, dB: int) -> float:
    """I-concurrence sqrt(2((sum s^2)^2 - sum s^4)) from the Schmidt coefficients.

    Homogeneous of degree 2, so a subnormalized sqrt(p) psi gives p C(psi).
    """
    s2 = np.linalg.svd(psi.reshape(dA, dB), compute_uv=False) ** 2
    return math.sqrt(max(0.0, 2.0 * (s2.sum() ** 2 - np.sum(s2 ** 2))))


def eigen_average(rho: np.ndarray, dA: int, dB: int) -> float:
    """Average concurrence over the plain eigendecomposition of rho."""
    evals, vecs = np.linalg.eigh(rho)
    return sum(lam * pure_concurrence(vecs[:, n], dA, dB)
               for n, lam in enumerate(evals) if lam > 1e-12)


def isotropic_bound(d: int, F: float) -> float:
    """Pair bound of the isotropic state: max{0, 2/(d-1) (F - 1/d)}."""
    return max(0.0, 2.0 / (d - 1) * (F - 1.0 / d))


def werner_concurrence(p: float) -> float:
    """Concurrence (and X bound) of p|psi-><psi-| + (1-p) I/4."""
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def unitarity_residual(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


# --- fuzz-2q --------------------------------------------------------------

def fuzz_expectation(trials: int, seed: int) -> dict:
    """Recompute what ``fuzz_inequality(trials, (2, 2), seed)`` must report."""
    violations = 0
    slacks = []
    for t in range(trials):
        rank = t % 4 + 1
        a = ginibre_factor(4, rank, np.random.SeedSequence([seed, t]))
        rho = a @ a.conj().T
        exact = wootters_from_factor(a)
        c1, c2 = x_margins(rho)
        bound = max(0.0, c1, c2)
        if rank == 1 and abs(c1) > exact + 1e-10:
            violations += 1
        if bound > exact + 1e-10:
            violations += 1
        slacks.append(exact - bound)
    return {"trials": trials, "seed": seed, "violations": violations,
            "min_slack": min(slacks), "max_gap": max(slacks)}


def check_fuzz(report, expected: dict) -> list[str]:
    """Compare a FuzzReport against ``fuzz_expectation``."""
    errs = []
    if (report.trials, report.dimA, report.dimB, report.seed) != (
            expected["trials"], 2, 2, expected["seed"]):
        errs.append(f"fuzz report header {report.trials, report.dimA, report.dimB, report.seed}")
    if report.violations != 0 or expected["violations"] != 0:
        errs.append(f"violations: program {report.violations}, "
                    f"recomputed {expected['violations']}")
    for key in ("min_slack", "max_gap"):
        got, want = float(getattr(report, key)), expected[key]
        if not abs(got - want) <= FUZZ_TOL:
            errs.append(f"{key}: program {got!r}, recomputed {want!r}")
    return errs


# --- bound-nxn ------------------------------------------------------------

_BOUND_LINE = re.compile(
    r"bound=(?P<bound>[0-9.]+)(?: exact=(?P<exact>[0-9.]+))? "
    r"pair=\((?P<i>\d+),(?P<j>\d+),(?P<k>\d+),(?P<l>\d+)\) mirrored=(?P<mirrored>true|false)"
)


def bound_expectation(rho: np.ndarray, dA: int, dB: int, closed_form=None) -> dict:
    """What ``xbound bound`` must print for one state file.

    ``closed_form`` is the known value of the bound for isotropic and Werner
    states, checked against the pair maximum recomputed here.
    """
    margins = pair_margins(rho, dA, dB)
    top = float(margins.max())
    return {
        "dims": (dA, dB),
        "margins": margins,
        "top": top,
        "bound": max(0.0, top),
        "exact": wootters(rho) if (dA, dB) == (2, 2) else None,
        "closed_form": closed_form,
    }


def check_bound(stdout: str, code: int, exp: dict) -> list[str]:
    """Check the printed bound, witness pair, exact value, verdict and exit code."""
    lines = stdout.splitlines()
    m = _BOUND_LINE.fullmatch(lines[0]) if lines else None
    if m is None or len(lines) != 2:
        return [f"unparsable output {stdout!r}"]
    errs = []
    bound = float(m["bound"])
    if abs(bound - exp["bound"]) > PRINT_TOL:
        errs.append(f"bound {bound} != recomputed {exp['bound']:.9f}")
    if exp["closed_form"] is not None and abs(exp["bound"] - exp["closed_form"]) > 1e-12:
        errs.append(f"recomputed bound {exp['bound']!r} != closed form {exp['closed_form']!r}")
    i, j, k, l = (int(m[c]) for c in "ijkl")
    dA, dB = exp["dims"]
    if not (0 <= i < j < dA and 0 <= k < l < dB):
        errs.append(f"witness pair {(i, j, k, l)} out of range")
    else:
        at = pair_margin_at(exp["margins"], i, j, k, l, m["mirrored"] == "true")
        if abs(at - exp["top"]) > 1e-12:
            errs.append(f"witness pair margin {at!r} != maximum {exp['top']!r}")
    if exp["exact"] is not None:
        if m["exact"] is None or abs(float(m["exact"]) - exp["exact"]) > PRINT_TOL:
            errs.append(f"exact {m['exact']} != recomputed {exp['exact']:.9f}")
        if exp["closed_form"] is not None and abs(exp["exact"] - exp["closed_form"]) > 1e-9:
            errs.append(f"recomputed exact {exp['exact']!r} != closed form")
    elif m["exact"] is not None:
        errs.append("exact printed for a state that is not 2x2")
    entangled = exp["top"] > 0.0
    if code != (0 if entangled else 1):
        errs.append(f"exit code {code} with recomputed margin {exp['top']!r}")
    if lines[1] != "verdict=" + ("entangled" if entangled else "inconclusive"):
        errs.append(f"verdict line {lines[1]!r}")
    return errs


# --- oracle ---------------------------------------------------------------

def check_roof(res, rho: np.ndarray, dA: int, dB: int) -> list[str]:
    """Check a RoofResult: a genuine decomposition whose average is the value.

    The value must lie between the true concurrence (exact on 2x2, else the
    pair bound as its floor) and the eigendecomposition average it starts from.
    """
    errs = []
    value = float(res.value)
    floor = max(0.0, float(pair_margins(rho, dA, dB).max()))
    if value < floor - ROOF_TOL:
        errs.append(f"roof value {value!r} below the pair bound {floor!r}")
    if (dA, dB) == (2, 2) and value < wootters(rho) - ROOF_TOL:
        errs.append(f"roof value {value!r} below the exact concurrence")
    if value > eigen_average(rho, dA, dB) + ROOF_TOL:
        errs.append(f"roof value {value!r} above the eigendecomposition average")
    w = np.asarray(res.witness.weights, dtype=float)
    states = [np.asarray(s.amps) for s in res.witness.states]
    if np.any(w < 0) or len(states) != w.size:
        errs.append("witness weights negative or mismatched")
        return errs
    recon = sum(p * np.outer(v, v.conj()) for p, v in zip(w, states))
    resid = float(np.abs(recon - rho).max())
    if resid > ROOF_TOL:
        errs.append(f"witness reproduces rho only to {resid:.3e}")
    avg = sum(p * pure_concurrence(v, dA, dB) for p, v in zip(w, states))
    if abs(avg - value) > ROOF_TOL:
        errs.append(f"witness average {avg!r} != value {value!r}")
    return errs


def check_basis(res, rho: np.ndarray) -> list[str]:
    """Check a BasisResult of optimize_basis on a two-qubit state."""
    errs = []
    for name in ("uA", "uB"):
        r = unitarity_residual(np.asarray(getattr(res, name)))
        if r > ROOF_TOL:
            errs.append(f"{name} unitarity residual {r:.3e}")
    u = np.kron(res.uA, res.uB)
    rotated = max(0.0, *x_margins(u @ rho @ u.conj().T))
    original = max(0.0, *x_margins(rho))
    exact = wootters(rho)
    if abs(rotated - res.best_bound) > ROOF_TOL:
        errs.append(f"best_bound {res.best_bound!r} != bound of rotated state {rotated!r}")
    if abs(original - res.original_bound) > ROOF_TOL:
        errs.append(f"original_bound {res.original_bound!r} != recomputed {original!r}")
    if abs(exact - res.exact) > ROOF_TOL:
        errs.append(f"exact {res.exact!r} != recomputed {exact!r}")
    if not original - ROOF_TOL <= res.best_bound <= exact + ROOF_TOL:
        errs.append(f"best_bound {res.best_bound!r} outside [{original!r}, {exact!r}]")
    return errs
