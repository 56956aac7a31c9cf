"""The benchmark's three workloads: their inputs, one pass, and its check.

A pass is one operation: a fixed list of calls over the workload's input
set, the same on every pass of a run, so that pass times differ only by what
the host does.  The runner takes a clock mark around every call, and each
workload adds marks inside its calls (see _with_marks).  Inputs come from
the seed and the constants below; the program receives only the generated
states (or files).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import checks
from xbound import cli, highdim, oracle
from xbound.linalg import validate_density

FUZZ_TRIALS = 1000

# Files of bound-nxn: every shape gets three Ginibre states (rank 1, rank 2,
# full rank) and one mixed product state; square shapes add two isotropic
# states, one on each side of F = 1/d; 2x2 adds two Werner states.
BOUND_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4), (3, 5), (5, 5), (6, 6), (8, 8)]

# The oracle's states are fixed rather than drawn from the run's seed: the
# lean Nelder-Mead search takes from 35 ms to 1.2 s on one state depending
# on its local basis, so a seeded set would make the pass time a property of
# the seed.  The seed still rotates the Bell states of optimize_basis.
ORACLE_SET_SEED = 20120417
ORACLE_ROOF_SPECS = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 2), (3, 3, 3)]
ORACLE_LEAN = oracle.OptimizerConfig(restarts=1, max_iters=150)  # as `xbound fuzz --dims 3,3`
ORACLE_BELL_STATES = 2
ORACLE_BASIS_RESTARTS = 2


@dataclass
class Workload:
    """One workload, built for one seed.

    One operation runs every function of ``calls`` once, in order; ``check``
    returns the errors found in the list of their outputs.  The runner takes
    a clock mark into ``marks`` around every call; calls may add their own.
    """

    states: int
    calls: list[Callable[[], object]]
    check: Callable[[list], list]
    roof_value_mean: Optional[Callable[[list], float]] = None
    marks: list[float] = field(default_factory=list)


def _ginibre(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _isotropic(d: int, F: float) -> np.ndarray:
    psi = np.zeros(d * d)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    proj = np.outer(psi, psi)
    a = (1.0 - F) / (d * d - 1.0)
    return (a * (np.eye(d * d) - proj) + F * proj).astype(complex)


def _werner(p: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return (p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0).astype(complex)


def _marking(fn, marks: list):
    """``fn`` with a clock mark before and after every call."""
    def marked(*args, **kwargs):
        marks.append(perf_counter())
        value = fn(*args, **kwargs)
        marks.append(perf_counter())
        return value
    return marked


def _with_marks(call, module, name: str, wrap):
    """``call`` run while ``module.<name>`` is replaced by ``wrap`` of it.

    A pass of fuzz-2q is one 50-130 ms call, one oracle call takes 25-350 ms
    and one 8x8 bound file 5-8 ms, while the host's speed drifts over
    seconds: the fastest time of so long a call depends on whether the run
    met a fast spell.  Marks inside the call cut it into segments of
    microseconds to tens of microseconds, short enough for each to meet a
    fast moment (see ``op_ms_min`` in run.py).  The replacement wraps
    whatever ``module`` holds at the time, so the tracer's own replacements
    still see every call.
    """
    def run():
        inner = getattr(module, name)
        setattr(module, name, wrap(inner))
        try:
            return call()
        finally:
            setattr(module, name, inner)
    return run


# --- fuzz-2q --------------------------------------------------------------

def fuzz_2q(seed: int, workdir: Path) -> Workload:
    expected = {}
    marks: list[float] = []

    # Marks around the sampling of every trial; see _with_marks.
    run_fuzz = _with_marks(lambda: oracle.fuzz_inequality(FUZZ_TRIALS, (2, 2), seed),
                           oracle, "sample_random_density", lambda fn: _marking(fn, marks))

    def check(outputs):
        if not expected:
            expected.update(checks.fuzz_expectation(FUZZ_TRIALS, seed))
        return checks.check_fuzz(outputs[0], expected)

    return Workload(states=FUZZ_TRIALS, calls=[run_fuzz], check=check, marks=marks)


# --- bound-nxn ------------------------------------------------------------

def bound_states(seed: int) -> list[tuple[str, np.ndarray, int, int, Optional[float]]]:
    """(label, rho, dimA, dimB, closed-form bound or None) for every file."""
    out = []
    for n, (dA, dB) in enumerate(BOUND_DIMS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        d = dA * dB
        for rank in (1, 2, d):
            out.append((f"ginibre-r{rank}", _ginibre(d, rank, rng), dA, dB, None))
        prod = np.kron(_ginibre(dA, dA, rng), _ginibre(dB, dB, rng))
        out.append(("product", prod, dA, dB, None))
        if dA == dB:
            for label, F in (("isotropic-above", 1.0 / dA + rng.uniform(0.1, 0.9) * (1.0 - 1.0 / dA)),
                             ("isotropic-below", rng.uniform(0.0, 0.8) / dA)):
                out.append((label, _isotropic(dA, F), dA, dB, checks.isotropic_bound(dA, F)))
        if (dA, dB) == (2, 2):
            for label, p in (("werner-above", rng.uniform(0.4, 1.0)),
                             ("werner-below", rng.uniform(0.0, 0.3))):
                out.append((label, _werner(p), dA, dB, checks.werner_concurrence(p)))
    return out


def bound_nxn(seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    states = bound_states(seed)
    paths = []
    for n, (label, rho, dA, dB, _) in enumerate(states):
        path = workdir / f"{n:02d}-{dA}x{dB}-{label}.json"
        path.write_text(json.dumps({"dimA": dA, "dimB": dB,
                                    "re": rho.real.tolist(), "im": rho.imag.tolist()}))
        paths.append(str(path))
    expected = []
    checked = set()
    marks: list[float] = []

    def bound_call(path):
        def run_bound():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["bound", path])
            return buf.getvalue(), code
        # Marks where the bound's pair loop starts each row, that is, at
        # each call of itertools.combinations that highdim makes; a mark
        # per pair margin would cost a quarter of the loop.  See _with_marks.
        return _with_marks(run_bound, highdim, "combinations", lambda fn: _marking(fn, marks))

    def check(outputs):
        if not expected:
            expected.extend(checks.bound_expectation(rho, dA, dB, cf)
                            for _, rho, dA, dB, cf in states)
        errs = []
        for n, (stdout, code) in enumerate(outputs):
            if (n, stdout, code) in checked:
                continue  # this very output was already checked
            found = checks.check_bound(stdout, code, expected[n])
            errs += [f"{Path(paths[n]).name}: {e}" for e in found]
            if not found:
                checked.add((n, stdout, code))
        return errs

    return Workload(states=len(paths), calls=[bound_call(p) for p in paths], check=check,
                    marks=marks)


# --- oracle ---------------------------------------------------------------

def oracle_states(seed: int):
    """Fixed mixed states for the roof, and seed-rotated Bell states for the basis."""
    roof = []
    for n, (dA, dB, rank) in enumerate(ORACLE_ROOF_SPECS):
        rng = np.random.default_rng(np.random.SeedSequence([ORACLE_SET_SEED, n]))
        roof.append((_ginibre(dA * dB, rank, rng), dA, dB))
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rotated = []
    for n in range(ORACLE_BELL_STATES):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        psi = np.kron(_haar_unitary(2, rng), _haar_unitary(2, rng)) @ bell
        rotated.append(np.outer(psi, psi.conj()))
    return roof, rotated


def oracle_wl(seed: int, workdir: Path) -> Workload:
    roof, rotated = oracle_states(seed)
    roof_q = [validate_density(rho, dA, dB) for rho, dA, dB in roof]
    basis_q = [validate_density(rho, 2, 2) for rho in rotated]
    basis_cfg = oracle.OptimizerConfig(restarts=ORACLE_BASIS_RESTARTS, seed=seed)
    marks: list[float] = []

    def marking_minimize(minimize):
        return lambda fun, *args, **kwargs: minimize(_marking(fun, marks), *args, **kwargs)

    # Marks at every evaluation of the solver's objective, tens of
    # microseconds apart; see _with_marks.
    calls = [_with_marks(lambda q=q: oracle.convex_roof_upper(q, ORACLE_LEAN), oracle,
                         "minimize", marking_minimize) for q in roof_q]
    calls += [_with_marks(lambda q=q: oracle.optimize_basis(q, basis_cfg), oracle,
                          "minimize", marking_minimize) for q in basis_q]

    def check(outputs):
        roofs, bases = outputs[:len(roof)], outputs[len(roof):]
        errs = []
        for res, (rho, dA, dB) in zip(roofs, roof):
            errs += checks.check_roof(res, rho, dA, dB)
        for res, rho in zip(bases, rotated):
            errs += checks.check_basis(res, rho)
        return errs

    def roof_value_mean(outputs):
        return float(np.mean([r.value for r in outputs[:len(roof)]]))

    return Workload(states=len(roof) + len(rotated), calls=calls,
                    check=check, roof_value_mean=roof_value_mean, marks=marks)


WORKLOADS = {"fuzz-2q": fuzz_2q, "bound-nxn": bound_nxn, "oracle": oracle_wl}
