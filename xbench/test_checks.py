"""Tests of the benchmark's independent checkers.

    PYTHONPATH=src python3 -m pytest -q xbench/test_checks.py

Each checker must accept known-correct results (Bell, Werner, isotropic
states, and the program's own output) and reject a perturbed bound or value.
"""
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from xbound import DensityMatrix, oracle

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2.0


def _eigen_roof(rho, dA, dB):
    """A RoofResult-like object for the plain eigendecomposition of rho."""
    evals, vecs = np.linalg.eigh(rho)
    keep = evals > 1e-12
    states = [SimpleNamespace(amps=vecs[:, n]) for n in np.flatnonzero(keep)]
    value = checks.eigen_average(rho, dA, dB)
    return SimpleNamespace(value=value,
                           witness=SimpleNamespace(weights=evals[keep], states=states))


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.6, 1.0])
def test_wootters_matches_werner_closed_form(p):
    assert abs(checks.wootters(workloads._werner(p)) - checks.werner_concurrence(p)) < 1e-12


def test_wootters_bell_and_eigenvalue_route():
    assert abs(checks.wootters(BELL) - 1.0) < 1e-12
    sy = checks.SY2
    for seed in range(20):
        rho = workloads._ginibre(4, 4, np.random.default_rng(seed))
        mu = np.linalg.eigvals(rho @ sy @ rho.conj() @ sy).real
        lam = np.sort(np.sqrt(np.clip(mu, 0, None)))[::-1]
        direct = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert abs(checks.wootters(rho) - direct) < 1e-9


@pytest.mark.parametrize("d,F", [(3, 0.8), (4, 0.1), (5, 0.6)])
def test_pair_margins_match_isotropic_closed_form(d, F):
    top = checks.pair_margins(workloads._isotropic(d, F), d, d).max()
    assert abs(max(0.0, top) - checks.isotropic_bound(d, F)) < 1e-12


@pytest.mark.parametrize("rho,dims,text,code", [
    (BELL, (2, 2), "bound=1.000000 exact=1.000000 pair=(0,1,0,1) mirrored=false", 0),
    (workloads._werner(0.8), (2, 2), "bound=0.700000 exact=0.700000 pair=(0,1,0,1) mirrored=true", 0),
    (workloads._isotropic(3, 0.8), (3, 3), "bound=0.466667 pair=(0,1,0,1) mirrored=false", 0),
    (workloads._isotropic(3, 0.2), (3, 3), "bound=0.000000 pair=(0,1,0,1) mirrored=false", 1),
])
def test_check_bound_accepts_correct_and_rejects_perturbed(rho, dims, text, code):
    exp = checks.bound_expectation(rho, *dims)
    verdict = "entangled" if code == 0 else "inconclusive"
    good = f"{text}\nverdict={verdict}\n"
    assert checks.check_bound(good, code, exp) == []
    bound = float(text.split()[0].split("=")[1])
    bad = good.replace(f"bound={bound:.6f}", f"bound={bound + 1e-3:.6f}")
    assert checks.check_bound(bad, code, exp)
    assert checks.check_bound(good, 1 - code, exp)


def test_check_bound_rejects_wrong_witness():
    rho = workloads._werner(0.8)
    good = "bound=0.700000 exact=0.700000 pair=(0,1,0,1) mirrored=true\nverdict=entangled\n"
    exp = checks.bound_expectation(rho, 2, 2)
    assert checks.check_bound(good.replace("mirrored=true", "mirrored=false"), 0, exp)
    assert checks.check_bound(good.replace("exact=0.700000", "exact=0.710000"), 0, exp)


def test_check_bound_accepts_program_output(tmp_path):
    wl = workloads.bound_nxn(7, tmp_path)
    assert wl.check([call() for call in wl.calls]) == []


def test_check_fuzz_accepts_program_and_rejects_perturbed():
    report = oracle.fuzz_inequality(200, (2, 2), 5)
    exp = checks.fuzz_expectation(200, 5)
    assert checks.check_fuzz(report, exp) == []
    assert checks.check_fuzz(dataclasses.replace(report, min_slack=report.min_slack + 1e-8), exp)
    assert checks.check_fuzz(dataclasses.replace(report, max_gap=report.max_gap - 1e-8), exp)
    assert checks.check_fuzz(dataclasses.replace(report, violations=1), exp)


@pytest.mark.parametrize("rho,dims", [
    (BELL, (2, 2)),
    (workloads._werner(0.8), (2, 2)),
    (workloads._werner(0.2), (2, 2)),
    (workloads._isotropic(3, 0.7), (3, 3)),
])
def test_check_roof_accepts_eigendecomposition_and_rejects_perturbed(rho, dims):
    res = _eigen_roof(rho, *dims)
    assert checks.check_roof(res, rho, *dims) == []
    assert checks.check_roof(SimpleNamespace(value=res.value + 1e-6, witness=res.witness),
                             rho, *dims)
    w = res.witness
    squeezed = SimpleNamespace(weights=w.weights * 0.999, states=w.states)
    assert checks.check_roof(SimpleNamespace(value=res.value * 0.999, witness=squeezed),
                             rho, *dims)


def test_check_roof_rejects_value_below_exact():
    rho = workloads._werner(0.8)
    res = _eigen_roof(rho, 2, 2)
    low = SimpleNamespace(value=0.69, witness=res.witness)
    assert any("below the exact" in e for e in checks.check_roof(low, rho, 2, 2))


def test_check_roof_accepts_program_output():
    rho = workloads._werner(0.7)
    q = DensityMatrix(2, 2, rho)
    assert checks.check_roof(oracle.convex_roof_upper(q, workloads.ORACLE_LEAN), rho, 2, 2) == []


def test_check_basis_accepts_program_and_rejects_perturbed():
    _, rotated = workloads.oracle_states(3)
    rho = rotated[0]
    res = oracle.optimize_basis(DensityMatrix(2, 2, rho),
                                oracle.OptimizerConfig(restarts=2, seed=3))
    assert checks.check_basis(res, rho) == []
    assert checks.check_basis(dataclasses.replace(res, best_bound=res.best_bound - 1e-6), rho)
    assert checks.check_basis(dataclasses.replace(res, uA=res.uA * 1.001), rho)
    phase = np.diag([1.0, math.e])
    assert checks.check_basis(dataclasses.replace(res, uB=res.uB @ phase), rho)
