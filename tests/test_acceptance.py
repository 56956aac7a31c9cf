"""End-to-end verification suite.

Each test checks one headline guarantee at its stated tolerance and prints a
pass line; run with `pytest tests/test_acceptance.py -v -s` to see them.
The oracle-backed checks (criterion 7) take about ten seconds on one core.
"""
import math
import time

import numpy as np
import pytest

from xbound import (
    OptimizerConfig,
    XCore,
    conjugate_by_local_unitary,
    convex_roof_upper,
    fuzz_inequality,
    generalized_lower_bound,
    i_concurrence_pure,
    optimize_basis,
    projector,
    pure_concurrence_2q,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
    wootters_concurrence,
    x_concurrence,
    x_decompose,
    x_lower_bound,
)
from xbound.cli import main
from xbound.highdim import _column_concurrence, _iconc_from_minors
from xbound.reference_states import bell_phi_plus, chi_state


def test_criterion_1_main_inequality_fuzz():
    t0 = time.time()
    report = fuzz_inequality(10000, (2, 2), 42)
    elapsed = time.time() - t0
    assert report.violations == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: 10000 two-qubit states, 0 violations, "
          f"min slack {report.min_slack:.3e}, {elapsed:.1f}s")


def test_criterion_2_pure_state_signed_inequality():
    violations = 0
    for seed in range(10000):
        psi = sample_haar_pure(2, 2, seed)
        rep = x_concurrence(x_decompose(projector(psi))[0])
        if abs(rep.c1) > pure_concurrence_2q(psi) + 1e-10:
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2 PASS: |C1| <= C on 10000 Haar pure states")


def test_criterion_3_equality_on_x_form():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        d = rng.dirichlet(np.ones(4))
        u1, u2 = rng.uniform(0, 1, 2)
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        x = XCore(d11=d[0], d22=d[1], d33=d[2], d44=d[3],
                  q14=u1 * math.sqrt(d[0] * d[3]) * ph[0],
                  q23=u2 * math.sqrt(d[1] * d[2]) * ph[1])
        q = validate_density(x.as_matrix(), 2, 2)
        diff = abs(x_concurrence(x).bound - wootters_concurrence(q))
        worst = max(worst, diff)
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 3 PASS: 1000 X matrices, worst |bound-exact| {worst:.2e}")


def test_criterion_4_chi_equality_without_x_form():
    expected = 0.5 - math.sqrt(2.0) / 3.0
    rep = x_lower_bound(projector(chi_state()))
    _, o = x_decompose(projector(chi_state()))
    assert abs(rep.bound - expected) <= 1e-12
    assert abs(rep.exact - expected) <= 1e-12
    assert abs(rep.bound - rep.exact) <= 1e-12
    assert np.abs(o).max() > 0.1
    print(f"\nACCEPTANCE 4 PASS: chi bound=exact={rep.bound:.7f}, O nonzero")


def test_criterion_5_isotropic_sweep_d3(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["isotropic-sweep", "--d", "3", "--steps", "101",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert len(lines) == 101
    for line in lines:
        f, exact, bound, from_matrix = (float(v) for v in line.split(","))
        assert abs(exact - max(0.0, math.sqrt(3.0) * (f - 1.0 / 3.0))) <= 1e-12
        assert abs(bound - max(0.0, f - 1.0 / 3.0)) <= 1e-12
        assert bound <= exact + 1e-15
        if f <= 1.0 / 3.0:
            assert exact == 0.0 and bound == 0.0
        assert abs(from_matrix - bound) <= 1e-10
    print("\nACCEPTANCE 5 PASS: d=3 sweep matches closed forms on 101 grid points")


def test_criterion_6_highdim_pure_inequality():
    violations = 0
    worst_formula_gap = 0.0
    dims = [(a, b) for a in range(2, 6) for b in range(2, 6)]
    for seed in range(5000):
        dA, dB = dims[seed % len(dims)]
        psi = sample_haar_pure(dA, dB, seed)
        conc = i_concurrence_pure(psi)
        worst_formula_gap = max(
            worst_formula_gap,
            abs(_column_concurrence(psi.amps[:, None], dA, dB)[0]
                - _iconc_from_minors(psi.amps, dA, dB)),
        )
        if generalized_lower_bound(projector(psi)).bound > conc + 1e-10:
            violations += 1
    assert violations == 0
    assert worst_formula_gap <= 1e-10
    print(f"\nACCEPTANCE 6 PASS: 5000 pure states in dims 2..5, 0 violations, "
          f"formula gap {worst_formula_gap:.2e}")


def test_criterion_7_oracle_calibration_then_3x3():
    cal_worst = -math.inf
    for t in range(50):
        rank = t % 4 + 1
        q = sample_random_density(2, 2, rank, np.random.SeedSequence([123, t]))
        res = convex_roof_upper(q, OptimizerConfig(restarts=10, max_iters=2000, seed=t))
        cal_worst = max(cal_worst, abs(res.value - wootters_concurrence(q)))
    assert cal_worst <= 1e-12
    report = fuzz_inequality(200, (3, 3), 7)
    assert report.violations == 0
    print(f"\nACCEPTANCE 7 PASS: calibration worst {cal_worst:.2e} <= 1e-12; "
          f"200 3x3 states, 0 violations")


def test_criterion_8_two_qubit_generalized_consistency():
    worst = 0.0
    for seed in range(1000):
        q = sample_random_density(2, 2, seed % 4 + 1, seed)
        diff = abs(generalized_lower_bound(q).bound - x_lower_bound(q).bound)
        worst = max(worst, diff)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: 1000 states, worst general-vs-2q diff {worst:.2e}")


def test_criterion_9_basis_optimizer_sanity():
    bell = projector(bell_phi_plus())
    for s in range(20):
        rotated = conjugate_by_local_unitary(
            bell, sample_haar_unitary(2, 1000 + s), sample_haar_unitary(2, 2000 + s)
        )
        res = optimize_basis(rotated, OptimizerConfig(restarts=10, seed=s))
        assert res.best_bound >= 1.0 - 1e-6
        assert res.best_bound <= res.exact + 1e-10
    print("\nACCEPTANCE 9 PASS: 20 rotated Bell states recovered to >= 1-1e-6")
