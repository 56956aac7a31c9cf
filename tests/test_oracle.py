import numpy as np
import pytest

from xbound import (
    OptimizerConfig,
    conjugate_by_local_unitary,
    convex_roof_upper,
    fuzz_inequality,
    generalized_lower_bound,
    optimize_basis,
    projector,
    pure_concurrence_2q,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
    wootters_concurrence,
    x_lower_bound,
)
from xbound.oracle import _ensemble_average
from xbound.reference_states import bell_phi_plus, maximally_mixed, werner_state

FAST_CFG = OptimizerConfig(restarts=4, max_iters=1500, seed=0)


def random_product_mixture(seed, terms=4):
    rng = np.random.default_rng(seed)
    m = np.zeros((4, 4), dtype=complex)
    for _ in range(terms):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
    m /= np.trace(m).real
    return validate_density(m, 2, 2)


class TestConvexRoof:
    def test_rank_one_is_exact(self):
        psi = sample_haar_pure(2, 2, 3)
        res = convex_roof_upper(projector(psi), FAST_CFG)
        assert res.value == pytest.approx(pure_concurrence_2q(psi), abs=1e-10)
        assert len(res.witness.states) == 1
        assert res.witness.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_werner_converges(self):
        res = convex_roof_upper(werner_state(0.8), FAST_CFG)
        assert res.value == pytest.approx(0.7, abs=1e-3)

    def test_separable_mixture_reaches_zero(self):
        q = random_product_mixture(11)
        assert wootters_concurrence(q) == 0.0
        res = convex_roof_upper(q, OptimizerConfig(restarts=10, max_iters=2000, seed=1))
        assert res.value <= 1e-3

    def test_witness_invariants(self):
        for seed in (0, 5):
            q = sample_random_density(2, 2, 3, seed)
            res = convex_roof_upper(q, FAST_CFG)
            w = res.witness
            assert np.all(w.weights >= 0)
            assert np.sum(w.weights) == pytest.approx(1.0, abs=1e-10)
            for psi in w.states:
                assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-10
            assert w.reconstruction_residual(q) <= 1e-8

    def test_never_below_lower_bound(self):
        for seed in range(8):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            res = convex_roof_upper(q, FAST_CFG)
            assert res.value >= generalized_lower_bound(q).bound - 1e-9

    @pytest.mark.parametrize("dims,rank,m", [((2, 2), 3, 4), ((2, 3), 2, 4), ((3, 3), 3, 8)])
    def test_ensemble_average_gradient(self, dims, rank, m):
        dA, dB = dims
        q = sample_random_density(dA, dB, rank, 31)
        evals, vecs = np.linalg.eigh(q.mat)
        w = vecs[:, -rank:] * np.sqrt(evals[-rank:])
        x = np.random.default_rng(32).standard_normal(2 * m * rank)
        value, grad = _ensemble_average(x, w, m, rank, dA, dB)

        z = (x[: m * rank] + 1j * x[m * rank :]).reshape(m, rank)
        cols = w @ np.linalg.qr(z)[0].T
        expected = 0.0
        for col in cols.T:
            p = np.vdot(col, col).real
            schmidt = np.linalg.svd((col / np.sqrt(p)).reshape(dA, dB), compute_uv=False)
            expected += p * np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(schmidt**4))))
        assert value == pytest.approx(expected, abs=1e-12)

        h = 1e-6
        numeric = np.empty_like(x)
        for n in range(x.size):
            e = np.zeros_like(x)
            e[n] = h
            numeric[n] = (_ensemble_average(x + e, w, m, rank, dA, dB)[0]
                          - _ensemble_average(x - e, w, m, rank, dA, dB)[0]) / (2 * h)
        assert np.abs(grad - numeric).max() <= 1e-7

    def test_calibrated_above_two_qubits(self):
        # A two-qubit state in the {0,1} x {0,1} block of d x d keeps every
        # decomposition in that block, so its I-concurrence is the Wootters
        # value of the block.
        worst = 0.0
        for d in (3, 4):
            block = [0, 1, d, d + 1]
            for t in range(24):
                q2 = sample_random_density(2, 2, t % 3 + 2, np.random.SeedSequence([2012, t]))
                m = np.zeros((d * d, d * d), dtype=complex)
                m[np.ix_(block, block)] = q2.mat
                res = convex_roof_upper(validate_density(m, d, d),
                                        OptimizerConfig(restarts=4, max_iters=150))
                worst = max(worst, abs(res.value - wootters_concurrence(q2)))
        assert worst <= 1e-6

    def test_3x3_upper_bounds_the_bound(self):
        q = sample_random_density(3, 3, 4, 2)
        res = convex_roof_upper(q, OptimizerConfig(restarts=1, max_iters=150))
        assert res.value >= generalized_lower_bound(q).bound - 1e-9
        assert res.witness.reconstruction_residual(q) <= 1e-8


class TestFuzz:
    def test_clean_and_deterministic(self):
        a = fuzz_inequality(60, (2, 2), 42)
        b = fuzz_inequality(60, (2, 2), 42)
        assert a.violations == 0
        assert a.to_json() == b.to_json()

    def test_rank_one_includes_pure_check(self):
        rep = fuzz_inequality(100, (2, 2), 0, ranks=[1])
        assert rep.violations == 0

    def test_3x3_small(self):
        rep = fuzz_inequality(9, (3, 3), 7)
        assert rep.violations == 0
        assert rep.min_slack >= -1e-10


class TestOptimizeBasis:
    def test_x_form_does_not_regress(self):
        q = projector(bell_phi_plus())
        res = optimize_basis(q, OptimizerConfig(restarts=3, seed=0))
        assert res.original_bound == pytest.approx(1.0, abs=1e-12)
        assert res.best_bound >= res.original_bound - 1e-12
        assert res.best_bound <= res.exact + 1e-10

    def test_recovers_rotated_bell(self):
        q = projector(bell_phi_plus())
        rotated = conjugate_by_local_unitary(
            q, sample_haar_unitary(2, 21), sample_haar_unitary(2, 22)
        )
        res = optimize_basis(rotated, OptimizerConfig(restarts=10, seed=0))
        assert res.best_bound == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed_stays_zero(self):
        res = optimize_basis(maximally_mixed(2, 2), OptimizerConfig(restarts=3, seed=0))
        assert res.best_bound == 0.0
        assert res.original_bound == 0.0

    def test_result_unitaries_reproduce_bound(self):
        q = sample_random_density(2, 2, 2, 17)
        res = optimize_basis(q, OptimizerConfig(restarts=5, seed=1))
        rotated = conjugate_by_local_unitary(q, res.uA, res.uB)
        assert x_lower_bound(rotated).bound == pytest.approx(res.best_bound, abs=1e-9)
