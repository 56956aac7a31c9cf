import dataclasses
import functools
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, minimize as scipy_minimize

from xbound import (
    DensityMatrix,
    FuzzReport,
    InvalidRank,
    InvariantViolation,
    OutOfRange,
    OptimizerConfig,
    WrongDimensions,
    conjugate_by_local_unitary,
    convex_roof_upper,
    fuzz_inequality,
    generalized_lower_bound,
    i_concurrence_pure,
    optimize_basis,
    projector,
    pure_concurrence_2q,
    pure_state,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
    wootters_concurrence,
    x_concurrence,
    x_decompose,
    x_lower_bound,
)
from xbound import linalg, oracle, two_qubit
from xbound.linalg import _isometry
from xbound.oracle import (
    _FUZZ_CHUNK,
    _basis_margin,
    _ensemble_average,
)
from xbound.reference_states import (
    IsotropicState,
    bell_phi_plus,
    isotropic_exact_concurrence,
    isotropic_matrix,
    maximally_mixed,
    werner_state,
)

FAST_CFG = OptimizerConfig(restarts=4, max_iters=1500, seed=0)
# The identity start of the 2x2 basis search: uA's and then uB's matrix,
# each as linalg._isometry reads it (real parts, then imaginary parts).
BASIS_EYE = np.tile(np.concatenate([np.eye(2).ravel(), np.zeros(4)]), 2)
ROOF_GRADIENT_CASES = [((2, 2), 3, 4), ((2, 3), 2, 4), ((3, 3), 3, 8), ((3, 2), 2, 4),
                       ((2, 4), 4, 8)]


def central_difference(f, x, h=1e-6):
    """Central-difference gradient of the scalar function f at x."""
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(x.size)])


def eigen_weights(q, rank):
    """Scaled eigenvectors of the rank largest eigenvalues, as convex_roof_upper builds them."""
    evals, vecs = np.linalg.eigh(q.mat)
    return vecs[:, -rank:] * np.sqrt(evals[-rank:])


def fuzz_trials_2q(trials, seed, ranks):
    """(violations, slack) of every two-qubit fuzz trial, one state at a time.

    Trial t is drawn as sample_random_density draws it, from numpy's own
    seeding of SeedSequence([seed, t]), and its exact value is the Wootters
    kernel on its own Ginibre factor, looked up in two_qubit at call time.
    """
    cycle = ranks if ranks is not None else [1, 2, 3, 4]
    out = []
    for t in range(trials):
        rank = cycle[t % len(cycle)]
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        (m,), g, tr = linalg._ginibre(rng.standard_normal((1, 2, 4, rank)))
        rep = x_concurrence(x_decompose(DensityMatrix(2, 2, m))[0])
        exact = float(two_qubit._wootters_factor(g, tr)[0])
        violations = int(rank == 1 and abs(rep.c1) > exact + 1e-10)
        violations += int(rep.bound > exact + 1e-10)
        out.append((violations, float(exact - rep.bound)))
    return out


@functools.cache
def cached_fuzz_trials_2q(seed, ranks):
    return fuzz_trials_2q(_FUZZ_CHUNK + 3, seed, list(ranks) if ranks else None)


def fuzz_report_2q(trials, seed, per_trial):
    slacks = [slack for _, slack in per_trial[:trials]]
    return FuzzReport(trials=trials, dimA=2, dimB=2, seed=seed,
                      violations=sum(v for v, _ in per_trial[:trials]),
                      max_gap=max(slacks), min_slack=min(slacks), oracle_tolerance=1e-10)


@pytest.fixture
def no_sampling(monkeypatch):
    """Make every sampler of the fuzz fail the test if it is called."""
    def fail(*args):
        raise AssertionError("sampled before the inputs were checked")
    monkeypatch.setattr(oracle, "_trial_densities", fail)
    monkeypatch.setattr(oracle, "sample_random_density", fail)


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


class TestOptimizerConfig:
    @pytest.mark.parametrize("field,value", [
        ("restarts", 0), ("restarts", -3), ("max_iters", 0), ("seed", -1),
    ])
    def test_out_of_range(self, field, value):
        with pytest.raises(OutOfRange, match=f"{field} must be >= "):
            OptimizerConfig(**{field: value})
        with pytest.raises(OutOfRange, match=f"{field} must be >= "):
            dataclasses.replace(OptimizerConfig(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("restarts", 2.5), ("restarts", 2.0), ("max_iters", True), ("seed", "1"),
    ])
    def test_non_integer(self, field, value):
        with pytest.raises(OutOfRange, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})
        with pytest.raises(OutOfRange, match=f"{field} must be an integer"):
            dataclasses.replace(OptimizerConfig(), **{field: value})

    def test_numpy_integers_accepted(self):
        OptimizerConfig(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(1))

    def test_search_sizes_itself(self):
        # The roof search takes its ensemble size from the rank; no field sets it.
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
            "restarts", "max_iters", "seed"]
        with pytest.raises(TypeError):
            OptimizerConfig(decomp_size=8)


class TestConvexRoof:
    def test_rank_one_is_exact(self):
        psi = sample_haar_pure(2, 2, 3)
        res = convex_roof_upper(projector(psi), FAST_CFG)
        assert res.value == pytest.approx(pure_concurrence_2q(psi), abs=1e-10)
        assert len(res.witness.states) == 1
        assert res.witness.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_werner_converges(self):
        res = convex_roof_upper(werner_state(0.8), FAST_CFG)
        assert res.value == pytest.approx(0.7, abs=1e-12)

    def test_separable_mixture_reaches_zero(self):
        q = random_product_mixture(11)
        assert wootters_concurrence(q) == 0.0
        res = convex_roof_upper(q, OptimizerConfig(restarts=10, max_iters=2000, seed=1))
        assert res.value <= 1e-12

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

    @pytest.mark.parametrize("m,r", [(4, 2), (4, 4), (8, 3), (32, 16), (2, 2), (3, 3)])
    @pytest.mark.parametrize("start", ["random", "identity", "near-identity"])
    def test_isometry(self, m, r, start):
        rng = np.random.default_rng(m * r)
        noise = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        z = {"random": noise, "identity": np.eye(m, r),
             "near-identity": np.eye(m, r) + 1e-9 * noise}[start]
        iso, tri = _isometry(np.concatenate([z.real.ravel(), z.imag.ravel()]), m, r)
        if m == r and start == "random":
            # The Haar sampler is _qr of its Ginibre draw, the same draw as noise's.
            assert np.array_equal(sample_haar_unitary(m, m * r), iso)
        assert np.abs(iso.conj().T @ iso - np.eye(r)).max() <= 1e-12
        assert np.abs(iso @ tri - z).max() <= 1e-12
        assert np.all(np.tril(tri, -1) == 0.0)
        assert np.all(tri.diagonal().imag == 0.0) and np.all(tri.diagonal().real >= 0.0)
        # numpy's QR with its column signs fixed the same way; Householder
        # flips them between the identity and its neighbours.
        q, t = np.linalg.qr(z)
        assert np.abs(iso - q * np.where(np.diag(t).real < 0.0, -1.0, 1.0)).max() <= 1e-12
        if start != "random":
            assert np.abs(iso - np.eye(m, r)).max() <= 1e-8

    def test_ensemble_size_follows_rank(self, monkeypatch):
        # m = min(r^2, max(8, r + 4)) states, so the search runs on the 2 m r
        # parameters of an m x r complex matrix.
        sizes = {}

        def record(fun, x0, args, **kwargs):
            sizes.setdefault(rank, set()).add(x0.size)
            return oracle.MinimizeResult(x0, 0.0, 0, 0)
        monkeypatch.setattr(oracle, "minimize", record)
        for rank in range(2, 10):
            convex_roof_upper(sample_random_density(3, 3, rank, rank), OptimizerConfig(restarts=1))
        assert sizes == {r: {2 * m * r} for r, m in zip(range(2, 10), (4, 8, 8, 9, 10, 11, 12, 13))}

    @pytest.mark.parametrize("dims,rank,m", [((3, 3), 2, 4), ((3, 3), 3, 8), ((2, 3), 4, 8),
                                             ((3, 3), 9, 13)])
    def test_identity_start_keeps_its_zero_rows(self, monkeypatch, dims, rank, m):
        # Rows r..m-1 of the identity start are 0, and so is their gradient:
        # their columns are zero, and a zero column's concurrence has gradient
        # 0.  Every L-BFGS step keeps them 0, so that start searches size-r
        # ensembles whatever m is; only random starts reach size m.
        ends = []
        minimize = oracle.minimize

        def record(*args, **kwargs):
            res = minimize(*args, **kwargs)
            ends.append(res.x.copy().reshape(2, m, rank))
            return res
        monkeypatch.setattr(oracle, "minimize", record)
        q = (isotropic_matrix(IsotropicState(d=3, F=0.5)) if rank == 9
             else sample_random_density(*dims, rank, rank))
        convex_roof_upper(q, OptimizerConfig(restarts=1, max_iters=150))
        assert len(ends) == len(oracle._SMOOTHING)
        assert np.any(ends[0][0, :rank] != np.eye(rank))  # the search moved
        for z in ends:
            assert np.all(z[:, rank:] == 0.0)

    def test_keeps_best_stage(self, monkeypatch):
        # A final stage that ends above the 1e-6 stage must not replace its
        # point, neither in the value nor in the witness.
        q = sample_random_density(2, 3, 3, 5)
        minimize = oracle.minimize
        exact = {}

        def worse_final_stage(fun, x0, args, **kwargs):
            (smoothing,) = args
            if smoothing == 0.0:
                x = x0 + 0.3 * np.random.default_rng(1).standard_normal(x0.size)
                res = OptimizeResult(x=x, fun=fun(x, 0.0)[0])
            else:
                res = minimize(fun, x0, args=args, **kwargs)
            exact[smoothing] = fun(res.x, 0.0)[0]
            return res
        monkeypatch.setattr(oracle, "minimize", worse_final_stage)
        res = convex_roof_upper(q, OptimizerConfig(restarts=1))
        assert sorted(exact) == [0.0, 1e-6, 1e-3]
        assert exact[0.0] > exact[1e-6] <= exact[1e-3]
        assert res.value == exact[1e-6]
        # The value is the witness's own average on every path: the search's,
        # rank 1's and the two-qubit closed form's.
        for res in (res, convex_roof_upper(projector(sample_haar_pure(3, 2, 4))),
                    convex_roof_upper(sample_random_density(2, 2, 3, 5))):
            witness = res.witness
            average = sum(p * i_concurrence_pure(psi) for p, psi in zip(witness.weights,
                                                                       witness.states))
            # Off 2x2 the kernel's value of a near-product column carries
            # roundoff of about 1e-8 times its weight, so the sums agree to 1e-9.
            assert average == pytest.approx(res.value, abs=1e-9)

    def test_evaluates_only_in_the_solver(self, monkeypatch):
        # Starts and stage ends are scored by value alone, so every
        # value-and-gradient evaluation is one the solver asked for.
        calls, nfev = [], []
        average, minimize = oracle._ensemble_average, oracle.minimize

        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res
        monkeypatch.setattr(oracle, "_ensemble_average",
                            lambda *args: calls.append(args) or average(*args))
        monkeypatch.setattr(oracle, "minimize", counted_minimize)
        for seed, restarts in ((2, 1), (3, 2)):
            convex_roof_upper(sample_random_density(3, 3, 3, seed),
                              OptimizerConfig(restarts=restarts, max_iters=150, seed=seed))
        assert len(nfev) >= 3 * 2
        assert len(calls) == sum(nfev)

    @pytest.mark.parametrize("dims,rank,m", ROOF_GRADIENT_CASES)
    def test_ensemble_average_gradient(self, dims, rank, m):
        dA, dB = dims
        q = sample_random_density(dA, dB, rank, 31)
        w = eigen_weights(q, rank)
        x = np.random.default_rng(32).standard_normal(2 * m * rank)
        value, grad = _ensemble_average(x, w, m, rank, dA, dB)

        z = (x[: m * rank] + 1j * x[m * rank :]).reshape(m, rank)
        iso, tri = np.linalg.qr(z)
        cols = w @ (iso * np.sign(np.diag(tri).real)).T  # the QR with R's diagonal positive
        expected = 0.0
        for col in cols.T:
            p = np.vdot(col, col).real
            schmidt = np.linalg.svd((col / np.sqrt(p)).reshape(dA, dB), compute_uv=False)
            expected += p * np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(schmidt**4))))
        assert value == pytest.approx(expected, abs=1e-12)

        numeric = central_difference(lambda y: _ensemble_average(y, w, m, rank, dA, dB)[0], x)
        assert np.abs(grad - numeric).max() <= 1e-7

    @pytest.mark.parametrize("dims,rank,m", ROOF_GRADIENT_CASES)
    def test_ensemble_average_gradient_at_identity(self, dims, rank, m):
        # The identity isometry is every search's first start; QR's column
        # signs must not jump there.
        dA, dB = dims
        w = eigen_weights(sample_random_density(dA, dB, rank, 31), rank)
        x_eye = np.concatenate([np.eye(m, rank).ravel(), np.zeros(m * rank)])
        grad = _ensemble_average(x_eye, w, m, rank, dA, dB)[1]
        numeric = central_difference(lambda y: _ensemble_average(y, w, m, rank, dA, dB)[0], x_eye)
        assert np.abs(grad - numeric).max() <= 1e-7

    @pytest.mark.parametrize("d,F", [(3, 0.5), (3, 0.9), (4, 0.8)])
    def test_calibrated_on_isotropic_states(self, d, F):
        # Full rank, so the search runs at its own size for r = d^2.
        s = IsotropicState(d=d, F=F)
        exact = isotropic_exact_concurrence(s)
        res = convex_roof_upper(isotropic_matrix(s), OptimizerConfig(restarts=3))
        assert exact - 1e-9 <= res.value <= exact + 1e-5

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


def bell_diagonal(p):
    """sum_k p_k |B_k><B_k| over the Bell states Phi+, Phi-, Psi+, Psi-."""
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    return np.einsum("k,ki,kj->ij", p, bells, bells)


def local_state(a, b):
    """The qubit state a|0><0| + (1-a)|1><1| + b|0><1| + b*|1><0|."""
    return np.array([[a, b], [np.conj(b), 1.0 - a]])


# Named states that pin the closed form's degenerate cases; True marks a
# separable state.
NAMED_2Q = {
    # The spin-flip matrix is 0, so every Takagi vector comes from the QR
    # completion: exactly 0 in the first state, roundoff in the second.
    "diag(1/2,1/2,0,0)": (np.diag([0.5, 0.5, 0.0, 0.0]), True),
    "I/2 (x) |a><a|": (np.kron(np.eye(2) / 2, local_state(0.36, -0.48j)), True),
    "I/4": (np.eye(4) / 4, True),  # l1 = l2 = l3 = l4
    "diag(1/2,0,0,1/2)": (np.diag([0.5, 0.0, 0.0, 0.5]), True),  # l1 = l2, l3 = l4 = 0
    # a product of two full-rank local states: all four l_i equal
    "full-rank product": (np.kron(local_state(0.7, 0.2 + 0.1j), local_state(0.6, -0.1j)), True),
    # three product terms: rank 3, so l4 = 0 and one triangle is flat
    "rank-3 separable": (random_product_mixture(8, terms=3).mat, True),
    **{f"werner p={p:.2f}": (werner_state(p).mat, p <= 1 / 3)
       for p in np.linspace(0.0, 0.95, 20)},
    **{f"bell-diagonal {p}": (bell_diagonal(np.array(p)), max(p) <= 0.5)
       for p in [(0.25,) * 4, (0.5, 0.5, 0, 0), (0.5, 0.25, 0.25, 0), (0.4, 0.3, 0.2, 0.1),
                 (0.6, 0.2, 0.2, 0), (0.6, 0.4, 0, 0), (0.9, 0.05, 0.05, 0),
                 (0.5, 0.5 - 1e-9, 1e-9, 0)]},
}


def closed_form_errors(q, separable):
    """The six errors the two-qubit closed form is held to, each at most 1e-12."""
    res = convex_roof_upper(q)
    w = res.witness
    assert len(w.states) <= 4
    amps = np.array([psi.amps for psi in w.states])
    conc = 2 * np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
    return {
        "value": abs(res.value - wootters_concurrence(q)),
        "reconstruction": w.reconstruction_residual(q),
        "weights": max(abs(w.weights.sum() - 1.0), -w.weights.min()),
        "average": abs(w.weights @ conc - res.value),
        "max |p_i c_i - value/4|": np.abs(w.weights * conc - res.value / 4).max(),
        "separable": conc.max() if separable else 0.0,
    }


class TestWoottersDecomposition:
    """At 2x2, convex_roof_upper returns Wootters' optimal decomposition, not a search."""

    @staticmethod
    def assert_exact(states):
        worst = {}
        for q, separable in states:
            for name, err in closed_form_errors(q, separable).items():
                worst[name] = max(worst.get(name, 0.0), err)
        assert max(worst.values()) <= 1e-12, worst

    def test_ginibre_sweep(self):
        self.assert_exact(
            (sample_random_density(2, 2, t % 3 + 2, np.random.SeedSequence([2212, t])), False)
            for t in range(4000))

    def test_product_mixtures(self):
        self.assert_exact((random_product_mixture(seed, terms=seed % 4 + 1), True)
                          for seed in range(500))

    @pytest.mark.parametrize("name", NAMED_2Q)
    def test_named_state(self, name):
        mat, separable = NAMED_2Q[name]
        self.assert_exact([(validate_density(mat.astype(complex), 2, 2), separable)])

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_runs_no_search(self, monkeypatch, rank):
        def no_search(*args, **kwargs):
            raise AssertionError("searched at 2x2")
        monkeypatch.setattr(oracle, "minimize", no_search)
        for seed in range(5):
            q = sample_random_density(2, 2, rank, seed)
            res = convex_roof_upper(q, OptimizerConfig(restarts=3, seed=seed))
            assert res.value == pytest.approx(wootters_concurrence(q), abs=1e-12)
            assert rank <= len(res.witness.states) <= 4

    def test_guard(self, monkeypatch):
        # A decomposition whose average is not the Wootters value is a fault.
        monkeypatch.setattr(oracle, "_wootters_factor", lambda a, s: np.float64(2.0))
        with pytest.raises(InvariantViolation, match="differs from the exact"):
            convex_roof_upper(werner_state(0.8))


class TestMinimize:
    """oracle.minimize drives scipy's L-BFGS-B core; scipy's own wrapper is the reference."""

    @staticmethod
    def assert_matches_scipy(fun, x0, args, **options):
        ours = oracle.minimize(fun, x0, args=args, **options)
        ref = scipy_minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options=options)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
        assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
        return ours

    @pytest.mark.parametrize("smoothing", oracle._SMOOTHING)
    @pytest.mark.parametrize("dims,rank,m", ROOF_GRADIENT_CASES)
    def test_roof_objective_matches_scipy(self, dims, rank, m, smoothing):
        dA, dB = dims
        w = eigen_weights(sample_random_density(dA, dB, rank, 31), rank)
        x0 = np.random.default_rng(33).standard_normal(2 * m * rank)
        self.assert_matches_scipy(_ensemble_average, x0, (w, m, rank, dA, dB, smoothing),
                                  maxiter=150, ftol=1e-8, gtol=1e-8)

    def test_repeated_point_is_not_evaluated_again(self):
        # In this run the core asks twice in a row for the value at one
        # point; scipy answers the second request from its last evaluation,
        # and minimize must too, or its nfev runs one ahead.
        w = eigen_weights(sample_random_density(2, 2, 4, 101), 4)
        x0 = np.random.default_rng(1).standard_normal(32)
        self.assert_matches_scipy(_ensemble_average, x0, (w, 4, 4, 2, 2, 1e-3),
                                  maxiter=150, ftol=1e-8, gtol=1e-8)

    def test_basis_margin_matches_scipy(self):
        rotated = conjugate_by_local_unitary(
            projector(bell_phi_plus()), sample_haar_unitary(2, 21), sample_haar_unitary(2, 22)
        )
        for x0 in (BASIS_EYE, np.random.default_rng(3).standard_normal(16)):
            self.assert_matches_scipy(_basis_margin, x0, (rotated.mat, 2, 2),
                                      maxiter=2000, ftol=1e-12, gtol=1e-12)

    def test_stops_at_maxiter(self):
        w = eigen_weights(sample_random_density(3, 3, 3, 31), 3)
        x0 = np.random.default_rng(33).standard_normal(48)
        res = self.assert_matches_scipy(_ensemble_average, x0, (w, 8, 3, 3, 3, 0.0),
                                        maxiter=5, ftol=1e-8, gtol=1e-8)
        assert res.nit == 5


class TestFuzz:
    def test_clean_and_deterministic(self):
        a = fuzz_inequality(60, (2, 2), 42)
        b = fuzz_inequality(60, (2, 2), 42)
        assert a.violations == 0
        assert a.to_json() == b.to_json()

    def test_rank_one_includes_pure_check(self):
        rep = fuzz_inequality(100, (2, 2), 0, ranks=[1])
        assert rep.violations == 0

    @pytest.mark.parametrize("ranks", [None, (1,), (3, 4)], ids=["cycle", "rank1", "rank3-4"])
    # 2**40 and 10**23 take two and three entropy words in SeedSequence.
    @pytest.mark.parametrize("seed", [0, 42, 2**40, 10**23])
    @pytest.mark.parametrize("trials", [1, 7, _FUZZ_CHUNK, _FUZZ_CHUNK + 3])
    def test_chunked_2q_matches_per_trial_loop(self, trials, seed, ranks):
        rep = fuzz_inequality(trials, (2, 2), seed, list(ranks) if ranks else None)
        expected = fuzz_report_2q(trials, seed, cached_fuzz_trials_2q(seed, ranks))
        assert rep.to_json() == expected.to_json()

    @pytest.mark.parametrize("trials,seed,ranks,max_gap,min_slack", [
        (7, 0, [1], 0.6004710584075603, 0.12756813037434228),
        (1, 42, [3, 4], 0.23413169409110723, 0.23413169409110723),
        (2000, 42, [1], 0.9696575027712173, 6.647722486374796e-07),
    ], ids=["7-0-rank1", "1-42-rank3-4", "2000-42-rank1"])
    def test_2q_report_pinned(self, trials, seed, ranks, max_gap, min_slack):
        # Reports with the Wootters value taken from each trial's Ginibre factor.
        rep = fuzz_inequality(trials, (2, 2), seed, ranks)
        assert (rep.violations, rep.max_gap, rep.min_slack) == (0, max_gap, min_slack)

    @pytest.mark.parametrize("ranks", [None, [1]], ids=["cycle", "rank1"])
    def test_violation_count_matches_per_trial_loop(self, monkeypatch, ranks):
        # With every Wootters value forced to 0, each entangled X part and
        # (at rank 1) each nonzero |c1| counts as a violation.
        zero = lambda a, s: np.zeros(a.shape[:-2])  # noqa: E731
        monkeypatch.setattr("xbound.two_qubit._wootters_factor", zero)
        monkeypatch.setattr("xbound.oracle._wootters_factor", zero)
        trials = _FUZZ_CHUNK + 3
        rep = fuzz_inequality(trials, (2, 2), 3, ranks)
        expected = fuzz_report_2q(trials, 3, fuzz_trials_2q(trials, 3, ranks))
        assert rep.violations == expected.violations > trials // 2
        if ranks == [1]:
            assert rep.violations > trials  # the |c1| rule fired as well
        assert rep.to_json() == expected.to_json()

    def test_stream_guard(self, monkeypatch):
        # A derived stream state that differs from numpy's seeding in one bit
        # must stop the fuzz, not sample from a different stream.
        derive = linalg._stream_states

        def flipped(seed, ts):
            states = derive(seed, ts)
            state, inc = states[0]
            states[0] = (state ^ 1 << 77, inc)
            return states
        monkeypatch.setattr(linalg, "_stream_states", flipped)
        with pytest.raises(InvariantViolation):
            fuzz_inequality(_FUZZ_CHUNK + 3, (2, 2), 42)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_negative_seed(self, dims):
        with pytest.raises(OutOfRange):
            fuzz_inequality(3, dims, -1)

    def test_trial_limit(self, no_sampling):
        # Trial t is one 32-bit entropy word; the limit is checked before any
        # trial is sampled.
        for trials, dims in product((2**32 + 1, 0, -5), ((2, 2), (3, 3))):
            with pytest.raises(OutOfRange):
                fuzz_inequality(trials, dims, 0)

    @pytest.mark.parametrize("dims", [(0, 2), (-1, 2), (1, 2), (2, -3)])
    def test_dims_below_two(self, no_sampling, dims):
        with pytest.raises(WrongDimensions):
            fuzz_inequality(3, dims, 0)

    @pytest.mark.parametrize("trials,dims,seed,error", [
        (10, (2, 2), 2.5, OutOfRange), (10.0, (2, 2), 1, OutOfRange),
        (10, (2, 2), True, OutOfRange), (10, (2.0, 2), 1, WrongDimensions),
        (10, (3, 3.0), 1, WrongDimensions), (10, (2, 2), None, OutOfRange),
    ])
    def test_non_integer_inputs(self, no_sampling, trials, dims, seed, error):
        with pytest.raises(error, match="must be an integer"):
            fuzz_inequality(trials, dims, seed)

    def test_non_integer_rank(self, no_sampling):
        with pytest.raises(InvalidRank, match="rank must be an integer"):
            fuzz_inequality(3, (2, 2), 0, [1.5])

    @pytest.mark.parametrize("ranks,dims", [([0], (2, 2)), ([5], (2, 2)), ([], (2, 2)),
                                            ([], (3, 3)), ([1] * 8 + [0], (8, 8))])
    def test_invalid_rank(self, no_sampling, ranks, dims):
        # The whole rank cycle is checked first, not chunk by chunk: at 8x8
        # a chunk is 8 trials, so trial 8 of rank 0 comes after one chunk.
        with pytest.raises(InvalidRank):
            fuzz_inequality(9, dims, 0, ranks)

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

    def test_product_states_stay_zero(self):
        # No local basis makes a separable state entangled: a pure product's
        # margins reach 0 at best, and roundoff above 0 must not count.  The
        # Schmidt basis of a pure product does show such roundoff, so a state
        # whose identity bound already reaches exact keeps the identity.
        rng = np.random.default_rng(5)

        def product_projector():
            a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 2, 2)) @ [1, 1j])
            ab = np.kron(a, b)
            return np.outer(ab, ab.conj())
        for n in range(100):
            # Pure products, then mixtures of two and of three.
            weights = rng.dirichlet(np.ones(n % 3 + 1))
            q = validate_density(sum(w * product_projector() for w in weights), 2, 2)
            res = optimize_basis(q, OptimizerConfig(restarts=3, seed=0))
            assert res.original_bound == res.best_bound == 0.0
            assert np.array_equal(res.uA, np.eye(2)) and np.array_equal(res.uB, np.eye(2))

    def test_basis_margin_gradient(self):
        for seed in range(4):
            q = sample_random_density(2, 2, seed + 1, 40 + seed)
            starts = [BASIS_EYE, np.random.default_rng(seed).standard_normal(16)]
            for x in starts:
                grad = _basis_margin(x, q.mat, 2, 2)[1]
                numeric = central_difference(lambda y: _basis_margin(y, q.mat, 2, 2)[0], x)
                assert np.abs(grad - numeric).max() <= 1e-7

    def test_basis_margin_at_identity_is_the_x_margin(self):
        q = sample_random_density(2, 2, 3, 5)
        rep = x_concurrence(x_decompose(q)[0])
        assert -_basis_margin(BASIS_EYE, q.mat, 2, 2)[0] == rep.c1
        # uB = sigma_x, its own QR factor, swaps B's levels: c1's witness
        # then reads c2's entries.
        flip_b = BASIS_EYE.copy()
        flip_b[8:12] = [0.0, 1.0, 1.0, 0.0]
        assert -_basis_margin(flip_b, q.mat, 2, 2)[0] == rep.c2

    @pytest.mark.parametrize("unreachable,restarts,draws", [(False, 10**6, 0), (True, 3, 2)],
                             ids=["stops-at-identity", "runs-every-start"])
    def test_starts_drawn_when_run(self, monkeypatch, unreachable, restarts, draws):
        # Each random start is drawn when its turn comes: a Bell state stops
        # at the identity start and draws none, however many are allowed.
        # With an exact value no basis reaches, every start runs and start
        # 0, the identity or the Schmidt start, is the only one not drawn.
        # Each start is one L-BFGS run, and every margin evaluation is one
        # the solver asked for.
        if unreachable:
            monkeypatch.setattr(oracle, "wootters_concurrence", lambda q: 2.0)
        q = sample_random_density(2, 2, 3, 9) if unreachable else projector(bell_phi_plus())
        cfg = OptimizerConfig(restarts=restarts, seed=4)
        expected = optimize_basis(q, cfg)
        calls = []
        real_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, size):
                calls.append(size)
                return self.rng.standard_normal(size)

        nfev, evals = [], []
        minimize, margin = oracle.minimize, oracle._basis_margin

        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res
        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        monkeypatch.setattr(oracle, "minimize", counted_minimize)
        monkeypatch.setattr(oracle, "_basis_margin",
                            lambda *args: evals.append(args) or margin(*args))
        res = optimize_basis(q, cfg)
        assert len(calls) == draws
        assert len(nfev) == (restarts if unreachable else 0)
        assert len(evals) == sum(nfev)
        assert res.best_bound == expected.best_bound
        assert res.uA.tobytes() == expected.uA.tobytes()
        assert res.uB.tobytes() == expected.uB.tobytes()

    def test_pure_states_reach_concurrence(self, monkeypatch):
        # A pure state's Schmidt form is an X state whose X bound is its
        # concurrence, 2 s0 s1, so the search starts there and runs no L-BFGS.
        calls = []
        monkeypatch.setattr(oracle, "minimize", lambda *args, **kwargs: calls.append(args))
        bell = projector(bell_phi_plus())
        states = [sample_random_density(2, 2, 1, seed) for seed in range(50)]
        states += [conjugate_by_local_unitary(bell, sample_haar_unitary(2, 2 * seed),
                                              sample_haar_unitary(2, 2 * seed + 1))
                   for seed in range(20)]
        for seed, q in enumerate(states):
            res = optimize_basis(q, OptimizerConfig(restarts=3, seed=seed))
            assert abs(res.best_bound - res.exact) <= 1e-12
        assert calls == []

    @pytest.mark.xfail(strict=True, reason=(
        "the basis search stops up to 3e-8 short of Wootters on rank-2 states mixed with "
        "a product state of weight below about 3e-7; a local polish from its end point closes "
        "the gap, so the miss is the search's, not the X bound's"))
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4),
           product_weight=st.none() | st.floats(0.0, 0.9))
    @example(seed=2, rank=2, product_weight=1e-6)
    def test_entangled_states_reach_wootters(self, seed, rank, product_weight):
        # Measured, not proven: on entangled two-qubit states some local basis
        # makes the X bound equal the Wootters concurrence, and optimize_basis
        # is to find it.  A failing state is a result to report, not a case
        # to exclude from the strategy.
        q = sample_random_density(2, 2, rank, seed)
        if product_weight is not None:
            rng = np.random.default_rng(seed)
            a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 2, 2)) @ [1, 1j])
            ab = np.kron(a, b)
            q = validate_density((1 - product_weight) * q.mat
                                 + product_weight * np.outer(ab, ab.conj()), 2, 2)
        assume(wootters_concurrence(q) > 0.0)
        res = optimize_basis(q, OptimizerConfig(seed=seed))
        assert res.exact - res.best_bound <= 1e-10

    def test_result_unitaries_reproduce_bound(self):
        q = sample_random_density(2, 2, 2, 17)
        res = optimize_basis(q, OptimizerConfig(restarts=5, seed=1))
        rotated = conjugate_by_local_unitary(q, res.uA, res.uB)
        assert x_lower_bound(rotated).bound == pytest.approx(res.best_bound, abs=1e-9)
