import numpy as np
import pytest

import xbound
from xbound import (
    InvalidRank,
    NonFinite,
    NotHermitian,
    NotPositive,
    NotUnitary,
    TraceNotOne,
    WrongDimensions,
    conjugate_by_local_unitary,
    partial_trace_B,
    projector,
    pure_state,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
)
from xbound import errors, linalg
from xbound.linalg import DEFAULT_TOL, Tolerances
from xbound.oracle import _FUZZ_CHUNK
from xbound.reference_states import bell_phi_plus

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        m[a, b] = 0.5
    return m


class TestValidateDensity:
    def test_maximally_mixed_ok(self):
        q = validate_density(np.eye(4) / 4, 2, 2)
        assert q.dimA == q.dimB == 2

    def test_bell_projector_ok(self):
        validate_density(bell_matrix(), 2, 2)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            validate_density(np.diag([1.0, 1.0, -1.0, 0.0]), 2, 2)

    def test_not_hermitian_rejected(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            validate_density(m, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[2, 1] = bad
        with pytest.raises(NonFinite):
            validate_density(m, 2, 2)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(4), 2, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(WrongDimensions):
            validate_density(np.eye(3) / 3, 2, 2)

    def test_non_positive_dims_rejected(self):
        # (-2) * (-2) = 4 would match the shape of a valid 4x4 state.
        for dims in ((-2, -2), (0, 2), (2, 0)):
            with pytest.raises(WrongDimensions, match="dims must be positive"):
                validate_density(np.eye(4) / 4, *dims)

    def test_accepts_sampled_states_many_seeds(self):
        for seed in range(1000):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            validate_density(q.mat, 2, 2)


def state_with_min_eigenvalue(d: int, lam: float, seed: int) -> np.ndarray:
    """Unit-trace Hermitian matrix, eigenvalues lam and d - 1 positive ones, in a Haar basis."""
    rest = np.random.default_rng(seed).uniform(0.5, 1.5, d - 1)
    evals = np.concatenate([[lam], rest * (1.0 - lam) / rest.sum()])
    u = sample_haar_unitary(d, seed)
    m = (u * evals) @ u.conj().T
    return (m + m.conj().T) / 2


class TestPositivityBoundary:
    """The Cholesky test accepts exactly what min(eigvalsh) >= -psd accepts."""

    @pytest.mark.parametrize("dims", [(2, 2), (8, 8)], ids=["d4", "d64"])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances.uniform(1e-3)],
                             ids=["default", "uniform-1e-3"])
    @pytest.mark.parametrize("seed", range(2))
    def test_boundary(self, dims, tol, seed):
        d = dims[0] * dims[1]
        inside = state_with_min_eigenvalue(d, -tol.psd * (1 - 1e-6), seed)
        outside = state_with_min_eigenvalue(d, -tol.psd * (1 + 1e-6), seed)
        for m, lam in ((inside, -tol.psd * (1 - 1e-6)), (outside, -tol.psd * (1 + 1e-6))):
            # the construction's rounding is far inside the 1e-6 margin
            assert abs(np.linalg.eigvalsh(m).min() - lam) < 1e-7 * tol.psd
        validate_density(inside, *dims, tol)
        lam_min = np.linalg.eigvalsh(outside).min()
        with pytest.raises(NotPositive, match=f"^minimum eigenvalue {lam_min:.3e} < -"):
            validate_density(outside, *dims, tol)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4), (8, 8)])
    def test_agrees_with_eigenvalue_rule(self, dims):
        d = dims[0] * dims[1]
        for seed in range(40):
            m = state_with_min_eigenvalue(d, -DEFAULT_TOL.psd * seed / 20, seed)
            if np.linalg.eigvalsh(m).min() >= -DEFAULT_TOL.psd:
                validate_density(m, *dims)
            else:
                with pytest.raises(NotPositive):
                    validate_density(m, *dims)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (8, 8)])
    def test_valid_states_skip_eigenvalues(self, dims, monkeypatch):
        def no_eigvalsh(h):
            raise AssertionError("eigvalsh called on a valid state")
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        d = dims[0] * dims[1]
        for seed, rank in enumerate([1, 2, d]):
            validate_density(sample_random_density(*dims, rank, seed).mat, *dims)
        validate_density(state_with_min_eigenvalue(d, -0.4 * DEFAULT_TOL.psd, 0), *dims)


class TestPureState:
    def test_norm_error(self):
        assert linalg.StateNormError is xbound.StateNormError is errors.StateNormError
        assert issubclass(errors.StateNormError, errors.TraceNotOne)
        with pytest.raises(errors.StateNormError):
            pure_state(np.array([1.0, 0.0, 0.0, 1.0]), 2, 2)

    def test_non_positive_dims_rejected(self):
        for dims in ((-2, -2), (0, 2)):
            with pytest.raises(WrongDimensions, match="dims must be positive"):
                pure_state(np.ones(4) / 2, *dims)


class TestPartialTrace:
    def test_maximally_mixed(self):
        q = validate_density(np.eye(4) / 4, 2, 2)
        assert np.allclose(partial_trace_B(q), np.eye(2) / 2)

    def test_bell_reduces_to_maximally_mixed(self):
        q = validate_density(bell_matrix(), 2, 2)
        assert np.allclose(partial_trace_B(q), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        q = validate_density(m, 2, 2)
        assert np.allclose(partial_trace_B(q), np.diag([1.0, 0.0]))

    def test_trace_one_for_random_states(self):
        for seed in range(50):
            q = sample_random_density(2, 3, seed % 6 + 1, seed)
            assert abs(np.trace(partial_trace_B(q)) - 1.0) < 1e-12


class TestSampling:
    def test_rank_one_is_pure(self):
        q = sample_random_density(2, 2, 1, 7)
        evals = np.sort(np.linalg.eigvalsh(q.mat))
        assert np.allclose(evals, [0, 0, 0, 1], atol=1e-12)

    def test_deterministic(self):
        a = sample_random_density(2, 2, 4, 7)
        b = sample_random_density(2, 2, 4, 7)
        assert np.array_equal(a.mat, b.mat)

    def test_rank_two(self):
        q = sample_random_density(3, 3, 2, 1)
        evals = np.linalg.eigvalsh(q.mat)
        assert np.sum(evals > 1e-10) == 2

    def test_bad_rank(self):
        with pytest.raises(InvalidRank):
            sample_random_density(2, 2, 5, 0)
        with pytest.raises(InvalidRank):
            sample_random_density(2, 2, 0, 0)
        for ranks in ([2, 5], [0, 1]):
            with pytest.raises(InvalidRank):
                linalg._trial_densities(2, 2, 0, 0, ranks)

    @pytest.mark.parametrize("rank", [1, 4, 9])
    def test_matches_two_draw_formula(self, rank):
        # The Ginibre construction as written before sample_random_density
        # drew G in one call: real parts, then imaginary parts.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((9, rank)) + 1j * rng.standard_normal((9, rank))
            m = g @ g.conj().T
            m /= np.trace(m).real
            assert sample_random_density(3, 3, rank, seed).mat.tobytes() == m.tobytes()

    def test_haar_pure_norm(self):
        psi = sample_haar_pure(2, 2, 0)
        assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12

    def test_haar_pure_deterministic(self):
        a = sample_haar_pure(2, 2, 3)
        b = sample_haar_pure(2, 2, 3)
        assert np.array_equal(a.amps, b.amps)

    def test_haar_pure_shape(self):
        psi = sample_haar_pure(3, 4, 5)
        assert psi.amps.shape == (12,)
        assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12

    def test_haar_pure_unitary_invariance(self):
        # Rotating by a fixed unitary must not change the marginal statistics
        # of |<0|psi>|^2 (mean 1/D for a Haar vector in dimension D).
        u = sample_haar_unitary(4, 99)
        plain, rotated = [], []
        for seed in range(4000):
            v = sample_haar_pure(2, 2, seed).amps
            plain.append(abs(v[0]) ** 2)
            rotated.append(abs((u @ v)[0]) ** 2)
        assert abs(np.mean(plain) - 0.25) < 0.01
        assert abs(np.mean(rotated) - 0.25) < 0.01

    def test_haar_unitary_is_unitary(self):
        u = sample_haar_unitary(5, 0)
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 10**23])
    def test_stream_states_match_numpy(self, seed):
        ts = list(range(_FUZZ_CHUNK + 4)) + [2**32 - 1]
        expected = []
        for t in ts:
            state = np.random.PCG64(np.random.SeedSequence([seed, t])).state["state"]
            expected.append((state["state"], state["inc"]))
        assert linalg._stream_states(seed, ts) == expected

    @pytest.mark.parametrize("seed,ts", [(-1, [0]), (0, [2**32]), (0, [-1])],
                             ids=["negative-seed", "two-word-t", "negative-t"])
    def test_stream_states_out_of_range(self, seed, ts):
        with pytest.raises(errors.OutOfRange):
            linalg._stream_states(seed, ts)

    @pytest.mark.parametrize("seed,start", [(0, 0), (42, 5), (10**23, 2**32 - 40)])
    def test_trial_densities_match_sample_random_density(self, seed, start):
        for dA, dB in [(2, 2), (3, 3), (2, 4), (8, 8)]:
            ranks = np.array([1, 2, 3, 4, 4, 2, 1, 3] * 4 + [dA * dB])
            mats, factors = linalg._trial_densities(dA, dB, seed, start, ranks)
            for i, rank in enumerate(ranks):
                q = sample_random_density(dA, dB, rank, np.random.SeedSequence([seed, start + i]))
                assert mats[i].tobytes() == q.mat.tobytes()
            # Each rank's factors and traces give back its matrices bit for bit.
            assert sorted(np.concatenate([idx for idx, _, _ in factors])) == list(range(ranks.size))
            for idx, g, tr in factors:
                assert g.shape == (idx.size, dA * dB, ranks[idx[0]])
                assert np.all(ranks[idx] == ranks[idx[0]])
                m = g @ g.conj().swapaxes(-1, -2) / tr[:, None, None]
                assert m.tobytes() == mats[idx].tobytes()


class TestLocalUnitaryConjugation:
    def test_identity_is_noop(self):
        q = sample_random_density(2, 2, 3, 0)
        out = conjugate_by_local_unitary(q, np.eye(2), np.eye(2))
        assert np.allclose(out.mat, q.mat, atol=1e-14)

    def test_sigma_x_maps_bell_states(self):
        q = validate_density(bell_matrix(), 2, 2)
        out = conjugate_by_local_unitary(q, SX, np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            expected[a, b] = 0.5
        assert np.allclose(out.mat, expected, atol=1e-14)

    def test_spectrum_preserved(self):
        for seed in range(20):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            uA = sample_haar_unitary(2, 2 * seed)
            uB = sample_haar_unitary(2, 2 * seed + 1)
            out = conjugate_by_local_unitary(q, uA, uB)
            before = np.sort(np.linalg.eigvalsh(q.mat))
            after = np.sort(np.linalg.eigvalsh(out.mat))
            assert np.abs(before - after).max() < 1e-10
            assert abs(np.trace(out.mat) - 1.0) < 1e-10
            assert np.abs(out.mat - out.mat.conj().T).max() < 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_local_product_is_kron_bitwise(self, dims):
        dA, dB = dims
        for seed in range(10):
            uA, uB = sample_haar_unitary(dA, 2 * seed), sample_haar_unitary(dB, 2 * seed + 1)
            assert linalg._local_product(uA, uB).tobytes() == np.kron(uA, uB).tobytes()

    def test_non_unitary_rejected(self):
        q = sample_random_density(2, 2, 2, 0)
        with pytest.raises(NotUnitary):
            conjugate_by_local_unitary(q, np.eye(2) * 2, np.eye(2))


def test_projector_matches_outer_product():
    psi = bell_phi_plus()
    q = projector(psi)
    assert np.allclose(q.mat, bell_matrix())
