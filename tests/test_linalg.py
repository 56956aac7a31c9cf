import dataclasses
import importlib
import pkgutil
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xbound
from xbound import (
    DensityMatrix,
    InvalidRank,
    NonFinite,
    NotHermitian,
    NotPositive,
    NotUnitary,
    PureState,
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
from xbound.io import load_density, save_density
from xbound.linalg import DEFAULT_TOL, Tolerances
from xbound.oracle import _FUZZ_CHUNK, OptimizerConfig, convex_roof_upper, optimize_basis
from xbound.reference_states import (
    IsotropicState,
    bell_phi_plus,
    chi_state,
    isotropic_matrix,
    maximally_entangled,
    maximally_mixed,
    singlet,
    werner_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
LEAN = OptimizerConfig(restarts=1, max_iters=20)


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

    @pytest.mark.parametrize("dims", [(2.0, 2.0), (2, 2.0), (True, 4), ("2", 2), (None, 2)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(WrongDimensions, match="must be an integer"):
            validate_density(np.eye(4) / 4, *dims)

    def test_numpy_integer_dims_accepted(self):
        q = validate_density(np.eye(6) / 6, np.int64(2), np.int32(3))
        assert (q.dimA, q.dimB) == (2, 3)
        assert type(q.dimA) is type(q.dimB) is int

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

    def test_non_integer_dims_rejected(self):
        with pytest.raises(WrongDimensions, match="dimA must be an integer, got 2.0"):
            pure_state(np.ones(4) / 2, 2.0, 2.0)

    def test_direct_construction_validates(self):
        with pytest.raises(errors.StateNormError):
            PureState(2, 2, np.ones(4))
        with pytest.raises(WrongDimensions, match="expected 6 amplitudes"):
            PureState(2, 3, np.ones(4) / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("build", [lambda v: PureState(2, 2, v), lambda v: pure_state(v, 2, 2)],
                             ids=["PureState", "pure_state"])
    def test_non_finite_rejected(self, bad, build):
        v = np.array([bad, 0, 0, 0], dtype=complex)
        with pytest.raises(NonFinite):
            build(v)

    def test_amps_are_a_read_only_raveled_copy(self):
        psi = PureState(np.int64(2), np.int32(2), [[1.0, 0.0], [0.0, 0.0]])
        assert type(psi.dimA) is type(psi.dimB) is int
        assert psi.amps.shape == (4,) and psi.amps.dtype == complex
        v = np.array([1, 0, 0, 0], dtype=complex)
        psi = PureState(2, 2, v)
        assert not psi.amps.flags.writeable
        with pytest.raises(ValueError):
            psi.amps[0] = 5.0
        assert v.flags.writeable
        v[0] = 5.0  # the caller's array stays the caller's
        assert psi.amps[0] == 1.0

    def test_tolerance_is_passed_on(self):
        v = np.array([1.0 + 1e-6, 0.0, 0.0, 0.0])
        with pytest.raises(errors.StateNormError):
            PureState(2, 2, v)
        assert pure_state(v, 2, 2, Tolerances.uniform(1e-3)).amps[0] == v[0]

    @pytest.mark.parametrize("amps", [[1e308, 1e308, 0, 0], [1e200j, 0, 0, 0],
                                      [1.7976931348623157e308, -1e308j, 1e308, 1e308]])
    def test_huge_amplitudes_raise_without_a_warning(self, amps):
        # Squares of these overflow; only the StateNormError may come out.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.StateNormError):
                pure_state(amps, 2, 2)

    def test_replace_validates(self):
        psi = bell_phi_plus()
        for bad in (np.ones(4), np.array([np.nan, 0, 0, 0])):
            with pytest.raises((errors.StateNormError, NonFinite)):
                dataclasses.replace(psi, amps=bad)
        with pytest.raises(WrongDimensions):
            dataclasses.replace(psi, dimA=3)

    @pytest.mark.parametrize("sample", [
        lambda: sample_haar_pure(2, 2.0, 0),
        lambda: sample_haar_pure(-1, 2, 0),
        lambda: sample_haar_pure(0, 2, 0),
        lambda: sample_haar_unitary(2.0, 0),
        lambda: sample_haar_unitary(0, 0),
        lambda: maximally_entangled(0),
        lambda: maximally_entangled(2.0),
    ], ids=["pure-float", "pure-negative", "pure-zero", "unitary-float", "unitary-zero",
            "entangled-zero", "entangled-float"])
    def test_samplers_check_dims(self, sample):
        with pytest.raises(WrongDimensions):
            sample()

    def test_every_constructor_returns_a_read_only_state(self):
        for name, states in pure_states_of_every_constructor().items():
            assert states, name
            for psi in states:
                assert isinstance(psi, PureState), name
                assert type(psi.dimA) is type(psi.dimB) is int, name
                assert not psi.amps.flags.writeable, name
                assert psi.amps.dtype == complex and psi.amps.shape == (psi.dimA * psi.dimB,), name

    def test_each_state_is_validated_once(self, monkeypatch):
        calls = []
        check = PureState.__post_init__
        monkeypatch.setattr(PureState, "__post_init__",
                            lambda self, tol: calls.append(1) or check(self, tol))
        states = pure_states_of_every_constructor()
        assert len(calls) == sum(map(len, states.values()))


def pure_states_of_every_constructor():
    """The pure states from each public function that returns some, by name.

    The roof search's inputs are built without a pure state, so every
    PureState made here is one of the states returned.
    """
    v = np.array([0.5, 0.5j, -0.5, 0.5])
    rank1 = DensityMatrix(2, 2, np.outer(v, v.conj()))
    return {
        "pure_state": [pure_state(v, 2, 2)],
        "PureState": [PureState(2, 2, v)],
        "sample_haar_pure": [sample_haar_pure(3, 2, 0)],
        "maximally_entangled": [maximally_entangled(3)],
        "chi_state": [chi_state()],
        "bell_phi_plus": [bell_phi_plus()],
        "singlet": [singlet()],
        "convex_roof_upper": convex_roof_upper(maximally_mixed(2, 2), LEAN).witness.states,
        "convex_roof_upper, rank 1": convex_roof_upper(rank1, LEAN).witness.states,
    }


def states_of_every_constructor(tmp_path):
    """A state from each public function that returns one, by name."""
    path = tmp_path / "state.json"
    save_density(maximally_mixed(2, 2), path)
    q = sample_random_density(2, 2, 3, 0)
    return {
        "validate_density": validate_density(np.eye(4) / 4, 2, 2),
        "projector": projector(bell_phi_plus()),
        "sample_random_density": q,
        "conjugate_by_local_unitary": conjugate_by_local_unitary(
            q, sample_haar_unitary(2, 1), sample_haar_unitary(2, 2)),
        "maximally_mixed": maximally_mixed(3, 2),
        "isotropic_matrix": isotropic_matrix(IsotropicState(3, 0.5)),
        "werner_state": werner_state(0.5),
        "load_density": load_density(path),
    }


class TestDensityMatrix:
    """Constructing a DensityMatrix validates it, and its matrix cannot change after."""

    def test_direct_construction_validates(self):
        with pytest.raises(TraceNotOne):
            DensityMatrix(2, 2, 5 * np.eye(4))
        with pytest.raises(NotPositive):
            DensityMatrix(2, 2, np.diag([1.0, 1.0, -1.0, 0.0]))
        with pytest.raises(WrongDimensions):
            DensityMatrix(2, 3, np.eye(4) / 4)

    def test_tolerance_is_passed_on(self):
        m = np.eye(4) / 4
        m[0, 0] += 1e-4
        with pytest.raises(TraceNotOne):
            DensityMatrix(2, 2, m)
        loose = Tolerances.uniform(1e-3)
        q = DensityMatrix(2, 2, m, loose)
        assert q.mat[0, 0] == m[0, 0]
        assert conjugate_by_local_unitary(q, SX, np.eye(2), loose).mat[0, 0] == 0.25
        with pytest.raises(TraceNotOne):
            conjugate_by_local_unitary(q, SX, np.eye(2))

    def test_replace_validates(self):
        q = maximally_mixed(2, 2)
        with pytest.raises(TraceNotOne):
            dataclasses.replace(q, mat=5 * np.eye(4))
        with pytest.raises(WrongDimensions):
            dataclasses.replace(q, dimA=3)

    def test_matrix_is_a_read_only_copy(self):
        m = np.eye(4, dtype=complex) / 4
        q = DensityMatrix(2, 2, m)
        assert not q.mat.flags.writeable
        with pytest.raises(ValueError):
            q.mat[0, 0] = 5.0
        assert m.flags.writeable
        m[0, 0] = 5.0  # the caller's array stays the caller's
        assert q.mat[0, 0] == 0.25

    def test_every_constructor_returns_a_read_only_state(self, tmp_path):
        for name, q in states_of_every_constructor(tmp_path).items():
            assert isinstance(q, DensityMatrix), name
            assert not q.mat.flags.writeable, name
            assert q.mat.dtype == complex, name

    def test_each_state_is_validated_once(self, tmp_path, monkeypatch):
        calls = []
        check = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            lambda self, tol: calls.append(1) or check(self, tol))
        states = states_of_every_constructor(tmp_path)
        # sample_random_density's state is built once, then conjugated once.
        assert len(calls) == len(states) + 1


def _holds_array(tp) -> bool:
    """Whether the annotation tp is an array, a dataclass holding one, or a generic over either."""
    if tp is np.ndarray:
        return True
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return any(_holds_array(hints[f.name]) for f in dataclasses.fields(tp))
    return any(_holds_array(arg) for arg in typing.get_args(tp))


def xbound_dataclasses():
    for info in pkgutil.iter_modules(xbound.__path__):
        module = importlib.import_module(f"xbound.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and isinstance(obj, type) \
                    and obj.__module__ == module.__name__:
                yield obj


class TestIdentity:
    """A dataclass holding an array compares and hashes by identity."""

    def test_no_generated_eq_over_an_array(self):
        holders = {cls.__name__ for cls in xbound_dataclasses() if _holds_array(cls)}
        assert holders >= {"DensityMatrix", "PureState", "DecompositionCandidate",
                           "RoofResult", "BasisResult"}
        for cls in xbound_dataclasses():
            if _holds_array(cls):
                assert "__eq__" not in vars(cls), cls.__name__
                assert cls.__hash__ is object.__hash__, cls.__name__

    @pytest.mark.parametrize("make", [
        lambda: maximally_mixed(2, 2),
        lambda: bell_phi_plus(),
        lambda: convex_roof_upper(werner_state(0.5), LEAN),
        lambda: convex_roof_upper(werner_state(0.5), LEAN).witness,
        lambda: optimize_basis(werner_state(0.9), LEAN),
    ], ids=["DensityMatrix", "PureState", "RoofResult", "DecompositionCandidate", "BasisResult"])
    def test_compare_and_hash(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b  # same contents, another object
        assert hash(a) == hash(a)
        assert len({a, a, b}) == 2


# Mostly invalid dims; a numpy integer is a valid one.
odd_dims = st.sampled_from([-1, 0, 5, 2.0, True, np.int64(2), "2", None])


@st.composite
def candidates(draw):
    """(m, dimA, dimB): a Ginibre state, often with a perturbed entry or an odd dimA."""
    dA, dB = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = dA * dB
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((d, draw(st.integers(1, d)), 2)) @ [1, 1j]
    m = g @ g.conj().T
    m /= np.trace(m).real
    if draw(st.booleans()):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        m[i, j] += draw(st.sampled_from([1e-9, -1e-7, 1e-3j, 0.5, np.nan, np.inf]))
    if draw(st.integers(0, 3)) == 0:
        dA = draw(odd_dims)
    return m, dA, dB


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=candidates(),
       tol=st.sampled_from([DEFAULT_TOL, Tolerances.uniform(1e-6), Tolerances.uniform(1e-2)]))
def test_constructor_and_validate_density_agree(case, tol):
    m, dA, dB = case
    outcomes = []
    for build in (lambda: DensityMatrix(dA, dB, m, tol), lambda: validate_density(m, dA, dB, tol)):
        try:
            q = build()
        except errors.StateValidationError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(q.mat.tobytes())
    assert outcomes[0] == outcomes[1]


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

    def test_non_integer_rank_and_dims(self):
        with pytest.raises(InvalidRank, match="rank must be an integer, got 2.0"):
            sample_random_density(2, 2, 2.0, 1)
        with pytest.raises(WrongDimensions, match="dimB must be an integer"):
            sample_random_density(2, 2.0, 2, 1)

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
