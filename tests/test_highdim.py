import math

import numpy as np
import pytest

from xbound import (
    IndexOutOfRange,
    PairIndex,
    conjugate_by_local_unitary,
    generalized_lower_bound,
    i_concurrence_pure,
    pair_bound,
    projector,
    pure_state,
    sample_haar_pure,
    sample_haar_unitary,
    sample_random_density,
    validate_density,
    x_lower_bound,
)
from xbound.highdim import (_best_margin, _column_concurrence, _iconc_from_minors, _pair_grid,
                             _pair_terms)
from xbound.reference_states import (
    IsotropicState,
    bell_phi_plus,
    isotropic_matrix,
    maximally_entangled,
    maximally_mixed,
)


def _reference_margins(q):
    """Every signed pair margin keyed by (i, j, k, l, mirrored), from flat indices."""
    m, dB = q.mat, q.dimB
    out = {}
    for i in range(q.dimA):
        for j in range(i + 1, q.dimA):
            for k in range(dB):
                for l in range(k + 1, dB):
                    ik, il, jk, jl = i * dB + k, i * dB + l, j * dB + k, j * dB + l
                    plain = m[il, il].real * m[jk, jk].real
                    mirror = m[ik, ik].real * m[jl, jl].real
                    out[(i, j, k, l, False)] = 2.0 * (abs(m[ik, jl]) - math.sqrt(max(plain, 0.0)))
                    out[(i, j, k, l, True)] = 2.0 * (abs(m[il, jk]) - math.sqrt(max(mirror, 0.0)))
    return out


class TestIConcurrencePure:
    def test_bell_reduces_to_two_qubit_value(self):
        assert i_concurrence_pure(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_d3(self):
        psi = maximally_entangled(3)
        assert i_concurrence_pure(psi) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_product_state_3x3(self):
        amps = np.zeros(9)
        amps[0] = 1.0
        assert i_concurrence_pure(pure_state(amps, 3, 3)) == 0.0

    def test_formulas_agree_on_random_states(self):
        for seed in range(1000):
            dA = 2 + seed % 4
            dB = 2 + (seed // 4) % 4
            psi = sample_haar_pure(dA, dB, seed)
            a = _column_concurrence(psi.amps[:, None], dA, dB)[0]
            b = _iconc_from_minors(psi.amps, dA, dB)
            assert abs(a - b) < 1e-10

    def test_columns_match_minor_form(self):
        # Several subnormalized columns in one call, at 3x2 where the batched
        # amplitude matrices are taller than wide; each value is p C(psi).
        rng = np.random.default_rng(8)
        cols = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        conc = _column_concurrence(cols, 3, 2)
        for col, value in zip(cols.T, conc):
            assert abs(value - _iconc_from_minors(col, 3, 2)) < 1e-10

    def test_range(self):
        for seed in range(100):
            dA, dB = 3, 4
            c = i_concurrence_pure(sample_haar_pure(dA, dB, seed))
            d = min(dA, dB)
            assert 0.0 <= c <= math.sqrt(2.0 * (d - 1) / d) + 1e-12

    def test_local_unitary_invariance(self):
        for seed in range(50):
            psi = sample_haar_pure(3, 3, seed)
            u = np.kron(sample_haar_unitary(3, seed), sample_haar_unitary(3, seed + 1))
            rot = pure_state(u @ psi.amps, 3, 3)
            assert abs(i_concurrence_pure(psi) - i_concurrence_pure(rot)) < 1e-9


class TestPairBound:
    def test_bell_gives_one(self):
        q = projector(bell_phi_plus())
        assert pair_bound(q, PairIndex(0, 1, 0, 1)) == pytest.approx(1.0)

    def test_pure_state_formula(self):
        # On projectors the pair margin is 2(|a_ik a_jl| - |a_il a_jk|).
        for seed in range(100):
            psi = sample_haar_pure(3, 3, seed)
            q = projector(psi)
            m = psi.amps.reshape(3, 3)
            for (i, j, k, l) in [(0, 1, 0, 1), (0, 2, 1, 2), (1, 2, 0, 2)]:
                expected = 2.0 * (
                    abs(m[i, k] * m[j, l]) - abs(m[i, l] * m[j, k])
                )
                got = pair_bound(q, PairIndex(i, j, k, l))
                assert got == pytest.approx(expected, abs=1e-12)

    def test_isotropic_f1(self):
        q = isotropic_matrix(IsotropicState(d=3, F=1.0))
        assert pair_bound(q, PairIndex(0, 1, 0, 1)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_out_of_range(self):
        q = maximally_mixed(2, 2)
        with pytest.raises(IndexOutOfRange):
            pair_bound(q, PairIndex(0, 2, 0, 1))
        with pytest.raises(IndexOutOfRange):
            pair_bound(q, PairIndex(1, 0, 0, 1))


class TestPairKernel:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_stack_matches_single_matrices_bitwise(self, dims):
        dA, dB = dims
        grid = _pair_grid(dA, dB)
        mats = np.stack([sample_random_density(dA, dB, 1 + n % (dA * dB), [dA, dB, n]).mat
                         for n in range(40)]).reshape(4, 10, dA * dB, dA * dB)
        coh, root = _pair_terms(mats, dA, dB, *grid)
        best = _best_margin(mats, dA, dB, grid)
        assert best.bound.shape == best.value.shape == best.witness.shape == (4, 10)
        for idx in np.ndindex(4, 10):
            one_coh, one_root = _pair_terms(mats[idx], dA, dB, *grid)
            assert coh[idx].tobytes() == one_coh.tobytes()
            assert root[idx].tobytes() == one_root.tobytes()
            one = _best_margin(mats[idx], dA, dB, grid)
            assert best.margins[idx].tobytes() == one.margins.tobytes()
            assert (best.bound[idx], best.value[idx], best.witness[idx]) == (
                one.bound, one.value, one.witness)
            rep = generalized_lower_bound(validate_density(mats[idx], dA, dB))
            assert (rep.bound, rep.value) == (one.bound, one.value)

    def test_2x2_grid_is_the_x_witnesses(self):
        # (0,1,0,1) reads Q_14 against Q_22 Q_33 (c1); (0,1,1,0) reads Q_23
        # against Q_11 Q_44 (c2).
        pairs = np.stack(np.broadcast_arrays(*_pair_grid(2, 2)), axis=-1).reshape(-1, 4)
        assert pairs.tolist() == [[0, 1, 0, 1], [0, 1, 1, 0]]
        m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        m[0, 3], m[1, 2] = 0.3 + 0.4j, 0.05
        coh, root = _pair_terms(m, 2, 2, *_pair_grid(2, 2))
        assert coh.ravel().tolist() == [0.5, 0.05]
        assert root.ravel().tolist() == [math.sqrt(0.2 * 0.3), math.sqrt(0.1 * 0.4)]


class TestGeneralizedLowerBound:
    def test_agrees_with_two_qubit_bound(self):
        # One kernel serves both routes, so the best margin is the same float.
        for seed in range(1000):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            general = generalized_lower_bound(q)
            two_qubit = x_lower_bound(q)
            assert general.value == max(two_qubit.c1, two_qubit.c2)
            assert abs(general.bound - two_qubit.bound) < 1e-12

    def test_c2_needs_mirrored_orientation(self):
        # A singlet-like state has its coherence at (1,2): only the mirrored
        # comparison sees it.
        amps = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        rep = generalized_lower_bound(projector(pure_state(amps, 2, 2)))
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        assert rep.mirrored

    def test_isotropic_f1(self):
        rep = generalized_lower_bound(isotropic_matrix(IsotropicState(d=3, F=1.0)))
        assert rep.bound == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert generalized_lower_bound(maximally_mixed(3, 3)).bound == 0.0

    def test_below_i_concurrence_on_pure_states(self):
        for seed in range(400):
            dA = 2 + seed % 4
            dB = 2 + (seed // 4) % 4
            psi = sample_haar_pure(dA, dB, seed)
            bound = generalized_lower_bound(projector(psi)).bound
            assert bound <= i_concurrence_pure(psi) + 1e-10

    def test_argmax_tie_break_is_lexicographic(self):
        rep = generalized_lower_bound(maximally_mixed(3, 3))
        p = rep.argmax_pair
        assert (p.i, p.j, p.k, p.l, rep.mirrored) == (0, 1, 0, 1, False)

    def test_argmax_tie_across_orientations(self):
        # (0,1,0,1, mirrored) and (0,1,0,2, plain) share the maximum -2/15;
        # the lexicographic tie-break picks the first.
        m = np.eye(6, dtype=complex) / 6.0
        m[0, 5] = m[5, 0] = m[1, 3] = m[3, 1] = 0.1
        rep = generalized_lower_bound(validate_density(m, 2, 3))
        p = rep.argmax_pair
        assert rep.value == pytest.approx(2.0 * (0.1 - 1.0 / 6.0), abs=1e-15)
        assert (p.i, p.j, p.k, p.l, rep.mirrored) == (0, 1, 0, 1, True)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])
    def test_product_states_report_plain_orientation(self, dims):
        # On rho_A (x) rho_B each pair's plain and mirrored margins are equal
        # but for roundoff, so the first orientation is reported, not the one
        # whose last bit happens to be larger.  On a pure product every margin
        # is 0 but for roundoff, and no route may certify it.
        dA, dB = dims
        for n in range(20):
            rng = np.random.default_rng([dA, dB, n])
            local, pure = [], []
            for d in dims:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                local.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
                v = g[:, 0] / np.linalg.norm(g[:, 0])
                pure.append(np.outer(v, v.conj()))
            for factors in (local, pure):
                q = validate_density(np.kron(*factors), dA, dB)
                rep = generalized_lower_bound(q)
                assert not rep.mirrored
                assert rep.bound == 0.0
                if dims == (2, 2):
                    two_qubit = x_lower_bound(q)
                    assert two_qubit.bound == 0.0 and not two_qubit.entangled

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 4), (3, 5), (5, 5)])
    def test_matches_flat_index_reference(self, dims):
        dA, dB = dims
        for n in range(50):
            rank = 1 + n % (dA * dB)
            q = sample_random_density(dA, dB, rank, np.random.SeedSequence([dA, dB, n]))
            ref = _reference_margins(q)
            best = max(ref.values())
            rep = generalized_lower_bound(q)
            p = rep.argmax_pair
            assert abs(rep.value - best) <= 1e-15
            assert abs(ref[(p.i, p.j, p.k, p.l, rep.mirrored)] - best) <= 1e-12
            assert abs(rep.bound - max(best, 0.0)) <= 1e-15
