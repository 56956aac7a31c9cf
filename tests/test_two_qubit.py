import math

import numpy as np
import pytest

from xbound import (
    OutOfRange,
    WrongDimensions,
    XCore,
    certify_from_elements,
    conjugate_by_local_unitary,
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
from xbound.reference_states import (
    bell_phi_plus,
    chi_state,
    maximally_mixed,
    singlet,
    werner_exact_concurrence,
    werner_state,
)
from xbound.linalg import _trial_densities
from xbound.two_qubit import _wootters, _wootters_factor

CHI_C = 0.5 - math.sqrt(2.0) / 3.0  # 2|alpha*delta - beta*gamma| for chi


class TestXDecompose:
    def test_bell_is_already_x_form(self):
        x, o = x_decompose(projector(bell_phi_plus()))
        assert x.d11 == pytest.approx(0.5)
        assert x.d44 == pytest.approx(0.5)
        assert x.d22 == x.d33 == 0.0
        assert x.q14 == pytest.approx(0.5)
        assert x.q23 == 0.0
        assert np.abs(o).max() == 0.0

    def test_chi_projector(self):
        x, o = x_decompose(projector(chi_state()))
        assert x.d11 == pytest.approx(0.25, abs=1e-15)
        assert x.d22 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert x.d33 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert x.d44 == pytest.approx(0.25, abs=1e-15)
        assert abs(x.q14) == pytest.approx(0.25, abs=1e-15)
        assert abs(x.q23) == pytest.approx(1.0 / math.sqrt(18.0), abs=1e-15)
        # O part is nonzero: e.g. |Q_12| = 1/(2 sqrt(3))
        assert abs(o[0, 1]) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15)

    def test_maximally_mixed(self):
        x, o = x_decompose(maximally_mixed(2, 2))
        assert x.d11 == x.d22 == x.d33 == x.d44 == 0.25
        assert x.q14 == x.q23 == 0.0
        assert np.abs(o).max() == 0.0

    def test_reconstruction_is_bitwise(self):
        for seed in range(25):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            x, o = x_decompose(q)
            assert np.array_equal(x.as_matrix() + o, q.mat)

    def test_wrong_dims_rejected(self):
        with pytest.raises(WrongDimensions):
            x_decompose(maximally_mixed(3, 3))


class TestXConcurrence:
    def test_bell(self):
        rep = x_concurrence(x_decompose(projector(bell_phi_plus()))[0])
        assert rep.c1 == pytest.approx(1.0)
        assert rep.c2 == pytest.approx(-1.0)
        assert rep.bound == pytest.approx(1.0)

    def test_chi(self):
        rep = x_concurrence(x_decompose(projector(chi_state()))[0])
        assert rep.c1 == pytest.approx(CHI_C, abs=1e-14)
        assert rep.bound == pytest.approx(CHI_C, abs=1e-14)

    def test_maximally_mixed(self):
        rep = x_concurrence(x_decompose(maximally_mixed(2, 2))[0])
        assert rep.c1 == pytest.approx(-0.5)
        assert rep.c2 == pytest.approx(-0.5)
        assert rep.bound == 0.0


class TestPureConcurrence:
    def test_bell(self):
        assert pure_concurrence_2q(bell_phi_plus()) == pytest.approx(1.0)

    def test_product_state(self):
        psi = pure_state([1, 0, 0, 0], 2, 2)
        assert pure_concurrence_2q(psi) == 0.0

    def test_chi(self):
        assert pure_concurrence_2q(chi_state()) == pytest.approx(CHI_C, abs=1e-15)

    def test_wrong_dims(self):
        with pytest.raises(WrongDimensions):
            pure_concurrence_2q(sample_haar_pure(3, 3, 0))


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(projector(bell_phi_plus())) == pytest.approx(1.0, abs=1e-12)

    def test_werner(self):
        assert wootters_concurrence(werner_state(0.8)) == pytest.approx(0.7, abs=1e-12)
        assert werner_exact_concurrence(0.8) == pytest.approx(0.7)

    def test_werner_threshold(self):
        assert wootters_concurrence(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(maximally_mixed(2, 2)) == 0.0

    def test_matches_pure_formula_on_projectors(self):
        for seed in range(200):
            psi = sample_haar_pure(2, 2, seed)
            c_pure = pure_concurrence_2q(psi)
            c_mixed = wootters_concurrence(projector(psi))
            assert abs(c_pure - c_mixed) < 1e-10

    def test_local_unitary_invariance(self):
        for seed in range(50):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            uA = sample_haar_unitary(2, 3 * seed)
            uB = sample_haar_unitary(2, 3 * seed + 1)
            rotated = conjugate_by_local_unitary(q, uA, uB)
            assert abs(
                wootters_concurrence(q) - wootters_concurrence(rotated)
            ) < 1e-9

    def test_in_unit_interval(self):
        for seed in range(100):
            c = wootters_concurrence(sample_random_density(2, 2, seed % 4 + 1, seed))
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_stacked_kernel_matches_per_state(self):
        states = [sample_random_density(2, 2, seed % 4 + 1, seed) for seed in range(200)]
        states += [projector(bell_phi_plus()), werner_state(0.8), werner_state(0.2)]
        stacked = _wootters(np.array([q.mat for q in states]))
        per_state = np.array([wootters_concurrence(q) for q in states])
        assert stacked.shape == (len(states),)
        assert np.array_equal(stacked, per_state)


class TestWoottersFactor:
    # 200 Ginibre states of rank 1-4: (idx, G, Tr[G G^dag]) per rank, and the matrices.
    MATS, FACTORS = _trial_densities(2, 2, 2024, 0, [1, 2, 3, 4] * 50)

    def test_factors_of_one_state_agree(self):
        eigen = _wootters(self.MATS)
        for idx, g, tr in self.FACTORS:
            r = g.shape[-1]
            u = np.array([sample_haar_unitary(r, int(i)) for i in idx])
            padded = np.concatenate([g, np.zeros(g.shape[:-1] + (2,))], axis=-1)
            ginibre = _wootters_factor(g, tr)
            assert np.abs(ginibre - eigen[idx]).max() < 1e-14
            assert np.abs(_wootters_factor(g @ u, tr) - ginibre).max() < 1e-14
            assert np.abs(_wootters_factor(padded, tr) - ginibre).max() < 1e-14

    def test_stacked_matches_per_state(self):
        for idx, g, tr in self.FACTORS:
            per_state = [_wootters_factor(g[j], tr[j]) for j in range(idx.size)]
            assert np.array_equal(_wootters_factor(g, tr), per_state)

    def test_pure_states(self):
        for seed in range(200):
            psi = sample_haar_pure(2, 2, seed)
            c = _wootters_factor(psi.amps[:, None], 1.0)
            assert abs(c - pure_concurrence_2q(psi)) < 1e-14

    def test_werner_closed_form(self):
        # p |psi-><psi-| + (1-p) I/4 from the Bell basis, weighted.
        bell = np.array([singlet().amps, [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1]]).T
        bell[:, 1:] /= math.sqrt(2.0)
        for p in np.linspace(0.0, 1.0, 41):
            w = np.array([p + (1.0 - p) / 4.0] + [(1.0 - p) / 4.0] * 3)
            c = _wootters_factor(bell * np.sqrt(w), 1.0)
            assert abs(c - werner_exact_concurrence(p)) < 1e-14

    def test_x_states(self):
        # A Cholesky factor of a positive definite X state.
        rng = np.random.default_rng(2025)
        for _ in range(200):
            x = TestXFormEquality.random_x_core(rng)
            c = _wootters_factor(np.linalg.cholesky(x.as_matrix()), 1.0)
            assert abs(c - x_concurrence(x).bound) < 1e-14


class TestXLowerBound:
    def test_bell_equality(self):
        rep = x_lower_bound(projector(bell_phi_plus()))
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        assert rep.exact == pytest.approx(1.0, abs=1e-12)

    def test_chi_equality_despite_nonzero_o(self):
        rep = x_lower_bound(projector(chi_state()))
        assert rep.bound == pytest.approx(CHI_C, abs=1e-12)
        assert rep.exact == pytest.approx(CHI_C, abs=1e-12)
        assert abs(rep.bound - rep.exact) < 1e-12

    def test_maximally_mixed(self):
        rep = x_lower_bound(maximally_mixed(2, 2))
        assert rep.bound == 0.0
        assert rep.exact == pytest.approx(0.0, abs=1e-12)

    def test_bound_below_exact_on_random_states(self):
        for seed in range(500):
            q = sample_random_density(2, 2, seed % 4 + 1, seed)
            rep = x_lower_bound(q)
            assert rep.bound <= rep.exact + 1e-10

    def test_pure_state_signed_inequality(self):
        for seed in range(500):
            psi = sample_haar_pure(2, 2, seed)
            rep = x_lower_bound(projector(psi))
            assert abs(rep.c1) <= pure_concurrence_2q(psi) + 1e-10

    def test_bound_not_basis_invariant(self):
        # A Hadamard on one side turns the Bell coherence into diagonal weight.
        q = projector(bell_phi_plus())
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        rotated = conjugate_by_local_unitary(q, h, np.eye(2))
        before = x_lower_bound(q).bound
        after = x_lower_bound(rotated).bound
        assert before == pytest.approx(1.0, abs=1e-12)
        assert abs(before - after) > 0.4


class TestXFormEquality:
    @staticmethod
    def random_x_core(rng):
        d = rng.dirichlet(np.ones(4))
        u1, u2 = rng.uniform(0, 1, 2)
        ph1, ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        return XCore(
            d11=d[0], d22=d[1], d33=d[2], d44=d[3],
            q14=u1 * math.sqrt(d[0] * d[3]) * ph1,
            q23=u2 * math.sqrt(d[1] * d[2]) * ph2,
        )

    def test_x_concurrence_equals_wootters(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            x = self.random_x_core(rng)
            q = validate_density(x.as_matrix(), 2, 2)
            assert abs(
                x_concurrence(x).bound - wootters_concurrence(q)
            ) < 1e-10


class TestCertify:
    def test_bell_elements(self):
        rep = certify_from_elements(0.5, 0.0, 0.0)
        assert rep.c1 == pytest.approx(1.0)
        assert rep.entangled

    def test_inconclusive(self):
        rep = certify_from_elements(0.1, 0.25, 0.25)
        assert rep.c1 == pytest.approx(-0.3)
        assert not rep.entangled

    def test_chi_elements(self):
        rep = certify_from_elements(0.25, 1.0 / 3.0, 1.0 / 6.0)
        assert rep.c1 == pytest.approx(CHI_C, abs=1e-12)
        assert rep.entangled

    def test_product_elements_inconclusive(self):
        # |Q14| = ab, Q22 = a^2 and Q33 = b^2 are the elements of a product
        # state: c1 is 0 but for roundoff, which must not certify.
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(0.0, 1.0, (1000, 2)):
            rep = certify_from_elements(a * b, a * a, b * b)
            assert rep.bound == 0.0 and not rep.entangled

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            certify_from_elements(-0.1, 0.2, 0.2)
        with pytest.raises(OutOfRange):
            certify_from_elements(0.1, 1.5, 0.2)

    @pytest.mark.parametrize("q14", [1e308, math.inf, math.nan, 1.0 + 2**-52])
    def test_q14_above_one_rejected(self, q14):
        # No element of a state exceeds 1; a margin of 1e308 would overflow.
        with pytest.raises(OutOfRange):
            certify_from_elements(q14, 0.5, 0.5)
