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
    werner_exact_concurrence,
    werner_state,
)
from xbound.linalg import _eigen_factor, _trial_densities
from xbound.two_qubit import _MINOR_SIGNS, _wootters_factor

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

    def test_matches_svd_of_the_clipped_eigen_factor(self):
        # The factor rule before linalg._eigen_factor: every eigenvalue kept,
        # negatives clipped to 0, and the SVD form at every rank.  A full-rank
        # factor is the same matrix, so the value keeps its bits.  At ranks
        # 1-3 the value moves by at most 1e-14, or else the old value is the
        # one farther from the reference that takes no diagonalization (the
        # kernel on the Ginibre factor, 1 for a Bell state): the clipped
        # roundoff eigenvalues bias it low, by up to 1.1e-14 at rank 2 here.
        def clipped_svd(m):
            evals, vecs = np.linalg.eigh(m)
            return float(svd_wootters_factor(vecs * np.sqrt(np.clip(evals, 0.0, None)), 1.0))
        mats, factors = _trial_densities(2, 2, 30, 0, [1, 2, 3, 4] * 750)
        reference = np.ones(mats.shape[0] + 300)
        for idx, g, tr in factors:
            reference[idx] = _wootters_factor(g, tr)
        bell = projector(bell_phi_plus())
        states = [validate_density(m, 2, 2) for m in mats]
        states += [conjugate_by_local_unitary(bell, sample_haar_unitary(2, 2 * n),
                                              sample_haar_unitary(2, 2 * n + 1))
                   for n in range(300)]
        full_rank = 0
        for q, ref in zip(states, reference.tolist()):
            c, old = wootters_concurrence(q), clipped_svd(q.mat)
            if _eigen_factor(q.mat).shape[1] == 4:
                full_rank += 1
                assert c == old
            else:
                assert abs(c - ref) <= 1e-14
                assert abs(c - old) <= 1e-14 or abs(old - ref) > abs(c - ref)
        assert full_rank == 750


def svd_wootters_factor(a, s):
    """The SVD form of _wootters_factor at every rank: the reference for its closed forms."""
    m = np.swapaxes(a, -1, -2) @ (a[..., ::-1, :] * _MINOR_SIGNS)
    lam = np.linalg.svd(m, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)) / s


class TestWoottersFactor:
    # 200 Ginibre states of rank 1-4: (idx, G, Tr[G G^dag]) per rank, and the matrices.
    MATS, FACTORS = _trial_densities(2, 2, 2024, 0, [1, 2, 3, 4] * 50)
    # The Bell basis as columns: psi-, psi+, phi+, phi-.
    BELL = np.array([[0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1]]).T / math.sqrt(2.0)

    def test_factors_of_one_state_agree(self):
        eigen = np.array([_wootters_factor(_eigen_factor(m), 1.0) for m in self.MATS])
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
        for p in np.linspace(0.0, 1.0, 41):
            w = np.array([p + (1.0 - p) / 4.0] + [(1.0 - p) / 4.0] * 3)
            c = _wootters_factor(self.BELL * np.sqrt(w), 1.0)
            assert abs(c - werner_exact_concurrence(p)) < 1e-14

    def test_rank_two_closed_form(self):
        # Two Bell states of weights (1 + delta)/2 and (1 - delta)/2, mixed by a
        # unitary, have concurrence delta: s1 = s2 at delta = 0, the separable
        # boundary.  Factor columns |00> and |01> give m = 0.
        deltas = [0.0, 1e-16, 1e-12, 1e-8, 1e-4, 0.1, 0.5, 1.0]
        a = [self.BELL[:, 1:3] * np.sqrt([(1.0 + dl) / 2.0, (1.0 - dl) / 2.0])
             @ sample_haar_unitary(2, n) for n, dl in enumerate(deltas)]
        a = np.array(a + [np.eye(4)[:, :2]])
        c = _wootters_factor(a, 1.0)
        assert np.abs(c[:-1] - deltas).max() < 1e-15
        assert c[-1] == 0.0 and _wootters_factor(a[-1], 1.0) == 0.0
        _, g, tr = self.FACTORS[1]
        for f, s in ((a, 1.0), (g, tr)):
            assert f.shape[-1] == 2
            padded = np.concatenate([f, np.zeros(f.shape[:-1] + (2,))], axis=-1)
            assert np.abs(_wootters_factor(f, s) - svd_wootters_factor(padded, s)).max() < 1e-15

    def test_rank_one_closed_form(self):
        _, g, tr = self.FACTORS[0]
        assert g.shape[-1] == 1
        psi = [pure_state(col / math.sqrt(t), 2, 2) for col, t in zip(g[..., 0], tr)]
        expected = [pure_concurrence_2q(p) for p in psi]
        assert np.abs(_wootters_factor(g, tr) - expected).max() < 1e-15

    def test_ranks_three_and_four_keep_the_svd(self):
        for idx, g, tr in self.FACTORS[2:]:
            assert g.shape[-1] in (3, 4)
            assert np.array_equal(_wootters_factor(g, tr), svd_wootters_factor(g, tr))
        # wootters_concurrence is the kernel on the eigen-factor, bit for bit,
        # and so the SVD wherever that factor has rank 3 or 4.
        for m in self.MATS:
            w = _eigen_factor(m)
            c = wootters_concurrence(validate_density(m, 2, 2))
            assert c == _wootters_factor(w, 1.0)
            if w.shape[1] >= 3:
                assert c == svd_wootters_factor(w, 1.0)

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
        # |Q14| = ab, Q22 = a^2 and Q33 = b^2 are the elements of the real
        # product state (cos s, sin s) (x) (cos t, sin t), a = cos s sin t
        # and b = sin s cos t: c1 is 0 but for roundoff, which must not certify.
        rng = np.random.default_rng(7)
        for s, t in rng.uniform(0.0, np.pi / 2, (1000, 2)):
            a, b = np.cos(s) * np.sin(t), np.sin(s) * np.cos(t)
            rep = certify_from_elements(a * b, a * a, b * b)
            assert rep.bound == 0.0 and not rep.entangled

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            certify_from_elements(-0.1, 0.2, 0.2)
        with pytest.raises(OutOfRange):
            certify_from_elements(0.1, 1.5, 0.2)

    @pytest.mark.parametrize("elements", [(1.0, 0.0, 0.0), (0.9, 0.1, 0.1), (0.0, 0.6, 0.6),
                                          (0.25 + 1e-9, 0.25, 0.25)])
    def test_no_such_state(self, elements):
        # Every state has 2|Q14| <= Q11 + Q44 = 1 - Q22 - Q33.
        with pytest.raises(OutOfRange, match="no state has these elements"):
            certify_from_elements(*elements)

    def test_boundary_elements_accepted(self):
        # 2|Q14| + Q22 + Q33 = 1, exactly and within _EXACT_TOL.
        for q14 in (0.25, 0.25 + 1e-11):
            assert certify_from_elements(q14, 0.25, 0.25).c1 == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("element", [True, np.bool_(True), False])
    def test_bool_element_rejected(self, element):
        # A bool passes 0 <= v <= 1 and would read as 1.0, so (True, 0, 0)
        # would certify with bound 2.0 from no measured number.
        for args in ((element, 0.0, 0.0), (0.5, element, 0.0), (0.5, 0.0, element)):
            with pytest.raises(OutOfRange, match="must be a number"):
                certify_from_elements(*args)

    @pytest.mark.parametrize("q14", [1e308, math.inf, math.nan, 1.0 + 2**-52])
    def test_q14_above_one_rejected(self, q14):
        # No element of a state exceeds 1; a margin of 1e308 would overflow.
        with pytest.raises(OutOfRange):
            certify_from_elements(q14, 0.5, 0.5)
