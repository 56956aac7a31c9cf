import math

import numpy as np
import pytest

from xbound import (
    OutOfRange,
    generalized_lower_bound,
    projector,
    validate_density,
    wootters_concurrence,
    x_lower_bound,
)
from xbound.reference_states import (
    IsotropicState,
    bell_phi_plus,
    chi_state,
    isotropic_bound_closed_form,
    isotropic_exact_concurrence,
    isotropic_matrix,
    maximally_entangled,
    werner_exact_concurrence,
    werner_state,
)


class TestIsotropicMatrix:
    def test_d2_f1_is_bell(self):
        q = isotropic_matrix(IsotropicState(d=2, F=1.0))
        assert np.allclose(q.mat, projector(bell_phi_plus()).mat, atol=1e-14)

    def test_f_equals_one_over_d_squared_is_maximally_mixed(self):
        q = isotropic_matrix(IsotropicState(d=3, F=1.0 / 9.0))
        assert np.allclose(q.mat, np.eye(9) / 9.0, atol=1e-14)

    def test_valid_state_with_requested_fidelity(self):
        s = IsotropicState(d=3, F=0.5)
        q = isotropic_matrix(s)
        validate_density(q.mat, 3, 3)
        psi = maximally_entangled(3).amps
        fidelity = (psi.conj() @ q.mat @ psi).real
        assert fidelity == pytest.approx(0.5, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(OutOfRange):
            IsotropicState(d=1, F=0.5)
        with pytest.raises(OutOfRange):
            IsotropicState(d=3, F=1.5)
        with pytest.raises(OutOfRange, match="d must be an integer"):
            IsotropicState(d=2.5, F=0.5)


class TestIsotropicClosedForms:
    def test_exact_d3_f1(self):
        s = IsotropicState(d=3, F=1.0)
        assert isotropic_exact_concurrence(s) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_exact_zero_below_threshold(self):
        for f in (0.0, 0.1, 1.0 / 3.0):
            assert isotropic_exact_concurrence(IsotropicState(d=3, F=f)) == 0.0

    def test_exact_d2_f1_matches_bell(self):
        s = IsotropicState(d=2, F=1.0)
        assert isotropic_exact_concurrence(s) == pytest.approx(1.0)
        assert wootters_concurrence(isotropic_matrix(s)) == pytest.approx(1.0, abs=1e-12)

    def test_bound_d3(self):
        assert isotropic_bound_closed_form(IsotropicState(d=3, F=1.0)) == pytest.approx(2.0 / 3.0)
        assert isotropic_bound_closed_form(IsotropicState(d=3, F=1.0 / 3.0)) == 0.0

    def test_bound_tight_at_d2(self):
        assert isotropic_bound_closed_form(IsotropicState(d=2, F=1.0)) == pytest.approx(1.0)

    def test_sweep_shape_d3(self):
        prev_exact = prev_bound = -1.0
        for n in range(101):
            f = n / 100.0
            s = IsotropicState(d=3, F=f)
            exact = isotropic_exact_concurrence(s)
            bound = isotropic_bound_closed_form(s)
            assert bound <= exact + 1e-15
            if f <= 1.0 / 3.0:
                assert exact == 0.0 and bound == 0.0
            if f > 1.0 / 3.0 + 1e-9:
                assert exact > prev_exact and bound > prev_bound
            prev_exact, prev_bound = exact, bound

    def test_matrix_bound_matches_closed_form(self):
        for d in (2, 3, 4):
            for n in range(21):
                f = n / 20.0
                s = IsotropicState(d=d, F=f)
                got = generalized_lower_bound(isotropic_matrix(s)).bound
                assert abs(got - isotropic_bound_closed_form(s)) < 1e-10

    def test_d2_exact_matches_wootters_on_grid(self):
        for n in range(21):
            s = IsotropicState(d=2, F=n / 20.0)
            got = wootters_concurrence(isotropic_matrix(s))
            assert abs(got - isotropic_exact_concurrence(s)) < 1e-10


class TestChiState:
    def test_normalized(self):
        psi = chi_state()
        assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-15

    def test_amplitude_squares(self):
        p = np.abs(chi_state().amps) ** 2
        assert np.allclose(p, [0.25, 1.0 / 3.0, 1.0 / 6.0, 0.25], atol=1e-15)

    def test_equality_without_x_form(self):
        rep = x_lower_bound(projector(chi_state()))
        assert abs(rep.bound - rep.exact) < 1e-12
        assert rep.bound == pytest.approx(0.5 - math.sqrt(2.0) / 3.0, abs=1e-12)


class TestWerner:
    def test_pure_singlet(self):
        assert wootters_concurrence(werner_state(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_threshold(self):
        assert wootters_concurrence(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)
        assert werner_exact_concurrence(1.0 / 3.0) == 0.0

    def test_bound_equals_exact_across_family(self):
        # Werner states are X-form, so the bound is tight everywhere.
        for n in range(21):
            p = n / 20.0
            rep = x_lower_bound(werner_state(p))
            expected = werner_exact_concurrence(p)
            assert abs(rep.bound - expected) < 1e-10
            assert abs(rep.exact - expected) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            werner_state(1.2)
