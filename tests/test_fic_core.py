"""Unit contracts for the saturating spring and the phase-switching attractor."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fractal_impedance import (
    AttractorState,
    Phase,
    StiffnessParams,
    beta_squared,
    classify_phase,
    convergence_force,
    fic_wrench,
    fic_work,
    spring_energy,
    spring_force,
    stiffness,
    update_attractor,
)

# Values frozen from independent evaluation of the closed forms.
BETA_SQ_150_30_005 = 2443.699033105746
BETA_SQ_0_30_005 = 2558.771862086458
KD_AT_0025 = 154.6057793515969
FORCE_AT_0025 = 3.8651444837899227
ENERGY_0_30_005_AT_005 = 0.11704834043148468
ENERGY_0_30_005_AT_010 = 1.6170483404314846
ENERGY_150_30_005_AT_005 = 0.2793689236925705
K_PRIME_AT_005 = 187.27734469037546
CONV_FORCE_AT_EXCURSION = 4.681933617259387


def params(k_const=0.0, w_max=30.0, x_b=0.05):
    return StiffnessParams(k_const=k_const, w_max=w_max, x_b=x_b)


class TestBetaSquared:
    def test_frozen_values(self):
        assert beta_squared(150.0, 30.0, 0.05) == pytest.approx(BETA_SQ_150_30_005, rel=1e-14)
        assert beta_squared(0.0, 30.0, 0.05) == pytest.approx(BETA_SQ_0_30_005, rel=1e-14)

    def test_params_carry_derived_exponent(self):
        assert params(150.0).beta_sq == pytest.approx(BETA_SQ_150_30_005, rel=1e-14)

    def test_domain_requires_saturation_headroom(self):
        # w_max / x_b - k_const must exceed 1 for a real exponent
        with pytest.raises(ValueError):
            beta_squared(600.0, 30.0, 0.05)
        with pytest.raises(ValueError):
            StiffnessParams(k_const=600.0, w_max=30.0, x_b=0.05)

    def test_positive_geometry_required(self):
        with pytest.raises(ValueError):
            StiffnessParams(k_const=0.0, w_max=-1.0, x_b=0.05)
        with pytest.raises(ValueError):
            StiffnessParams(k_const=0.0, w_max=30.0, x_b=0.0)


class TestStiffness:
    def test_rest_value_is_k_const_plus_one(self):
        assert stiffness(params(150.0), 0.0) == pytest.approx(151.0, rel=1e-15)
        assert stiffness(params(0.0), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_interior_value(self):
        assert stiffness(params(150.0), 0.025) == pytest.approx(KD_AT_0025, rel=1e-12)

    def test_saturated_branch_is_w_over_displacement(self):
        p = params()
        assert stiffness(p, 0.06) == pytest.approx(30.0 / 0.06, rel=1e-15)
        assert stiffness(p, -0.2) == pytest.approx(30.0 / 0.2, rel=1e-15)

    def test_even_in_displacement(self):
        p = params(150.0)
        for x in (0.01, 0.03, 0.049, 0.07):
            assert stiffness(p, x) == stiffness(p, -x)

    def test_array_input(self):
        # the spring law takes one float; an array is an error, not a second path
        with pytest.raises(ValueError):
            stiffness(params(150.0), np.array([0.0, 0.025, 0.06]))


class TestSpringForce:
    def test_frozen_interior_value(self):
        assert spring_force(params(150.0), 0.025) == pytest.approx(FORCE_AT_0025, rel=1e-12)

    def test_saturates_at_w_max(self):
        p = params()
        assert spring_force(p, 0.06) == pytest.approx(30.0, rel=1e-15)
        assert spring_force(p, 5.0) == pytest.approx(30.0, rel=1e-15)
        assert spring_force(p, -0.07) == pytest.approx(-30.0, rel=1e-15)

    def test_zero_at_origin_and_odd(self):
        p = params(150.0)
        assert spring_force(p, 0.0) == 0.0
        for x in (0.01, 0.04, 0.2):
            assert spring_force(p, -x) == pytest.approx(-spring_force(p, x), rel=1e-15)

    def test_continuous_at_the_boundary_seam(self):
        p = params(150.0)
        eps = 1e-12
        left = spring_force(p, p.x_b - eps)
        right = spring_force(p, p.x_b + eps)
        assert left == pytest.approx(right, abs=1e-8)
        # by construction the force equals w_max exactly at the seam
        assert spring_force(p, p.x_b) == pytest.approx(p.w_max, rel=1e-12)

    def test_never_exceeds_w_max(self):
        p = params(150.0)
        x = np.linspace(-0.3, 0.3, 4001)
        assert max(abs(spring_force(p, float(xi))) for xi in x) <= p.w_max * (1 + 1e-12)
        # one float inside this profile's boundary the exponential branch
        # rounds to w_max (1 + 8.9e-16); the cap returns w_max exactly
        p = StiffnessParams(208.49022206352373, 30.776549276585534, 0.007477398695087089)
        x_in = math.nextafter(p.x_b, 0.0)
        assert stiffness(p, x_in) * x_in > p.w_max
        assert spring_force(p, x_in) == p.w_max and spring_force(p, -x_in) == -p.w_max


class TestSpringEnergy:
    def test_frozen_values(self):
        assert spring_energy(params(), 0.05) == pytest.approx(ENERGY_0_30_005_AT_005, rel=1e-12)
        assert spring_energy(params(), 0.10) == pytest.approx(ENERGY_0_30_005_AT_010, rel=1e-12)
        assert spring_energy(params(150.0), 0.05) == pytest.approx(
            ENERGY_150_30_005_AT_005, rel=1e-12
        )

    def test_zero_at_origin_and_even(self):
        p = params(150.0)
        assert spring_energy(p, 0.0) == 0.0
        for x in (0.02, 0.05, 0.12):
            assert spring_energy(p, -x) == pytest.approx(spring_energy(p, x), rel=1e-15)

    def test_matches_quadrature_both_branches(self):
        # dual route: integrate the force law numerically across the seam
        for p in (params(), params(150.0), params(40.0, 25.0, 0.08)):
            for x_end in (0.3 * p.x_b, 0.9 * p.x_b, p.x_b, 1.7 * p.x_b):
                val, _ = quad(
                    lambda x: spring_force(p, x), 0.0, x_end, points=[p.x_b], limit=200
                )
                assert spring_energy(p, x_end) == pytest.approx(val, rel=1e-9)

    def test_array_input(self):
        # the spring law takes one float; an array is an error, not a second path
        with pytest.raises(ValueError):
            spring_energy(params(), np.array([0.0, 0.05, 0.10]))


class TestClassifyPhase:
    def test_growing_error_is_divergence(self):
        assert classify_phase(0.05, 0.2) is Phase.DIVERGENCE
        assert classify_phase(-0.05, -0.2) is Phase.DIVERGENCE

    def test_shrinking_error_is_convergence(self):
        assert classify_phase(0.05, -0.2) is Phase.CONVERGENCE
        assert classify_phase(-0.05, 0.2) is Phase.CONVERGENCE

    def test_stationary_error_counts_as_divergence(self):
        assert classify_phase(0.05, 0.0) is Phase.DIVERGENCE
        assert classify_phase(0.05, -1e-7, rate_tol=1e-6) is Phase.DIVERGENCE
        assert classify_phase(0.05, -1e-7, rate_tol=1e-8) is Phase.CONVERGENCE

    def test_phase_values_back_the_csv_encoding(self):
        assert Phase.DIVERGENCE.value == 1
        assert Phase.CONVERGENCE.value == 0


class TestUpdateAttractor:
    def test_fresh_state_diverges(self):
        s = AttractorState()
        assert s.phase is Phase.DIVERGENCE
        assert s.x_tilde_max == 0.0

    def test_switch_snapshots_excursion_energy_and_stiffness(self):
        p = params()
        s = update_attractor(AttractorState(), p, 0.05, 0.0)
        assert s.phase is Phase.DIVERGENCE
        s = update_attractor(s, p, 0.05, -0.1)
        assert s.phase is Phase.CONVERGENCE
        assert s.x_tilde_max == pytest.approx(0.05, rel=1e-15)
        assert s.e_in == pytest.approx(ENERGY_0_30_005_AT_005, rel=1e-12)
        assert s.k_prime_total == pytest.approx(K_PRIME_AT_005, rel=1e-12)
        assert s.x_tilde_mid == pytest.approx(0.025, rel=1e-15)

    def test_reentering_divergence_clears_anchor_role(self):
        p = params()
        s = update_attractor(AttractorState(), p, 0.05, -0.1)
        s = update_attractor(s, p, 0.02, 0.3)  # error growing again
        assert s.phase is Phase.DIVERGENCE

    def test_zero_displacement_guard_keeps_divergence(self):
        # a switch at numerically zero error would produce k' = 0/0
        p = params()
        s = update_attractor(AttractorState(), p, 1e-12, -0.1)
        assert s.phase is Phase.DIVERGENCE

    def test_new_anchor_on_each_switch(self):
        p = params()
        s = update_attractor(AttractorState(), p, 0.05, -0.1)
        first = s.k_prime_total
        s = update_attractor(s, p, 0.02, 0.3)
        s = update_attractor(s, p, 0.03, -0.1)
        assert s.x_tilde_max == pytest.approx(0.03, rel=1e-15)
        assert s.k_prime_total != first


class TestConvergenceForce:
    def anchored(self, x_max=0.05):
        p = params()
        s = update_attractor(AttractorState(), p, x_max, -0.1)
        return p, s

    def test_zero_at_midpoint(self):
        _, s = self.anchored()
        assert convergence_force(s, s.x_tilde_mid) == 0.0

    def test_frozen_endpoint_values(self):
        _, s = self.anchored()
        assert convergence_force(s, 0.05) == pytest.approx(CONV_FORCE_AT_EXCURSION, rel=1e-12)
        assert convergence_force(s, 0.0) == pytest.approx(-CONV_FORCE_AT_EXCURSION, rel=1e-12)

    def test_domain_is_the_recorded_excursion(self):
        _, s = self.anchored()
        with pytest.raises(ValueError):
            convergence_force(s, 0.06)
        with pytest.raises(ValueError):
            convergence_force(s, -0.01)

    def test_requires_convergence_phase(self):
        with pytest.raises(ValueError):
            convergence_force(AttractorState(), 0.01)


class TestFicWrench:
    def test_divergence_path_is_the_spring(self):
        p = params(150.0)
        s = AttractorState()
        assert fic_wrench(s, p, 0.025) == pytest.approx(FORCE_AT_0025, rel=1e-12)
        assert fic_wrench(s, p, 0.2) == pytest.approx(30.0, rel=1e-15)

    def test_convergence_clamps_to_recorded_excursion(self):
        # held samples can land slightly outside the excursion; the command
        # saturates instead of raising
        p = params()
        s = update_attractor(AttractorState(), p, 0.05, -0.1)
        inside = fic_wrench(s, p, 0.05)
        assert fic_wrench(s, p, 0.06) == pytest.approx(inside, rel=1e-15)
        assert fic_wrench(s, p, -0.01) == pytest.approx(-inside, rel=1e-15)

    def test_bounded_by_w_max_in_both_phases(self):
        p = params()
        s_div = AttractorState()
        s_conv = update_attractor(AttractorState(), p, 0.3, -0.1)
        for x in np.linspace(-0.5, 0.5, 501):
            assert abs(fic_wrench(s_div, p, float(x))) <= p.w_max * (1 + 1e-12)
            assert abs(fic_wrench(s_conv, p, float(x))) <= p.w_max * (1 + 1e-12)

    def test_antisymmetric_about_midpoint(self):
        p = params()
        s = update_attractor(AttractorState(), p, 0.05, -0.1)
        mid = s.x_tilde_mid
        for dx in (0.005, 0.015, 0.025):
            assert fic_wrench(s, p, mid + dx) == pytest.approx(
                -fic_wrench(s, p, mid - dx), rel=1e-12
            )


# Properties over random feasible profiles: x_b and w_max span many decades,
# k_const anywhere below the feasibility limit w_max / x_b - 1, and the
# displacement is a multiple of x_b that includes the boundary and the last
# floats inside it, where rounding can carry the exponential branch past w_max.


@st.composite
def feasible_params(draw):
    x_b = 10.0 ** draw(st.floats(-200.0, 1.0))
    w_max = 10.0 ** draw(st.floats(-3.0, 6.0))
    k_const = draw(st.floats(0.0, 1.0, exclude_max=True)) * (w_max / x_b - 1.0)
    try:
        return StiffnessParams(k_const, w_max, x_b)
    except ValueError:
        assume(False)


_SEAM = (1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-15, 1.0 - 1e-12)
scales = st.floats(-4.0, 4.0) | st.sampled_from(_SEAM + tuple(-s for s in _SEAM))


@settings(max_examples=500, deadline=None)
@given(p=feasible_params(), scale=scales)
def test_spring_force_is_odd_and_capped(p, scale):
    x = scale * p.x_b
    f = spring_force(p, x)
    assert spring_force(p, -x) == -f
    assert abs(f) <= p.w_max


@settings(max_examples=500, deadline=None)
@given(p=feasible_params(), a=scales, b=scales)
def test_spring_energy_is_even_and_monotone(p, a, b):
    lo, hi = sorted((a * p.x_b, b * p.x_b), key=abs)
    assert spring_energy(p, -lo) == spring_energy(p, lo)
    assert spring_energy(p, lo) <= spring_energy(p, hi)


@settings(max_examples=500, deadline=None)
@given(p=feasible_params(), a=scales, b=scales)
def test_fic_work_is_antisymmetric(p, a, b):
    x_a, x_b = a * p.x_b, b * p.x_b
    assert fic_work(p, x_a, x_b) == -fic_work(p, x_b, x_a)


@settings(max_examples=500, deadline=None)
@given(k_const=st.floats(), w_max=st.floats(), x_b=st.floats())
def test_beta_squared_is_finite_positive_or_rejected(k_const, w_max, x_b):
    try:
        beta_sq = beta_squared(k_const, w_max, x_b)
    except ValueError:
        return
    assert 0.0 < beta_sq < math.inf
