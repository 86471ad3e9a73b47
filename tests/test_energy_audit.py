"""Energy bookkeeping: absorbed/released energy, discrete work, Lyapunov monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_impedance import (
    AttractorState,
    EnergyLedger,
    LyapunovTracker,
    Phase,
    StiffnessParams,
    fic_work,
    ic_work_discrete,
    spring_energy,
    spring_force,
    update_attractor,
)
from fractal_impedance.energy_audit import _phase_form
from fractal_impedance.fic_core import ZERO_DISPLACEMENT_TOL
from monitor_reference import DESCENT_TOL, lyapunov_monitor
from test_fic_core import feasible_params

P = StiffnessParams(k_const=0.0, w_max=30.0, x_b=0.05)
E_AT_005 = 0.11704834043148468
E_AT_010 = 1.6170483404314846

# analytic ZOH-work target for x(t) = t^3 + t^2 + t on [0, 1] with unit gains:
# inertia term 0.5 (xdot(1)^2 - xdot(0)^2) = 17.5, damping term int xdot^2 = 167/15
W_CUBIC = 17.5 + 167.0 / 15.0


def conv_state(x_max=0.05):
    """Attractor that has just switched to convergence at error x_max."""
    s = update_attractor(AttractorState(), P, x_max, 0.1)
    assert s.phase is Phase.DIVERGENCE
    s = update_attractor(s, P, x_max, -0.1)
    assert s.phase is Phase.CONVERGENCE
    return s


class TestPassivityMargin:
    def test_margin_is_release_minus_absorption(self):
        ledger = EnergyLedger(e_in=0.4, e_rel=0.25)
        assert ledger.margin == pytest.approx(-0.15, rel=1e-12)

    def test_empty_ledger(self):
        assert EnergyLedger().margin == 0.0


class TestFicWork:
    def test_zero_displacement(self):
        assert fic_work(P, 0.03, 0.03) == 0.0

    def test_closed_loop_cancels_exactly(self):
        assert abs(fic_work(P, 0.0, 0.05) + fic_work(P, 0.05, 0.0)) <= 1e-12

    def test_frozen_value(self):
        assert fic_work(P, 0.0, 0.05) == pytest.approx(E_AT_005, rel=1e-12)

    def test_closed_form_endpoints(self):
        # the endpoints' closed form matches a trapezoid integral of the force;
        # the O(h^2) quadrature error is ~4e-8 relative on this grid
        xs = np.linspace(0.0, 0.05, 20001)
        f = np.array([spring_force(P, x) for x in xs])
        quad = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(xs)))
        assert fic_work(P, 0.0, 0.05) == pytest.approx(quad, rel=1e-6)

    def test_sampling_independent(self):
        # the step works of a densely sampled path add up to its endpoints'
        path = np.linspace(0.0, 0.05, 1000).tolist()
        fine = sum(fic_work(P, a, b) for a, b in zip(path, path[1:]))
        assert fine == pytest.approx(fic_work(P, 0.0, 0.05), rel=1e-12)

    def test_offset_start(self):
        got = fic_work(P, 0.02, 0.05)
        want = spring_energy(P, 0.05) - spring_energy(P, 0.02)
        assert got == pytest.approx(want, rel=1e-12)

    def test_spans_the_boundary(self):
        got = fic_work(P, 0.02, 0.10)
        want = E_AT_010 - spring_energy(P, 0.02)
        assert got == pytest.approx(want, rel=1e-12)


class TestIcWorkDiscrete:
    @staticmethod
    def sampled(rate):
        t = np.arange(0.0, 1.0 + 0.5 / rate, 1.0 / rate)
        x = t**3 + t**2 + t
        xdot = 3 * t**2 + 2 * t + 1
        xddot = 6 * t + 2
        return x, xdot, xddot

    def test_converges_to_analytic_work(self):
        x, xdot, xddot = self.sampled(10000)
        got = ic_work_discrete(x, xdot, xddot)
        assert got == pytest.approx(W_CUBIC, rel=5e-3)

    def test_drift_shrinks_with_rate(self):
        errs = []
        for rate in (20, 100, 1000):
            x, xdot, xddot = self.sampled(rate)
            errs.append(abs(ic_work_discrete(x, xdot, xddot) - W_CUBIC))
        assert errs[0] > errs[1] > errs[2]

    def test_constant_path_no_work(self):
        x = np.full(50, 0.3)
        assert ic_work_discrete(x, np.zeros(50), np.zeros(50)) == 0.0

    def test_short_path(self):
        assert ic_work_discrete(np.array([0.1]), np.array([1.0]), np.array([2.0])) == 0.0


def lyapunov_value(
    params: StiffnessParams,
    state: AttractorState,
    lam: float,
    x_err: float,
    xdot: float,
) -> float:
    """Piecewise Lyapunov candidate for one DoF (no episode offset).

    Kinetic energy 0.5 lam xdot^2 plus the phase potential. V(0, 0) = 0 in
    Divergence, and the two phase forms agree at the divergence-to-convergence
    switch point by construction.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    xdot = float(xdot)
    return 0.5 * lam * xdot * xdot + _phase_form(params, state, float(x_err))


class TestLyapunovValue:
    def test_origin_rest_divergence(self):
        assert lyapunov_value(P, AttractorState(), 1.0, 0.0, 0.0) == 0.0

    def test_divergence_is_ke_plus_potential(self):
        got = lyapunov_value(P, AttractorState(), 1.0, 0.05, 0.0)
        assert got == pytest.approx(E_AT_005, rel=1e-12)
        got = lyapunov_value(P, AttractorState(), 2.0, 0.05, 0.5)
        assert got == pytest.approx(E_AT_005 + 0.25, rel=1e-12)

    def test_phase_forms_agree_at_switch_point(self):
        s = conv_state(0.05)
        div = lyapunov_value(P, AttractorState(), 1.0, 0.05, 0.0)
        conv = lyapunov_value(P, s, 1.0, 0.05, 0.0)
        assert conv == pytest.approx(div, rel=1e-12)

    def test_convergence_minimum_above_zero(self):
        # at the midpoint the convergence form bottoms out at e_in / 2
        s = conv_state(0.05)
        got = lyapunov_value(P, s, 1.0, 0.5 * s.x_tilde_max, 0.0)
        assert got == pytest.approx(0.5 * s.e_in, rel=1e-12)

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError):
            lyapunov_value(P, AttractorState(), 0.0, 0.01, 0.0)


excursions = st.floats(ZERO_DISPLACEMENT_TOL, 10.0) | st.floats(-10.0, -ZERO_DISPLACEMENT_TOL)


@settings(max_examples=500, deadline=None)
@given(p=feasible_params(), x_max=excursions)
def test_convergence_potential_releases_the_snapshot_energy(p, x_max):
    # the midpoint potential of a switch at x_max starts at the stored e_in,
    # which equals the Divergence potential there, bottoms out at e_in / 2
    # halfway and is back to e_in at rest; the floor covers a subnormal e_in
    state = update_attractor(AttractorState(), p, x_max, -x_max)
    assert state.phase is Phase.CONVERGENCE
    e_in, divergence = state.e_in, _phase_form(p, AttractorState(), x_max)
    close = {"rel": 1e-12, "abs": 1e-300}
    assert _phase_form(p, state, x_max) == pytest.approx(e_in, **close)
    assert _phase_form(p, state, x_max) == pytest.approx(divergence, **close)
    assert _phase_form(p, state, 0.5 * x_max) == pytest.approx(0.5 * e_in, **close)
    assert _phase_form(p, state, 0.0) == pytest.approx(e_in, **close)


class TestLyapunovTracker:
    def test_continuous_across_switch(self):
        tracker = LyapunovTracker(params=P)
        s = AttractorState()
        s = update_attractor(s, P, 0.05, 0.1)
        v0, ev = tracker.update(s, 0.05, t=0.0)
        assert ev is None
        s = update_attractor(s, P, 0.05, -0.1)
        v1, ev = tracker.update(s, 0.05, t=0.001)
        assert ev is not None and ev.kind == "div_to_conv"
        assert abs(ev.v_after - ev.v_before) <= 1e-9
        assert v1 == pytest.approx(v0, rel=1e-9)

    def test_round_trip_switch_events(self):
        tracker = LyapunovTracker(params=P)
        s = AttractorState()
        samples = [(0.05, 0.1), (0.05, -0.1), (0.02, -0.1), (0.02, 0.1)]
        kinds = []
        for x, rate in samples:
            s = update_attractor(s, P, x, rate)
            _, ev = tracker.update(s, x)
            if ev is not None:
                kinds.append(ev.kind)
        assert kinds == ["div_to_conv", "conv_to_div"]

    def test_change_params_keeps_value(self):
        tracker = LyapunovTracker(params=P)
        s = AttractorState()
        v0, _ = tracker.update(s, 0.03)
        tracker.change_params(StiffnessParams(0.0, 30.0, 0.02), s, 0.03)
        v1, _ = tracker.update(s, 0.03)
        assert v1 == pytest.approx(v0, rel=1e-12)


class TestLyapunovMonitor:
    def test_flags_a_rise(self):
        t = np.arange(4.0)
        v = np.array([1.0, 0.9, 0.95, 0.8])
        report = lyapunov_monitor(t, v)
        assert not report.passed
        assert list(report.flagged_steps) == [1]
        assert report.max_increase == pytest.approx(0.05, rel=1e-12)

    def test_forced_steps_exempt(self):
        t = np.arange(4.0)
        v = np.array([1.0, 0.9, 0.95, 0.8])
        forced = np.array([False, True, False, False])
        report = lyapunov_monitor(t, v, forced=forced)
        assert report.passed
        assert report.max_increase <= 0.0

    def test_monotone_descent_passes(self):
        t = np.linspace(0, 1, 100)
        v = np.exp(-3 * t)
        report = lyapunov_monitor(t, v)
        assert report.passed and report.flagged_steps.size == 0

    def test_tolerance_respected(self):
        t = np.arange(3.0)
        v = np.array([1.0, 1.0 + 5e-7, 0.9])
        assert lyapunov_monitor(t, v).passed
        assert not lyapunov_monitor(t, np.array([1.0, 1.0 + 2.0 * DESCENT_TOL, 0.9])).passed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lyapunov_monitor(np.arange(3.0), np.zeros(4))

    def test_short_series(self):
        report = lyapunov_monitor(np.zeros(1), np.zeros(1))
        assert report.passed
