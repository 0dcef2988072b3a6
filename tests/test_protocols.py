import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from ottosta.dynamics import Drive, propagate, q_cd_grid, thermal_state
from ottosta.errors import TrapInversionError
from ottosta.protocols import (
    FrequencyProtocol,
    ProtocolKind,
    check_cd_validity,
    check_sta_boundary,
    tau_min,
    validity_margin,
)
from ottosta.quadrature import stroke_grid
from ottosta.sta_cost import StrokeContext, avg_work_cost
from ottosta.thermo_cycle import Accounting, CycleConfig, evaluate_cycle

RAMP_KINDS = [k for k in ProtocolKind if k is not ProtocolKind.CONSTANT]


def make(kind, tau=3.0, wi=0.35, wf=1.0):
    return FrequencyProtocol(kind, wi, wf, tau)


class TestEndpointsAndValues:
    @pytest.mark.parametrize("kind", RAMP_KINDS)
    def test_endpoints_hit_target_frequencies(self, kind):
        p = make(kind)
        assert p.omega(0.0) == pytest.approx(0.35, abs=1e-14)
        assert p.omega(3.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.0, 0.41, 1.5, 2.77, 3.0])
    def test_matches_independent_ramp_formula(self, kind, t):
        p = make(kind)
        want = oracles.ramp_omega(kind.value, 0.35, 1.0, 3.0, t)
        assert p.omega(t) == pytest.approx(want, rel=1e-14)

    def test_poly5_midpoint_is_frequency_midpoint(self):
        p = make(ProtocolKind.POLY5)
        assert p.omega(1.5) == pytest.approx(0.675, abs=1e-15)

    def test_cosine_midpoint_value(self):
        # sqrt((a^2+1)/2) * omega_i with a = 1/0.35
        p = make(ProtocolKind.COSINE)
        want = 0.35 * math.sqrt(((1.0 / 0.35) ** 2 + 1.0) / 2.0)
        assert p.omega(1.5) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.74916620318858485, abs=1e-15)

    def test_eval_many_matches_scalar(self):
        p = make(ProtocolKind.COSINE)
        ts = np.linspace(0.0, 3.0, 17)
        w, wd, wdd = p.eval_many(ts)
        for i, t in enumerate(ts):
            sw, swd, swdd = p.eval(t)
            assert w[i] == sw
            assert wd[i] == swd
            assert wdd[i] == swdd

    def test_constant_protocol(self):
        p = FrequencyProtocol.constant(0.7, 2.0)
        assert p.omega(1.3) == 0.7
        assert p.eval(1.3)[1] == 0.0
        assert p.eval(1.3)[2] == 0.0

    def test_domain_is_enforced(self):
        p = make(ProtocolKind.POLY5)
        with pytest.raises(ValueError):
            p.omega(-0.1)
        with pytest.raises(ValueError):
            p.omega(3.1)

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, -0.35, 1.0, 3.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 0.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.CONSTANT, 0.35, 1.0, 3.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, 0.35, math.inf, 3.0)


class TestCheckpoints:
    """One checkpoint rule, FrequencyProtocol.checkpoints, for every path."""

    @pytest.mark.parametrize(
        "ts",
        [[[0.5, 1.0]], [], [2.0, 1.0], [-0.5, 1.0], [1.0, 3.5]],
        ids=["2-d", "empty", "descending", "negative", "beyond-tau"],
    )
    def test_every_path_refuses_bad_checkpoints_alike(self, ts):
        from ottosta import fock_oracle
        from ottosta.dynamics import classical_pair_path, propagate_path

        p = make(ProtocolKind.POLY5)
        ops = fock_oracle.build_operators(fock_oracle.stroke_reference(p), 16)
        state = fock_oracle.thermal_fock_in(ops, 2.0, 0.35)
        paths = [
            lambda: p.checkpoints(ts),
            lambda: propagate_path(thermal_state(2.0, 0.35), p, ts),
            lambda: classical_pair_path(p, ts),
            lambda: fock_oracle.propagate_fock_path(ops, state, p, ts),
        ]
        messages = set()
        for path in paths:
            with pytest.raises(ValueError) as err:
                path()
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_good_checkpoints_pass_as_floats(self):
        ts = make(ProtocolKind.POLY5).checkpoints([0, 1.5, 3.0 * (1.0 + 1e-13)])
        assert ts.dtype == np.float64 and ts.shape == (3,)


class TestDerivatives:
    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.3, 1.5, 2.9])
    def test_first_derivative_matches_finite_difference(self, kind, t):
        p = make(kind)
        h = 1e-6
        fd = (p.omega(t + h) - p.omega(t - h)) / (2 * h)
        assert p.eval(t)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.3, 1.5, 2.9])
    def test_second_derivative_matches_finite_difference(self, kind, t):
        p = make(kind)
        h = 1e-4
        fd = (p.omega(t + h) - 2 * p.omega(t) + p.omega(t - h)) / (h * h)
        assert p.eval(t)[2] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @given(
        st.sampled_from(RAMP_KINDS),
        st.floats(0.05, 0.95),
        st.floats(0.2, 0.9),
        st.floats(1.0, 3.0),
        st.floats(0.5, 8.0),
    )
    def test_derivative_consistency_random(self, kind, s, wi, wf, tau):
        p = FrequencyProtocol(kind, wi, wf, tau)
        t = s * tau
        h = 1e-6 * tau
        fd = (p.omega(t + h) - p.omega(t - h)) / (2 * h)
        assert p.eval(t)[1] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestBoundaryConditions:
    def test_poly5_satisfies_value_slope_curvature(self):
        rep = check_sta_boundary(make(ProtocolKind.POLY5))
        assert rep.all_ok
        assert rep.shortcut_ok

    def test_poly3_slope_only(self):
        rep = check_sta_boundary(make(ProtocolKind.POLY3))
        # slope vanishes at both ends, curvature does not
        assert rep.slope_start and rep.slope_end
        assert not (rep.curvature_start and rep.curvature_end)
        assert rep.shortcut_ok

    def test_cosine_slope_only(self):
        rep = check_sta_boundary(make(ProtocolKind.COSINE))
        assert rep.slope_start and rep.slope_end
        assert not (rep.curvature_start and rep.curvature_end)
        assert rep.shortcut_ok

    def test_linear_fails_slope(self):
        rep = check_sta_boundary(make(ProtocolKind.LINEAR))
        assert not rep.slope_start
        assert not rep.shortcut_ok
        assert not rep.all_ok

    def test_shortcut_kinds_listing(self):
        assert set(ProtocolKind.shortcut_kinds()) == {
            ProtocolKind.POLY5,
            ProtocolKind.POLY3,
            ProtocolKind.COSINE,
        }


class TestValidity:
    def test_reference_protocol_margin(self):
        # poly5 compression 0.35 -> 1.0 over tau = 3: minimum of
        # 1 - wdot^2/(4 w^4), checked against a dense independent scan.
        p = make(ProtocolKind.POLY5)
        rep = check_cd_validity(p)
        assert rep.valid
        assert rep.min_margin == pytest.approx(0.52488856847411, abs=1e-12)

        ts = np.linspace(0.0, 3.0, 200001)
        margins = []
        for t in ts:
            w = oracles.ramp_omega("poly5", 0.35, 1.0, 3.0, t)
            wd = oracles.ramp_omega_dot("poly5", 0.35, 1.0, 3.0, t)
            margins.append(1.0 - wd * wd / (4.0 * w**4))
        assert rep.min_margin == pytest.approx(min(margins), abs=1e-9)

    def test_margin_midpoint_value(self):
        p = make(ProtocolKind.POLY5)
        m = validity_margin(p, np.array([1.5]))[0]
        # closed form at s = 1/2: omega = 0.675, omega_dot = 0.65 * 1.875 / 3
        wd = 0.65 * 1.875 / 3.0
        want = 1.0 - wd * wd / (4.0 * 0.675**4)
        assert m == pytest.approx(want, abs=1e-15)

    def test_fast_ramp_inverts_trap(self):
        p = make(ProtocolKind.POLY5, tau=1.5)
        rep = check_cd_validity(p)
        assert not rep.valid
        assert rep.min_margin < 0.0

    def test_inversion_threshold_bracket(self):
        # The margin for poly5 0.35 -> 1.0 first touches zero near
        # tau = 2.0678; just above is valid, just below is not.
        assert check_cd_validity(make(ProtocolKind.POLY5, tau=2.07)).valid
        assert not check_cd_validity(make(ProtocolKind.POLY5, tau=2.06)).valid

    @pytest.mark.parametrize("wi, wf", [(0.35, 1.0), (1.0, 0.35)])
    def test_oracle_tau_min_brackets_library_validity(self, wi, wf):
        # The independent threshold the acceptance suite classifies taus by;
        # the same for compression and expansion.
        tau_min = oracles.tau_min("poly5", wi, wf)
        assert tau_min == pytest.approx(2.0678498, abs=1e-6)
        assert check_cd_validity(make(ProtocolKind.POLY5, tau_min * 1.001, wi, wf)).valid
        assert not check_cd_validity(make(ProtocolKind.POLY5, tau_min * 0.999, wi, wf)).valid

    def test_constant_ramp_has_unit_margin(self):
        p = FrequencyProtocol.constant(0.7, 2.0)
        rep = check_cd_validity(p)
        assert rep.valid
        assert rep.min_margin == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(2.1, 10.0))
    def test_slow_poly5_always_valid(self, tau):
        assert check_cd_validity(make(ProtocolKind.POLY5, tau=tau)).valid


class TestTauMin:
    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("wi, wf", [(0.35, 1.0), (1.0, 0.35)])
    def test_matches_dense_oracle(self, kind, wi, wf):
        want = oracles.tau_min(kind.value, wi, wf)
        assert tau_min(kind, wi, wf) == pytest.approx(want, rel=1e-9)

    @given(
        st.sampled_from(RAMP_KINDS),
        st.floats(0.25, 1.0),
        st.floats(0.25, 1.0),
        st.floats(0.5, 12.0),
    )
    # a short steep stroke: a plain 20001-point grid lands 1.3e-6 above the minimum
    @example(ProtocolKind.COSINE, 0.75, 0.25, 0.5)
    def test_exact_report_agrees_with_dense_scan(self, kind, wi, wf, tau):
        t_min = tau_min(kind, wi, wf)  # 0 when wi == wf
        assume(abs(tau - t_min) > 1e-5 * t_min)
        p = FrequencyProtocol(kind, wi, wf, tau)
        t = np.linspace(0.0, tau, 20001)
        m = validity_margin(p, t)
        # refine the scan 1000-fold across the two cells around the three
        # lowest grid local minima, so its own error stays far below 1e-6
        i = np.flatnonzero((m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:])) + 1
        i = i[np.argsort(m[i], kind="stable")[:3]]
        fine = np.concatenate([t] + [np.linspace(t[j - 1], t[j + 1], 2001) for j in i])
        sampled = float(np.min(validity_margin(p, fine)))
        rep = check_cd_validity(p)
        assert rep.valid == (sampled > 0.0)
        # exact minimum: never above a sampled one, and the dense grid is close
        assert sampled - 1e-6 <= rep.min_margin <= sampled + 1e-12

    @pytest.mark.parametrize("factor, refused", [(1.0 - 1e-7, True), (1.0 + 1e-7, False)])
    def test_no_sampled_window_around_the_threshold(self, factor, refused):
        # Just below tau_min a sampled scan can miss the negative margin;
        # every CD quantity must be refused there and exist just above.
        tau = oracles.tau_min("poly5", 0.35, 1.0) * factor
        p = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, tau)
        cfg = CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=tau, tau3=tau)
        quantities = [
            lambda: avg_work_cost(StrokeContext(p, 2.0)),
            lambda: q_cd_grid(p, stroke_grid(tau)),
            lambda: propagate(thermal_state(2.0, 0.35), p, tau, drive=Drive.CD),
            lambda: evaluate_cycle(cfg, Accounting.STA),
        ]
        assert check_cd_validity(p).valid is not refused
        for quantity in quantities:
            if refused:
                with pytest.raises(TrapInversionError, match=r"2\.06785"):
                    quantity()
            else:
                quantity()
