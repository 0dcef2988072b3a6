import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from ottosta.dynamics import transfer_matrices
from ottosta.fock_oracle import tpm_variance_excess
from ottosta.errors import TrapInversionError
from ottosta.optimizer import EmpConfig
from ottosta.protocols import (
    FrequencyProtocol,
    ProtocolKind,
    _ramp_shape,
    check_cd_validity,
    tau_min,
)
from ottosta.quadrature import stroke_grid
from ottosta.thermo_cycle import Accounting, CycleConfig
from readouts import cycle, q_cd, work_cost

RAMP_KINDS = [k for k in ProtocolKind if k is not ProtocolKind.CONSTANT]
# Kinds whose boundary conditions make CD driving vanish at t = 0 and tau.
SHORTCUT_KINDS = (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE)


def make(kind, tau=3.0, wi=0.35, wf=1.0):
    return FrequencyProtocol(kind, wi, wf, tau)


class TestEndpointsAndValues:
    @pytest.mark.parametrize("kind", RAMP_KINDS)
    def test_endpoints_hit_target_frequencies(self, kind):
        p = make(kind)
        assert p.eval(0.0)[0] == pytest.approx(0.35, abs=1e-14)
        assert p.eval(3.0)[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.0, 0.41, 1.5, 2.77, 3.0])
    def test_matches_independent_ramp_formula(self, kind, t):
        p = make(kind)
        want = oracles.ramp_omega(kind.value, 0.35, 1.0, 3.0, t)
        assert p.eval(t)[0] == pytest.approx(want, rel=1e-14)

    def test_poly5_midpoint_is_frequency_midpoint(self):
        p = make(ProtocolKind.POLY5)
        assert p.eval(1.5)[0] == pytest.approx(0.675, abs=1e-15)

    def test_cosine_midpoint_value(self):
        # sqrt((a^2+1)/2) * omega_i with a = 1/0.35
        p = make(ProtocolKind.COSINE)
        want = 0.35 * math.sqrt(((1.0 / 0.35) ** 2 + 1.0) / 2.0)
        assert p.eval(1.5)[0] == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.74916620318858485, abs=1e-15)

    def test_array_eval_matches_scalar(self):
        p = make(ProtocolKind.COSINE)
        ts = np.linspace(0.0, 3.0, 17)
        w, wd = p.eval(ts)
        assert w.shape == wd.shape == ts.shape
        for i, t in enumerate(ts):
            sw, swd = p.eval(float(t))
            assert type(sw) is type(swd) is float
            assert w[i] == sw
            assert wd[i] == swd

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_lower_orders_equal_eval_bit_for_bit(self, kind):
        # callers that read omega alone, or (omega, omegadot), get eval's bits
        p = make(kind, wf=0.35 if kind is ProtocolKind.CONSTANT else 1.0)
        ts = np.linspace(0.0, 3.0, 17)
        w, wd = p.eval(ts)
        s = ts / p.tau
        (w0,) = _ramp_shape(kind, p.omega_i, p.omega_f, p.tau, s, 0)
        w1, wd1 = _ramp_shape(kind, p.omega_i, p.omega_f, p.tau, s, 1)
        assert w0.tobytes() == w1.tobytes() == w.tobytes()
        assert wd1.tobytes() == wd.tobytes()

    def test_constant_protocol(self):
        p = FrequencyProtocol(ProtocolKind.CONSTANT, 0.7, 0.7, 2.0)
        assert p.eval(1.3) == (0.7, 0.0)

    def test_domain_is_enforced(self):
        p = make(ProtocolKind.POLY5)
        with pytest.raises(ValueError):
            p.eval(-0.1)
        with pytest.raises(ValueError):
            p.eval(3.1)
        with pytest.raises(ValueError):
            p.eval(np.array([1.0, 3.1]))

    def test_nan_time_is_refused(self):
        p = make(ProtocolKind.POLY5)
        with pytest.raises(ValueError, match="outside protocol domain"):
            p.eval(math.nan)
        with pytest.raises(ValueError, match="outside protocol domain"):
            p.eval(np.array([0.0, math.nan]))

    @pytest.mark.parametrize(
        "ts", [[0.0, math.nan], [math.nan], [0.0, math.inf], [-math.inf, 1.0]]
    )
    def test_checkpoints_refuse_non_finite_times(self, ts):
        with pytest.raises(ValueError):
            make(ProtocolKind.POLY5).checkpoints(ts)

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, -0.35, 1.0, 3.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 0.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.CONSTANT, 0.35, 1.0, 3.0)
        with pytest.raises(ValueError):
            FrequencyProtocol(ProtocolKind.POLY5, 0.35, math.inf, 3.0)


# A valid instance of each class under the one "finite and positive"
# parameter rule, by keyword.
_VALID = {
    FrequencyProtocol: {"kind": "poly5", "omega_i": 0.35, "omega_f": 1.0, "tau": 3.0},
    CycleConfig: {
        "omega1": 0.35, "omega2": 1.0, "beta1": 2.0, "beta2": 0.2, "tau1": 3.0, "tau3": 3.0,
    },
    EmpConfig: {"omega1": 0.35, "beta1": 2.0, "beta2": 0.2},
}


class TestParameterRule:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=str)
    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls, kw in _VALID.items() for name in kw if name != "kind"],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_field_must_be_finite_and_positive(self, cls, name, value):
        with pytest.raises(ValueError) as err:
            cls(**{**_VALID[cls], name: value})
        assert str(err.value) == f"{name} must be finite and positive, got {value!r}"

    @pytest.mark.parametrize("cls", [CycleConfig, EmpConfig], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("beta2", [2.0, 3.0])
    def test_cold_bath_must_be_colder(self, cls, beta2):
        with pytest.raises(ValueError) as err:
            cls(**{**_VALID[cls], "beta2": beta2})
        assert str(err.value) == "need beta1 > beta2 (cold bath colder than hot bath)"


class TestCheckpoints:
    """One checkpoint rule for a stack of strokes, with
    FrequencyProtocol.checkpoints its one-row case, for every path."""

    @pytest.mark.parametrize(
        "ts, alone",
        [
            ([[0.5, 1.0]], True),
            ([], True),
            ([2.0, 1.0], True),
            ([-0.5, 1.0], True),
            ([1.0, 3.5], True),
            ([0.0, math.nan], True),
            ([1.0], False),  # fine alone, but shorter than the other rows
        ],
        ids=["2-d", "empty", "descending", "negative", "beyond-tau", "nan", "ragged"],
    )
    def test_every_path_refuses_bad_checkpoints_alike(self, ts, alone):
        from ottosta import fock_oracle
        from ottosta.dynamics import adiabaticity_stack, q_cd_grid

        p = make(ProtocolKind.POLY5)
        state = fock_oracle.thermal_fock_in(16, 2.0, 0.35)
        # the bad row among good ones
        stack = [[0.5, 1.0], ts, [0.0, 3.0]]
        paths = [
            lambda: transfer_matrices([p] * 3, stack),
            lambda: adiabaticity_stack([p] * 3, [2.0] * 3, stack),
            lambda: q_cd_grid([p] * 3, stack),
        ]
        if alone:
            paths += [
                lambda: p.checkpoints(ts),
                lambda: transfer_matrices([p], [ts]),
                lambda: adiabaticity_stack([p], [2.0], [ts]),
                lambda: q_cd_grid([p], [ts]),
                lambda: fock_oracle.propagate_fock_path(state, p, ts),
            ]
        messages = set()
        for path in paths:
            with pytest.raises(ValueError) as err:
                path()
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_good_checkpoints_pass_as_floats(self):
        ts = make(ProtocolKind.POLY5).checkpoints([0, 1.5, 3.0 * (1.0 + 1e-13)])
        assert ts.dtype == np.float64 and ts.shape == (3,)
        # a valid stack comes back unchanged
        stack = [[0, 1.5, 3.0 * (1.0 + 1e-13)], [0, 0, 2], [1, 2, 3]]
        p = make(ProtocolKind.POLY5)
        ts, _ = transfer_matrices([p, make(ProtocolKind.COSINE), p], stack)
        assert ts.dtype == np.float64
        assert ts.tobytes() == np.array(stack, dtype=np.float64).tobytes()


class TestDerivatives:
    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.3, 1.5, 2.9])
    def test_first_derivative_matches_finite_difference(self, kind, t):
        p = make(kind)
        h = 1e-6
        fd = (p.eval(t + h)[0] - p.eval(t - h)[0]) / (2 * h)
        assert p.eval(t)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("kind", RAMP_KINDS)
    @pytest.mark.parametrize("t", [0.3, 1.5, 2.9])
    def test_second_derivative_matches_finite_difference(self, kind, t):
        # the closed-form curvature of oracles.sta_boundary against the
        # ramp's own omega
        p = make(kind)
        h = 1e-4
        fd = (p.eval(t + h)[0] - 2 * p.eval(t)[0] + p.eval(t - h)[0]) / (h * h)
        wdd = oracles.ramp_omega_ddot(kind.value, p.omega_i, p.omega_f, p.tau, t)
        assert wdd == pytest.approx(fd, rel=1e-5, abs=1e-7)

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
        fd = (p.eval(t + h)[0] - p.eval(t - h)[0]) / (2 * h)
        assert p.eval(t)[1] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestBoundaryConditions:
    """The ramps against the shortcut boundary conditions of
    ``oracles.sta_boundary``: value and slope at both ends, which
    counterdiabatic switch-off needs, and curvature."""

    def test_poly5_satisfies_value_slope_curvature(self):
        rep = oracles.sta_boundary(make(ProtocolKind.POLY5))
        assert all(rep["value"]) and all(rep["slope"])
        assert all(rep["curvature"])

    def test_poly3_slope_only(self):
        rep = oracles.sta_boundary(make(ProtocolKind.POLY3))
        # slope vanishes at both ends, curvature does not
        assert all(rep["slope"])
        assert not all(rep["curvature"])
        assert all(rep["value"])

    def test_cosine_slope_only(self):
        rep = oracles.sta_boundary(make(ProtocolKind.COSINE))
        assert all(rep["slope"])
        assert not all(rep["curvature"])
        assert all(rep["value"])

    def test_linear_fails_slope(self):
        rep = oracles.sta_boundary(make(ProtocolKind.LINEAR))
        assert all(rep["value"])
        assert not rep["slope"][0]

    def test_duration_near_the_float_range_gets_a_report(self):
        # tau^2 overflows a float above about 1.3e154; the curvature scale
        # divides by tau twice instead and underflows to 0 quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = oracles.sta_boundary(FrequencyProtocol("poly5", 0.35, 1.0, 1e200))
        assert all(all(flags) for flags in rep.values())

    def test_shortcut_kinds_listing(self):
        # exactly the ramps that meet the value and slope conditions at both ends
        meets = {
            kind for kind in RAMP_KINDS
            if all(all(oracles.sta_boundary(make(kind))[c]) for c in ("value", "slope"))
        }
        assert meets == set(SHORTCUT_KINDS)


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
        m = oracles.validity_margin(p, np.array([1.5]))[0]
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
        p = FrequencyProtocol(ProtocolKind.CONSTANT, 0.7, 0.7, 2.0)
        rep = check_cd_validity(p)
        assert rep.valid
        assert rep.min_margin == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(2.1, 10.0))
    def test_slow_poly5_always_valid(self, tau):
        assert check_cd_validity(make(ProtocolKind.POLY5, tau=tau)).valid


class TestTauMin:
    @pytest.mark.parametrize(
        "kind, wi, wf",
        [("poly5", -0.35, 1.0), ("poly5", math.nan, 1.0), ("constant", 0.35, 1.0)],
    )
    def test_invalid_ramp_is_refused(self, kind, wi, wf):
        with pytest.raises(ValueError):
            tau_min(kind, wi, wf)

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
        m = oracles.validity_margin(p, t)
        # refine the scan 1000-fold across the two cells around the three
        # lowest grid local minima, so its own error stays far below 1e-6
        i = np.flatnonzero((m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:])) + 1
        i = i[np.argsort(m[i], kind="stable")[:3]]
        fine = np.concatenate([t] + [np.linspace(t[j - 1], t[j + 1], 2001) for j in i])
        sampled = float(np.min(oracles.validity_margin(p, fine)))
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
            lambda: work_cost(p, 2.0),
            lambda: q_cd(p, stroke_grid(tau)),
            lambda: tpm_variance_excess(p, 2.0, 0.5 * tau),
            lambda: cycle(cfg, Accounting.STA),
        ]
        assert check_cd_validity(p).valid is not refused
        for quantity in quantities:
            if refused:
                with pytest.raises(TrapInversionError, match=r"2\.06785"):
                    quantity()
            else:
                quantity()
