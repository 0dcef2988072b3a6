"""The numerical core through the public API: closed-form ramp evaluation
(``FrequencyProtocol.eval``) and the stacked transfer-matrix propagator
``dynamics.transfer_matrices``, read as propagated moments and as the
classical solution pair, each checked against the fixed-step RK4
references in ``oracles``. The counterdiabatic drive is booked in closed
form and never propagated; its RK4 reference is checked against that
closed form."""

import math

import numpy as np
import pytest

import oracles
from ottosta import dynamics
from ottosta.errors import NumericsError
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from readouts import GaussianState, pair, states


def _thermal_moments(beta, wi, mean=(0.0, 0.0)):
    """(GaussianState, moment vector (mx, mp, Sxx, Sxp, Spp)) of a thermal start."""
    c = 1.0 / math.tanh(beta * wi / 2.0)
    y0 = np.array([mean[0], mean[1], c / (2 * wi), 0.0, c * wi / 2])
    return GaussianState(mean=y0[:2], cov=np.array([[y0[2], 0.0], [0.0, y0[4]]])), y0


def _moments(state):
    return np.array(
        [state.mean[0], state.mean[1], state.cov[0, 0], state.cov[0, 1], state.cov[1, 1]]
    )


class TestRampEval:
    # The ids keep the numbering of the former scalar ramp kernel, so the
    # node ids stay stable across versions.
    @pytest.mark.parametrize(
        "name", ["poly5", "poly3", "cosine", "linear"], ids=["1-poly5", "2-poly3", "3-cosine", "4-linear"]
    )
    def test_value_against_reference_formula(self, name):
        p = FrequencyProtocol(name, 0.35, 1.0, 3.0)
        for t in (0.0, 0.7, 1.5, 2.3, 3.0):
            w, _ = p.eval(t)
            assert w == pytest.approx(oracles.ramp_omega(name, 0.35, 1.0, 3.0, t), rel=1e-14)

    def test_constant_kind(self):
        w, wd = FrequencyProtocol(ProtocolKind.CONSTANT, 0.7, 0.7, 3.0).eval(1.1)
        assert (w, wd) == (0.7, 0.0)

    def test_derivatives_vs_finite_difference(self):
        h = 1e-6
        for kind in (ProtocolKind.POLY5, ProtocolKind.COSINE):
            p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
            for t in (0.4, 1.5, 2.6):
                wm, _ = p.eval(t - h)
                wp, _ = p.eval(t + h)
                _, wd = p.eval(t)
                assert wd == pytest.approx((wp - wm) / (2 * h), rel=1e-7, abs=1e-10)


class TestIntegrator:
    def test_bare_covariance_matches_brute_rk4(self):
        beta, wi, wf, tau = 2.0, 0.35, 1.0, 3.0
        state0, y0 = _thermal_moments(beta, wi)
        p = FrequencyProtocol(ProtocolKind.POLY5, wi, wf, tau)
        y = _moments(states(state0, p, [tau], rtol=1e-12)[0])
        brute = oracles.rk4_fixed(
            oracles.covariance_rhs("poly5", wi, wf, tau, cd=False), y0, 0.0, tau, 40000
        )
        np.testing.assert_allclose(y, brute, rtol=1e-8, atol=1e-12)

    def test_cd_covariance_matches_brute_rk4(self):
        # the closed form of the counterdiabatic stroke against the brute
        # RK4 run of its moment equations: the covariance lands on the
        # thermal one at omega_f, and the mean keeps its action
        # (p^2 + omega^2 x^2) / (2 omega)
        beta, wi, wf, tau = 2.0, 0.35, 1.0, 3.0
        _, y0 = _thermal_moments(beta, wi, mean=(0.05, -0.02))
        brute = oracles.rk4_fixed(
            oracles.covariance_rhs("poly5", wi, wf, tau, cd=True), y0, 0.0, tau, 20000
        )
        c = 1.0 / math.tanh(beta * wi / 2.0)
        want = [c / (2 * wf), 0.0, c * wf / 2]
        np.testing.assert_allclose(brute[2:], want, rtol=1e-9, atol=1e-10)

        def action(y, w):
            return (y[1] ** 2 + w * w * y[0] ** 2) / (2.0 * w)

        assert action(brute, wf) == pytest.approx(action(y0, wi), rel=1e-9)

    @pytest.mark.parametrize(
        "kind, rtol",
        [(ProtocolKind.COSINE, 1e-12), (ProtocolKind.POLY5, dynamics.DEFAULT_RTOL)],
        ids=["cosine-tight", "poly5-default"],
    )
    def test_pair_matches_brute_rk4(self, kind, rtol):
        """Two independent routes agree: the Magnus transfer matrix, also
        at the default tolerance, and the fixed-step RK4 reference of the
        pair equations (no shared code beyond the ramp formula)."""
        wi, wf, tau = 0.35, 1.0, 3.0
        p = FrequencyProtocol(kind, wi, wf, tau)
        y = pair(p, [tau], rtol=rtol)[0]
        brute = oracles.rk4_fixed(
            oracles.pair_rhs(kind.value, wi, wf, tau), np.array([0.0, 1.0, 1.0, 0.0]), 0.0, tau, 40000
        )
        np.testing.assert_allclose(y, brute, rtol=1e-8, atol=1e-12)

    def test_path_agrees_with_single_shot(self):
        wi, wf, tau = 0.35, 1.0, 3.0
        p = FrequencyProtocol(ProtocolKind.POLY5, wi, wf, tau)
        ts = np.linspace(0.0, tau, 7)
        out = pair(p, ts, rtol=1e-12)
        for i, t in enumerate(ts):
            z = pair(p, [t], rtol=1e-12)[0]
            np.testing.assert_allclose(out[i], z, rtol=1e-9, atol=1e-12)

    def test_step_budget_status(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 3)
        p = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)
        with pytest.raises(NumericsError, match="budget"):
            pair(p, [3.0], rtol=1e-12)

    def test_tightening_tolerance_converges(self):
        wi, wf, tau = 0.35, 1.0, 3.0
        p = FrequencyProtocol(ProtocolKind.POLY5, wi, wf, tau)
        results = [pair(p, [tau], rtol=rtol)[0] for rtol in (1e-6, 1e-9, 1e-12)]
        d1 = np.max(np.abs(results[0] - results[2]))
        d2 = np.max(np.abs(results[1] - results[2]))
        assert d2 < d1
        assert d2 < 1e-8
