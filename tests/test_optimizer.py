import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottosta.optimizer import (
    EmpConfig,
    curzon_ahlborn,
    eta_max_power_analytic,
    gamma_ratio,
    golden_max,
    hot_energy,
    maximize_power_numeric,
    power_curve,
)
from oracles import optimal_x_analytic

GAMMA = 0.1


class TestClosedForms:
    def test_optimal_ratio_reference_value(self):
        assert optimal_x_analytic(GAMMA) == pytest.approx(0.27097217903921093, abs=1e-15)

    def test_printed_efficiency_reference_value(self):
        assert eta_max_power_analytic(GAMMA) == pytest.approx(0.63651192472805716, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, math.nan])
    def test_printed_efficiency_refuses_a_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            eta_max_power_analytic(gamma)

    def test_curzon_ahlborn(self):
        assert curzon_ahlborn(GAMMA) == pytest.approx(1.0 - math.sqrt(GAMMA), rel=1e-15)
        assert curzon_ahlborn(GAMMA) == pytest.approx(0.68377223398316207, abs=1e-15)

    def test_published_pair_is_inconsistent(self):
        """The quoted efficiency at maximum power does not equal
        1 - x_opt for the quoted optimal ratio; the gap is a fixed,
        documented number and both values are kept as printed."""
        gap = abs((1.0 - optimal_x_analytic(GAMMA)) - eta_max_power_analytic(GAMMA))
        assert gap == pytest.approx(0.092515896232731912, abs=1e-12)

    def test_stationarity_of_power_at_analytic_root(self):
        # with the hot side in the high-temperature limit, <H>_C does not
        # depend on x, so the closed-form root is an exact stationary point
        cfg = EmpConfig(omega1=1.0, beta1=2.0, beta2=0.15, high_t_hot=True)
        x0 = optimal_x_analytic(gamma_ratio(cfg, 0.5))
        h = 1e-6
        d = (power_curve(cfg, x0 + h) - power_curve(cfg, x0 - h)) / (2 * h)
        d2 = (power_curve(cfg, x0 + h) - 2 * power_curve(cfg, x0) + power_curve(cfg, x0 - h)) / h**2
        assert abs(d) < 1e-7 * abs(d2)
        assert d2 < 0.0


class TestHighTemperatureLimit:
    def test_gamma_is_beta_ratio(self):
        cfg = EmpConfig(omega1=1.0, beta1=1e-6, beta2=1e-7, high_t_hot=True)
        for x in (0.2, 0.5, 0.8):
            assert gamma_ratio(cfg, x) == pytest.approx(0.1, rel=1e-10)

    def test_hot_energy_is_inverse_beta(self):
        cfg = EmpConfig(omega1=1.0, beta1=2.0, beta2=0.25, high_t_hot=True)
        assert hot_energy(cfg, 0.3) == pytest.approx(4.0, rel=1e-15)

    def test_numeric_matches_analytic(self):
        cfg = EmpConfig(omega1=1.0, beta1=1e-6, beta2=1e-7, high_t_hot=True)
        res = maximize_power_numeric(cfg)
        assert res.x_opt == pytest.approx(optimal_x_analytic(0.1), abs=1e-8)

    @given(st.floats(0.02, 0.9))
    def test_numeric_matches_analytic_random_ratio(self, gamma):
        cfg = EmpConfig(omega1=1.0, beta1=1e-6, beta2=gamma * 1e-6, high_t_hot=True)
        res = maximize_power_numeric(cfg)
        assert res.x_opt == pytest.approx(optimal_x_analytic(gamma), abs=1e-7)


class TestFiniteTemperature:
    def test_finite_beta_shifts_the_optimum(self):
        cfg = EmpConfig(omega1=1.0, beta1=2.0, beta2=0.2, high_t_hot=False)
        res = maximize_power_numeric(cfg)
        assert res.x_opt == pytest.approx(0.2909795627401347, abs=1e-8)
        assert res.power_max == pytest.approx(1.614175224058816, rel=1e-10)
        assert res.is_engine
        assert res.eta == pytest.approx(1.0 - res.x_opt, rel=1e-12)
        # the high-temperature closed form no longer applies when the hot
        # energy varies with x
        g = gamma_ratio(cfg, res.x_opt)
        assert abs(res.x_opt - optimal_x_analytic(g)) > 1e-3

    def test_power_positive_inside_engine_window(self):
        cfg = EmpConfig(omega1=1.0, beta1=2.0, beta2=0.2, high_t_hot=False)
        assert power_curve(cfg, 0.5) > 0.0
        # x -> 1 means no compression: output vanishes
        assert power_curve(cfg, 1.0 - 1e-9) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(ValueError):
            power_curve(cfg, 1.0)


class TestGoldenSection:
    def test_finds_quadratic_maximum(self):
        x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_finds_cosine_maximum(self):
        x, fx = golden_max(math.cos, -1.0, 2.0)
        # comparisons of nearly equal values limit x to sqrt(eps) accuracy
        assert x == pytest.approx(0.0, abs=1e-7)
        assert fx == pytest.approx(1.0, rel=1e-14)

    def test_respects_bracket_order(self):
        with pytest.raises(ValueError):
            golden_max(math.cos, 2.0, -1.0)
