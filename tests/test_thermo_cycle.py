import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ottosta.errors import SecondLawViolationError, TrapInversionError
from ottosta.protocols import ProtocolKind
from ottosta.thermo_cycle import (
    Accounting,
    CycleConfig,
    CycleResult,
    StrokeRecord,
    book_cycle,
    efficiency_exact,
    entropy_production,
    evaluate_cycle,
    heat_cold,
    heat_hot,
    stroke_records,
    stroke_works,
)

H_A = 0.52025185227206215  # thermal energy at beta=2, omega=0.35
H_C = 5.0166555661269948   # thermal energy at beta=0.2, omega=1.0


def ref(tau=3.0, **kw):
    return CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=tau, tau3=tau, **kw)


class TestConfig:
    def test_derived_quantities(self):
        cfg = ref()
        assert cfg.x == pytest.approx(0.35, abs=1e-15)
        assert cfg.tau_cycle == 6.0
        assert cfg.eta_carnot == pytest.approx(0.9, abs=1e-15)
        assert cfg.cold_energy == pytest.approx(H_A, abs=1e-15)
        assert cfg.hot_energy == pytest.approx(H_C, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleConfig(omega1=1.0, omega2=0.35, beta1=2.0, beta2=0.2, tau1=3.0, tau3=3.0)
        with pytest.raises(ValueError):
            CycleConfig(omega1=0.35, omega2=1.0, beta1=0.2, beta2=2.0, tau1=3.0, tau3=3.0)
        with pytest.raises(ValueError):
            CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=-1.0, tau3=3.0)

    def test_protocols_are_the_two_strokes(self):
        cfg = ref()
        assert cfg.compression_protocol().omega_i == 0.35
        assert cfg.compression_protocol().omega_f == 1.0
        assert cfg.expansion_protocol().omega_i == 1.0
        assert cfg.expansion_protocol().omega_f == 0.35


class TestAdiabaticLimit:
    """Closed-form bookkeeping of the ideal cycle, frozen to full precision."""

    def test_stroke_works(self):
        w1, w3 = stroke_works(ref(), 1.0, 1.0)
        assert w1 == pytest.approx(0.96618201136240114, abs=1e-14)
        assert w3 == pytest.approx(-3.2608261179825466, abs=1e-14)

    def test_heats(self):
        cfg = ref()
        assert heat_hot(cfg, 1.0) == pytest.approx(3.5302217024925315, abs=1e-14)
        assert heat_cold(cfg, 1.0) == pytest.approx(-1.235577595872386, abs=1e-14)

    def test_first_law_closes(self):
        cfg = ref()
        w1, w3 = stroke_works(cfg, 1.0, 1.0)
        q2 = heat_hot(cfg, 1.0)
        q4 = heat_cold(cfg, 1.0)
        assert w1 + w3 + q2 + q4 == pytest.approx(0.0, abs=1e-14)

    def test_efficiency_is_otto_value(self):
        cfg = ref()
        assert efficiency_exact(cfg, 1.0, 1.0) == pytest.approx(0.65, abs=1e-14)

    def test_power(self):
        cfg = ref()
        power = evaluate_cycle(cfg, Accounting.ADIABATIC).power
        assert power == pytest.approx(2.2946441066201455 / 6.0, rel=1e-14)

    def test_entropy_production(self):
        cfg = ref()
        ds = entropy_production(cfg, heat_hot(cfg, 1.0), heat_cold(cfg, 1.0))
        assert ds == pytest.approx(1.7651108512462658, abs=1e-13)

    def test_independent_rebuild_from_thermal_energies(self):
        # rebuild every number from scratch with the coth closed forms
        ha = oracles.thermal_energy(2.0, 0.35)
        hc = oracles.thermal_energy(0.2, 1.0)
        x = 0.35
        w1 = ha * (1.0 / x - 1.0)
        w3 = (x - 1.0) * hc
        q2 = hc - ha / x
        q4 = ha - x * hc
        eta = 1.0 - x * (x * hc - ha) / (x * hc - ha)  # degenerate at Q*=1: use -(w1+w3)/q2
        eta = -(w1 + w3) / q2
        assert stroke_works(ref(), 1.0, 1.0) == pytest.approx((w1, w3), abs=1e-15)
        assert heat_hot(ref(), 1.0) == pytest.approx(q2, abs=1e-15)
        assert heat_cold(ref(), 1.0) == pytest.approx(q4, abs=1e-15)
        assert efficiency_exact(ref(), 1.0, 1.0) == pytest.approx(eta, abs=1e-14)
        assert eta == pytest.approx(1.0 - x, abs=1e-14)


class TestNonadiabatic:
    def test_factors_match_dynamics(self):
        from ottosta.dynamics import adiabaticity_pair

        cfg = ref()
        [record] = stroke_records([cfg], [Accounting.NONADIABATIC])
        q1, q3 = record.q1, record.q3
        assert q1 == pytest.approx(adiabaticity_pair(cfg.compression_protocol(), 3.0), rel=1e-9)
        assert q3 == pytest.approx(adiabaticity_pair(cfg.expansion_protocol(), 3.0), rel=1e-9)

    def test_reference_row(self):
        r = evaluate_cycle(ref(), Accounting.NONADIABATIC)
        assert r.eta == pytest.approx(0.3820167581577366, abs=1e-10)
        assert r.power == pytest.approx(0.19128952826474366, abs=1e-10)
        assert r.is_engine

    @pytest.mark.parametrize("kind", ["poly5", "poly3", "cosine", "linear"])
    @pytest.mark.parametrize("tau", [3.0, 6.0])
    def test_efficiency_is_the_factored_closed_form(self, kind, tau):
        cfg = ref(tau, kind=ProtocolKind(kind))
        r = evaluate_cycle(cfg, Accounting.NONADIABATIC)
        assert r.eta == pytest.approx(efficiency_exact(cfg, r.q1_star, r.q3_star), rel=1e-14)

    def test_first_law_residual(self):
        r = evaluate_cycle(ref(), Accounting.NONADIABATIC)
        assert r.w1 + r.w3 + r.q2 + r.q4 == pytest.approx(0.0, abs=1e-12)

    def test_entropy_nonnegative(self):
        r = evaluate_cycle(ref(), Accounting.NONADIABATIC)
        assert r.ds_tot >= 0.0
        # friction strictly increases entropy production over the ideal cycle
        assert r.ds_tot > 1.7651108512462658

    def test_sudden_limit_values(self):
        from ottosta.dynamics import sudden_quench_q

        q = sudden_quench_q(0.35, 1.0)
        cfg = ref()
        w1, w3 = stroke_works(cfg, q, q)
        assert q == pytest.approx(1.6035714285714286, abs=1e-14)
        assert w1 == pytest.approx(1.8633510219132022, abs=1e-13)
        assert w3 == pytest.approx(-2.201057629638219, abs=1e-13)
        assert heat_hot(cfg, q) == pytest.approx(2.6330526919417304, abs=1e-13)
        # the sudden cycle still runs as an engine at these temperatures
        assert -(w1 + w3) > 0.0
        assert efficiency_exact(cfg, q, q) == pytest.approx(0.1282566842503926, abs=1e-12)

    def test_quench_entropy_production_is_positive(self):
        q = 1.6035714285714286
        cfg = ref()
        assert entropy_production(cfg, heat_hot(cfg, q), heat_cold(cfg, q)) > 0.0

    def test_second_law_guard_trips_on_fabricated_heats(self):
        # a positive cold heat together with a positive hot heat at these
        # temperatures drives the balance negative; the guard must refuse
        with pytest.raises(SecondLawViolationError):
            entropy_production(ref(), 1.0, 1.0)


class TestAccountingConventions:
    def test_adiabatic_row(self):
        r = evaluate_cycle(ref(), Accounting.ADIABATIC)
        assert r.q1_star == 1.0 and r.q3_star == 1.0
        assert r.eta == pytest.approx(0.65, abs=1e-14)
        assert r.power == pytest.approx(2.2946441066201455 / 6.0, rel=1e-13)
        assert r.cost1 == 0.0 and r.cost3 == 0.0
        assert r.is_engine

    def test_sta_row(self):
        r = evaluate_cycle(ref(), Accounting.STA)
        assert r.q1_star == pytest.approx(1.0, abs=1e-12)
        assert r.q3_star == pytest.approx(1.0, abs=1e-12)
        assert r.cost1 == pytest.approx(0.07982655330359724, abs=1e-12)
        assert r.cost3 == pytest.approx(0.2694114637405115, abs=1e-12)
        assert r.eta == pytest.approx(0.5914854831626443, abs=1e-10)
        assert r.power == pytest.approx(0.3242343482626729, abs=1e-10)

    def test_sta_efficiency_formula(self):
        # both driving costs are charged to the heat input for efficiency,
        # and against the output for power
        r = evaluate_cycle(ref(), Accounting.STA)
        w_ad = 2.2946441066201455
        q2 = 3.5302217024925315
        want_eta = w_ad / (q2 + r.cost1 + r.cost3)
        assert r.eta == pytest.approx(want_eta, rel=1e-12)
        want_p = (w_ad - r.cost1 - r.cost3) / 6.0
        assert r.power == pytest.approx(want_p, rel=1e-12)

    def test_time_averaged_row(self):
        r = evaluate_cycle(ref(), Accounting.TIME_AVERAGED)
        assert r.eta == pytest.approx(0.5510719307522451, abs=1e-10)
        assert r.power == pytest.approx(0.3242343482626729, abs=1e-10)
        # costs are folded into the stroke works
        assert r.cost1 == 0.0 and r.cost3 == 0.0
        assert r.w1 == pytest.approx(0.96618201136240114 + 0.07982655330359724, rel=1e-10)

    def test_time_averaged_first_law_closure(self):
        r = evaluate_cycle(ref(), Accounting.TIME_AVERAGED)
        assert r.w1 + r.w3 + r.q2 + r.q4 == pytest.approx(0.0, abs=1e-12)

    def test_driving_costs_helper(self):
        [record] = stroke_records([ref()], [Accounting.STA])
        c1, c3 = record.c1, record.c3
        assert c1 == pytest.approx(0.07982655330359724, abs=1e-12)
        assert c3 == pytest.approx(0.2694114637405115, abs=1e-12)

    def test_sta_work_output_net_of_costs(self):
        r = evaluate_cycle(ref(), Accounting.STA)
        assert r.work_output == pytest.approx(-(r.w1 + r.w3) - r.cost1 - r.cost3, rel=1e-13)

    def test_trap_inversion_surfaces_for_sta_accountings(self):
        cfg = ref(tau=1.5)
        with pytest.raises(TrapInversionError):
            evaluate_cycle(cfg, Accounting.STA)
        with pytest.raises(TrapInversionError):
            evaluate_cycle(cfg, Accounting.TIME_AVERAGED)
        # bare and ideal accountings are still fine at this duration
        evaluate_cycle(cfg, Accounting.NONADIABATIC)
        evaluate_cycle(cfg, Accounting.ADIABATIC)

    def test_result_is_frozen(self):
        r = evaluate_cycle(ref(), Accounting.ADIABATIC)
        with pytest.raises(AttributeError):
            r.eta = 0.0


class TestProperties:
    @given(
        st.floats(0.2, 0.6),
        st.floats(1.5, 4.0),
        st.floats(0.05, 0.45),
        st.floats(2.5, 8.0),
    )
    def test_engine_efficiency_below_carnot(self, w1, b1, ratio, tau):
        cfg = CycleConfig(
            omega1=w1, omega2=1.0, beta1=b1, beta2=ratio * b1, tau1=tau, tau3=tau,
            kind=ProtocolKind.POLY5,
        )
        r = evaluate_cycle(cfg, Accounting.NONADIABATIC)
        assert r.ds_tot >= -1e-9
        if r.is_engine:
            assert r.eta <= cfg.eta_carnot + 1e-12

    @given(st.floats(2.2, 12.0))
    def test_sta_power_between_zero_and_adiabatic(self, tau):
        cfg = ref(tau=tau)
        r_sta = evaluate_cycle(cfg, Accounting.STA)
        r_ad = evaluate_cycle(cfg, Accounting.ADIABATIC)
        assert 0.0 < r_sta.power <= r_ad.power + 1e-12
        assert r_sta.eta <= 0.65 + 1e-12


class TestStrokeRecord:
    """One stroke record per cycle point, booked under every accounting."""

    @pytest.mark.parametrize("accounting", list(Accounting))
    def test_evaluate_cycle_equals_the_booked_record(self, accounting):
        cfg = ref(4.0, kind=ProtocolKind.COSINE)
        stack = [ref(2.5), cfg, ref(7.0, kind=ProtocolKind.POLY3)]
        record = stroke_records(stack)[1]
        assert evaluate_cycle(cfg, accounting) == book_cycle(cfg, record, accounting)

    def test_below_tau_min_only_the_shortcut_accountings_refuse(self):
        cfg = ref(2.0)  # tau_min = 2.0678 for poly5 between 0.35 and 1
        [record] = stroke_records([cfg])
        assert record.c1 is None and record.c3 is None
        for accounting in (Accounting.ADIABATIC, Accounting.NONADIABATIC):
            assert book_cycle(cfg, record, accounting) == evaluate_cycle(cfg, accounting)
        for accounting in (Accounting.STA, Accounting.TIME_AVERAGED):
            with pytest.raises(TrapInversionError, match="tau_min"):
                book_cycle(cfg, record, accounting)

    @pytest.mark.parametrize(
        "accounting", [Accounting.NONADIABATIC, Accounting.STA, Accounting.TIME_AVERAGED]
    )
    def test_a_value_not_computed_is_refused_by_name(self, accounting):
        # tau = 3 is above tau_min = 2.068: the values are missing, not undefined
        cfg = ref(3.0)
        [record] = stroke_records([cfg], [Accounting.ADIABATIC])
        assert record == StrokeRecord(None, None, None, None)
        with pytest.raises(ValueError, match=f"^{accounting.value} accounting reads"):
            book_cycle(cfg, record, accounting)

    def test_trap_inversion_comes_from_the_stroke_not_the_record(self):
        cfg = ref(2.0)
        [record] = stroke_records([cfg], [Accounting.ADIABATIC])
        for accounting in (Accounting.STA, Accounting.TIME_AVERAGED):
            with pytest.raises(TrapInversionError, match="tau_min"):
                book_cycle(cfg, record, accounting)

    def test_sta_refusal_is_the_counterdiabatic_drive_refusal(self):
        from ottosta.dynamics import Drive, propagate, thermal_state

        cfg = ref(2.0)
        with pytest.raises(TrapInversionError) as booked:
            evaluate_cycle(cfg, Accounting.STA)
        with pytest.raises(TrapInversionError) as driven:
            propagate(thermal_state(2.0, 0.35), cfg.compression_protocol(), 2.0, drive=Drive.CD)
        assert str(booked.value) == str(driven.value)

    @pytest.mark.parametrize(
        "accounting, propagates, integrates",
        [
            (Accounting.ADIABATIC, False, False),
            (Accounting.NONADIABATIC, True, False),
            (Accounting.STA, False, True),
            (Accounting.TIME_AVERAGED, False, True),
        ],
    )
    def test_evaluate_cycle_computes_only_what_it_reads(
        self, monkeypatch, accounting, propagates, integrates
    ):
        import ottosta.dynamics as dynamics
        import ottosta.thermo_cycle as thermo_cycle

        calls = {"stack": 0, "cost": 0}
        exact_cost = thermo_cycle.avg_work_cost
        exact_stack = dynamics._transfer_matrices

        def counted_cost(*args, **kwargs):
            calls["cost"] += 1
            return exact_cost(*args, **kwargs)

        def counted_stack(*args, **kwargs):
            calls["stack"] += 1
            return exact_stack(*args, **kwargs)

        monkeypatch.setattr(thermo_cycle, "avg_work_cost", counted_cost)
        monkeypatch.setattr(dynamics, "_transfer_matrices", counted_stack)
        evaluate_cycle(ref(), accounting)
        assert calls == {"stack": int(propagates), "cost": 2 * int(integrates)}

    def test_default_cycle_computes_each_stroke_once(self, monkeypatch):
        import ottosta.dynamics as dynamics
        import ottosta.thermo_cycle as thermo_cycle
        from ottosta import datasets
        from ottosta.cli import build_parser, resolve_config

        costs = []
        stacks = []
        exact_cost = thermo_cycle.avg_work_cost
        exact_stack = dynamics._transfer_matrices

        def counted_cost(*args, **kwargs):
            costs.append(args[0].protocol.tau)
            return exact_cost(*args, **kwargs)

        def recorded_stack(protocols, ts, drives, rtol):
            stacks.append((len(protocols), ts.shape[1], set(drives)))
            return exact_stack(protocols, ts, drives, rtol)

        monkeypatch.setattr(thermo_cycle, "avg_work_cost", counted_cost)
        monkeypatch.setattr(dynamics, "_transfer_matrices", recorded_stack)
        params = resolve_config("cycle", build_parser().parse_args(["cycle"]))
        _, rows = datasets.cycle_dataset(params)
        assert len(rows) == 40
        assert len(costs) == 80
        assert stacks == [(80, 1, {dynamics.Drive.BARE})]
