"""End-to-end acceptance checks.

One test per numbered criterion (a few have lettered parts); each prints a
single ACCEPTANCE line through the -v test status. The counterdiabatic (CD)
shortcut exists only above a minimum driving time: for the poly5 compression
0.35 -> 1.0, tau_min = 2.0678498 (from the independent scan in
``oracles.tau_min``). Below it the CD term inverts the trap and the program
refuses every CD quantity with TrapInversionError. The "as stated" parts
(6a, 7a) keep their stated grids, which reach below tau_min, and assert that
refusal there and the stated property above it; the "feasible grid" parts
(6b, 7b) run the same checks where the shortcut exists everywhere.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from ottosta.errors import TrapInversionError
from ottosta.fock_oracle import (
    mean_energy_fock,
    propagate_fock_path,
    stroke_dim,
    thermal_fock_in,
)
from ottosta.optimizer import EmpConfig, curzon_ahlborn, eta_max_power_analytic, maximize_power_numeric
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from ottosta.sta_cost import friction_stack
from ottosta.thermo_cycle import Accounting, CycleConfig
from readouts import (
    cycle,
    mean_energy,
    pair,
    q_cd,
    q_star,
    states,
    thermal_state,
    variance_cost,
    variance_term,
    work_cost,
    work_term,
)

W1_AD = 0.966182
W3_AD = -3.260826
Q2_AD = 3.530222
Q4_AD = -1.235578
ETA_AD = 0.650000
# Full-precision entropy production of the reference cycle. Its 6-decimal
# display is 1.765111; evaluating the defining formula with the 6-decimal
# heat values above instead gives 1.765112 (input rounding is amplified by
# beta1 = 2), so the literal check below carries that propagation slack.
DS_AD_EXACT = 1.7651108512462658
DS_AD_DISPLAY = 1.765112
W_AD_TOTAL = 2.2946441066201455

STA_KINDS = (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE)
ALL_RAMPS = (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE, ProtocolKind.LINEAR)
CD_ACCOUNTINGS = (Accounting.STA, Accounting.TIME_AVERAGED)


def ref_cfg(tau: float) -> CycleConfig:
    return CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=tau, tau3=tau)


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    if not ok:
        pytest.fail(f"{name}: {detail}", pytrace=False)


def test_criterion_01_reference_cycle_bookkeeping():
    """Adiabatic reference cycle: works, heats, efficiency, entropy."""
    r = cycle(ref_cfg(3.0), Accounting.ADIABATIC)
    checks = {
        "W1": (r.w1, W1_AD, 1e-6),
        "W3": (r.w3, W3_AD, 1e-6),
        "Q2": (r.q2, Q2_AD, 1e-6),
        "Q4": (r.q4, Q4_AD, 1e-6),
        "eta": (r.eta, ETA_AD, 1e-6),
        "dS": (r.ds_tot, DS_AD_EXACT, 1e-6),
        # 1e-6 plus the worst-case propagation of the rounded heat inputs
        # (0.2 * 5e-7 + 2 * 5e-7 = 1.1e-6) into the displayed value.
        "dS display": (r.ds_tot, DS_AD_DISPLAY, 2.2e-6),
    }
    bad = {k: v for k, (got, want, tol) in checks.items() if abs(got - want) > tol for v in [f"{got!r} vs {want}"]}
    report("1 reference cycle", not bad, json.dumps(bad) if bad else "all six within 1e-6")


def test_criterion_02_sudden_quench_both_backends():
    """Q* of a near-instant ramp reaches the closed-form quench value on two
    independent compute routes (the Magnus transfer matrix and a fixed-step
    RK4 reference) and via both dynamical routes of the library."""
    q_closed = oracles.sudden_quench_q(0.35, 1.0)
    p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 1e-4)
    q_pair = q_star(p, 1e-4)[1]
    st = states(thermal_state(2.0, 0.35), p, [1e-4])[0]
    q_cov = mean_energy(st, 1.0) / ((1.0 / 0.35) * oracles.thermal_energy(2.0, 0.35))
    q_rk4 = oracles.brute_pair_q("linear", 0.35, 1.0, 1e-4)
    errs = [abs(q - 1.603571) for q in (q_pair, q_cov, q_rk4)]
    detail = f"closed {q_closed:.9f}, pair {q_pair:.9f}, moments {q_cov:.9f}, fixed-step RK4 {q_rk4:.9f}"
    report("2 sudden quench", max(errs) < 1e-3, detail)


def test_criterion_03_midpoint_shortcut_quantities():
    """Frozen midpoint values of the poly5 compression at tau = 3."""
    p = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)
    q = float(q_cd(p, [1.5])[0])
    mean_term = work_term(p, 2.0, 1.5)
    ddw = math.sqrt(variance_term(p, 2.0, 1.5))
    checks = [
        ("Q*_cd(mid)", q, 1.1171629915626675),
        ("mean term(mid)", mean_term, 0.11755465080084085),
        ("work spread(mid)", ddw, 0.33612997363226695),
    ]
    bad = [f"{n}: {got!r} vs {want!r}" for n, got, want in checks if abs(got - want) > 1e-6]
    report("3 midpoint values", not bad, "; ".join(bad) if bad else "all three within 1e-6")


@pytest.mark.parametrize("kind", STA_KINDS)
def test_criterion_04_cd_transitionless(kind):
    """Counterdiabatic driving is transitionless: Q*(tau) = 1 within 1e-8
    (fixed-step RK4 of the CD moment equations, oracles.covariance_rhs) and
    the populations on the instantaneous levels are unchanged within 1e-6
    (independent dense matrix propagation in a fixed number basis,
    oracles.dense_stroke). The package books CD strokes as transitionless
    and never propagates them; this checks that premise."""
    p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
    c = 1.0 / math.tanh(0.35)
    y0 = [0.0, 0.0, c / (2.0 * 0.35), 0.0, 0.5 * 0.35 * c]
    rhs = oracles.covariance_rhs(kind.value, 0.35, 1.0, 3.0, cd=True)
    y = oracles.rk4_fixed(rhs, y0, 0.0, 3.0, 20000)
    e_end = 0.5 * (y[4] + y[2]) + 0.5 * (y[1] ** 2 + y[0] ** 2)  # <H0> at omega_f = 1
    q_end = e_end / ((1.0 / 0.35) * oracles.thermal_energy(2.0, 0.35))

    ref, dim = math.sqrt(0.35), stroke_dim(2.0, p)
    rho0 = oracles.dense_thermal(2.0, 0.35, ref, dim)
    rhof = oracles.dense_stroke(kind.value, 0.35, 1.0, 3.0, rho0, ref, [3.0], True, 50)[-1]
    pops0 = oracles.dense_populations(rho0, ref, 0.35)
    popsf = oracles.dense_populations(rhof, ref, 1.0)
    pop_err = float(np.max(np.abs(popsf[:60] - pops0[:60])))

    ok = abs(q_end - 1.0) < 1e-8 and pop_err < 1e-6
    report(f"4 transitionless [{kind.value}]", ok, f"|Q*-1|={abs(q_end-1.0):.2e}, pop err={pop_err:.2e}")


@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("kind", ALL_RAMPS)
def test_criterion_05_fock_vs_gaussian(kind, beta):
    """Bare driven energies from the truncated matrix propagation agree
    with the Gaussian moment dynamics to 1e-6 relative at 10 checkpoints."""
    p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
    ts = np.linspace(0.3, 3.0, 10)
    gauss = states(thermal_state(beta, 0.35), p, ts)
    e_gauss = np.array([mean_energy(s, p.eval(float(t))[0]) for t, s in zip(ts, gauss)])

    st0 = thermal_fock_in(stroke_dim(beta, p), beta, 0.35)
    focks = propagate_fock_path(st0, p, ts)
    e_fock = np.array([mean_energy_fock(s) for s in focks])

    rel = float(np.max(np.abs(e_fock - e_gauss) / e_gauss))
    report(f"5 oracle agreement [{kind.value}, beta={beta}]", rel < 1e-6, f"max rel diff {rel:.2e} over 10 checkpoints")


def _cd_or_refused(fn, *args):
    """fn(*args), or None when the program refuses it with TrapInversionError.
    Any other error, PhysicsError included, propagates and fails the test."""
    try:
        return fn(*args)
    except TrapInversionError:
        return None


def _refusal_mismatches(tau, tau_min, values):
    """CD quantities ({name: result, or None if refused}) must exist above
    tau_min and be refused below it; one line per quantity that does not."""
    feasible = tau > tau_min
    return [
        f"tau={tau} > tau_min but {name} was refused" if feasible else f"tau={tau} <= tau_min but {name} returned {v!r}"
        for name, v in values.items()
        if (v is None) == feasible
    ]


def _assert_cost_trend(taus, label):
    """Bare-drive friction positive and strictly decreasing on the whole
    grid; the CD work and variance costs refused below tau_min, positive and
    strictly decreasing above it."""
    tau_min = oracles.tau_min("poly5", 0.35, 1.0)
    bad, fric, cd_taus, cd_rows = [], [], [], []
    for tau in taus:
        p = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, tau)
        fric.append(float(friction_stack([p], [2.0], [[tau]])[0, 0]))
        costs = {fn.__name__: _cd_or_refused(fn, p, 2.0) for fn in (work_cost, variance_cost)}
        bad += _refusal_mismatches(tau, tau_min, costs)
        if tau > tau_min and None not in costs.values():
            cd_taus.append(tau)
            cd_rows.append(list(costs.values()))
    fric, cd = np.array(fric), np.array(cd_rows).reshape(-1, 2)
    if not (np.all(fric > 0.0) and np.all(np.diff(fric) < 0.0)):
        bad.append(f"friction {fric.tolist()} on tau={list(taus)} not positive and strictly decreasing")
    if not (np.all(cd > 0.0) and np.all(np.diff(cd, axis=0) < 0.0)):
        bad.append(f"CD costs {cd.tolist()} on tau={cd_taus} not positive and strictly decreasing")
    detail = (
        f"tau_min={tau_min:.7f}, CD costs refused at tau={[t for t in taus if t <= tau_min]}; "
        f"friction on tau={list(taus)} and CD work/variance costs on tau={cd_taus}: positive, strictly decreasing"
    )
    report(label, not bad, "; ".join(bad) or detail)


def test_criterion_06a_cost_measures_as_stated():
    """Driving-cost measures on the stated grid tau = 1.5, 3, 6, 12: the
    bare-drive friction is positive and strictly decreasing on all four; the
    CD work and variance costs are refused at 1.5, below tau_min, and are
    positive and strictly decreasing on 3, 6, 12."""
    _assert_cost_trend((1.5, 3.0, 6.0, 12.0), "6a cost trend (stated grid)")


def test_criterion_06b_cost_measures_feasible_grid():
    """Same property on the feasible part of the duration axis."""
    _assert_cost_trend((2.25, 3.0, 6.0, 12.0), "6b cost trend (feasible grid)")


def test_criterion_06c_endpoint_costs_by_boundary_class():
    """The two-point driving cost at t = tau vanishes for ramps whose slope
    vanishes at the ends and stays finite for the linear ramp."""
    end5 = work_term(FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0), 2.0, 3.0)
    endl = work_term(FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 3.0), 2.0, 3.0)
    ok = abs(end5) < 1e-12 and endl > 1e-3
    report("6c endpoint costs", ok, f"poly5 {end5:.2e}, linear {endl:.6f}")


def _power(tau, accounting):
    return cycle(ref_cfg(tau), accounting).power


def _assert_power_ordering(taus, label):
    """Bare-cycle power finite at every tau; the STA and time-averaged
    accountings refused below tau_min, and P_STA >= P_NA above it."""
    tau_min = oracles.tau_min("poly5", 0.35, 1.0)
    bad, powers = [], []
    for tau in taus:
        p_na = _power(tau, Accounting.NONADIABATIC)
        p_cd = {a.value: _cd_or_refused(_power, tau, a) for a in CD_ACCOUNTINGS}
        bad += _refusal_mismatches(tau, tau_min, p_cd)
        if not math.isfinite(p_na):
            bad.append(f"tau={tau}: P_NA={p_na!r} is not finite")
        if tau > tau_min and p_cd["sta"] is not None and p_cd["sta"] < p_na:
            bad.append(f"tau={tau}: P_STA={p_cd['sta']!r} < P_NA={p_na!r}")
        powers.append(f"{p_na:.6g}")
    detail = (
        f"tau_min={tau_min:.7f}, STA and time-averaged refused at tau={[t for t in taus if t <= tau_min]}; "
        f"P_NA=[{', '.join(powers)}] finite; P_STA >= P_NA at tau={[t for t in taus if t > tau_min]}"
    )
    report(label, not bad, "; ".join(bad) or detail)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_criterion_07a_power_ordering_as_stated(tau):
    """Power ordering at the stated tau in {0.5, 1, 2}, all three below
    tau_min: the STA and time-averaged accountings are refused there, so
    P_STA >= P_NA cannot be compared (7b does that above tau_min), and the
    bare cycle's power is finite."""
    _assert_power_ordering((tau,), f"7a power ordering tau={tau} (stated)")


def test_criterion_07b_power_ordering_feasible_grid():
    """P_STA >= P_NA wherever the shortcut exists."""
    _assert_power_ordering((2.25, 2.5, 3.0, 4.0, 6.0, 12.0), "7b power ordering (feasible grid)")


def test_criterion_07c_efficiency_bounds():
    """Shortcut and time-averaged efficiencies never exceed the ideal 0.65."""
    bad = []
    for tau in (2.25, 2.5, 3.0, 4.0, 6.0, 9.0, 12.0, 50.0):
        r_sta = cycle(ref_cfg(tau), Accounting.STA)
        r_avg = cycle(ref_cfg(tau), Accounting.TIME_AVERAGED)
        if r_sta.eta > 0.65 + 1e-12 or r_avg.eta > 0.65 + 1e-12:
            bad.append(f"tau={tau}: eta_sta={r_sta.eta!r}, eta_avg={r_avg.eta!r}")
    report("7c efficiency bounds", not bad, "; ".join(bad) or "eta_STA, eta_AVG <= 0.65 at 8 durations")


def test_criterion_07d_slow_driving_convergence():
    """All four accountings converge to (eta, P) = (0.65, W_AD / tau_cycle)
    within 1e-3 by tau = 50."""
    cfg = ref_cfg(50.0)
    p_want = W_AD_TOTAL / cfg.tau_cycle
    bad = []
    for acct in Accounting:
        r = cycle(cfg, acct)
        if abs(r.eta - 0.65) > 1e-3 or abs(r.power - p_want) > 1e-3:
            bad.append(f"{acct.value}: eta={r.eta!r}, P={r.power!r}")
    report("7d slow-driving convergence", not bad, "; ".join(bad) or "all four accountings within 1e-3")


def test_criterion_08_efficiency_at_maximum_power():
    """High-temperature efficiency at maximum power at gamma = 0.1."""
    gamma = 0.1
    cfg = EmpConfig(omega1=1.0, beta1=1e-6, beta2=gamma * 1e-6, high_t_hot=True)
    res = maximize_power_numeric(cfg)
    # Closed forms evaluated inline as the oracle; the 6-decimal numbers are
    # their display values and are checked at display precision.
    x_exact = (gamma + math.sqrt(2.0 * gamma * (1.0 + gamma))) / (2.0 + gamma)
    eta_ca_exact = 1.0 - math.sqrt(gamma)
    eta_star_exact = 1.0 - (gamma + math.sqrt(4.0 * gamma * (1.0 + gamma))) / (2.0 + gamma)
    eta_ca = curzon_ahlborn(gamma)
    eta_star = eta_max_power_analytic(gamma)
    gap = abs((1.0 - res.x_opt) - eta_star)
    checks = [
        ("x_opt vs formula", abs(res.x_opt - x_exact) < 1e-8, f"{res.x_opt!r}"),
        ("x display", abs(x_exact - 0.270972) < 5e-7, f"{x_exact!r}"),
        ("eta_CA", abs(eta_ca - eta_ca_exact) < 1e-9, f"{eta_ca!r}"),
        ("eta_CA display", abs(eta_ca_exact - 0.683772) < 5e-7, f"{eta_ca_exact!r}"),
        ("eta*", abs(eta_star - eta_star_exact) < 1e-9, f"{eta_star!r}"),
        ("eta* display", abs(eta_star_exact - 0.636512) < 5e-7, f"{eta_star_exact!r}"),
        ("|(1-x_opt)-eta*|", abs(gap - 0.092516) < 1e-6, f"{gap!r}"),
    ]
    bad = [f"{n}={v}" for n, ok, v in checks if not ok]
    detail = "; ".join(bad) or f"x_opt={res.x_opt:.9f}, mismatch |(1-x_opt)-eta*|={gap:.9f} (reported, not hidden)"
    report("8 efficiency at max power", not bad, detail)


def test_criterion_09_randomized_invariants():
    """First law, second law, Carnot bound, determinant and Wronskian
    conservation over 200 random cycle configurations."""
    rng = np.random.default_rng(20260818)
    worst = {"first_law": 0.0, "ds": math.inf, "det": 0.0, "wronskian": 0.0}
    carnot_ok = True
    for _ in range(200):
        w1 = rng.uniform(0.2, 0.8)
        w2 = rng.uniform(0.9, 1.6)
        b1 = rng.uniform(0.5, 3.0)
        b2 = b1 * rng.uniform(0.05, 0.6)
        tau = rng.uniform(0.8, 6.0)
        kind = ProtocolKind(str(rng.choice(["poly5", "poly3", "cosine", "linear"])))
        cfg = CycleConfig(omega1=w1, omega2=w2, beta1=b1, beta2=b2, tau1=tau, tau3=tau, kind=kind)
        r = cycle(cfg, Accounting.NONADIABATIC)
        worst["first_law"] = max(worst["first_law"], abs(r.w1 + r.w3 + r.q2 + r.q4))
        worst["ds"] = min(worst["ds"], r.ds_tot)
        if r.is_engine and r.eta > cfg.eta_carnot + 1e-12:
            carnot_ok = False

        for proto, beta in ((cfg.compression_protocol(), b1), (cfg.expansion_protocol(), b2)):
            ts = np.array([0.0, 0.5 * tau, tau])
            st0 = thermal_state(beta, proto.omega_i)
            d0 = float(np.linalg.det(st0.cov))
            for st in states(st0, proto, ts):
                worst["det"] = max(worst["det"], abs(float(np.linalg.det(st.cov)) - d0) / d0)
            rows = pair(proto, ts)
            wr = rows[:, 0] * rows[:, 3] - rows[:, 2] * rows[:, 1]
            worst["wronskian"] = max(worst["wronskian"], float(np.max(np.abs(wr + 1.0))))

    ok = (
        worst["first_law"] < 1e-9
        and worst["ds"] >= -1e-9
        and carnot_ok
        and worst["det"] < 1e-8
        and worst["wronskian"] < 1e-8
    )
    detail = (
        f"first-law max {worst['first_law']:.2e}, min dS {worst['ds']:.3e}, "
        f"Carnot bound {'held' if carnot_ok else 'VIOLATED'}, det drift {worst['det']:.2e}, "
        f"Wronskian drift {worst['wronskian']:.2e}"
    )
    report("9 randomized invariants", ok, detail)


def test_criterion_10_sweep_is_thread_deterministic(tmp_path):
    """The default sweep gives byte-identical output at --jobs 1 and 8."""
    from ottosta.cli import main

    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--jobs", "1", "--out", a]) == 0
    assert main(["sweep", "--jobs", "8", "--out", b]) == 0
    same = Path(a).read_bytes() == Path(b).read_bytes()
    n_rows = len(Path(a).read_text().strip().splitlines()) - 2
    report("10 sweep determinism", same, f"{n_rows} rows, jobs 1 vs 8 byte-identical: {same}")
