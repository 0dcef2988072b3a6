"""Dataset builders behind the CLI subcommands.

Each builder takes a fully resolved parameter dict (see ottosta.cli for
defaults and schema validation) and returns (columns, rows). Rows are plain
Python lists of floats/strings/bools/None so the CSV and JSON writers can
format them deterministically. Parallel evaluation uses an order-preserving
thread map, so the row order never depends on the job count. The Fock
oracle columns of ``cycle`` stay out of it and run serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import fock_oracle
from .dynamics import (
    Drive,
    adiabaticity_pair_path,
    adiabaticity_path,
    mean_energy,
    propagate,
    q_cd_grid,
    thermal_state,
)
from .errors import TrapInversionError
from .optimizer import (
    EmpConfig,
    curzon_ahlborn,
    eta_max_power_analytic,
    golden_max,
    maximize_power_numeric,
    power_curve,
)
from .protocols import FrequencyProtocol, ProtocolKind
from .sta_cost import StrokeContext, avg_variance_cost, avg_work_cost, friction
from .thermo_cycle import (
    Accounting,
    CycleConfig,
    evaluate_cycle,
)

__all__ = [
    "resolve_grid",
    "default_jobs",
    "qstar_dataset",
    "cost_dataset",
    "cycle_dataset",
    "empower_dataset",
    "sweep_dataset",
]


def resolve_grid(spec) -> list[float]:
    """A grid is either an explicit list of numbers or {start, stop, num}."""
    if isinstance(spec, dict):
        return [float(v) for v in np.linspace(spec["start"], spec["stop"], int(spec["num"]))]
    return [float(v) for v in spec]


def default_jobs() -> int:
    return os.cpu_count() or 1


def _thread_map(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# -- qstar -------------------------------------------------------------------


def qstar_dataset(params: dict, oracle: bool = False, jobs: int = 1):
    """Adiabaticity curves Q*(t) for each protocol kind on a common grid."""
    omega_i = params["omega_i"]
    omega_f = params["omega_f"]
    tau = params["tau"]
    beta = params["beta"]
    rtol = params["rtol"]
    ts = np.linspace(0.0, tau, int(params["samples"]))
    columns = ["t", "protocol_kind", "omega", "q_cd", "q_bare"]
    if oracle:
        columns.append("q_pair")

    def one_kind(kind_name: str):
        kind = ProtocolKind(kind_name)
        protocol = FrequencyProtocol(kind, omega_i, omega_f, tau)
        omegas = np.atleast_1d(protocol.omega(ts))
        q_cd_vals = q_cd_grid(protocol, ts)
        q_bare_vals = adiabaticity_path(protocol, beta, ts, drive=Drive.BARE, rtol=rtol)
        q_pair_vals = (
            adiabaticity_pair_path(protocol, ts, rtol=rtol) if oracle else None
        )
        rows = []
        for j, t in enumerate(ts):
            row = [
                float(t),
                kind.value,
                float(omegas[j]),
                float(q_cd_vals[j]),
                float(q_bare_vals[j]),
            ]
            if oracle:
                row.append(float(q_pair_vals[j]))
            rows.append(row)
        return rows

    blocks = _thread_map(one_kind, list(params["kinds"]), jobs)
    rows = [row for block in blocks for row in block]
    return columns, rows


# -- cost --------------------------------------------------------------------


def cost_dataset(params: dict, oracle: bool = False, jobs: int = 1):
    """Driving-cost measures of one stroke as a function of driving time."""
    kind = ProtocolKind(params["kind"])
    omega_i = params["omega_i"]
    omega_f = params["omega_f"]
    beta = params["beta"]
    nodes = int(params["nodes"])
    rtol = params["rtol"]
    taus = resolve_grid(params["taus"])
    columns = ["tau", "avg_work_cost", "avg_variance_cost", "friction_final", "adiabatic_work"]
    if oracle:
        columns.append("tpm_excess_residual")

    def one_tau(tau: float):
        protocol = FrequencyProtocol(kind, omega_i, omega_f, tau)
        ctx = StrokeContext(protocol, beta)
        w_ad = (omega_f / omega_i - 1.0) * ctx.h0_mean
        row = [
            tau,
            avg_work_cost(ctx, nodes=nodes),
            avg_variance_cost(ctx, nodes=nodes),
            friction(ctx, tau, rtol=rtol),
            w_ad,
        ]
        if oracle:
            from .sta_cost import work_variance_excess

            t_mid = 0.5 * tau
            closed = float(work_variance_excess(ctx, t_mid))
            matrix = fock_oracle.tpm_variance_excess(protocol, beta, t_mid)
            row.append(abs(matrix - closed) / max(abs(closed), 1e-30))
        return row

    rows = _thread_map(one_tau, taus, jobs)
    return columns, rows


# -- cycle -------------------------------------------------------------------


def _fock_stroke_residual(protocol: FrequencyProtocol, beta: float, rtol: float) -> float:
    """Relative gap between Fock and Gaussian mean energies at stroke end."""
    dim = fock_oracle.stroke_dim(beta, protocol)
    ops = fock_oracle.build_operators(fock_oracle.stroke_reference(protocol), dim)
    state_f = fock_oracle.thermal_fock_in(ops, beta, protocol.omega_i)
    end_f = fock_oracle.propagate_fock(ops, state_f, protocol, protocol.tau, drive=Drive.BARE)
    e_fock = fock_oracle.mean_energy_fock(ops, end_f, protocol.omega_f)
    state_g = thermal_state(beta, protocol.omega_i)
    end_g = propagate(state_g, protocol, protocol.tau, drive=Drive.BARE, rtol=rtol)
    e_gauss = mean_energy(end_g, protocol.omega_f)
    return abs(e_fock - e_gauss) / abs(e_gauss)


def cycle_dataset(params: dict, oracle: bool = False, jobs: int = 1):
    """Efficiency and power versus driving time under all four accountings."""
    kind = ProtocolKind(params["kind"])
    omega1 = params["omega1"]
    omega2 = params["omega2"]
    beta1 = params["beta1"]
    beta2 = params["beta2"]
    nodes = int(params["nodes"])
    rtol = params["rtol"]
    taus = resolve_grid(params["taus"])
    columns = [
        "tau",
        "eta_ad", "P_ad",
        "eta_na", "P_na",
        "eta_sta", "P_sta",
        "eta_avg", "P_avg",
    ]
    if oracle:
        columns.append("fock_residual")

    def config_at(tau: float) -> CycleConfig:
        return CycleConfig(
            omega1=omega1, omega2=omega2, beta1=beta1, beta2=beta2,
            tau1=tau, tau3=tau, kind=kind,
        )

    def one_tau(tau: float):
        config = config_at(tau)
        r_ad = evaluate_cycle(config, Accounting.ADIABATIC, nodes=nodes, rtol=rtol)
        r_na = evaluate_cycle(config, Accounting.NONADIABATIC, nodes=nodes, rtol=rtol)
        r_sta = evaluate_cycle(config, Accounting.STA, nodes=nodes, rtol=rtol)
        r_avg = evaluate_cycle(config, Accounting.TIME_AVERAGED, nodes=nodes, rtol=rtol)
        return [
            tau,
            r_ad.eta, r_ad.power,
            r_na.eta, r_na.power,
            r_sta.eta, r_sta.power,
            r_avg.eta, r_avg.power,
        ]

    rows = _thread_map(one_tau, taus, jobs)
    if oracle:
        # Serially on the calling thread: each Fock stroke is dense LAPACK
        # work that already uses every BLAS thread, and two such callers at
        # once run slower than one after the other.
        for tau, row in zip(taus, rows):
            config = config_at(tau)
            res1 = _fock_stroke_residual(config.compression_protocol(), beta1, rtol)
            res3 = _fock_stroke_residual(config.expansion_protocol(), beta2, rtol)
            row.append(max(res1, res3))
    return columns, rows


# -- empower -----------------------------------------------------------------


def empower_dataset(params: dict, oracle: bool = False, jobs: int = 1):
    """Efficiency at maximum power versus bath temperature ratio."""
    omega1 = params["omega1"]
    beta1 = params["beta1"]
    high_t_hot = bool(params["high_t_hot"])
    xtol = params["xtol"]
    ratios = resolve_grid(params["beta_ratios"])
    columns = [
        "beta_ratio", "eta_ca", "eta_star_printed", "one_minus_xopt",
        "x_opt_numeric", "delta_eta",
    ]
    if oracle:
        columns.append("x_opt_scan")

    def one_ratio(ratio: float):
        config = EmpConfig(
            omega1=omega1, beta1=beta1, beta2=ratio * beta1, high_t_hot=high_t_hot
        )
        result = maximize_power_numeric(config, xtol=xtol)
        eta_star = eta_max_power_analytic(result.gamma)
        row = [
            ratio,
            curzon_ahlborn(ratio),
            eta_star,
            1.0 - result.x_opt,
            result.x_opt,
            abs((1.0 - result.x_opt) - eta_star),
        ]
        if oracle:
            # Independent route: coarse scan plus golden refinement of the
            # bracketing interval around the best sample.
            xs = np.linspace(1e-4, 1.0 - 1e-6, 4001)
            ps = np.array([power_curve(config, float(x)) for x in xs])
            i = int(np.argmax(ps))
            lo = xs[max(i - 1, 0)]
            hi = xs[min(i + 1, xs.size - 1)]
            x_scan, _ = golden_max(lambda x: power_curve(config, x), lo, hi, xtol=xtol)
            row.append(float(x_scan))
        return row

    rows = _thread_map(one_ratio, ratios, jobs)
    return columns, rows


# -- sweep -------------------------------------------------------------------

_SWEEP_VALUE_COLUMNS = [
    "q1_star", "q3_star", "w1", "w3", "q2", "q4", "cost1", "cost3",
    "eta", "power", "ds_tot", "is_engine",
]


def sweep_dataset(params: dict, oracle: bool = False, jobs: int = 1):
    """Cartesian product over (omega ratio, beta ratio, tau, kind,
    accounting) with the full cycle result per point. Row order is the
    nested loop order of the grids as configured, independent of jobs."""
    omega2 = params["omega2"]
    beta1 = params["beta1"]
    nodes = int(params["nodes"])
    rtol = params["rtol"]
    omega_ratios = resolve_grid(params["omega_ratios"])
    beta_ratios = resolve_grid(params["beta_ratios"])
    taus = resolve_grid(params["taus"])
    kinds = [ProtocolKind(k) for k in params["kinds"]]
    accountings = [Accounting(a) for a in params["accountings"]]

    columns = ["omega_ratio", "beta_ratio", "tau", "kind", "accounting"]
    columns += _SWEEP_VALUE_COLUMNS
    columns.append("status")

    points = [
        (wr, br, tau, kind, acct)
        for wr in omega_ratios
        for br in beta_ratios
        for tau in taus
        for kind in kinds
        for acct in accountings
    ]

    def one_point(point):
        wr, br, tau, kind, acct = point
        head = [wr, br, tau, kind.value, acct.value]
        try:
            config = CycleConfig(
                omega1=wr * omega2, omega2=omega2,
                beta1=beta1, beta2=br * beta1,
                tau1=tau, tau3=tau, kind=kind,
            )
            r = evaluate_cycle(config, acct, nodes=nodes, rtol=rtol)
        except TrapInversionError:
            return head + [None] * len(_SWEEP_VALUE_COLUMNS) + ["trap_inversion"]
        return head + [
            r.q1_star, r.q3_star, r.w1, r.w3, r.q2, r.q4, r.cost1, r.cost3,
            r.eta, r.power, r.ds_tot, r.is_engine, "ok",
        ]

    rows = _thread_map(one_point, points, jobs)
    return columns, rows
