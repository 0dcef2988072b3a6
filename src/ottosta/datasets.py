"""Dataset builders behind the CLI subcommands.

Each builder takes a fully resolved parameter dict (see ottosta.cli for
defaults and schema validation) and returns (columns, rows). Rows are plain
Python lists of floats/strings/bools/None so the CSV and JSON writers can
format them deterministically. Each dataset is computed in one serial pass:
the Gaussian strokes of all its rows go through one stacked propagation
(``dynamics.adiabaticity_stack``), and each cycle point's strokes are
evaluated once and booked under every accounting
(``thermo_cycle.stroke_records`` and ``book_cycle``). The Fock oracle
columns of ``cycle`` follow, row by row, in tau order, each checked
against the stroke-end energy of the row's stroke record.
"""

from __future__ import annotations

import numpy as np

from . import fock_oracle
from .dynamics import Drive, adiabaticity_stack, q_cd_grid, thermal_energy
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
from .sta_cost import (
    StrokeContext,
    avg_variance_cost,
    avg_work_cost,
    friction_ends,
    work_variance_excess,
)
from .thermo_cycle import Accounting, CycleConfig, book_cycle, stroke_records

__all__ = [
    "resolve_grid",
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


# -- qstar -------------------------------------------------------------------


def qstar_dataset(params: dict, oracle: bool = False):
    """Adiabaticity curves Q*(t) for each protocol kind on a common grid.
    q_bare and q_pair are two readouts of one stacked propagation."""
    omega_i = params["omega_i"]
    omega_f = params["omega_f"]
    tau = params["tau"]
    beta = params["beta"]
    rtol = params["rtol"]
    ts = np.linspace(0.0, tau, int(params["samples"]))
    columns = ["t", "protocol_kind", "omega", "q_cd", "q_bare"]
    if oracle:
        columns.append("q_pair")

    protocols = [
        FrequencyProtocol(ProtocolKind(k), omega_i, omega_f, tau) for k in params["kinds"]
    ]
    q_cd = [q_cd_grid(p, ts) for p in protocols]
    q_bare, q_pair = adiabaticity_stack(
        protocols, [beta] * len(protocols), [ts] * len(protocols), rtol=rtol
    )
    rows = []
    for b, protocol in enumerate(protocols):
        omegas = np.atleast_1d(protocol.omega(ts))
        for j, t in enumerate(ts):
            row = [
                float(t),
                protocol.kind.value,
                float(omegas[j]),
                float(q_cd[b][j]),
                float(q_bare[b, j]),
            ]
            if oracle:
                row.append(float(q_pair[b, j]))
            rows.append(row)
    return columns, rows


# -- cost --------------------------------------------------------------------


def cost_dataset(params: dict, oracle: bool = False):
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

    ctxs = [StrokeContext(FrequencyProtocol(kind, omega_i, omega_f, tau), beta) for tau in taus]
    rows = [
        [
            tau,
            avg_work_cost(ctx, nodes=nodes),
            avg_variance_cost(ctx, nodes=nodes),
            float(friction),
            (omega_f / omega_i - 1.0) * ctx.h0_mean,
        ]
        for tau, ctx, friction in zip(taus, ctxs, friction_ends(ctxs, rtol=rtol))
    ]
    if oracle:
        for tau, ctx, row in zip(taus, ctxs, rows):
            t_mid = 0.5 * tau
            closed = float(work_variance_excess(ctx, t_mid))
            matrix = fock_oracle.tpm_variance_excess(ctx.protocol, beta, t_mid)
            row.append(abs(matrix - closed) / max(abs(closed), 1e-30))
    return columns, rows


# -- cycle -------------------------------------------------------------------


def _fock_stroke_residual(protocol: FrequencyProtocol, beta: float, q: float) -> float:
    """Relative gap between the Fock mean energy at the end of a bare stroke
    and the Gaussian one, Q* (omega_f/omega_i) <H(0)> with ``q`` the Q* of
    the stroke record."""
    dim = fock_oracle.stroke_dim(beta, protocol)
    ops = fock_oracle.build_operators(fock_oracle.stroke_reference(protocol), dim)
    state_f = fock_oracle.thermal_fock_in(ops, beta, protocol.omega_i)
    end_f = fock_oracle.propagate_fock(ops, state_f, protocol, protocol.tau, drive=Drive.BARE)
    e_fock = fock_oracle.mean_energy_fock(ops, end_f, protocol.omega_f)
    e_gauss = q * (protocol.omega_f / protocol.omega_i) * thermal_energy(beta, protocol.omega_i)
    return abs(e_fock - e_gauss) / abs(e_gauss)


def cycle_dataset(params: dict, oracle: bool = False):
    """Efficiency and power versus driving time under all four accountings,
    booked from one stroke record per tau."""
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

    configs = [
        CycleConfig(
            omega1=omega1, omega2=omega2, beta1=beta1, beta2=beta2,
            tau1=tau, tau3=tau, kind=kind,
        )
        for tau in taus
    ]
    records = stroke_records(configs, nodes=nodes, rtol=rtol)
    rows = []
    for tau, config, record in zip(taus, configs, records):
        row = [tau]
        for accounting in Accounting:
            result = book_cycle(config, record, accounting)
            row += [result.eta, result.power]
        rows.append(row)
    if oracle:
        # Serially on the calling thread: each Fock stroke is dense LAPACK
        # work that already uses every BLAS thread.
        for config, record, row in zip(configs, records, rows):
            res1 = _fock_stroke_residual(config.compression_protocol(), beta1, record.q1)
            res3 = _fock_stroke_residual(config.expansion_protocol(), beta2, record.q3)
            row.append(max(res1, res3))
    return columns, rows


# -- empower -----------------------------------------------------------------


def empower_dataset(params: dict, oracle: bool = False):
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

    return columns, [one_ratio(ratio) for ratio in ratios]


# -- sweep -------------------------------------------------------------------

_SWEEP_VALUE_COLUMNS = [
    "q1_star", "q3_star", "w1", "w3", "q2", "q4", "cost1", "cost3",
    "eta", "power", "ds_tot", "is_engine",
]


def sweep_dataset(params: dict, oracle: bool = False):
    """Cartesian product over (omega ratio, beta ratio, tau, kind,
    accounting) with the full cycle result per point. Row order is the
    nested loop order of the grids as configured. The strokes of each
    (omega ratio, beta ratio, tau, kind) point are computed once, as far as
    the configured accountings read them, and booked under each."""
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
        (wr, br, tau, kind)
        for wr in omega_ratios
        for br in beta_ratios
        for tau in taus
        for kind in kinds
    ]
    configs = [
        CycleConfig(
            omega1=wr * omega2, omega2=omega2,
            beta1=beta1, beta2=br * beta1,
            tau1=tau, tau3=tau, kind=kind,
        )
        for wr, br, tau, kind in points
    ]
    records = stroke_records(configs, accountings, nodes=nodes, rtol=rtol)
    rows = []
    for (wr, br, tau, kind), config, record in zip(points, configs, records):
        for acct in accountings:
            head = [wr, br, tau, kind.value, acct.value]
            try:
                r = book_cycle(config, record, acct)
            except TrapInversionError:
                rows.append(head + [None] * len(_SWEEP_VALUE_COLUMNS) + ["trap_inversion"])
                continue
            rows.append(head + [
                r.q1_star, r.q3_star, r.w1, r.w3, r.q2, r.q4, r.cost1, r.cost3,
                r.eta, r.power, r.ds_tot, r.is_engine, "ok",
            ])
    return columns, rows
