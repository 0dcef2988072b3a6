"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the equations of motion with
the dumbest possible numerics (fixed-step classic RK4, trapezoid sums,
dense scans) and without importing ottosta, so agreement with the library
is evidence rather than tautology. The one exception is ``fock_state``,
which converts a dense density matrix into the Fock oracle's state format
(and ``dense_rho`` back), so that dense references can start and read it.
"""

import functools
import json
import math

import numpy as np


def format_cell(value):
    """One CSV cell as text, cell by cell: "" for None, true/false for
    bools, repr for floats, str for the rest."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(meta, columns, rows):
    """CSV text of a table, one row at a time through format_cell."""
    header = "# " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
    lines = [header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(meta, columns, rows):
    """JSON text of a table: metadata, columns and rows as one document."""
    doc = {"metadata": meta, "columns": columns, "rows": rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def ramp_omega(kind, omega_i, omega_f, tau, t):
    """Frequency value for the named ramp at time t."""
    s = t / tau
    if kind == "constant":
        return omega_i
    if kind == "linear":
        return omega_i + (omega_f - omega_i) * s
    if kind == "poly3":
        f = s * s * (3.0 - 2.0 * s)
        return omega_i + (omega_f - omega_i) * f
    if kind == "poly5":
        f = s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
        return omega_i + (omega_f - omega_i) * f
    if kind == "cosine":
        a = omega_f / omega_i
        inner = ((a * a + 1.0) - (a * a - 1.0) * math.cos(math.pi * s)) / 2.0
        return omega_i * math.sqrt(inner)
    raise ValueError(kind)


def validity_margin(protocol, ts):
    """Counterdiabatic validity margin 1 - omegadot^2 / (4 omega^4) of a
    protocol object at the given times, sampled through its own eval."""
    w, wd = protocol.eval(ts)
    return 1.0 - wd**2 / (4.0 * w**4)


def ramp_omega_ddot(kind, omega_i, omega_f, tau, t):
    """Closed-form d^2(omega)/dt^2 of the named ramp at time t, dividing by
    tau twice, since tau^2 overflows a float for durations above about
    1.3e154. The cosine ramp interpolates omega^2 = omega_i^2 u(s), so its
    curvature is omega_i (u'' / (2 sqrt(u)) - u'^2 / (4 u^1.5)) / tau^2."""
    s = t / tau
    d = omega_f - omega_i
    if kind in ("constant", "linear"):
        return 0.0
    if kind == "poly3":
        return d * (6.0 - 12.0 * s) / tau / tau
    if kind == "poly5":
        return d * (60.0 * s - 180.0 * s * s + 120.0 * s**3) / tau / tau
    if kind == "cosine":
        a2 = (omega_f / omega_i) ** 2
        u = ((a2 + 1.0) - (a2 - 1.0) * math.cos(math.pi * s)) / 2.0
        du = (a2 - 1.0) * math.pi * math.sin(math.pi * s) / 2.0
        ddu = (a2 - 1.0) * math.pi**2 * math.cos(math.pi * s) / 2.0
        return omega_i * (ddu / (2.0 * math.sqrt(u)) - du * du / (4.0 * u**1.5)) / tau / tau
    raise ValueError(kind)


def sta_boundary(protocol, tol=1e-12):
    """Shortcut boundary conditions of a protocol object: {"value": (start,
    end), "slope": (start, end), "curvature": (start, end)}, each flag true
    when omega(0) = omega_i, omega(tau) = omega_f, or the derivative
    vanishes there, to ``tol`` of its scale. Value and slope come through
    the protocol's own eval, the curvature from ramp_omega_ddot.
    Counterdiabatic driving switches off at the ends when the value and
    slope conditions hold. The curvature scale divides by tau twice, as
    ramp_omega_ddot does."""
    w0, wd0 = protocol.eval(0.0)
    w1, wd1 = protocol.eval(protocol.tau)
    wdd0, wdd1 = (
        ramp_omega_ddot(protocol.kind.value, protocol.omega_i, protocol.omega_f, protocol.tau, t)
        for t in (0.0, protocol.tau)
    )
    scale_w = max(abs(protocol.omega_i), abs(protocol.omega_f))
    scale_d = max(abs(protocol.omega_f - protocol.omega_i), scale_w) / protocol.tau
    return {
        "value": (
            abs(w0 - protocol.omega_i) <= tol * scale_w,
            abs(w1 - protocol.omega_f) <= tol * scale_w,
        ),
        "slope": (abs(wd0) <= tol * scale_d, abs(wd1) <= tol * scale_d),
        "curvature": (
            abs(wdd0) <= tol * scale_d / protocol.tau,
            abs(wdd1) <= tol * scale_d / protocol.tau,
        ),
    }


def sudden_quench_q(omega_i, omega_f):
    """Adiabaticity factor of an instantaneous frequency jump:
    (omega_i^2 + omega_f^2) / (2 omega_i omega_f). The tau -> 0 limit of any
    ramp's bare-drive Q*(tau)."""
    if omega_i <= 0.0 or omega_f <= 0.0:
        raise ValueError("frequencies must be positive")
    return (omega_i * omega_i + omega_f * omega_f) / (2.0 * omega_i * omega_f)


def ramp_omega_dot(kind, omega_i, omega_f, tau, t, h=1e-6):
    """Centered finite-difference d(omega)/dt, used to probe the closed forms."""
    lo = max(0.0, t - h)
    hi = min(tau, t + h)
    return (ramp_omega(kind, omega_i, omega_f, tau, hi) - ramp_omega(kind, omega_i, omega_f, tau, lo)) / (hi - lo)


@functools.lru_cache(maxsize=None)
def tau_min(kind, omega_i, omega_f, n=200001):
    """Shortest stroke duration for which the counterdiabatic drive exists.

    The validity margin 1 - omegadot^2/(4 omega^4) stays positive on the
    whole stroke iff tau > max_t |omegadot| / (2 omega^2) evaluated at
    tau = 1, because omegadot scales as 1/tau at fixed s = t/tau. Dense scan
    of that maximum over n points of the unit-duration ramp."""
    rates = (
        abs(ramp_omega_dot(kind, omega_i, omega_f, 1.0, t)) / (2.0 * ramp_omega(kind, omega_i, omega_f, 1.0, t) ** 2)
        for t in np.linspace(0.0, 1.0, n).tolist()
    )
    return max(rates)


def rk4_fixed(rhs, y0, t0, t1, n_steps):
    """Classic fixed-step RK4. rhs(t, y) -> dy/dt as a numpy array."""
    y = np.asarray(y0, dtype=np.float64).copy()
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def covariance_rhs(kind, omega_i, omega_f, tau, cd):
    """RHS for y = (mx, mp, Sxx, Sxp, Spp) under H = p^2/2 + w^2 x^2/2
    plus, when cd is true, the squeezing term (g/2)(xp+px) with
    g = -wdot/(2 w)."""

    def rhs(t, y):
        w = ramp_omega(kind, omega_i, omega_f, tau, t)
        g = 0.0
        if cd:
            wd = ramp_omega_dot(kind, omega_i, omega_f, tau, t, h=1e-7 * max(tau, 1.0))
            g = -wd / (2.0 * w)
        mx, mp_, sxx, sxp, spp = y
        w2 = w * w
        return np.array(
            [
                g * mx + mp_,
                -w2 * mx - g * mp_,
                2.0 * (g * sxx + sxp),
                spp - w2 * sxx,
                -2.0 * (w2 * sxp + g * spp),
            ]
        )

    return rhs


def cd_transfer_matrices(kind, omega_i, omega_f, tau, ts, steps):
    """Transfer matrices (K, 2, 2) of the counterdiabatic drive at the
    ascending checkpoints ``ts``: column j holds the means (x, p) grown from
    the j-th unit start by fixed-step RK4 of covariance_rhs(..., cd=True),
    with ceil(gap * steps / tau) steps per checkpoint gap."""
    rhs = covariance_rhs(kind, omega_i, omega_f, tau, cd=True)
    cols = np.eye(2, 5)
    t, out = 0.0, []
    for target in ts:
        n = math.ceil((target - t) * steps / tau)
        if n:
            cols = np.array([rk4_fixed(rhs, y, t, target, n) for y in cols])
        t = target
        out.append(cols[:, :2].T)
    return np.array(out)


def pair_rhs(kind, omega_i, omega_f, tau):
    """RHS for the classical solution pair y = (X, Xdot, Y, Ydot) of
    xddot + omega(t)^2 x = 0."""

    def rhs(t, y):
        w = ramp_omega(kind, omega_i, omega_f, tau, t)
        w2 = w * w
        return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2]])

    return rhs


def brute_adiabaticity(kind, omega_i, omega_f, tau, beta, n_steps=20000):
    """Energy-ratio adiabaticity factor at t = tau from a brute RK4 run of
    the bare covariance equations, started from a thermal state."""
    c = 1.0 / math.tanh(beta * omega_i / 2.0)
    y0 = np.array([0.0, 0.0, c / (2.0 * omega_i), 0.0, c * omega_i / 2.0])
    rhs = covariance_rhs(kind, omega_i, omega_f, tau, cd=False)
    y = rk4_fixed(rhs, y0, 0.0, tau, n_steps)
    w = ramp_omega(kind, omega_i, omega_f, tau, tau)
    energy = 0.5 * (y[4] + w * w * y[2]) + 0.5 * (y[1] ** 2 + w * w * y[0] ** 2)
    adiabatic = 0.5 * w * c
    return energy / adiabatic


@functools.lru_cache(maxsize=None)
def brute_pair_q(kind, omega_i, omega_f, tau, n_steps=20000):
    """Beta-independent adiabaticity factor from the classical pair,
    computed once per session for each set of arguments."""
    rhs = pair_rhs(kind, omega_i, omega_f, tau)
    y = rk4_fixed(rhs, np.array([0.0, 1.0, 1.0, 0.0]), 0.0, tau, n_steps)
    x_, xd, y_, yd = y
    wt = ramp_omega(kind, omega_i, omega_f, tau, tau)
    wi = omega_i
    return (wi * wi * (wt * wt * x_ * x_ + xd * xd) + (wt * wt * y_ * y_ + yd * yd)) / (2.0 * wi * wt)


def trapezoid_mean(f, a, b, n=200001):
    """Plain trapezoid average of f over [a, b]."""
    ts = np.linspace(a, b, n)
    vals = np.array([f(t) for t in ts])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return trapezoid(vals, ts) / (b - a)


def cd_terms_longdouble(kind, omega_i, omega_f, tau, ts):
    """Long-double integrands of the counterdiabatic costs at the times ts:
    the mean extra work per <H(0)>, (omega/omega_i)(Q - 1), and the excess
    work variance per n_bar (n_bar + 1),
    (omega Q - omega_i)^2 - (omega - omega_i)^2, with
    Q = 1/sqrt(1 - x), x = omegadot^2/(4 omega^4), from the closed-form
    slope of the ramp. Q - 1 is taken as x Q^2 / (Q + 1) and the variance
    as omega (Q - 1)(2 (omega - omega_i) + omega (Q - 1)), the same
    numbers without the cancellations near the stroke ends, where both
    vanish."""
    ld = np.longdouble
    s = np.asarray(ts, dtype=ld) / ld(tau)
    wi, d = ld(omega_i), ld(omega_f) - ld(omega_i)
    if kind == "poly5":
        dw, slope = d * s**3 * (10 - 15 * s + 6 * s * s), d * 30 * s * s * (1 - s) ** 2
    elif kind == "poly3":
        dw, slope = d * s * s * (3 - 2 * s), d * 6 * s * (1 - s)
    elif kind == "linear":
        dw, slope = d * s, d + 0 * s
    elif kind == "cosine":
        pi = np.arccos(ld(-1))
        a2 = (ld(omega_f) / wi) ** 2
        u = ((a2 + 1) - (a2 - 1) * np.cos(pi * s)) / 2
        dw = wi * np.sqrt(u) - wi
        slope = wi * (a2 - 1) * pi * np.sin(pi * s) / (4 * np.sqrt(u))
    else:
        raise ValueError(kind)
    w = wi + dw
    x = (slope / ld(tau)) ** 2 / (4 * w**4)
    q = 1 / np.sqrt(1 - x)
    q1 = x * q * q / (q + 1)
    return (w / wi) * q1, w * q1 * (2 * dw + w * q1)


def cd_costs_longdouble(kind, omega_i, omega_f, tau, nodes):
    """Long-double Simpson averages over ``nodes`` uniform samples of a
    stroke (t_j = tau j / (nodes - 1)) of the two integrands of
    cd_terms_longdouble, the second under a square root: the work cost per
    <H(0)> and the fluctuation cost per sqrt(n_bar (n_bar + 1))."""
    ld = np.longdouble
    ts = ld(tau) * np.arange(nodes, dtype=ld) / ld(nodes - 1)
    work, variance = cd_terms_longdouble(kind, omega_i, omega_f, tau, ts)
    weights = np.ones(nodes, dtype=ld)
    weights[1:-1:2], weights[2:-1:2] = 4, 2
    return (
        np.sum(weights * work) / (3 * (nodes - 1)),
        np.sum(weights * np.sqrt(variance)) / (3 * (nodes - 1)),
    )


def thermal_nbar(beta, omega):
    return 1.0 / math.expm1(beta * omega)


def thermal_energy(beta, omega):
    return 0.5 * omega / math.tanh(0.5 * beta * omega)


def optimal_x_analytic(gamma):
    """Closed-form stationary frequency ratio of the adiabatic engine's power
    curve, [gamma + sqrt(2 gamma (1 + gamma))] / (2 + gamma), exact when the
    hot-side energy does not depend on the ratio (gamma = <H>_A / <H>_C)."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return (gamma + math.sqrt(2.0 * gamma * (1.0 + gamma))) / (2.0 + gamma)


def efficiency_exact(config, q1, q3):
    """Engine efficiency -(W1+W3)/Q2 in its factored closed form, from the
    cycle's compression ratio x and bath-state energies <H>_A (cold) and
    <H>_C (hot); the reference that the booked efficiency is checked against."""
    x = config.x
    num = x * (x * q3 * config.hot_energy - config.cold_energy)
    den = x * config.hot_energy - q1 * config.cold_energy
    return 1.0 - num / den


def dense_operators(ref_omega, dim):
    """x and p on the lowest ``dim`` number states of ``ref_omega`` as dense
    complex matrices, from the truncated annihilator a:
    x = (a + a^dagger) / sqrt(2 w) and p = i sqrt(w / 2) (a^dagger - a).
    Their complex products are the reference for the package's bands."""
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    ad = a.conj().T
    x = (a + ad) / math.sqrt(2.0 * ref_omega)
    p = 1j * math.sqrt(ref_omega / 2.0) * (ad - a)
    return x, p


def fock_state(rho, omega):
    """The ``fock_oracle.FockState`` of the dense density matrix ``rho`` in
    the number basis of ``omega``: its even-even and odd-odd blocks. Raises
    ValueError when rho has a coherence between even and odd n, which the
    Fock oracle does not carry."""
    from ottosta.fock_oracle import FockState

    rho = np.asarray(rho)
    if np.any(rho[0::2, 1::2]) or np.any(rho[1::2, 0::2]):
        raise ValueError("rho has a coherence between even and odd number states")
    return FockState(rho[0::2, 0::2], rho[1::2, 1::2], omega)


def dense_rho(state):
    """The dense density matrix in Fock order of parity blocks ``state``
    (anything with ``even`` and ``odd`` blocks)."""
    n = state.even.shape[0] + state.odd.shape[0]
    rho = np.zeros((n, n), dtype=complex)
    rho[0::2, 0::2] = state.even
    rho[1::2, 1::2] = state.odd
    return rho


def relative_entropy(rho, sigma):
    """S(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma], in nats, from
    two dense eigensolves. Returns inf when rho puts more than 1e-10 of its
    weight on the null space of sigma (eigenvalues below 1e-14)."""
    lam, u = np.linalg.eigh(np.asarray(rho, dtype=np.complex128))
    mu, w = np.linalg.eigh(np.asarray(sigma, dtype=np.complex128))
    lam = np.clip(lam.real, 0.0, None)
    mu = mu.real
    overlap = np.abs(u.conj().T @ w) ** 2  # overlap[i, j] = |<u_i | w_j>|^2
    weights_on_j = lam @ overlap
    null = mu < 1e-14
    if float(np.sum(weights_on_j[null])) > 1e-10:
        return math.inf
    pos = lam > 0.0
    s_rho = float(np.sum(lam[pos] * np.log(lam[pos])))
    keep = ~null
    s_cross = float(np.sum(weights_on_j[keep] * np.log(mu[keep])))
    s = s_rho - s_cross
    return max(s, 0.0) if s > -1e-9 else s


def dense_h0(ref_omega, dim, omega):
    """The trap Hamiltonian p^2/2 + omega^2 x^2/2 as a dense matrix on the
    lowest ``dim`` number states of ``ref_omega`` (dense_operators)."""
    x, p = dense_operators(ref_omega, dim)
    return 0.5 * (p @ p + omega * omega * (x @ x))


def dense_thermal(beta, omega, ref_omega, dim):
    """The Gibbs state of the trap at ``omega`` on the lowest ``dim`` number
    states of ``ref_omega``: Gibbs populations on the ascending eigenvectors
    of the dense H0(omega) within the truncation."""
    _, vecs = np.linalg.eigh(dense_h0(ref_omega, dim, omega))
    pops = np.exp(-beta * omega * np.arange(dim))
    return (vecs * (pops / pops.sum())) @ vecs.conj().T


def dense_populations(rho, ref_omega, omega):
    """Populations of the dense ``rho``, written on the number states of
    ``ref_omega``, on the ascending eigenvectors of H0(omega) within its
    truncation."""
    _, vecs = np.linalg.eigh(dense_h0(ref_omega, len(rho), omega))
    return np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs).real


def dense_stroke(kind, omega_i, omega_f, tau, rho0, ref_omega, ts, cd, steps):
    """The dense density matrix ``rho0``, written on the number states of
    ``ref_omega``, driven through the named ramp in that fixed basis, at
    the ascending checkpoints ``ts``: under H0 = p^2/2 + w^2 x^2/2 or, when
    ``cd`` is true, the counterdiabatic H0 - (wdot / 4 w)(xp + px) with the
    finite-difference wdot. Each checkpoint gap takes
    ceil(gap * steps / tau) equal 4th-order Magnus steps of the two-node
    Gauss-Legendre rule, exp(-i M) with
    M = (h/2)(H1 + H2) - i (sqrt(3) h^2 / 12)[H2, H1], each from one dense
    complex eigensolve."""
    x, p = dense_operators(ref_omega, len(rho0))
    x2, p2, xp_px = x @ x, p @ p, x @ p + p @ x

    def hamiltonian(t):
        w = ramp_omega(kind, omega_i, omega_f, tau, t)
        h = 0.5 * (p2 + w * w * x2)
        if cd:
            h = h - (ramp_omega_dot(kind, omega_i, omega_f, tau, t) / (4.0 * w)) * xp_px
        return h

    nodes = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    rho, t, out = np.asarray(rho0, dtype=complex), 0.0, []
    for target in ts:
        n = math.ceil((target - t) * steps / tau)
        h = (target - t) / max(n, 1)
        for k in range(n):
            h1, h2 = (hamiltonian(t + k * h + c * h) for c in nodes)
            m = 0.5 * h * (h1 + h2) - 1j * (math.sqrt(3.0) * h * h / 12.0) * (h2 @ h1 - h1 @ h2)
            lam, v = np.linalg.eigh(m)
            u = (v * np.exp(-1j * lam)) @ v.conj().T
            rho = u @ rho @ u.conj().T
        t = target
        out.append(rho)
    return out
