"""One-stroke readouts of the stacked API, shared by the tests.

A single Gaussian state is a ``GaussianState``: its covariance passes the
package's one covariance check and its energy is the package's one energy
formula (``dynamics._checked_covariances`` and ``dynamics._energies``, which
the stacked moments use too).

Each readout is a one-row call of the public stacked API: the states at the
checkpoints are M mean(0) and M cov(0) M^T of ``dynamics.transfer_matrices``
(each a validated ``GaussianState``), the classical pair is read off the
columns of the bare-drive M, Q* is the one-row, one-checkpoint
``dynamics.adiabaticity_stack``, the counterdiabatic variance term and the
costs are one-row calls of ``sta_cost`` times the thermal prefactor of the
start (``dynamics.thermal_energy`` or ``dynamics.occupation_spread``), as
the package books them, the mean work term is spelled here from ``q_cd``,
since the package only averages it, and a cycle is the one-point
``thermo_cycle.stroke_records`` booked by ``book_cycle``. The rows of a
dataset are read off its builder's column blocks by ``table_rows``.
"""

from dataclasses import dataclass

import numpy as np

from ottosta.dynamics import (
    DEFAULT_RTOL,
    _checked_covariances,
    _energies,
    adiabaticity_stack,
    coth_half,
    occupation_spread,
    q_cd_grid,
    thermal_energy,
    transfer_matrices,
)
from ottosta.quadrature import DEFAULT_NODES
from ottosta.sta_cost import variance_cost_stack, work_cost_stack, work_variance_excess
from ottosta.thermo_cycle import book_cycle, stroke_records


@dataclass(frozen=True)
class GaussianState:
    """First moments (2,) and symmetrized covariance matrix (2, 2) in (x, p)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64).reshape(2)
        cov = _checked_covariances(np.array(self.cov, dtype=np.float64).reshape(2, 2))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def thermal_state(beta, omega):
    """Thermal (Gibbs) state of the trap at frequency omega; beta=inf gives
    the ground state."""
    c = coth_half(beta, omega)
    return GaussianState(
        mean=np.zeros(2),
        cov=np.array([[c / (2.0 * omega), 0.0], [0.0, 0.5 * omega * c]]),
    )


def mean_energy(state, omega):
    """<H0> of one state at trap frequency omega."""
    return float(_energies(state.mean, state.cov, omega))


def states(state0, protocol, ts, rtol=DEFAULT_RTOL):
    """The GaussianState grown from ``state0`` under the bare drive at each
    ascending checkpoint."""
    _, m = transfer_matrices([protocol], [ts], rtol)
    m = m[0]
    means, covs = m @ state0.mean, m @ state0.cov @ np.swapaxes(m, 1, 2)
    return [GaussianState(mean=mu, cov=c) for mu, c in zip(means, covs)]


def pair(protocol, ts, rtol=DEFAULT_RTOL):
    """Rows (X, Xdot, Y, Ydot) at each checkpoint of the classical solutions
    of xddot + omega(t)^2 x = 0 with X(0) = 0, Xdot(0) = 1 and Y(0) = 1,
    Ydot(0) = 0: the second and first columns of the bare-drive M."""
    _, m = transfer_matrices([protocol], [ts], rtol)
    m = m[0]
    return np.stack([m[:, 0, 1], m[:, 1, 1], m[:, 0, 0], m[:, 1, 0]], axis=-1)


def q_star(protocol, t, beta=1.0, rtol=DEFAULT_RTOL):
    """Bare-drive Q*(t) as (energy ratio of the thermal start at beta,
    classical-pair value); the second does not depend on beta."""
    q_energy, q_pair = adiabaticity_stack([protocol], [beta], [[t]], rtol=rtol)
    return float(q_energy[0, 0]), float(q_pair[0, 0])


def q_cd(protocol, ts):
    """Closed-form Q*_CD at each ascending checkpoint of one stroke."""
    return q_cd_grid([protocol], [ts])[0]


def work_term(protocol, beta, t):
    """Mean extra energy of the CD accounting at time t, from the thermal
    start at beta: <H(0)> (omega_t/omega_i)(Q*_CD - 1), the integrand of
    ``work_cost``."""
    h0_mean = thermal_energy(beta, protocol.omega_i)
    omega_t = protocol.eval(t)[0]
    return h0_mean * (omega_t / protocol.omega_i) * (float(q_cd(protocol, [t])[0]) - 1.0)


def variance_term(protocol, beta, t):
    """Excess work variance of the CD-driven stroke at time t, from the
    thermal start at beta: n_bar (n_bar + 1) times the one-row
    work_variance_excess."""
    spread = occupation_spread(beta, protocol.omega_i)
    return spread**2 * float(work_variance_excess([protocol], [[t]])[0, 0])


def work_cost(protocol, beta, nodes=DEFAULT_NODES):
    """<dW>_tau of one stroke from the thermal start at beta, as
    ``thermo_cycle.stroke_records`` books it."""
    h0_mean = thermal_energy(beta, protocol.omega_i)
    return h0_mean * float(work_cost_stack([protocol], nodes=nodes)[0])


def variance_cost(protocol, beta, nodes=DEFAULT_NODES):
    """<d(DeltaW)>_tau of one stroke from the thermal start at beta, as
    ``datasets.cost_dataset`` computes it."""
    spread = occupation_spread(beta, protocol.omega_i)
    return spread * float(variance_cost_stack([protocol], nodes=nodes)[0])


def cycle(config, accounting):
    """The CycleResult of one cycle point under one accounting, computing
    only what that accounting reads."""
    [record] = stroke_records([config], [accounting])
    return book_cycle(config, record, accounting)


def table_rows(blocks):
    """The rows of a dataset given as column blocks (``ottosta.datasets``),
    in order, each a list of Python values: a float64 column through
    ``tolist``, any other as it is."""
    rows = []
    for block in blocks:
        cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in block]
        rows.extend(map(list, zip(*cells, strict=True)))
    return rows
