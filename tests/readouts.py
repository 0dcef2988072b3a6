"""One-stroke readouts of the stacked propagator, shared by the tests.

Each is a one-row call of the public stacked API: the states at the
checkpoints are M mean(0) and M cov(0) M^T of ``dynamics.transfer_matrices``
(each a validated ``GaussianState``), the classical pair is read off the
columns of the bare-drive M, and Q* is the one-row, one-checkpoint
``dynamics.adiabaticity_stack``.
"""

import numpy as np

from ottosta.dynamics import (
    DEFAULT_RTOL,
    Drive,
    GaussianState,
    adiabaticity_stack,
    transfer_matrices,
)


def states(state0, protocol, ts, drive=Drive.BARE, rtol=DEFAULT_RTOL):
    """The GaussianState grown from ``state0`` at each ascending checkpoint."""
    _, m = transfer_matrices([protocol], [ts], [drive], rtol)
    m = m[0]
    means, covs = m @ state0.mean, m @ state0.cov @ np.swapaxes(m, 1, 2)
    return [GaussianState(mean=mu, cov=c) for mu, c in zip(means, covs)]


def pair(protocol, ts, rtol=DEFAULT_RTOL):
    """Rows (X, Xdot, Y, Ydot) at each checkpoint of the classical solutions
    of xddot + omega(t)^2 x = 0 with X(0) = 0, Xdot(0) = 1 and Y(0) = 1,
    Ydot(0) = 0: the second and first columns of the bare-drive M."""
    _, m = transfer_matrices([protocol], [ts], [Drive.BARE], rtol)
    m = m[0]
    return np.stack([m[:, 0, 1], m[:, 1, 1], m[:, 0, 0], m[:, 1, 0]], axis=-1)


def q_star(protocol, t, beta=1.0, rtol=DEFAULT_RTOL):
    """Bare-drive Q*(t) as (energy ratio of the thermal start at beta,
    classical-pair value); the second does not depend on beta."""
    q_energy, q_pair = adiabaticity_stack([protocol], [beta], [[t]], rtol=rtol)
    return float(q_energy[0, 0]), float(q_pair[0, 0])
