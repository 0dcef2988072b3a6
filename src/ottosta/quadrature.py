"""Composite Simpson quadrature on uniform grids.

All time averages in the package integrate smooth integrands over a stroke,
so a fixed uniform Simpson rule with an odd node count (default 1001) is
accurate far beyond the acceptance tolerances. The costs of ``sta_cost``
average over u = t/tau on the one unit grid ``stroke_grid(1.0, nodes)``,
whatever the duration. The rule and the grid are fixed, so a stroke's
average has the same bits whether it is integrated alone or as one row of
a stack.
"""

import numpy as np

__all__ = ["simpson_uniform", "stroke_grid", "DEFAULT_NODES"]

DEFAULT_NODES = 1001


def simpson_uniform(y, dx):
    """Composite Simpson integral along the last axis of samples ``y``
    spaced ``dx`` apart (a scalar, or one spacing per row).

    Requires an odd number of samples (even panel count), at least 3.
    """
    # Row-major, so that each row is summed in the same order as alone.
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd sample count >= 3, got {n}")
    s = y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(-1) + 2.0 * y[..., 2:-2:2].sum(-1)
    return s * dx / 3.0


def stroke_grid(tau, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Uniform quadrature grid over [0, tau] with an odd node count, a row per tau."""
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"nodes must be odd and >= 3, got {nodes}")
    return np.ascontiguousarray(np.linspace(0.0, tau, nodes, axis=-1))
