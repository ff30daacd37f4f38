"""Quadrature helpers: composite and cumulative Simpson rules.

Both routines work on 1-d numpy arrays of node values on a uniform grid.
"""

from __future__ import annotations

import numpy as np


def composite_simpson(values: np.ndarray, step: float) -> float:
    """Composite Simpson integral of uniformly spaced node values.

    Requires an odd number of nodes (even number of intervals).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite_simpson needs an odd node count >= 3, got {n}")
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    return float(step / 3.0 * acc)


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral at every node of uniformly spaced samples.

    Even-index nodes use the standard Simpson pair; odd-index nodes use the
    quadratic through the three nearest nodes integrated over the half cell,
    keeping fourth-order local accuracy throughout.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("cumulative_simpson needs at least two nodes")
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * step * (values[0] + values[1])
        return out
    h, v = step, values
    # even nodes: the running sum of the Simpson pairs from out[0] = 0
    even = out[::2]
    even[1:] = h / 3.0 * (v[:-2:2] + 4.0 * v[1:-1:2] + v[2::2])
    np.cumsum(even, out=even)
    # odd nodes: the half cell after the even node before them; the last node
    # of an even count has no node after it, so its quadratic is the one
    # through itself and the two nodes before it
    out[1:n - 1:2] = out[:n - 2:2] + h / 12.0 * (5.0 * v[:n - 2:2] + 8.0 * v[1:n - 1:2] - v[2::2])
    if n % 2 == 0:
        out[-1] = out[-2] + h / 12.0 * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return out
