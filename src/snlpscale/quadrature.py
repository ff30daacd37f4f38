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
    h = step
    for i in range(2, n, 2):
        out[i] = out[i - 2] + h / 3.0 * (values[i - 2] + 4.0 * values[i - 1] + values[i])
    for i in range(1, n, 2):
        if i + 1 < n:
            seg = h / 12.0 * (5.0 * values[i - 1] + 8.0 * values[i] - values[i + 1])
        else:
            seg = h / 12.0 * (-values[i - 2] + 8.0 * values[i - 1] + 5.0 * values[i])
        out[i] = out[i - 1] + seg
    return out

