"""Renewal (Volterra) equations for potential-weighted scale functions.

For a nonnegative locally bounded potential ``f`` the weighted scale
functions solve convolution equations of the second kind driven by the
0-scale function ``W``::

    Wf(u, b) = W(u - b) + int_b^u W(u - z) f(z) Wf(z, b) dz
    Zf(u, b) = 1        + int_b^u W(u - z) f(z) Zf(z, b) dz

Both are marched on a uniform grid with the trapezoidal product rule: the
kernel is sampled exactly on the node differences, the unknown enters through
its node values.  ``W(0) = 0`` (unbounded variation) kills the diagonal
weight, so the march is explicit.  Derivative columns come from the
differentiated equations with the same quadrature, never from differencing
the value columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LevyModel
from .potentials import UnivariatePotential
from .scale import _w_deriv_array, _wq_array, w_prime_at_zero

__all__ = ["VolterraSolution", "solve_w_z_f"]


@dataclass
class VolterraSolution:
    """Weighted scale function columns on a uniform grid from the barrier ``b``.

    ``w``/``w_deriv`` hold ``Wf`` and its derivative, ``z``/``z_deriv`` hold
    ``Zf`` and its derivative, all sampled at ``nodes``.
    """

    b: float
    grid_step: float
    nodes: np.ndarray
    w: np.ndarray
    w_deriv: np.ndarray
    z: np.ndarray
    z_deriv: np.ndarray


def _kernel_arrays(model: LevyModel, n: int, h: float):
    """0-scale kernel and its derivative on the difference lattice ``k*h``."""
    lattice = h * np.arange(n + 1)
    k = _wq_array(model, 0.0, lattice)
    kp = np.empty_like(k)
    kp[0] = w_prime_at_zero(model)
    kp[1:] = _w_deriv_array(model, 0.0, lattice[1:])
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(kp))):
        raise ArithmeticError("non-finite 0-scale kernel values on the solve lattice")
    return k, kp


def _march(kernel: np.ndarray, fvals: np.ndarray, h: float, inhom: np.ndarray) -> np.ndarray:
    """Explicit product-trapezoid march for one renewal equation."""
    n1 = inhom.size
    phi = np.empty(n1)
    g = np.empty(n1)
    phi[0] = inhom[0]
    g[0] = fvals[0] * phi[0]
    for i in range(1, n1):
        acc = 0.5 * kernel[i] * g[0]
        if i > 1:
            acc += kernel[i - 1 : 0 : -1].dot(g[1:i])
        phi[i] = inhom[i] + h * acc
        g[i] = fvals[i] * phi[i]
    return phi


def _trapz_column(kp: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid of ``kp(u_i - z) g(z)`` over ``[b, u_i]`` for every i at once."""
    n1 = g.size
    conv = np.convolve(kp[:n1], g)[:n1]
    return h * (conv - 0.5 * kp[:n1] * g[0] - 0.5 * kp[0] * g)


def solve_w_z_f(
    model: LevyModel, f: UnivariatePotential, b: float, hi: float, n: int
) -> VolterraSolution:
    """Solve both renewal equations on ``[b, hi]`` with ``n`` grid intervals.

    The two marches share the kernel and the potential samples.
    """
    if hi <= b:
        raise ValueError(f"solve interval is empty: hi={hi} <= b={b}")
    if n < 16:
        raise ValueError(f"need at least 16 grid intervals, got {n}")
    h = (hi - b) / n
    nodes = b + h * np.arange(n + 1)
    nodes[-1] = hi
    fvals = f.eval_array(nodes)
    kernel, kp = _kernel_arrays(model, n, h)

    w = _march(kernel, fvals, h, inhom=kernel.copy())
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("renewal march produced non-finite W values")
    z = _march(kernel, fvals, h, inhom=np.ones(n + 1))
    if not np.all(np.isfinite(z)):
        raise ArithmeticError("renewal march produced non-finite Z values")
    return VolterraSolution(
        b=float(b),
        grid_step=h,
        nodes=nodes,
        w=w,
        w_deriv=kp + _trapz_column(kp, fvals * w, h),
        z=z,
        z_deriv=_trapz_column(kp, fvals * z, h),
    )
