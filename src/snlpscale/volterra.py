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

A solve takes one potential or a block of them.  Each row of a block keeps
its own interval, lattice, kernel and potential samples; the rows and the two
equations advance together, so one march step is one batched matrix product
over the history instead of one dot product per row and equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .models import LevyModel
from .potentials import UnivariatePotential
from .scale import _w_deriv_array, _wq_array, w_prime_at_zero

__all__ = ["VolterraSolution", "solve_w_z_f"]


@dataclass
class VolterraSolution:
    """Weighted scale function columns on uniform grids from the barrier ``b``.

    ``w`` and ``z`` hold ``Wf`` and ``Zf`` sampled at ``nodes``.  A block
    solve gives arrays with a leading row axis and one ``grid_step`` per row;
    a single solve gives plain columns and a float step.  ``kernel_deriv``
    (the 0-scale kernel derivative on the lattice) and ``fvals`` (the
    potential samples) feed the derivatives: the full columns ``w_deriv`` and
    ``z_deriv`` cost one convolution per row, :meth:`end_derivatives` one dot
    product per row.
    """

    b: float
    grid_step: Union[float, np.ndarray]
    nodes: np.ndarray
    w: np.ndarray
    z: np.ndarray
    kernel_deriv: np.ndarray
    fvals: np.ndarray

    @property
    def w_deriv(self) -> np.ndarray:
        kp = self.kernel_deriv
        return kp + _trapz_column(kp, self.fvals * self.w, self.grid_step)

    @property
    def z_deriv(self) -> np.ndarray:
        return _trapz_column(self.kernel_deriv, self.fvals * self.z, self.grid_step)

    def end_derivatives(self):
        """``(Wf', Zf')`` at the last node of each row."""
        kp, h = self.kernel_deriv, self.grid_step
        w_end = kp[..., -1] + _trapz_end(kp, self.fvals * self.w, h)
        return w_end, _trapz_end(kp, self.fvals * self.z, h)


def _kernel_arrays(model: LevyModel, n: int, h: np.ndarray):
    """0-scale kernel and its derivative on each row's difference lattice ``k*h[r]``."""
    lattice = h[:, None] * np.arange(n + 1)
    k = _wq_array(model, 0.0, lattice)
    kp = np.empty_like(k)
    kp[:, 0] = w_prime_at_zero(model)
    kp[:, 1:] = _w_deriv_array(model, 0.0, lattice[:, 1:])
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(kp))):
        raise ArithmeticError("non-finite 0-scale kernel values on the solve lattice")
    return k, kp


def _march(kernel: np.ndarray, fvals: np.ndarray, h: np.ndarray, inhom: np.ndarray) -> np.ndarray:
    """Explicit product-trapezoid march of a block of renewal equations.

    Row ``r`` has the kernel ``kernel[r]``, potential samples ``fvals[r]``
    and step ``h[r]``.  ``inhom[:, r]`` holds its inhomogeneous terms, one
    column per equation, with the step axis first; the result has the same
    layout.
    """
    n1, rows, cols = inhom.shape
    krev = np.ascontiguousarray(kernel[:, ::-1])[:, None, :]
    phi = np.empty_like(inhom)
    g = np.empty((rows, n1, cols))
    phi[0] = inhom[0]
    g[:, 0] = fvals[:, :1] * phi[0]
    head = 0.5 * kernel.T[:, :, None] * g[:, 0]
    step = h[:, None]
    for i in range(1, n1):
        history = np.matmul(krev[:, :, n1 - i : n1 - 1], g[:, 1:i])[:, 0]
        phi[i] = inhom[i] + step * (head[i] + history)
        g[:, i] = fvals[:, i, None] * phi[i]
    return phi


def _trapz_column(kp: np.ndarray, g: np.ndarray, h) -> np.ndarray:
    """Trapezoid of ``kp(u_i - z) g(z)`` over ``[b, u_i]`` for every node of every row."""
    n1 = g.shape[-1]
    conv = np.array(
        [np.convolve(k, r)[:n1] for k, r in zip(kp.reshape(-1, n1), g.reshape(-1, n1))]
    ).reshape(g.shape)
    return np.expand_dims(h, -1) * (conv - 0.5 * kp * g[..., :1] - 0.5 * kp[..., :1] * g)


def _trapz_end(kp: np.ndarray, g: np.ndarray, h):
    """The last node of :func:`_trapz_column`, one dot product per row."""
    inner = (kp[..., ::-1] * g).sum(axis=-1)
    return h * (inner - 0.5 * kp[..., -1] * g[..., 0] - 0.5 * kp[..., 0] * g[..., -1])


def solve_w_z_f(
    model: LevyModel,
    f: Union[UnivariatePotential, Sequence[UnivariatePotential]],
    b: float,
    hi,
    n: int,
) -> VolterraSolution:
    """Solve both renewal equations on ``[b, hi]`` with ``n`` grid intervals.

    ``f`` is one potential with a float ``hi``, or a sequence of potentials
    with ``hi`` the matching sequence of upper ends.  Row ``r`` is solved on
    its own lattice ``b + k (hi[r] - b) / n``; all rows and both equations
    are marched together, sharing each row's kernel and potential samples.
    """
    single = isinstance(f, UnivariatePotential)
    fs = [f] if single else list(f)
    his = np.atleast_1d(np.asarray(hi, dtype=float))
    if not fs or his.shape != (len(fs),):
        raise ValueError(f"need one upper end per potential, got {his.size} for {len(fs)}")
    if np.any(his <= b):
        raise ValueError(f"solve interval is empty: hi={his.min()} <= b={b}")
    if n < 16:
        raise ValueError(f"need at least 16 grid intervals, got {n}")
    h = (his - b) / n
    nodes = b + h[:, None] * np.arange(n + 1)
    nodes[:, -1] = his
    fvals = np.array([fr.eval_array(row) for fr, row in zip(fs, nodes)])
    kernel, kp = _kernel_arrays(model, n, h)

    inhom = np.empty((n + 1, len(fs), 2))
    inhom[:, :, 0] = kernel.T
    inhom[:, :, 1] = 1.0
    phi = _march(kernel, fvals, h, inhom)
    w = np.ascontiguousarray(phi[:, :, 0].T)
    z = np.ascontiguousarray(phi[:, :, 1].T)
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("renewal march produced non-finite W values")
    if not np.all(np.isfinite(z)):
        raise ArithmeticError("renewal march produced non-finite Z values")
    parts = (h, nodes, w, z, kp, fvals)
    if single:
        parts = tuple(p[0] for p in parts)
    return VolterraSolution(float(b), *parts)
