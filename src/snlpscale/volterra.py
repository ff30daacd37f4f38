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
equations advance together.  The kernel is an exact sum of exponentials
(``scale._exp_sum``), so the trapezoid history is a recursion over a few
running sums per row and equation, the sum-of-exponentials convolution of
Lubich & Schaedle (SIAM J. Sci. Comput. 24, 2002): a march of ``n`` steps
costs O(n), each step a handful of array operations over the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .models import LevyModel
from .potentials import UnivariatePotential
from .scale import _ExpSum, _exp_sum, _w_deriv_array, _wq_array, w_prime_at_zero

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


def _march(es: _ExpSum, fvals: np.ndarray, h: np.ndarray, inhom: np.ndarray) -> np.ndarray:
    """Explicit product-trapezoid march of a block of renewal equations.

    Solves ``phi = inhom + int W(u - z) f(z) phi(z) dz`` for every row and
    equation, ``W`` being the 0-scale function that ``es`` represents.  Row
    ``r`` has step ``h[r]`` and potential samples ``fvals[r]`` on its
    lattice; ``inhom[i, c, r]`` is the inhomogeneous term of equation ``c`` at
    node ``i`` of row ``r`` (step axis first), and the result has the same
    layout.

    The history ``h sum_{j<i} w_j W((i-j) h) g_j`` (``g = f phi``, ``w_0 =
    1/2``, else 1) is carried by one running sum per exponential column of
    ``W``, so a step costs O(1), not O(i).  The ``e^{lo x}`` column carries
    ``E <- r_lo (E + g)``.  Each divided difference ``(e^{t x} - e^{lo x})/(t
    - lo)`` carries ``D <- r_t D + d_t (E + g)``, where ``r = e^{t h}`` and
    ``d_t`` is the difference at ``x = h``, from ``expm1``; the pair has no
    cancellation, and where ``t`` meets ``lo`` it is ``d_t = h e^{t h}``.
    ``E`` starts at ``-g_0/2`` for the half weight; ``h`` is folded into
    ``g`` and each coefficient into its ``d_t``, so the history is the sum of
    the ``D``.  ``W(0) = 0`` kills the diagonal weight and leaves ``W`` no
    plain exponential column.
    """
    n1, cols, rows = inhom.shape
    roots, coef = [es.hi], [es.w[2]]
    if es.w[1]:  # c (e^{far x} - e^{lo x}), present with jumps
        roots.append(es.far)
        coef.append(es.w[1] * (es.far - es.lo))
    d = np.array(roots)[:, None, None] - es.lo
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(d != 0.0, -np.expm1(-d * h) / d, h)
    rate = np.exp(np.array([es.lo, *roots])[:, None, None] * h)
    gain = np.array(coef)[:, None, None] * rate[1:] * dd
    fh = np.ascontiguousarray((h[:, None] * fvals).T)

    phi = np.empty_like(inhom)
    phi[0] = inhom[0]
    state = np.zeros((len(rate), cols, rows))
    state[0] = -0.5 * fh[0] * phi[0]
    e, diffs = state[0], state[1:]
    first, *rest = diffs
    g = np.empty((cols, rows))
    push = np.empty_like(diffs)
    for i in range(1, n1):
        np.multiply(fh[i - 1], phi[i - 1], out=g)
        np.add(e, g, out=e)
        np.multiply(gain, e, out=push)
        np.multiply(state, rate, out=state)
        np.add(diffs, push, out=diffs)
        out = np.add(inhom[i], first, out=phi[i])
        for other in rest:
            np.add(out, other, out=out)
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

    inhom = np.empty((n + 1, 2, len(fs)))
    inhom[:, 0] = kernel.T
    inhom[:, 1] = 1.0
    phi = _march(_exp_sum(model, 0.0), fvals, h, inhom)
    w = np.ascontiguousarray(phi[:, 0].T)
    z = np.ascontiguousarray(phi[:, 1].T)
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("renewal march produced non-finite W values")
    if not np.all(np.isfinite(z)):
        raise ArithmeticError("renewal march produced non-finite Z values")
    parts = (h, nodes, w, z, kp, fvals)
    if single:
        parts = tuple(p[0] for p in parts)
    return VolterraSolution(float(b), *parts)
