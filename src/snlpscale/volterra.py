"""Renewal (Volterra) equations for potential-weighted scale functions.

For a nonnegative locally bounded potential ``f`` the weighted scale
functions solve convolution equations of the second kind driven by the
0-scale function ``W``::

    Wf(u, b) = W(u - b) + int_b^u W(u - z) f(z) Wf(z, b) dz
    Zf(u, b) = 1        + int_b^u W(u - z) f(z) Zf(z, b) dz

Both are marched on a uniform grid with the trapezoidal product rule: the
kernel is sampled exactly on the node differences, the unknown enters through
its node values.  ``W(0) = 0`` (unbounded variation) kills the diagonal
weight, so the march is explicit.  The slopes ``Wf'`` and ``Zf'`` at each
row's upper end come from the differentiated equations with the same
quadrature, never from differencing the value columns; the march reads them
off the running sums it already keeps.

A solve takes a potential ``F(s, u)`` and a block of upper ends; row ``r``
solves with the slice frozen at its own end, ``f(u) = F(s_r, u)``.  Each row
keeps its own interval, lattice, kernel and potential samples; the rows and
the two equations advance together.  The kernel is an exact sum of exponentials
(``scale._exp_sum``), so the trapezoid history is a recursion over a few
running sums per row and equation, the sum-of-exponentials convolution of
Lubich & Schaedle (SIAM J. Sci. Comput. 24, 2002): a march of ``n`` steps
costs O(n), each step a handful of array operations over the whole block.
Only ``W`` is sampled over the lattice; ``W'`` is needed at each row's end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LevyModel
from .potentials import BivariatePotential
from .scale import _ExpSum, _exp_sum, _w_deriv_array, _wq_array, w_prime_at_zero

__all__ = ["VolterraSolution", "solve_w_z_f"]


@dataclass
class VolterraSolution:
    """Weighted scale functions on uniform grids from the barrier ``b``.

    Every field but ``b`` has a leading row axis, one row per upper end.
    ``w`` and ``z`` hold ``Wf`` and ``Zf`` sampled at ``nodes``, with step
    ``grid_step``; ``w_end_deriv`` and ``z_end_deriv`` hold ``Wf'`` and
    ``Zf'`` at each row's last node.
    """

    b: float
    grid_step: np.ndarray
    nodes: np.ndarray
    w: np.ndarray
    z: np.ndarray
    w_end_deriv: np.ndarray
    z_end_deriv: np.ndarray


def _kernel_arrays(model: LevyModel, n: int, h: np.ndarray):
    """0-scale kernel on each row's lattice ``k*h[r]``, and its slope at the row's end."""
    lattice = h[:, None] * np.arange(n + 1)
    k = _wq_array(model, 0.0, lattice)
    kp_end = _w_deriv_array(model, 0.0, lattice[:, -1])
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(kp_end))):
        raise ArithmeticError("non-finite 0-scale kernel values on the solve lattice")
    return k, kp_end


def _march(
    es: _ExpSum, fvals: np.ndarray, h: np.ndarray, inhom: np.ndarray, w_prime_0: float
):
    """Explicit product-trapezoid march of a block of renewal equations.

    Solves ``phi = inhom + int W(u - z) f(z) phi(z) dz`` for every row and
    equation, ``W`` being the 0-scale function that ``es`` represents and
    ``w_prime_0 = W'(0)``.  Row ``r`` has step ``h[r]`` and potential samples
    ``fvals[r]`` on its lattice; ``inhom[i, c, r]`` is the inhomogeneous term
    of equation ``c`` at node ``i`` of row ``r`` (step axis first).  Returns
    ``phi`` in the same layout and, at each row's last node, the history of
    the differentiated equation ``int W'(u - z) f(z) phi(z) dz`` (``[c, r]``).

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

    Differentiating a column gives ``t`` times it plus ``e^{lo x}``, and the
    folded coefficients sum to ``W'(0)``, so ``W' = W'(0) e^{lo x} + sum_t t
    (column t)``: the derivative history is ``W'(0) E + sum_t t D``, plus the
    diagonal ``W'(0) g_n / 2`` that ``W'(0) != 0`` brings at the last node.
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
    end = w_prime_0 * (e + 0.5 * fh[-1] * phi[-1]) + np.tensordot(roots, diffs, 1)
    return phi, end


def solve_w_z_f(
    model: LevyModel, F: BivariatePotential, b: float, his: np.ndarray, n: int
) -> VolterraSolution:
    """Solve both renewal equations on each ``[b, his[r]]`` with ``n`` grid intervals.

    ``his`` is a 1-d array of upper ends.  Row ``r`` is solved on its own
    lattice ``b + k (his[r] - b) / n`` with the slice of ``F`` frozen at its
    own upper end, ``u -> F(his[r], u)``; one ``F.eval_pairs`` call samples
    every row.  All rows and both equations are marched together, sharing
    each row's kernel and potential samples.
    """
    his = np.asarray(his, dtype=float)
    if his.ndim != 1 or not his.size:
        raise ValueError(f"need a 1-d array of upper ends, got shape {his.shape}")
    if np.any(his <= b):
        raise ValueError(f"solve interval is empty: hi={his.min()} <= b={b}")
    if n < 16:
        raise ValueError(f"need at least 16 grid intervals, got {n}")
    h = (his - b) / n
    nodes = b + h[:, None] * np.arange(n + 1)
    nodes[:, -1] = his
    fvals = F.eval_pairs(np.broadcast_to(his[:, None], nodes.shape), nodes)
    kernel, kp_end = _kernel_arrays(model, n, h)

    inhom = np.empty((n + 1, 2, his.size))
    inhom[:, 0] = kernel.T
    inhom[:, 1] = 1.0
    phi, end = _march(_exp_sum(model, 0.0), fvals, h, inhom, w_prime_at_zero(model))
    w = np.ascontiguousarray(phi[:, 0].T)
    z = np.ascontiguousarray(phi[:, 1].T)
    if not np.all(np.isfinite(w)):
        raise ArithmeticError("renewal march produced non-finite W values")
    if not np.all(np.isfinite(z)):
        raise ArithmeticError("renewal march produced non-finite Z values")
    return VolterraSolution(float(b), h, nodes, w, z, kp_end + end[0], end[1])
