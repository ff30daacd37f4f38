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
quadrature, never from differencing values; the march reads them off the
running sums it already keeps.

A solve takes a potential ``F(s, u)`` and an array of upper ends; row ``r``
solves with the slice frozen at its own end, ``f(u) = F(s_r, u)``, on its own
interval and lattice.  The kernel is an exact sum of exponentials
(``scale._exp_sum``), so the trapezoid history is a recursion over a few
running sums per row and equation, the sum-of-exponentials convolution of
Lubich & Schaedle (SIAM J. Sci. Comput. 24, 2002).  All rows and both
equations advance together in one march of ``n`` steps, each step a handful
of array operations over the rows.  The march keeps only those sums and the
current node, and reads the potential and the kernel one slab of nodes at a
time, so a solve's memory does not grow with ``n``; it returns each row's end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LevyModel
from .potentials import BivariatePotential
from .scale import _ExpSum, _exp_sum, _w_deriv_array, _wq_array, w_prime_at_zero

__all__ = ["VolterraSolution", "solve_w_z_f"]

_SLAB = 2**13  # samples per node-by-row slab of the march; bounds a solve's memory


@dataclass
class VolterraSolution:
    """Weighted scale functions at the ends of uniform grids from the barrier ``b``.

    Every field but ``b`` has one entry per upper end: the grid step
    ``grid_step``, and ``Wf``, ``Zf``, ``Wf'`` and ``Zf'`` at the row's last
    node in ``w_end``, ``z_end``, ``w_end_deriv`` and ``z_end_deriv``.
    """

    b: float
    grid_step: np.ndarray
    w_end: np.ndarray
    z_end: np.ndarray
    w_end_deriv: np.ndarray
    z_end_deriv: np.ndarray


def _march(es: _ExpSum, sample, h: np.ndarray, ks: np.ndarray, w_prime_0: float):
    """Explicit product-trapezoid march of a set of renewal equations.

    Solves ``phi = inhom + int W(u - z) f(z) phi(z) dz`` for every row and
    equation, ``W`` being the 0-scale function that ``es`` represents and
    ``w_prime_0 = W'(0)``; row ``r`` has step ``h[r]``.  ``ks`` holds the node
    indices ``0..n``.  ``sample(k)`` returns, for a slab ``k`` of them,
    ``(fvals, inhom)``: the potential samples ``fvals[i, r]`` of row ``r`` at
    node ``k[i]``, and the inhomogeneous terms ``inhom[i, c, r]`` of equation
    ``c`` there.  A slab has ``max(1, _SLAB // rows)`` nodes, so the march
    holds one slab and its running sums, never a whole lattice.
    Returns ``phi`` at each row's last node and there the history of the
    differentiated equation ``int W'(u - z) f(z) phi(z) dz``, both ``[c, r]``.

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
    roots, coef = [es.hi], [es.w[2]]
    if es.w[1]:  # c (e^{far x} - e^{lo x}), present with jumps
        roots.append(es.far)
        coef.append(es.w[1] * (es.far - es.lo))
    d = np.array(roots)[:, None, None] - es.lo
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(d != 0.0, -np.expm1(-d * h) / d, h)
    rate = np.exp(np.array([es.lo, *roots])[:, None, None] * h)
    gain = np.array(coef)[:, None, None] * rate[1:] * dd

    slab = max(1, _SLAB // h.size)
    slabs = map(sample, (ks[lo:lo + slab] for lo in range(0, len(ks), slab)))
    nodes = (node for fvals, inhom in slabs for node in zip(h * fvals, inhom))  # (h f, inhom)
    fh, phi = next(nodes)
    phi = phi.copy()
    state = np.zeros((len(rate),) + phi.shape)
    state[0] = -0.5 * fh * phi
    e, diffs = state[0], state[1:]
    first, *rest = diffs
    g = np.empty_like(phi)
    push = np.empty_like(diffs)
    for fh_next, inhom in nodes:
        np.multiply(fh, phi, out=g)
        np.add(e, g, out=e)
        np.multiply(gain, e, out=push)
        np.multiply(state, rate, out=state)
        np.add(diffs, push, out=diffs)
        np.add(inhom, first, out=phi)
        for other in rest:
            np.add(phi, other, out=phi)
        fh = fh_next
    end = w_prime_0 * (e + 0.5 * fh * phi) + np.tensordot(roots, diffs, 1)
    return phi, end


def solve_w_z_f(
    model: LevyModel, F: BivariatePotential, b: float, his: np.ndarray, n: int
) -> VolterraSolution:
    """Solve both renewal equations on each ``[b, his[r]]`` with ``n`` grid intervals.

    ``his`` is a 1-d array of upper ends.  Row ``r`` is solved on its own
    lattice ``b + k (his[r] - b) / n`` with the slice of ``F`` frozen at its
    own upper end, ``u -> F(his[r], u)``.  All rows and both equations are
    marched together; each slab of nodes is sampled by one ``F.eval_pairs``
    call, every row's end beside every node of the slab, and one kernel
    evaluation.
    """
    his = np.asarray(his, dtype=float)
    if his.ndim != 1 or not his.size:
        raise ValueError(f"need a 1-d array of upper ends, got shape {his.shape}")
    if np.any(his <= b):
        raise ValueError(f"solve interval is empty: hi={his.min()} <= b={b}")
    if n < 16:
        raise ValueError(f"need at least 16 grid intervals, got {n}")
    h = (his - b) / n

    def sample(ks):
        lattice = ks[:, None] * h
        nodes = b + lattice
        if ks[-1] == n:
            nodes[-1] = his
        fvals = F.eval_pairs(np.broadcast_to(his, nodes.shape), nodes)
        inhom = np.empty((ks.size, 2, his.size))
        inhom[:, 0] = _wq_array(model, 0.0, lattice)
        inhom[:, 1] = 1.0
        return fvals, inhom

    ends, end = _march(_exp_sum(model, 0.0), sample, h, np.arange(n + 1),
                       w_prime_at_zero(model))
    if not np.all(np.isfinite(ends)):
        raise ArithmeticError("renewal march produced non-finite W or Z values")
    kp_end = _w_deriv_array(model, 0.0, h * n)
    return VolterraSolution(float(b), h, ends[0], ends[1], kp_end + end[0], end[1])
