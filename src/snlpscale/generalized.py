"""Scale functions for exponential functionals of (supremum, position).

The central objects are two excursion functionals of the reflected process,
evaluated through level-frozen renewal solves rather than through the
excursion measure directly:

* ``iota(s)`` -- the rate at which mass of excursions below level ``s``
  damps the upward passage.  With the potential frozen at supremum level
  ``s`` (``f_s(x) := F(s, x)``) it equals the gap between the logarithmic
  derivative of the frozen weighted scale function and ``W'/W``.
* ``kappa(z)`` -- the weight of the terminal excursion that drags the path
  below the lower barrier from supremum level ``z``:
  ``kappa = (Zf W f' - Zf' Wf)/Wf`` evaluated at ``z`` for the frozen slice.

All exit quantities follow from these two ingredients:

* up-exit Laplace transform: ``(W(x-b)/W(a-b)) * exp(-int_x^a iota)``
* down-exit functional:      ``int_x^a g(z) R(x, z) kappa(z) dz`` with
  ``R(x, z) = (W(x-b)/W(z-b)) * exp(-int_x^z iota)``

Outer integrals use composite Simpson with node-wise cumulative sums.  Each
outer node needs one frozen renewal solve on its own interval ``[b, s]``;
the solves of a grid are marched together in blocks of rows, and only the
last node of each row feeds iota and kappa.  A doubling loop refines both the
outer and inner grids until two successive levels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import LevyModel
from .potentials import BivariatePotential, UnivariatePotential
from .quadrature import composite_simpson, cumulative_simpson
from .scale import classical_exit_up, n_height_tail, w_derivative, wq
from .volterra import solve_w_z_f

__all__ = [
    "ExitSpec",
    "GeneralizedScaleResult",
    "TailNotConverged",
    "iota",
    "kappa",
    "exit_up_laplace",
    "exit_down_functional",
    "evaluate_exit",
    "supremum_density",
    "supremum_atom",
    "conditional_laplace_given_sup",
    "conditional_curve",
    "z_f_truncated",
    "local_time_laplace",
]

DEFAULT_OUTER = 129
DEFAULT_INNER = 1024
_REFINE_TOL = 1e-6
_REFINE_CAP = 4
_ROW_BLOCK = 32  # outer nodes per frozen block solve; bounds its memory


class TailNotConverged(RuntimeError):
    """The infinite-horizon tail integral failed to settle below tolerance."""


@dataclass(frozen=True)
class ExitSpec:
    """The two-sided exit problem: start at ``x`` inside ``(b, a)``."""

    b: float
    x: float
    a: float

    def __post_init__(self):
        if not -np.inf < self.b < self.x < self.a < np.inf:
            raise ValueError(
                f"exit spec requires finite b < x < a, got b={self.b}, x={self.x}, a={self.a}"
            )


@dataclass
class GeneralizedScaleResult:
    """Evaluated exit identities plus the excursion functional grids."""

    up_laplace: float
    down_value: float
    iota_grid: np.ndarray  # rows (s, iota(s))
    kappa_grid: np.ndarray  # rows (z, kappa(z))
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "up_laplace": self.up_laplace,
            "down_value": self.down_value,
            "iota": [[float(s), float(v)] for s, v in self.iota_grid],
            "kappa": [[float(z), float(v)] for z, v in self.kappa_grid],
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# Pointwise excursion functionals
# ---------------------------------------------------------------------------


def _frozen_ends(model, F, b, levels, n):
    """``(Wf, Wf', Zf, Zf')`` at the end of the frozen solve of each level.

    Row ``i`` solves the potential frozen at ``levels[i]`` on
    ``[b, levels[i]]``; the rows are marched as one block.
    """
    levels = np.asarray(levels, dtype=float)
    sol = solve_w_z_f(model, [F.frozen(s) for s in levels], b, levels, n)
    return sol.w[:, -1], sol.w_end_deriv, sol.z[:, -1], sol.z_end_deriv


def _iota_values(model, b, levels, w, wp) -> np.ndarray:
    """Log-derivative gap of the frozen solves against ``W'/W`` at each level."""
    base = np.array(
        [w_derivative(model, 0.0, s - b) / wq(model, 0.0, s - b) for s in levels]
    )
    val = wp / w - base
    deep = np.flatnonzero(val < -1e-6 * np.maximum(1.0, np.abs(base)))
    if deep.size:
        i = deep[0]
        raise ArithmeticError(
            f"iota({levels[i]}) = {val[i]} is negative beyond tolerance; "
            "the frozen solve is under-resolved"
        )
    return np.maximum(val, 0.0)


def _kappa_values(w, wp, z, zp) -> np.ndarray:
    return (z * wp - zp * w) / w


def iota(model: LevyModel, F: BivariatePotential, b: float, s: float, n: int) -> float:
    """Excursion damping rate at supremum level ``s > b``.

    Solves the renewal equation for the potential frozen at level ``s`` on
    ``[b, s]`` with ``n`` grid intervals and returns the log-derivative gap.
    The value is finite and nonnegative, bounded by ``phi(bound)``.
    """
    if s <= b:
        raise ValueError(f"iota requires s > b, got s={s}, b={b}")
    w, wp, _, _ = _frozen_ends(model, F, b, [s], n)
    return float(_iota_values(model, b, [float(s)], w, wp)[0])


def kappa(model: LevyModel, F: BivariatePotential, b: float, z: float, n: int) -> float:
    """Terminal-excursion weight at supremum level ``z > b``.

    Reduces to the excursion height tail ``W'(z-b)/W(z-b)`` when ``F == 0``.
    The overshoot weight is 1: neither this solver nor the Monte Carlo engine
    weights a down exit by its overshoot below ``b``.
    """
    if z <= b:
        raise ValueError(f"kappa requires z > b, got z={z}, b={b}")
    if z - b < 1e-9 * max(1.0, abs(b), abs(z)):
        raise ValueError(f"kappa: z - b = {z - b} is below grid resolution")
    return float(_kappa_values(*_frozen_ends(model, F, b, [z], n))[0])


# ---------------------------------------------------------------------------
# Grid evaluation of both functionals
# ---------------------------------------------------------------------------


def _functional_grids(model, F, b, nodes, n_inner, guard_step, need_kappa=True):
    """iota (and optionally kappa) on outer nodes, guarding the barrier edge.

    The frozen solves of the outer nodes are marched in blocks of at most
    ``_ROW_BLOCK`` rows.  The march keeps O(1) state per row, but a block
    holds about ten arrays of ``rows x (n_inner + 1)`` (nodes, lattice,
    kernel, potential samples, the W and Z columns and their temporaries),
    so the block size bounds the memory of a solve.  Frozen solves for iota
    on a sliver ``[b, s]`` with ``s - b`` under ten outer steps are skipped:
    the log-derivative gap there is a difference of two nearly singular
    terms.  iota is bounded near the barrier, so a linear extrapolation from
    the two nearest resolved nodes stands in; fewer than two is an error.
    kappa has no such cancellation and is always evaluated directly.
    """
    nodes = np.asarray(nodes, dtype=float)
    iotas = np.empty_like(nodes)
    kappas = np.empty_like(nodes) if need_kappa else None
    valid = (nodes - b) >= 10.0 * guard_step
    if np.count_nonzero(valid) < 2:
        raise ValueError(
            "fewer than two outer nodes sit ten steps clear of the barrier; "
            "refine the outer grid or move x away from b"
        )
    rows = np.flatnonzero(valid | need_kappa)
    for block in np.array_split(rows, -(-rows.size // _ROW_BLOCK)):
        w, wp, z, zp = _frozen_ends(model, F, b, nodes[block], n_inner)
        ok = valid[block]
        iotas[block[ok]] = _iota_values(model, b, nodes[block[ok]], w[ok], wp[ok])
        if need_kappa:
            kappas[block] = _kappa_values(w, wp, z, zp)
    bad = np.flatnonzero(~valid)
    if bad.size:
        good = np.flatnonzero(valid)[:2]
        s0, s1 = nodes[good[0]], nodes[good[1]]
        i0, i1 = iotas[good[0]], iotas[good[1]]
        slope = (i1 - i0) / (s1 - s0)
        iotas[bad] = np.maximum(i0 + slope * (nodes[bad] - s0), 0.0)
    return iotas, kappas


def _exit_values(model, F, g, spec, n_outer, n_inner):
    """One evaluation pass at a fixed resolution."""
    b, x, a = spec.b, spec.x, spec.a
    if n_outer < 5 or n_outer % 2 == 0:
        raise ValueError("n_outer must be an odd node count >= 5")
    nodes = np.linspace(x, a, n_outer)
    h = (a - x) / (n_outer - 1)
    iotas, kappas = _functional_grids(model, F, b, nodes, n_inner, guard_step=h)
    cum = cumulative_simpson(iotas, h)

    w_x = wq(model, 0.0, x - b)
    w_nodes = np.array([wq(model, 0.0, float(s - b)) for s in nodes])
    up = (w_x / w_nodes[-1]) * math.exp(-cum[-1])

    gvals = np.ones_like(nodes) if g is None else np.asarray(g(nodes), dtype=float)
    integrand = gvals * (w_x / w_nodes) * np.exp(-cum) * kappas
    down = composite_simpson(integrand, h)
    return up, down, nodes, iotas, kappas


def evaluate_exit(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    g: Optional[Callable] = None,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
    refine: bool = True,
) -> GeneralizedScaleResult:
    """Evaluate both exit identities for a supremum-dependent potential.

    Args:
        model: the driving process.
        F: bounded nonnegative potential of ``(supremum, position)``.
        spec: the exit triple ``b < x < a``.
        g: optional bounded weight of the supremum at the down-exit
            (vectorized callable); defaults to 1.
        n_outer: Simpson node count of the outer level integrals (odd).
        n_inner: grid intervals of each frozen renewal solve.
        refine: when set, double both resolutions until two successive
            levels agree to 1e-6 relative (at most four doublings).

    Returns:
        A :class:`GeneralizedScaleResult` with the up-exit Laplace transform,
        the down-exit functional, and the sampled functional grids.
    """
    up, down, nodes, iotas, kappas = _exit_values(model, F, g, spec, n_outer, n_inner)
    levels = 0
    converged = not refine
    delta = 0.0
    while refine and levels < _REFINE_CAP:
        n_outer2 = 2 * (n_outer - 1) + 1
        n_inner2 = 2 * n_inner
        up2, down2, nodes, iotas, kappas = _exit_values(
            model, F, g, spec, n_outer2, n_inner2
        )
        scale = max(abs(up2), abs(down2), 1e-12)
        delta = max(abs(up2 - up), abs(down2 - down)) / scale
        up, down, n_outer, n_inner = up2, down2, n_outer2, n_inner2
        levels += 1
        if delta < _REFINE_TOL:
            converged = True
            break
    return GeneralizedScaleResult(
        up_laplace=up,
        down_value=down,
        iota_grid=np.column_stack([nodes, iotas]),
        kappa_grid=np.column_stack([nodes, kappas]),
        diagnostics={
            "outer_nodes": n_outer,
            "inner_intervals": n_inner,
            "refinement_levels": levels,
            "last_delta": delta,
            "converged": bool(converged),
        },
    )


def exit_up_laplace(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
    refine: bool = True,
) -> float:
    """``E_x[exp(-int_0^T F(S_t, X_t) dt); exit above]``."""
    return evaluate_exit(model, F, spec, None, n_outer, n_inner, refine).up_laplace


def exit_down_functional(
    model: LevyModel,
    F: BivariatePotential,
    g: Optional[Callable],
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
    refine: bool = True,
) -> float:
    """``E_x[g(S_T) exp(-int_0^T F(S_t, X_t) dt); exit below]`` (unit overshoot weight)."""
    return evaluate_exit(model, F, spec, g, n_outer, n_inner, refine).down_value


# ---------------------------------------------------------------------------
# The law of the supremum at the exit time
# ---------------------------------------------------------------------------


def supremum_atom(model: LevyModel, spec: ExitSpec) -> float:
    """Mass of the supremum law at the upper barrier: the up-exit probability."""
    return classical_exit_up(model, 0.0, spec.b, spec.x, spec.a)


def supremum_density(model: LevyModel, spec: ExitSpec, z: float) -> float:
    """Conditional density of the exit-time supremum given a down-exit.

    ``nu(z) = (W(x-b)/W(z-b)) * (W'(z-b)/W(z-b)) / P_x(down exit)`` on
    ``[x, a)``; the remaining mass sits in an atom at ``a`` (see
    :func:`supremum_atom`).
    """
    b, x, a = spec.b, spec.x, spec.a
    if not (x <= z < a):
        raise ValueError(f"supremum_density requires x <= z < a, got z={z}")
    p_down = 1.0 - supremum_atom(model, spec)
    ratio = wq(model, 0.0, x - b) / wq(model, 0.0, z - b)
    return ratio * n_height_tail(model, z - b) / p_down


def _conditional_values(model, F, spec, z, n_outer, n_inner):
    """Conditional Laplace values on ``n_outer`` nodes spanning ``[x, z]``.

    The W-ratio of the statement cancels against the one inside the
    frozen-scale ratio, leaving the exponential damping alone.  Below ``a``
    the last excursion enters through ``kappa / (W'/W)``; the last node is
    the up exit, which has no terminal excursion, only when ``z == a``.
    """
    b, x, a = spec.b, spec.x, spec.a
    nodes = np.linspace(x, z, n_outer)
    h = (z - x) / (n_outer - 1)
    iotas, kappas = _functional_grids(model, F, b, nodes, n_inner, guard_step=h)
    values = np.array([math.exp(-c) for c in cumulative_simpson(iotas, h)])
    down = n_outer - 1 if abs(z - a) <= 1e-12 * max(1.0, abs(a)) else n_outer
    tails = np.array([n_height_tail(model, float(s - b)) for s in nodes[:down]])
    values[:down] = values[:down] * kappas[:down] / tails
    return nodes, values


def conditional_laplace_given_sup(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    z: float,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
) -> float:
    """``E_x[exp(-int_0^T F dt) | S_T = z]`` for ``z`` in ``[x, a]``.

    At ``z = a`` (up exit) the terminal excursion is absent and the value is
    the conditional contribution of the passage to ``a``.
    """
    b, x, a = spec.b, spec.x, spec.a
    if not (x <= z <= a):
        raise ValueError(f"conditional value needs z in [x, a], got z={z}")
    if z <= x:
        return kappa(model, F, b, x, n_inner) / n_height_tail(model, x - b)
    return float(_conditional_values(model, F, spec, z, n_outer, n_inner)[1][-1])


def conditional_curve(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
):
    """Conditional Laplace values on the whole outer grid in one pass.

    Returns ``(nodes, values)`` where ``nodes`` spans ``[x, a]``; the final
    node carries the up-exit conditional value.  Much cheaper than calling
    :func:`conditional_laplace_given_sup` per point: one frozen solve per
    node serves every value.
    """
    return _conditional_values(model, F, spec, spec.a, n_outer, n_inner)


# ---------------------------------------------------------------------------
# Infinite-horizon companion function
# ---------------------------------------------------------------------------


def z_f_truncated(
    model: LevyModel,
    F: BivariatePotential,
    b: float,
    x: float,
    a_max: float,
    tail_tol: float,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
    max_doublings: int = 24,
) -> float:
    """Companion scale value ``Wf(x,b) * (1 + int_x^inf kappa(z)/Wf(z,b) dz)``.

    The defining integral runs to infinity; it is truncated at ``a_max`` and
    the horizon is doubled (measured from ``b``) until the last segment
    contributes less than ``tail_tol``.  The normalization pins the additive
    constant to 1 and ``Wf(x, b) = W(x-b) exp(int_b^x iota)``; only ratios
    and differences of these values are contract-level outputs.

    Raises:
        TailNotConverged: when the doubling cap is hit first (slowly growing
            scale functions, e.g. oscillating models, decay too slowly for a
            practical horizon).
    """
    if x <= b:
        raise ValueError("z_f_truncated requires x > b")
    if a_max <= x:
        raise ValueError("z_f_truncated requires a_max > x")

    # prefactor Wf(x, b) through the level integral over [b, x]; the level
    # rate vanishes at the barrier itself, pinning the first node.
    nodes = np.linspace(b, x, n_outer)
    h = (x - b) / (n_outer - 1)
    iot = np.zeros(n_outer)
    iot[1:], _ = _functional_grids(
        model, F, b, nodes[1:], n_inner, guard_step=h, need_kappa=False
    )
    cum_bx = composite_simpson(iot, h)
    w_x = wq(model, 0.0, x - b)
    wf_x = w_x * math.exp(cum_bx)

    total = 0.0
    lo = x
    hi = a_max
    cum_lo = cum_bx  # int_b^lo iota
    last = math.inf
    for _ in range(max_doublings):
        seg_nodes = np.linspace(lo, hi, n_outer)
        h_seg = (hi - lo) / (n_outer - 1)
        iotas, kappas = _functional_grids(
            model, F, b, seg_nodes, n_inner, guard_step=h_seg
        )
        cum = cum_lo + cumulative_simpson(iotas, h_seg)
        wf_nodes = np.array(
            [wq(model, 0.0, float(s - b)) for s in seg_nodes]
        ) * np.exp(cum)
        last = composite_simpson(kappas / wf_nodes, h_seg)
        total += last
        cum_lo = cum[-1]
        lo = hi
        hi = b + 2.0 * (hi - b)
        if abs(last) < tail_tol:
            return wf_x * (1.0 + total)
    raise TailNotConverged(
        f"tail integral still contributes {last:.3e} > {tail_tol:.3e} "
        f"after {max_doublings} horizon doublings (horizon {lo})"
    )


def local_time_laplace(
    model: LevyModel,
    f_x: UnivariatePotential,
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
) -> float:
    """Laplace transform of the potential-weighted local time at the exit.

    By the occupation formula the weighted local-time integral equals the
    time integral of ``f(X_t)``, so the value is the sum of the up and down
    exit identities for the lifted potential ``F(s, x) := f(x)``.
    """
    lifted = BivariatePotential.from_univariate(f_x)
    result = evaluate_exit(model, lifted, spec, g=None, n_outer=n_outer, n_inner=n_inner)
    return result.up_laplace + result.down_value
