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
  ``kappa = (Zf Wf' - Zf' Wf)/Wf`` evaluated at ``z`` for the frozen slice.

All exit quantities follow from these two ingredients:

* up-exit Laplace transform: ``(W(x-b)/W(a-b)) * exp(-int_x^a iota)``
* down-exit functional:      ``int_x^a g(z) R(x, z) kappa(z) dz`` with
  ``R(x, z) = (W(x-b)/W(z-b)) * exp(-int_x^z iota)``

Each value has one public route (:func:`evaluate_exit`,
:func:`conditional_curve`, :func:`local_time_laplace`) and all share one
outer pass: iota, kappa, ``W(s-b)`` and ``W'(s-b)/W(s-b)``
on the Simpson nodes of a level interval, and the cumulative Simpson integral
of iota.  Each outer node needs one frozen renewal solve on its own interval
``[b, s]``; the solves of a grid are marched together in blocks of rows, and
only the last node of each row feeds iota and kappa.  The 0-scale values come
from one array evaluation per grid.  :func:`evaluate_exit` doubles both the
outer and inner grids until two successive levels agree, by the rule its
docstring states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import LevyModel
from .potentials import BivariatePotential, UnivariatePotential
from .quadrature import composite_simpson, cumulative_simpson
from .scale import _w_deriv_array, _wq_array, classical_exit_up, n_height_tail, wq
# Unused here; kept importable because bench/spans.py wraps generalized.w_derivative.
from .scale import w_derivative  # noqa: F401
from .volterra import solve_w_z_f

__all__ = [
    "ExitSpec",
    "GeneralizedScaleResult",
    "iota",
    "kappa",
    "evaluate_exit",
    "supremum_density",
    "supremum_atom",
    "supremum_mass",
    "conditional_curve",
    "local_time_laplace",
]

DEFAULT_OUTER = 129
DEFAULT_INNER = 1024
_REFINE_TOL = 1e-6
_REFINE_CAP = 4
_ROW_BLOCK = 32  # outer nodes per frozen block solve; bounds its memory


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


def iota(model: LevyModel, F: BivariatePotential, b: float, s: float, n: int) -> float:
    """Excursion damping rate at supremum level ``s > b``.

    Solves the renewal equation for the potential frozen at level ``s`` on
    ``[b, s]`` with ``n`` grid intervals and returns the log-derivative gap.
    The value is finite and nonnegative, bounded by ``phi(bound)``.
    """
    if s <= b:
        raise ValueError(f"iota requires s > b, got s={s}, b={b}")
    return float(_functional_grids(model, F, b, [s], n)[0][0])


def kappa(model: LevyModel, F: BivariatePotential, b: float, z: float, n: int) -> float:
    """Terminal-excursion weight at supremum level ``z > b``.

    Reduces to the excursion height tail ``W'(z-b)/W(z-b)`` when ``F == 0``.
    The overshoot weight is 1: neither this solver nor the Monte Carlo engine
    weights a down exit by its overshoot below ``b``.  The frozen solve must
    pass the same resolution check as :func:`iota`'s.
    """
    if z <= b:
        raise ValueError(f"kappa requires z > b, got z={z}, b={b}")
    if z - b < 1e-9 * max(1.0, abs(b), abs(z)):
        raise ValueError(f"kappa: z - b = {z - b} is below grid resolution")
    return float(_functional_grids(model, F, b, [z], n)[1][0])


# ---------------------------------------------------------------------------
# Grid evaluation of both functionals
# ---------------------------------------------------------------------------


def _functional_grids(model, F, b, nodes, n_inner):
    """iota and kappa on outer nodes, each from its own frozen solve on ``[b, s]``.

    Returns ``(iotas, kappas, w0, tails)``: with ``w0 = W(s-b)`` and ``tails =
    W'(s-b)/W(s-b)`` of the 0-scale function, evaluated once over the grid,
    ``iota = Wf'/Wf - tails`` and ``kappa = (Zf Wf' - Zf' Wf)/Wf`` at the end
    of each frozen solve.  An iota below zero beyond rounding means the
    frozen solve is under-resolved, and raises ``ArithmeticError``.

    The solves are marched in blocks of at most ``_ROW_BLOCK`` rows.  The
    march keeps O(1) state per row, but a block holds about ten arrays of
    ``rows x (n_inner + 1)`` (nodes, lattice, kernel, potential samples, the
    W and Z columns and their temporaries), so the block size bounds the
    memory of a solve.  Each lattice scales with its own ``[b, s]``, so
    iota's error does not grow as ``s`` nears the barrier.
    """
    nodes = np.asarray(nodes, dtype=float)
    w0 = _wq_array(model, 0.0, nodes - b)
    tails = _w_deriv_array(model, 0.0, nodes - b) / w0
    w, wp, z, zp = (np.empty_like(nodes) for _ in range(4))
    for block in np.array_split(np.arange(nodes.size), -(-nodes.size // _ROW_BLOCK)):
        sol = solve_w_z_f(model, [F.frozen(s) for s in nodes[block]], b, nodes[block], n_inner)
        w[block], wp[block] = sol.w[:, -1], sol.w_end_deriv
        z[block], zp[block] = sol.z[:, -1], sol.z_end_deriv
    iotas = wp / w - tails
    deep = np.flatnonzero(iotas < -1e-6 * np.maximum(1.0, np.abs(tails)))
    if deep.size:
        raise ArithmeticError(
            f"iota({nodes[deep[0]]}) = {iotas[deep[0]]} is negative beyond tolerance; "
            "the frozen solve is under-resolved"
        )
    return np.maximum(iotas, 0.0), (z * wp - zp * w) / w, w0, tails


def _level_pass(model, F, b, lo, hi, n_outer, n_inner):
    """The functional grids on ``n_outer`` Simpson nodes spanning ``[lo, hi]``.

    Returns ``(nodes, step, iotas, kappas, w0, tails, cum)``, the middle four
    from :func:`_functional_grids`, and ``cum`` the running integral of iota
    from ``lo`` at each node.
    """
    if n_outer < 5 or n_outer % 2 == 0:
        raise ValueError("n_outer must be an odd node count >= 5")
    nodes = np.linspace(lo, hi, n_outer)
    h = (hi - lo) / (n_outer - 1)
    iotas, kappas, w0, tails = _functional_grids(model, F, b, nodes, n_inner)
    return nodes, h, iotas, kappas, w0, tails, cumulative_simpson(iotas, h)


def _exit_values(model, F, g, spec, n_outer, n_inner):
    """One evaluation pass at a fixed resolution."""
    nodes, h, iotas, kappas, w0, _, cum = _level_pass(model, F, spec.b, spec.x, spec.a,
                                                      n_outer, n_inner)
    w_x = w0[0]  # the first node is x
    up = (w_x / w0[-1]) * math.exp(-cum[-1])
    gvals = np.ones_like(nodes) if g is None else np.asarray(g(nodes), dtype=float)
    integrand = gvals * (w_x / w0) * np.exp(-cum) * kappas
    down = composite_simpson(integrand, h)
    return up, down, nodes, iotas, kappas


def evaluate_exit(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    g: Optional[Callable] = None,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
) -> GeneralizedScaleResult:
    """Evaluate both exit identities for a supremum-dependent potential.

    Both resolutions double, at most ``_REFINE_CAP`` (4) times, until two
    successive levels satisfy ``max(|d up|, |d down|) / max(|up|, |down|,
    1e-12) < 1e-6``, with ``d`` the change and the magnitudes the finer
    level's; ``diagnostics["converged"]`` says whether they did and
    ``last_delta`` holds the last ratio.  The rule is scaled by the larger
    value, so it does not bound the relative change of the smaller one
    (ROADMAP item 13).

    Args:
        model: the driving process.
        F: bounded nonnegative potential of ``(supremum, position)``.
        spec: the exit triple ``b < x < a``.
        g: optional bounded weight of the supremum at the down-exit
            (vectorized callable); defaults to 1.
        n_outer: Simpson node count of the outer level integrals (odd).
        n_inner: grid intervals of each frozen renewal solve.

    Returns:
        A :class:`GeneralizedScaleResult` with the up-exit Laplace transform,
        the down-exit functional, and the sampled functional grids.
    """
    up, down, nodes, iotas, kappas = _exit_values(model, F, g, spec, n_outer, n_inner)
    levels = 0
    converged = False
    delta = 0.0
    while levels < _REFINE_CAP:
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


def supremum_mass(model: LevyModel, spec: ExitSpec, lo: float, hi: float) -> float:
    """``P_x(down exit, lo <= S_T < hi) = W(x-b) (1/W(lo-b) - 1/W(hi-b))``
    for ``x <= lo < hi <= a``: the unconditional mass of a supremum bin."""
    b, x, a = spec.b, spec.x, spec.a
    if not (x <= lo < hi <= a):
        raise ValueError(f"supremum_mass requires x <= lo < hi <= a, got [{lo}, {hi})")
    return wq(model, 0.0, x - b) * (1.0 / wq(model, 0.0, lo - b) - 1.0 / wq(model, 0.0, hi - b))


def conditional_curve(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
):
    """``E_x[exp(-int_0^T F dt) | S_T = z]`` on ``n_outer`` nodes spanning ``[x, a]``.

    Returns ``(nodes, values)``; one frozen solve per node serves every value.
    The W-ratio of the statement cancels against the one inside the
    frozen-scale ratio, leaving the exponential damping alone.  Below ``a``
    the last excursion enters through ``kappa / (W'/W)``.  The final node is
    the up exit: it has no terminal excursion and carries the damping alone.
    """
    nodes, _, _, kappas, _, tails, cum = _level_pass(model, F, spec.b, spec.x, spec.a,
                                                     n_outer, n_inner)
    values = np.array([math.exp(-c) for c in cum])
    values[:-1] = values[:-1] * kappas[:-1] / tails[:-1]
    return nodes, values


def local_time_laplace(
    model: LevyModel,
    f_x: UnivariatePotential,
    spec: ExitSpec,
    n_outer: int = DEFAULT_OUTER,
    n_inner: int = DEFAULT_INNER,
) -> tuple:
    """Laplace transform of the potential-weighted local time at the exit.

    By the occupation formula the weighted local-time integral equals the
    time integral of ``f(X_t)``, so the value is the sum of the up and down
    exit identities for the lifted potential ``F(s, x) := f(x)``.  Returns
    ``(value, diagnostics)``, the second being the refinement diagnostics of
    :func:`evaluate_exit`; check ``diagnostics["converged"]``.  That flag
    scales the change of the up and down values by the larger of them, so it
    does not bound the relative change of the smaller one, nor of their sum
    when the two nearly cancel (ROADMAP item 13).
    """
    lifted = BivariatePotential.from_univariate(f_x)
    result = evaluate_exit(model, lifted, spec, g=None, n_outer=n_outer, n_inner=n_inner)
    return result.up_laplace + result.down_value, result.diagnostics
