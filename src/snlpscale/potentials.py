"""Bounded nonnegative potentials weighting the path functionals.

A bivariate potential maps ``(running supremum, position)`` pairs to a rate
and declares whether it reads the supremum; every solver takes one.  Each
potential declares a finite sup-norm bound up front: the finiteness of every
derived quantity rests on that bound, so out-of-range evaluations are hard
errors rather than clamps.

The named builders at the bottom are the selector grammar shared by the CLI
and the Monte Carlo verifier, keeping the deterministic and stochastic sides
provably pointed at the same function.  The grammar, as ``F(s, x)``::

    const:q        q at every argument, finite or not   reads_sup=False
    level:c,r      c * 1{x > r}                          reads_sup=False
    reflected:c    c * (s - x)
    indicator:c,r  c * 1{s - x > r}

:func:`parse_bivariate` builds each of them; :func:`parse_univariate` builds
the position-only members, those that declare ``reads_sup=False``, and
rejects the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "UnivariatePotential",
    "BivariatePotential",
    "parse_bivariate",
    "parse_univariate",
    "parse_g",
]


def _apply_vectorized(func, *arrays):
    """Apply a scalar-or-vector callable to broadcast arrays of floats."""
    try:
        out = np.asarray(func(*arrays), dtype=float)
        if out.shape == np.broadcast(*arrays).shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = np.broadcast_arrays(*arrays)
    it = np.nditer(flat[0], flags=["multi_index"])
    out = np.empty(flat[0].shape)
    while not it.finished:
        idx = it.multi_index
        out[idx] = func(*(arr[idx] for arr in flat))
        it.iternext()
    return out


def _check_range(vals: np.ndarray, bound: float, label: str) -> np.ndarray:
    tol = 1e-12 * max(1.0, bound)
    # NaN fails both comparisons, so it is rejected with the values out of range
    if vals.size and not (vals.min() >= -tol and vals.max() <= bound + tol):
        bad = float(vals.flat[np.argmax(np.abs(vals - np.clip(vals, 0.0, bound)))])
        raise ValueError(
            f"{label}: value {bad} outside the declared range [0, {bound}]"
        )
    return vals


# No library module uses it; kept because bench/spans.py wraps UnivariatePotential.eval_array.
@dataclass(frozen=True)
class UnivariatePotential:
    """Nonnegative map ``x -> f(x)`` with declared sup-norm ``bound``."""

    func: Callable[[float], float]
    bound: float
    name: str = ""

    def __post_init__(self):
        if self.bound < 0.0:
            raise ValueError("potential bound must be >= 0")

    def __call__(self, x: float) -> float:
        return float(self.eval_array(np.asarray([x], dtype=float))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        vals = _apply_vectorized(self.func, xs)
        return _check_range(vals, self.bound, self.name or "univariate potential")


@dataclass(frozen=True)
class BivariatePotential:
    """Nonnegative map ``(s, x) -> f(s, x)`` with declared sup-norm ``bound``.

    ``s`` is the running supremum coordinate and ``x`` the position; on paths
    of the process ``s >= x`` always holds, but the map must be defined on the
    full rectangle that solvers sweep (``x`` down to the lower barrier).

    ``reads_sup`` declares whether the values depend on ``s``.  A map that
    declares False must not: the path engine then does not track the
    supremum and passes the position as ``s``.
    """

    func: Callable[[float, float], float]
    bound: float
    name: str = ""
    reads_sup: bool = True

    def __post_init__(self):
        if self.bound < 0.0:
            raise ValueError("potential bound must be >= 0")

    def __call__(self, s: float, x: float) -> float:
        return float(self.eval_pairs(np.asarray([s]), np.asarray([x]))[0])

    def eval_pairs(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=float)
        vals = _apply_vectorized(self.func, s, x)
        return _check_range(vals, self.bound, self.name or "bivariate potential")


# ---------------------------------------------------------------------------
# Named builders (CLI selector grammar)
# ---------------------------------------------------------------------------


def _split_spec(spec: str, expected: int, flag: str):
    name, _, argstr = spec.partition(":")
    args = [a for a in argstr.split(",") if a] if argstr else []
    if len(args) != expected:
        raise ValueError(
            f"{flag}: '{name}' takes {expected} argument(s), got '{spec}'"
        )
    try:
        vals = [float(a) for a in args]
    except ValueError as exc:
        raise ValueError(f"{flag}: non-numeric argument in '{spec}'") from exc
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{flag}: non-finite argument in '{spec}'")
    return name, vals


def parse_bivariate(spec: str, domain_width: float) -> BivariatePotential:
    """Build a named potential of the module's grammar.

    ``domain_width`` sizes the declared bound of the reflected family.
    """
    name, flag = spec.partition(":")[0], "--potential"
    if name == "const":
        _, (q,) = _split_spec(spec, 1, flag)
        if q < 0:
            raise ValueError(f"{flag}: const level must be >= 0")
        return BivariatePotential(
            lambda s, x: np.full(np.broadcast(s, x).shape, q), bound=q, name=spec,
            reads_sup=False,
        )
    if name == "reflected":
        _, (c,) = _split_spec(spec, 1, flag)
        if c < 0:
            raise ValueError(f"{flag}: reflected coefficient must be >= 0")
        bound = 2.0 * c * max(domain_width, 1e-12)
        return BivariatePotential(
            lambda s, x: c * np.clip(s - x, 0.0, None), bound=bound, name=spec
        )
    if name == "indicator":
        _, (c, r) = _split_spec(spec, 2, flag)
        if c < 0:
            raise ValueError(f"{flag}: indicator height must be >= 0")
        return BivariatePotential(
            lambda s, x: c * ((s - x) > r), bound=c, name=spec
        )
    if name == "level":
        _, (c, r) = _split_spec(spec, 2, flag)
        if c < 0:
            raise ValueError(f"{flag}: level height must be >= 0")
        return BivariatePotential(
            lambda s, x: c * (x > r) + 0.0 * s, bound=c, name=spec, reads_sup=False
        )
    raise ValueError(f"{flag}: unknown potential '{name}' in '{spec}'")


def parse_univariate(spec: str) -> BivariatePotential:
    """Build a position-only member of the module's grammar, one that declares
    ``reads_sup=False``; a member that reads the supremum is rejected."""
    F = parse_bivariate(spec, 0.0)  # the width sizes the reflected bound alone
    if F.reads_sup:
        raise ValueError(f"--potential: '{spec.partition(':')[0]}' is not a position-only "
                         "potential (use const or level)")
    return F


def parse_g(spec: str) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Bounded weight of the supremum at the down-exit: ``one``, ``identity``, ``const:c``.

    ``one`` gives ``None``, which every solver reads as the weight 1, so a
    run weighted by it need not know the supremum.
    """
    name, flag = spec.partition(":")[0], "--g"
    if name == "one":
        return None
    if name == "identity":
        return lambda z: np.asarray(z, dtype=float)
    if name == "const":
        _, (c,) = _split_spec(spec, 1, flag)
        return lambda z: c * np.ones_like(np.asarray(z, dtype=float))
    raise ValueError(f"{flag}: unknown weight '{name}' in '{spec}'")
