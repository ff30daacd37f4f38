"""Classical scale functions and the two-sided exit identities.

``W^{(q)}`` is the increasing function on ``[0, inf)`` with Laplace transform
``1/(psi(beta) - q)`` for ``beta > phi(q)``, extended by zero on the negative
half line; ``Z^{(q)}(x) = 1 + q * int_0^x W^{(q)}``.  For both model families
the transform is rational with real poles (``LevyModel.roots``), so ``W``,
``W'`` and ``Z`` are exact sums of exponentials, built once per ``(model, q)``.
The two poles next to the origin merge when ``q = 0`` and ``psi'(0) = 0``;
they enter through a divided difference that stays exact as they meet.
``laplace_invert`` is a general fixed-Talbot utility; the scale functions do
not use it.

The ratio ``W'(z)/W(z)`` of the 0-scale function is exposed as
``n_height_tail``: it equals the excursion-measure mass of excursion heights
exceeding ``z`` for the process reflected at its supremum.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._csvout import write_csv
from .models import LevyModel
# Unused here; kept importable because bench/spans.py wraps scale.composite_simpson.
from .quadrature import composite_simpson  # noqa: F401

__all__ = [
    "InversionError",
    "laplace_invert",
    "wq",
    "zq",
    "w_derivative",
    "n_height_tail",
    "classical_exit_up",
    "classical_exit_down",
    "ScaleTable",
    "make_scale_table",
]


class InversionError(RuntimeError):
    """Numerical Laplace inversion failure, with contour diagnostics."""


# ---------------------------------------------------------------------------
# Fixed Talbot inversion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _talbot_nodes(m: int):
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    weight = 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot
    return theta, cot, weight


def _eval_transform(transform: Callable, z: np.ndarray) -> np.ndarray:
    """Evaluate a transform on a complex array, tolerating scalar-only callables."""
    try:
        vals = np.asarray(transform(z), dtype=complex)
        if vals.shape == z.shape:
            return vals
    except (TypeError, ValueError):
        pass
    flat = np.array([transform(p) for p in np.ravel(z)], dtype=complex)
    return flat.reshape(z.shape)


def laplace_invert(
    transform: Callable,
    x: float,
    m: int = 48,
    shift: float = 0.0,
) -> float:
    """Fixed-Talbot inversion of a Laplace transform at a single point.

    Args:
        transform: evaluator of the transform on complex points; must be
            analytic to the right of ``shift``.  Array arguments are used when
            the callable supports them.
        x: evaluation point, ``> 0``.
        m: number of contour nodes.
        shift: horizontal contour shift.  Passing a value to the right of the
            rightmost singularity (e.g. ``phi(q) + 1`` for scale-function
            transforms) keeps the contour clear of poles on the positive axis.

    Returns:
        The inverse transform at ``x``.

    Raises:
        InversionError: when the contour sum is not finite.
    """
    return float(_talbot_array(transform, np.asarray([x], dtype=float), m, shift)[0])


def _talbot_array(
    transform: Callable, xs: np.ndarray, m: int, shift: float
) -> np.ndarray:
    """Vectorized fixed-Talbot inversion over positive abscissae."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0):
        raise ValueError("laplace_invert requires x > 0")
    theta, cot, weight = _talbot_nodes(m)
    r = 2.0 * m / (5.0 * xs)  # per-point contour scale
    p = r[:, None] * theta[None, :] * (cot[None, :] + 1j)
    vals = _eval_transform(transform, shift + p)
    terms = np.exp(xs[:, None] * p) * weight[None, :] * vals
    base = 0.5 * np.exp(xs * r) * _eval_transform(transform, (shift + r).astype(complex))
    total = base.real + terms.real.sum(axis=1)
    out = np.exp(shift * xs) * (2.0 / (5.0 * xs)) * total
    if not np.all(np.isfinite(out)):
        bad = xs[~np.isfinite(out)]
        raise InversionError(
            f"talbot inversion produced non-finite values at x={bad[:4]!r} "
            f"(m={m}, shift={shift}, r scale={2.0 * m / 5.0})"
        )
    return out


# ---------------------------------------------------------------------------
# Scale functions
# ---------------------------------------------------------------------------


class _ExpSum(NamedTuple):
    """``W^{(q)}``, ``W^{(q)'}`` and ``Z^{(q)}`` as sums of exponentials.

    Each function is the combination, with the coefficients of its field, of
    the columns ``e^{far x}``, ``e^{far x} - e^{lo x}``, ``(e^{hi x} - e^{lo x})/(hi -
    lo)`` and ``e^{lo x}``.  The differences are evaluated without
    cancellation: the second as ``e^{lo x} expm1((far - lo) x)``, the third as
    ``e^{hi x} (1 - e^{-(hi - lo) x})/(hi - lo)`` through ``expm1``, and as
    ``x e^{hi x}`` when the roots merge.  No column overflows before
    ``e^{hi x}`` itself does.
    """

    far: float
    lo: float
    hi: float
    w: tuple
    w_prime: tuple
    z: tuple

    def column(self, field: str, xs) -> np.ndarray:
        """``W``, ``W'`` or ``Z`` (by field name) at ``max(xs, 0)``."""
        xs = np.maximum(np.asarray(xs, dtype=float), 0.0)
        far, lo, hi = self.far, self.lo, self.hi
        d = hi - lo
        cols = (  # evaluated only where the coefficient is nonzero
            lambda: np.exp(far * xs),
            lambda: np.exp(lo * xs) * np.expm1((far - lo) * xs),
            lambda: np.exp(hi * xs) * (-np.expm1(-d * xs) / d if d > 0.0 else xs),
            lambda: np.exp(lo * xs),
        )
        with np.errstate(over="ignore"):
            out = sum(c * col() for c, col in zip(getattr(self, field), cols) if c)
        if not np.isfinite(out).all():
            raise OverflowError(f"{field} overflows by x={float(xs.max())!r} (phi(q)={hi!r})")
        return out


@lru_cache(maxsize=64)
def _exp_sum(model: LevyModel, q: float) -> _ExpSum:
    """Partial fractions of ``1/(psi(beta) - q)`` over ``model.roots(q)``.

    With jumps the transform is ``(2/sigma^2)(eta + beta)/((beta - far)(beta -
    lo)(beta - hi))``.  Its ``far`` residue is ``c_far``; since the residues
    sum to zero, the ``lo`` and ``hi`` terms are ``r_hi`` times the divided
    difference minus ``c_far e^{lo x}``, with ``r_hi`` the ``hi`` residue times
    ``hi - lo``.  Weighting each residue by ``theta`` (for ``W'``) or by
    ``psi(theta)/theta = q/theta`` (for ``Z``) and taking divided differences
    of the weighted ``lo``/``hi`` pair the same way gives the other two
    functions.  Without jumps the far term is absent and ``r_hi = 2/sigma^2``.
    """
    roots = model.roots(q)
    lo, hi = roots[-2:]
    r0 = 2.0 / model.sigma**2
    far, c_far, r_hi, z_far = lo, 0.0, r0, 0.0
    if len(roots) == 3:
        far = roots[0]
        c_far = r0 * (model.eta + far) / ((far - lo) * (far - hi))
        r_hi = r0 * (model.eta + hi) / (hi - far)
        z_far = c_far * q / far
    g_hi = q / hi if q > 0.0 else 0.0  # psi(hi)/hi; at q = 0, Z is 1 without it
    return _ExpSum(
        far, lo, hi,
        w=(0.0, c_far, r_hi, 0.0),
        w_prime=(c_far * far, 0.0, r_hi * hi, r_hi - c_far * lo),
        z=(0.0, z_far, g_hi * r_hi, 1.0),
    )


def _wq_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """``W^{(q)}`` on an array of arguments (zeros for x <= 0)."""
    return _exp_sum(model, float(q)).column("w", xs)


def wq(model: LevyModel, q: float, x: float) -> float:
    """``W^{(q)}(x)``; zero on the negative half line."""
    return float(_wq_array(model, q, np.asarray([x]))[0])


def _zq_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """``Z^{(q)}`` on an array of arguments (ones for x <= 0 or q = 0)."""
    if q == 0.0:
        return np.ones_like(np.asarray(xs, dtype=float))
    return _exp_sum(model, float(q)).column("z", xs)


def zq(model: LevyModel, q: float, x: float) -> float:
    """``Z^{(q)}(x) = 1 + q * int_0^x W^{(q)}``; equals 1 for x <= 0 or q = 0."""
    return float(_zq_array(model, q, np.asarray([x], dtype=float))[0])


def _w_deriv_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """Derivative of ``W^{(q)}`` on arguments >= 0 (the right derivative at 0)."""
    return _exp_sum(model, float(q)).column("w_prime", xs)


def w_derivative(model: LevyModel, q: float, x: float) -> float:
    """``d/dx W^{(q)}(x)`` for x > 0."""
    if x <= 0.0:
        raise ValueError("w_derivative requires x > 0")
    return float(_w_deriv_array(model, q, np.asarray([x]))[0])


def n_height_tail(model: LevyModel, z: float) -> float:
    """Excursion-height tail mass ``W'(z)/W(z)`` of the reflected process."""
    if z <= 0.0:
        raise ValueError("n_height_tail requires z > 0")
    return w_derivative(model, 0.0, z) / wq(model, 0.0, z)


def w_prime_at_zero(model: LevyModel) -> float:
    """Right derivative of the 0-scale function at 0, ``2/sigma^2``."""
    return 2.0 / model.sigma**2


# ---------------------------------------------------------------------------
# Two-sided exit identities
# ---------------------------------------------------------------------------


def _check_ordering(b: float, x: float, a: float) -> None:
    if not (b < x < a):
        raise ValueError(f"exit problem requires b < x < a, got b={b}, x={x}, a={a}")


def classical_exit_up(model: LevyModel, q: float, b: float, x: float, a: float) -> float:
    """``E_x[e^{-qT}; exit above] = W^{(q)}(x-b) / W^{(q)}(a-b)``."""
    _check_ordering(b, x, a)
    return wq(model, q, x - b) / wq(model, q, a - b)


def classical_exit_down(model: LevyModel, q: float, b: float, x: float, a: float) -> float:
    """``E_x[e^{-qT}; exit below] = Z^{(q)}(x-b) - Z^{(q)}(a-b) W^{(q)}(x-b)/W^{(q)}(a-b)``."""
    _check_ordering(b, x, a)
    ratio = wq(model, q, x - b) / wq(model, q, a - b)
    return zq(model, q, x - b) - zq(model, q, a - b) * ratio


# ---------------------------------------------------------------------------
# Sampled tables
# ---------------------------------------------------------------------------


@dataclass
class ScaleTable:
    """Scale function sampled on a uniform grid with derivative columns.

    The grid argument is the offset from the left endpoint of the underlying
    problem, so ``w_values[0]`` corresponds to argument 0 and must vanish
    (unbounded-variation boundary value).
    """

    grid_lo: float
    grid_hi: float
    n: int
    w_values: np.ndarray
    w_deriv: np.ndarray
    z_values: np.ndarray
    z_deriv: np.ndarray
    normalization_note: str = ""

    def __post_init__(self):
        for name in ("w_values", "w_deriv", "z_values", "z_deriv"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.w_values.size != self.n:
            raise ValueError("w_values length must equal the node count n")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.n)

    def validate(self, tol: float = 1e-9) -> None:
        """Check the structural invariants of a well-formed table."""
        w = self.w_values
        scale = max(1.0, float(np.max(np.abs(w))))
        if abs(w[0]) > tol * scale:
            raise ValueError(f"w_values[0] must be 0, got {w[0]!r}")
        if np.any(w < -tol * scale):
            raise ValueError("w_values must be nonnegative")
        if np.any(np.diff(w[1:]) <= 0.0):
            raise ValueError("w_values must be strictly increasing beyond the first node")
        if np.any(self.z_values < 1.0 - tol):
            raise ValueError("z_values must be >= 1 for a nonnegative potential")

    def to_csv(self, target) -> None:
        """Dump the table: header ``x,W,Wprime,Z,Zprime``, 17 significant digits.

        ``target`` is a path or an open text stream.  Rows are formatted in
        blocks of a few thousand by one ``%`` each (``_csvout.write_csv``),
        with the same text as one ``f"{v:.17g}"`` per value.
        """
        write_csv(
            target,
            ["x", "W", "Wprime", "Z", "Zprime"],
            ["%.17g"] * 5,
            [self.grid, self.w_values, self.w_deriv, self.z_values, self.z_deriv],
        )

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def make_scale_table(model: LevyModel, q: float, hi: float, n: int) -> ScaleTable:
    """Sample ``W^{(q)}`` and ``Z^{(q)}`` on ``[0, hi]``.

    The derivative columns are analytic relations, not differences of the
    value columns: ``Z^{(q)'} = q W^{(q)}``.
    """
    if not 0.0 < hi < np.inf or n < 2:
        raise ValueError("make_scale_table requires a finite hi > 0 and n >= 2 nodes")
    xs = np.linspace(0.0, hi, n)
    w = _wq_array(model, q, xs)
    return ScaleTable(
        grid_lo=0.0,
        grid_hi=float(hi),
        n=int(n),
        w_values=w,
        w_deriv=_w_deriv_array(model, q, xs),
        z_values=_zq_array(model, q, xs),
        z_deriv=q * w,
        normalization_note=f"q-scale table, q={q}, transform 1/(psi(beta)-q)",
    )
