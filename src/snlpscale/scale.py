"""Classical scale functions and the two-sided exit identities.

``W^{(q)}`` is the increasing function on ``[0, inf)`` with Laplace transform
``1/(psi(beta) - q)`` for ``beta > phi(q)``, extended by zero on the negative
half line; ``Z^{(q)}(x) = 1 + q * int_0^x W^{(q)}``.  The Brownian family uses
closed forms; the jump family inverts the transforms numerically with a fixed
Talbot contour shifted to ``phi(q) + 1``, right of the dominant singularity.
``Z`` is obtained the same way: ``int_0^x W^{(q)}`` has transform
``1/(beta (psi(beta) - q))``, so a whole column of ``Z`` values is one
inversion, with no quadrature over ``W``.

The ratio ``W'(z)/W(z)`` of the 0-scale function is exposed as
``n_height_tail``: it equals the excursion-measure mass of excursion heights
exceeding ``z`` for the process reflected at its supremum.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .models import Family, LevyModel
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

_CLAMP = 1e-12  # inversion output below this argument is pinned to W(0) = 0, Z(0) = 1


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
# Brownian closed forms
# ---------------------------------------------------------------------------


def _brownian_params(model: LevyModel, q: float):
    s2 = model.sigma**2
    m = model.mu / s2
    delta = np.sqrt(model.mu**2 + 2.0 * q * s2) / s2
    return s2, m, delta


def _sinhc(delta: float, x: np.ndarray) -> np.ndarray:
    """sinh(delta*x)/delta, with the exact delta == 0 limit."""
    if delta == 0.0:
        return np.asarray(x, dtype=float).copy()
    return np.sinh(delta * x) / delta


def _w_brownian(model: LevyModel, q: float, x: np.ndarray) -> np.ndarray:
    s2, m, delta = _brownian_params(model, q)
    x = np.asarray(x, dtype=float)
    out = (2.0 / s2) * np.exp(-m * x) * _sinhc(delta, x)
    return np.where(x > 0.0, out, 0.0)


def _w_brownian_deriv(model: LevyModel, q: float, x: np.ndarray) -> np.ndarray:
    s2, m, delta = _brownian_params(model, q)
    x = np.asarray(x, dtype=float)
    return (2.0 / s2) * np.exp(-m * x) * (np.cosh(delta * x) - m * _sinhc(delta, x))


def _z_brownian(model: LevyModel, q: float, x: np.ndarray) -> np.ndarray:
    _, m, delta = _brownian_params(model, q)
    x = np.asarray(x, dtype=float)
    out = np.exp(-m * x) * (np.cosh(delta * x) + m * _sinhc(delta, x))
    return np.where(x > 0.0, out, 1.0)


# ---------------------------------------------------------------------------
# Scale functions
# ---------------------------------------------------------------------------


def _wq_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """``W^{(q)}`` on an array of arguments (zeros for x <= 0)."""
    xs = np.asarray(xs, dtype=float)
    if model.family is Family.BROWNIAN_DRIFT:
        return _w_brownian(model, q, xs)
    out = np.zeros_like(xs)
    pos = xs > _CLAMP
    if np.any(pos):
        shift = model.phi(q) + 1.0
        transform = lambda beta: 1.0 / (model._psi_any(beta) - q)
        out[pos] = _talbot_array(transform, xs[pos], 48, shift)
    return out


def wq(model: LevyModel, q: float, x: float) -> float:
    """``W^{(q)}(x)``; zero on the negative half line."""
    if q < 0.0:
        raise ValueError("wq requires q >= 0")
    if x <= _CLAMP:
        return 0.0
    return float(_wq_array(model, q, np.asarray([x]))[0])


def _zq_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """``Z^{(q)}`` on an array of arguments (ones for x <= 0 or q = 0).

    The jump family inverts ``1/(beta (psi(beta) - q))``, the transform of
    ``int_0^x W^{(q)}``, with the contour of ``_wq_array``: one ``phi`` and
    one Talbot call per array, and each value independent of the others.
    """
    xs = np.asarray(xs, dtype=float)
    if model.family is Family.BROWNIAN_DRIFT:
        return _z_brownian(model, q, xs) if q > 0.0 else np.ones_like(xs)
    out = np.ones_like(xs)
    pos = xs > _CLAMP
    if q > 0.0 and np.any(pos):
        transform = lambda beta: 1.0 / (beta * (model._psi_any(beta) - q))
        out[pos] += q * _talbot_array(transform, xs[pos], 48, model.phi(q) + 1.0)
    return out


def zq(model: LevyModel, q: float, x: float) -> float:
    """``Z^{(q)}(x) = 1 + q * int_0^x W^{(q)}``; equals 1 for x <= 0 or q = 0.

    The jump family inverts ``1/(beta (psi(beta) - q))`` on the Talbot
    contour shifted to ``phi(q) + 1`` (see ``_zq_array``).
    """
    if q < 0.0:
        raise ValueError("zq requires q >= 0")
    return float(_zq_array(model, q, np.asarray([x], dtype=float))[0])


def _w_deriv_array(model: LevyModel, q: float, xs: np.ndarray) -> np.ndarray:
    """Derivative of ``W^{(q)}`` on positive arguments.

    Analytic for the Brownian family.  For inverted families the derivative
    transform ``beta/(psi(beta)-q)`` is inverted directly (the boundary term
    vanishes because ``W(0) = 0``); a difference stencil on top of the
    contour inversion would amplify its small pointwise noise by the inverse
    step and lose five digits.
    """
    xs = np.asarray(xs, dtype=float)
    if model.family is Family.BROWNIAN_DRIFT:
        return _w_brownian_deriv(model, q, xs)
    shift = model.phi(q) + 1.0
    transform = lambda beta: beta / (model._psi_any(beta) - q)
    return _talbot_array(transform, xs, 48, shift)


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
    z_values: Optional[np.ndarray] = None
    z_deriv: Optional[np.ndarray] = None
    normalization_note: str = ""

    def __post_init__(self):
        self.w_values = np.asarray(self.w_values, dtype=float)
        self.w_deriv = np.asarray(self.w_deriv, dtype=float)
        if self.z_values is not None:
            self.z_values = np.asarray(self.z_values, dtype=float)
        if self.z_deriv is not None:
            self.z_deriv = np.asarray(self.z_deriv, dtype=float)
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
        if self.z_values is not None and np.any(self.z_values < 1.0 - tol):
            raise ValueError("z_values must be >= 1 for a nonnegative potential")

    def to_csv(self, target) -> None:
        """Dump the table: header ``x,W,Wprime[,Z,Zprime]``, 17 significant digits."""
        own = isinstance(target, (str, bytes))
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            with_z = self.z_values is not None
            fh.write("x,W,Wprime,Z,Zprime\n" if with_z else "x,W,Wprime\n")
            xs = self.grid
            for i in range(self.n):
                row = [xs[i], self.w_values[i], self.w_deriv[i]]
                if with_z:
                    row += [self.z_values[i], self.z_deriv[i]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        finally:
            if own:
                fh.close()

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def make_scale_table(
    model: LevyModel, q: float, hi: float, n: int, with_z: bool = True
) -> ScaleTable:
    """Sample ``W^{(q)}`` (and optionally ``Z^{(q)}``) on ``[0, hi]``.

    The derivative columns are analytic relations, not differences of the
    value columns: ``Z^{(q)'} = q W^{(q)}``.
    """
    if hi <= 0.0 or n < 2:
        raise ValueError("make_scale_table requires hi > 0 and n >= 2 nodes")
    if q < 0.0:
        raise ValueError("make_scale_table requires q >= 0")
    xs = np.linspace(0.0, hi, n)
    w = _wq_array(model, q, xs)
    wp = np.empty_like(xs)
    wp[0] = w_prime_at_zero(model)
    wp[1:] = _w_deriv_array(model, q, xs[1:])
    z = zp = None
    if with_z:
        z = _zq_array(model, q, xs)
        zp = q * w
    return ScaleTable(
        grid_lo=0.0,
        grid_hi=float(hi),
        n=int(n),
        w_values=w,
        w_deriv=wp,
        z_values=z,
        z_deriv=zp,
        normalization_note=f"q-scale table, q={q}, transform 1/(psi(beta)-q)",
    )
