"""Spectrally negative Levy models: Laplace exponents, inverses, tilts.

Two families are supported, both with a nonzero Gaussian part (so the paths
have unbounded variation):

* ``BROWNIAN_DRIFT`` -- linear drift plus Brownian motion,
  ``psi(lam) = mu*lam + sigma^2*lam^2/2``.
* ``EXP_JUMP_DIFFUSION`` -- the same diffusion plus a compound Poisson stream
  of downward exponential jumps with intensity ``jump_rate`` and mean absolute
  size ``jump_mean``, giving
  ``psi(lam) = mu*lam + sigma^2*lam^2/2 - jump_rate*lam/(eta + lam)`` with
  ``eta = 1/jump_mean``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Family",
    "LevyModel",
    "make_brownian",
    "make_exp_jump_diffusion",
]

_ArrayLike = Union[float, np.ndarray]


class Family(str, enum.Enum):
    BROWNIAN_DRIFT = "brownian_drift"
    EXP_JUMP_DIFFUSION = "exp_jump_diffusion"


class RootFindingError(RuntimeError):
    """Raised when the inverse of the Laplace exponent fails to converge."""


@dataclass(frozen=True)
class LevyModel:
    """Immutable spectrally negative Levy process description.

    Attributes:
        family: process family tag.
        mu: linear drift per unit time.
        sigma: Gaussian coefficient, strictly positive for both families.
        jump_rate: Poisson intensity of downward jumps (jump family only).
        jump_mean: mean absolute jump size, ``1/eta`` (jump family only).
    """

    family: Family
    mu: float
    sigma: float
    jump_rate: float = 0.0
    jump_mean: float = 1.0

    def __post_init__(self):
        for name in ("mu", "sigma", "jump_rate", "jump_mean"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma <= 0.0:
            raise ValueError(
                "sigma must be > 0: a vanishing Gaussian part would give paths "
                "of bounded variation, which this library does not support"
            )
        if self.family is Family.BROWNIAN_DRIFT:
            if self.jump_rate != 0.0:
                raise ValueError("BROWNIAN_DRIFT takes jump_rate == 0")
        else:
            if self.jump_rate < 0.0:
                raise ValueError("jump_rate must be >= 0")
            if self.jump_mean <= 0.0:
                raise ValueError("jump_mean must be > 0")

    # ------------------------------------------------------------------
    # Laplace exponent and its analytic derivatives
    # ------------------------------------------------------------------

    @property
    def eta(self) -> float:
        """Rate parameter of the exponential jump law, ``1/jump_mean``."""
        return 1.0 / self.jump_mean

    def psi(self, lam: _ArrayLike) -> _ArrayLike:
        """Laplace exponent ``psi(lam)`` for real ``lam >= 0``."""
        arr = np.asarray(lam, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("psi is defined for lam >= 0 only")
        out = self._psi_any(arr)
        return float(out) if np.isscalar(lam) or arr.ndim == 0 else out

    def _psi_any(self, beta):
        """Exponent evaluated without domain checks; accepts complex arrays.

        Written around ``psi'(0)`` as ``psi'(0) beta + sigma^2 beta^2/2 +
        rate beta^2/(eta (eta + beta))``, so that no term cancels near 0 when
        the drift and the mean jump loss balance.
        """
        out = self.psi_prime_at_zero() * beta + 0.5 * self.sigma**2 * beta * beta
        if self.jump_rate > 0.0:
            ratio = beta / (self.eta + beta)
            out = out + self.jump_rate * self.jump_mean * beta * ratio
        return out

    def psi_derivative(self, lam: _ArrayLike) -> _ArrayLike:
        """``psi'(0) + sigma^2 lam + rate lam (2 eta + lam)/(eta (eta + lam)^2)``."""
        arr = np.asarray(lam, dtype=float)
        out = self.psi_prime_at_zero() + self.sigma**2 * arr
        if self.jump_rate > 0.0:
            ratio = arr / (self.eta + arr)
            out = out + self.jump_rate * self.jump_mean * ratio * (2.0 - ratio)
        return float(out) if np.isscalar(lam) or arr.ndim == 0 else out

    def psi_prime_at_zero(self) -> float:
        """Right derivative of the exponent at 0, computed analytically."""
        return self.mu - self.jump_rate * self.jump_mean

    # ------------------------------------------------------------------
    # Roots of psi(beta) = q
    # ------------------------------------------------------------------

    def phi(self, q: float) -> float:
        """Largest root of ``psi(lam) = q``: the last entry of :meth:`roots`.

        Raises:
            RootFindingError: if the Newton iteration does not settle.
        """
        return self.roots(q)[-1]

    def roots(self, q: float) -> tuple:
        """Real poles of ``1/(psi(beta) - q)``, ascending.

        Without jumps the poles are the roots ``(lo, hi)`` of the quadratic
        ``psi(beta) - q``.  With jumps they are the roots of the cubic
        ``(psi(beta) - q)(eta + beta)``, ``(far, lo, hi)`` with ``far < -eta <
        lo <= 0 <= hi``; the cubic changes sign on each of those intervals,
        so no root is complex.

        ``hi = phi(q)`` comes from Newton's method on that polynomial, which
        is convex and increasing right of ``hi``.  The start is the positive
        root of ``psi'(0) b + sigma^2 b^2/2 = q``: the jump term of ``psi``
        lies above its tangent at 0, so the start is at or above ``phi(q)``
        and the iterates fall monotonically onto the root.  ``lo`` and
        ``far`` follow from the sum and the product of the roots.

        Raises:
            ValueError: for q outside ``[0, inf)``, NaN included; every
                scale function checks q here.
            RootFindingError: if the Newton iteration does not settle.
        """
        if not 0.0 <= q < np.inf:
            raise ValueError(f"psi(beta) = q needs finite q >= 0, got q={q}")
        a2 = 0.5 * self.sigma**2
        kappa = self.psi_prime_at_zero()
        eta = self.eta
        jumps = self.jump_rate > 0.0
        if jumps:  # (psi(beta) - q)(eta + beta)
            coeffs = (a2, self.mu + eta * a2, eta * kappa - q, -q * eta)
        else:
            coeffs = (a2, self.mu, -q)
        hi = 0.0
        if q > 0.0 or kappa < 0.0:
            disc = np.sqrt(kappa * kappa + 4.0 * a2 * q)
            hi = 2.0 * q / (kappa + disc) if kappa > 0.0 else (disc - kappa) / (2.0 * a2)
            for _ in range(200):
                val = slope = 0.0
                for c in coeffs:  # Horner, with the derivative alongside
                    slope = slope * hi + val
                    val = val * hi + c
                if not slope > 0.0:
                    raise RootFindingError(f"phi: left the increasing branch, q={q}, lam={hi}")
                nxt = hi - val / slope
                if not nxt < hi:  # at the root, or a step below one ulp
                    break
                hi = nxt
            else:
                raise RootFindingError(f"phi: Newton did not settle, q={q}, last={hi}")
        if not jumps:
            # lo * hi = -q / a2 and lo + hi = -mu / a2
            out = (-q / (a2 * hi) if hi > 0.0 else -self.mu / a2, hi)
        else:
            # far + lo + hi = -(mu / a2 + eta) and far * lo * hi = q eta / a2
            total = -(self.mu / a2 + eta) - hi
            prod = eta * (q / hi if hi > 0.0 else kappa) / a2
            far = 0.5 * (total - np.sqrt(total * total - 4.0 * prod))
            out = (far, prod / far, hi)
        if not np.all(np.isfinite(out)):
            raise RootFindingError(f"phi: non-finite roots {out} at q={q}")
        return tuple(float(r) for r in out)

    # ------------------------------------------------------------------
    # Measure changes
    # ------------------------------------------------------------------

    def esscher_tilt(self, c: float) -> "LevyModel":
        """Exponentially tilted model with exponent ``psi(. + c) - psi(c)``.

        The tilt stays inside the family: the drift becomes
        ``mu + c*sigma^2`` and, for the jump family, the jump intensity and
        mean become ``jump_rate*eta/(eta+c)`` and ``1/(eta+c)``.
        """
        if c < 0.0:
            raise ValueError("esscher_tilt requires c >= 0")
        if c == 0.0:
            return self
        mu = self.mu + c * self.sigma**2
        if self.family is Family.BROWNIAN_DRIFT:
            return LevyModel(Family.BROWNIAN_DRIFT, mu, self.sigma)
        eta = self.eta
        return LevyModel(
            Family.EXP_JUMP_DIFFUSION,
            mu,
            self.sigma,
            jump_rate=self.jump_rate * eta / (eta + c),
            jump_mean=1.0 / (eta + c),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"family": self.family.value, "mu": self.mu, "sigma": self.sigma}
        if self.family is Family.EXP_JUMP_DIFFUSION:
            out["jump_rate"] = self.jump_rate
            out["jump_mean"] = self.jump_mean
        return out


def make_brownian(mu: float, sigma: float) -> LevyModel:
    """Brownian motion with drift: ``psi(lam) = mu*lam + sigma^2*lam^2/2``."""
    return LevyModel(Family.BROWNIAN_DRIFT, float(mu), float(sigma))


def make_exp_jump_diffusion(
    mu: float, sigma: float, rate: float, jump_mean: float
) -> LevyModel:
    """Diffusion plus downward exponential jumps.

    ``psi(lam) = mu*lam + sigma^2*lam^2/2 - rate*lam/(eta + lam)`` with
    ``eta = 1/jump_mean``.
    """
    return LevyModel(
        Family.EXP_JUMP_DIFFUSION,
        float(mu),
        float(sigma),
        jump_rate=float(rate),
        jump_mean=float(jump_mean),
    )
