"""Closed-form oracles the benchmark checks the CLI against.

These formulas are derived from the model parameters alone and share no code
with ``snlpscale``:

* Jump family (drift, Brownian part, downward exponential jumps): the
  transform ``1/(psi(beta) - q)`` is rational, so with simple roots
  ``theta_i`` of the cubic ``(psi(beta) - q)(eta + beta)`` the scale function
  is ``W(x) = sum_i exp(theta_i x) / psi'(theta_i)``.
* Brownian motion with drift, killed at a constant rate ``q``: the exit
  transforms solve ``sigma^2/2 h'' + mu h' - q h = 0`` on ``(b, a)`` with
  boundary values 0 and 1, a pair of ``sinh`` ratios.
"""

from __future__ import annotations

import math

import numpy as np


class JumpDiffusion:
    """``psi(l) = mu l + sigma^2 l^2 / 2 - rate l / (eta + l)``, ``eta = 1/jump_mean``."""

    def __init__(self, mu: float, sigma: float, rate: float, jump_mean: float):
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.rate = float(rate)
        self.eta = 1.0 / float(jump_mean)

    def psi(self, lam):
        return self.mu * lam + 0.5 * self.sigma**2 * lam * lam - self.rate * lam / (self.eta + lam)

    def psi_prime(self, lam):
        return self.mu + self.sigma**2 * lam - self.rate * self.eta / (self.eta + lam) ** 2

    def roots(self, q: float) -> np.ndarray:
        """Roots of ``(psi(beta) - q)(eta + beta)``, polished by Newton steps.

        Raises:
            ValueError: when two roots coincide (the partial fractions then
                need the double-root limit, which the benchmark never uses).
        """
        s2, eta, mu = self.sigma**2, self.eta, self.mu
        coeffs = [s2 / 2.0, mu + eta * s2 / 2.0, eta * mu - self.rate - q, -q * eta]
        roots = np.roots(coeffs).astype(complex)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
        if np.min(gaps) < 1e-8 * max(1.0, float(np.max(np.abs(roots)))):
            raise ValueError(f"repeated roots {roots!r}: partial fractions do not apply")
        cubic = np.poly1d(coeffs)
        slope = cubic.deriv()
        for _ in range(3):
            roots = roots - cubic(roots) / slope(roots)
        return roots

    def w(self, q: float, x) -> np.ndarray:
        """``W^{(q)}(x)`` for ``x >= 0``."""
        x = np.asarray(x, dtype=float)
        th = self.roots(q)
        return (np.exp(np.multiply.outer(x, th)) / self.psi_prime(th)).sum(axis=-1).real

    def w_prime(self, q: float, x) -> np.ndarray:
        """``d/dx W^{(q)}(x)`` for ``x >= 0``."""
        x = np.asarray(x, dtype=float)
        th = self.roots(q)
        return (th * np.exp(np.multiply.outer(x, th)) / self.psi_prime(th)).sum(axis=-1).real

    def z(self, q: float, x) -> np.ndarray:
        """``Z^{(q)}(x) = 1 + q int_0^x W^{(q)}`` for ``q > 0``, ``x >= 0``."""
        if q <= 0.0:
            raise ValueError("the Z oracle needs q > 0 (0 is then not a root)")
        x = np.asarray(x, dtype=float)
        th = self.roots(q)
        terms = np.expm1(np.multiply.outer(x, th)) / (th * self.psi_prime(th))
        return 1.0 + q * terms.sum(axis=-1).real


def brownian_exit(mu: float, sigma: float, q: float, b: float, x: float, a: float):
    """``(E_x[e^{-qT}; up], E_x[e^{-qT}; down])`` for Brownian motion with drift.

    With ``m = mu/sigma^2`` and ``d = sqrt(mu^2 + 2 q sigma^2)/sigma^2`` the
    solutions of the killed generator equation are ``exp((-m +- d) y)``; the
    boundary values pick ``exp(-m(x-a)) sinh(d(x-b))/sinh(d(a-b))`` for the
    up exit and ``exp(-m(x-b)) sinh(d(a-x))/sinh(d(a-b))`` for the down exit.
    At ``q = 0`` with ``mu = 0`` the limit is the linear ``(x-b)/(a-b)``.
    """
    if not (b < x < a):
        raise ValueError("brownian_exit needs b < x < a")
    s2 = sigma * sigma
    m = mu / s2
    d = math.sqrt(mu * mu + 2.0 * q * s2) / s2
    if d == 0.0:
        up = (x - b) / (a - b)
        return up, 1.0 - up
    up = math.exp(-m * (x - a)) * math.sinh(d * (x - b)) / math.sinh(d * (a - b))
    down = math.exp(-m * (x - b)) * math.sinh(d * (a - x)) / math.sinh(d * (a - b))
    return up, down
