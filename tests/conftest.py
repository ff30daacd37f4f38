"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from snlpscale import make_brownian, make_exp_jump_diffusion


@pytest.fixture
def bm_driftless():
    return make_brownian(0.0, 1.0)


@pytest.fixture
def bm_drift_up():
    return make_brownian(1.0, 1.0)


@pytest.fixture
def jd_unit():
    return make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def jd_drifting():
    # psi'(0+) = 2 - 0.5 > 0, so the q = 0 transform has simple poles and the
    # partial-fraction oracle below applies at q = 0 too
    return make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)


def partial_fraction_w(model, q, x):
    """Independent oracle for the jump family scale function.

    ``(psi(beta) - q)(eta + beta)`` is a cubic; with simple roots the inverse
    transform is a sum of three exponentials weighted by ``1/psi'(root)``.
    Only valid when the roots are simple (fails for oscillating models at
    q = 0, where 0 is a double root).
    """
    eta = model.eta
    s2 = model.sigma**2
    coeffs = [
        s2 / 2.0,
        model.mu + eta * s2 / 2.0,
        eta * model.mu - model.jump_rate - q,
        -q * eta,
    ]
    roots = np.roots(coeffs)
    total = 0.0 + 0.0j
    for th in roots:
        dpsi = model.mu + s2 * th - model.jump_rate * eta / (eta + th) ** 2
        total += np.exp(th * x) / dpsi
    return float(total.real)


def partial_fraction_w_prime(model, q, x):
    eta = model.eta
    s2 = model.sigma**2
    coeffs = [
        s2 / 2.0,
        model.mu + eta * s2 / 2.0,
        eta * model.mu - model.jump_rate - q,
        -q * eta,
    ]
    roots = np.roots(coeffs)
    total = 0.0 + 0.0j
    for th in roots:
        dpsi = model.mu + s2 * th - model.jump_rate * eta / (eta + th) ** 2
        total += th * np.exp(th * x) / dpsi
    return float(total.real)


def route_constancy_ratios(model, indicator_threshold=0.5, level=0.5):
    """Excursion-route over renewal-route ratios for a step potential.

    The potential ``level * 1{x > threshold}`` is discontinuous, so both
    routes are evaluated on lattices that place the threshold on a node
    (pointwise sampling of a non-aligned jump costs a full order) and the
    leading aligned O(h) error is removed by Richardson extrapolation.
    Returns the ratio at the ten points x = 0.2, 0.4, ..., 2.0.
    """
    from snlpscale import BivariatePotential, UnivariatePotential, iota, solve_w_z_f
    from snlpscale.quadrature import cumulative_simpson
    from snlpscale.scale import _wq_array

    step_fn = lambda x: level * (np.asarray(x) > indicator_threshold)
    F = BivariatePotential(lambda s, x: step_fn(x) + 0.0 * s, bound=level, name="step")
    f_uni = UnivariatePotential(step_fn, bound=level, name="step")

    s_step = 0.05  # outer nodes; threshold = 10 * s_step stays on-lattice
    h_lat = s_step / 64.0
    n_s = round(2.0 / s_step)
    s_nodes = np.arange(0, n_s + 1) * s_step
    iota_vals = np.zeros_like(s_nodes)
    for j, s in enumerate(s_nodes):
        if j == 0:
            continue  # the level rate vanishes at the barrier
        n = round(s / h_lat)
        coarse = iota(model, F, 0.0, float(s), n)
        fine = iota(model, F, 0.0, float(s), 2 * n)
        iota_vals[j] = 2.0 * fine - coarse
    cum = cumulative_simpson(iota_vals, s_step)

    n_vol = round(2.0 / h_lat)
    vol_coarse = solve_w_z_f(model, f_uni, 0.0, 2.0, n_vol)
    vol_fine = solve_w_z_f(model, f_uni, 0.0, 2.0, 2 * n_vol)

    ratios = []
    for k in range(10):
        x = 0.2 * (k + 1)
        excursion = _wq_array(model, 0.0, np.array([x]))[0] * np.exp(
            cum[round(x / s_step)]
        )
        renewal = 2.0 * vol_fine.w[round(x / (h_lat / 2))] - vol_coarse.w[
            round(x / h_lat)
        ]
        ratios.append(excursion / renewal)
    return np.asarray(ratios)
