"""Shared fixtures and independent oracles for the test suite."""

import mpmath as mp
import numpy as np
import pytest

from snlpscale import Family, make_brownian, make_exp_jump_diffusion


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


def psi_derivative(model, lam):
    """``psi'(lam) = psi'(0) + sigma^2 lam + rate lam (2 eta + lam)/(eta (eta + lam)^2)``."""
    arr = np.asarray(lam, dtype=float)
    out = model.psi_prime_at_zero() + model.sigma**2 * arr
    if model.jump_rate > 0.0:
        ratio = arr / (model.eta + arr)
        out = out + model.jump_rate * model.jump_mean * ratio * (2.0 - ratio)
    return float(out) if np.isscalar(lam) or arr.ndim == 0 else out


def esscher_tilt(model, c):
    """Exponentially tilted model with exponent ``psi(. + c) - psi(c)``.

    The tilt stays inside the family: the drift becomes ``mu + c*sigma^2``
    and, for the jump family, the jump intensity and mean become
    ``jump_rate*eta/(eta+c)`` and ``1/(eta+c)``.
    """
    if c < 0.0:
        raise ValueError("esscher_tilt requires c >= 0")
    if c == 0.0:
        return model
    mu = model.mu + c * model.sigma**2
    if model.family is Family.BROWNIAN_DRIFT:
        return make_brownian(mu, model.sigma)
    eta = model.eta
    return make_exp_jump_diffusion(
        mu, model.sigma, model.jump_rate * eta / (eta + c), 1.0 / (eta + c)
    )


def _simple_roots(model, q):
    """Roots of the cubic ``(psi(beta) - q)(eta + beta)`` with ``psi'`` at each."""
    eta = model.eta
    s2 = model.sigma**2
    coeffs = [
        s2 / 2.0,
        model.mu + eta * s2 / 2.0,
        eta * model.mu - model.jump_rate - q,
        -q * eta,
    ]
    roots = np.roots(coeffs)
    dpsi = model.mu + s2 * roots - model.jump_rate * eta / (eta + roots) ** 2
    return roots, dpsi


def partial_fraction_w(model, q, x):
    """Independent oracle for the jump family scale function.

    ``(psi(beta) - q)(eta + beta)`` is a cubic; with simple roots the inverse
    transform is a sum of three exponentials weighted by ``1/psi'(root)``.
    The weights sum to ``W(0) = 0``, so each exponential enters as
    ``expm1(root x)``: at small x the terms are O(x) like W itself, instead of
    O(1) terms that cancel.  Only valid when the roots are simple (fails for
    oscillating models at q = 0, where 0 is a double root).
    """
    roots, dpsi = _simple_roots(model, q)
    return float(np.sum(np.expm1(roots * x) / dpsi).real)


def partial_fraction_w_prime(model, q, x):
    roots, dpsi = _simple_roots(model, q)
    total = 0.0 + 0.0j
    for th, d in zip(roots, dpsi):
        total += th * np.exp(th * x) / d
    return float(total.real)


def partial_fraction_z(model, q, x):
    """Oracle for ``Z^{(q)} = 1 + q int_0^x W^{(q)}`` from the same simple roots.

    Integrating each exponential of ``partial_fraction_w`` gives
    ``1 + q * sum expm1(theta x) / (theta psi'(theta))``; needs q > 0, so that
    no root is 0.
    """
    roots, dpsi = _simple_roots(model, q)
    total = 0.0 + 0.0j
    for th, d in zip(roots, dpsi):
        total += np.expm1(th * x) / (th * d)
    return float(1.0 + q * total.real)


def w_mpmath(model, q, x, digits=60):
    """``W^{(q)}(x)`` of the jump family from the same partial fractions in mpmath."""
    with mp.workdps(digits):
        params = (model.mu, model.sigma**2, model.jump_rate, model.eta)
        mu, s2, rate, eta = (mp.mpf(v) for v in params)
        q, x = mp.mpf(q), mp.mpf(x)
        cubic = [s2 / 2, mu + eta * s2 / 2, eta * mu - rate - q, -q * eta]
        total = 0
        for th in mp.polyroots(cubic, maxsteps=200, extraprec=2 * digits):
            total += mp.exp(th * x) / (mu + s2 * th - rate * eta / (eta + th) ** 2)
        return float(mp.re(total))


def product_trapezoid_march(kernel, fvals, h, inhom):
    """Direct O(n^2) march of ``phi = inhom + int K(u - z) f(z) phi(z) dz``, one row.

    ``phi_i = inhom_i + h (K_i g_0 / 2 + sum_{0<j<i} K_{i-j} g_j)`` with
    ``g = f phi`` on the lattice ``k h``; ``K_0 = W(0) = 0`` drops the
    diagonal term, so each node follows from the ones before it.
    """
    phi = np.array(inhom, dtype=float)
    g = np.empty_like(phi)
    g[0] = fvals[0] * phi[0]
    for i in range(1, phi.size):
        phi[i] += h * (0.5 * kernel[i] * g[0] + np.dot(kernel[i - 1 : 0 : -1], g[1:i]))
        g[i] = fvals[i] * phi[i]
    return phi


def product_trapezoid_end(kernel_deriv, fvals, h, phi):
    """Direct product trapezoid of ``int K'(u_n - z) f(z) phi(z) dz`` at the last node, one row.

    ``h (sum_j K'_{n-j} g_j - K'_n g_0 / 2 - K'_0 g_n / 2)`` with ``g = f phi``;
    ``K'_0 = W'(0)`` is nonzero, so both end weights are halved.
    """
    g = fvals * phi
    inner = np.dot(kernel_deriv[::-1], g)
    return h * (inner - 0.5 * kernel_deriv[-1] * g[0] - 0.5 * kernel_deriv[0] * g[-1])


def brownian_z(model, q, x):
    """Closed-form ``Z^{(q)}`` of Brownian motion with drift, for q > 0.

    With ``m = mu/sigma^2`` and ``delta = sqrt(mu^2 + 2 q sigma^2)/sigma^2``,
    ``Z^{(q)}(x) = e^{-m x} (cosh(delta x) + m sinh(delta x)/delta)`` on x > 0.
    """
    s2 = model.sigma**2
    m = model.mu / s2
    delta = np.sqrt(model.mu**2 + 2.0 * q * s2) / s2
    x = np.asarray(x, dtype=float)
    out = np.exp(-m * x) * (np.cosh(delta * x) + m * np.sinh(delta * x) / delta)
    return np.where(x > 0.0, out, 1.0)


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


def reference_exit_chunk(model, spec, cfg, n, integrands, main, bridge, rows_rule, reach,
                         track=True):
    """Plain per-step loop of the Monte Carlo stepper over one chunk.

    It replays the stepper's passes one step at a time, over the paths still
    stepping, with the random numbers the stepper drew:

    - ``main``: the arrays of the chunk's main stream in call order: the
      first waits for the jumps (jump family), then for each pass the flat
      normals of its ``(K, m)`` block and, when paths jump, their jump sizes
      and next waits;
    - ``bridge``: for each pass with the bridge, the flat ``(row, slot)``
      entries that drew a maximum, those that drew a minimum, and the
      uniforms, the maxima's first.

    ``rows_rule(m)`` is ``K`` for ``m`` live paths.  A step tests its reach
    against the running maximum of the pass's start supremum and its
    positions, takes the uniform of its own entry (the stepper must have
    drawn one exactly for the live steps within reach), and ends the path's
    pass at an exit, a jump or the time cap.
    Without ``track`` the supremum is not kept: the level is ``a``, the
    integrands get the positions as ``s``, and ``s_exit`` stays NaN.
    Slots follow the stepper's rule: when ``d`` paths finish, the live paths
    of the last ``d`` slots move, in slot order, into the holes the finished
    paths leave in the first ``m - d`` slots.  Returns the records and the
    pass, step and path-step counts.
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate if model.family is Family.EXP_JUMP_DIFFUSION else 0.0
    jumpy = rate > 0.0
    t_cap = cfg.resolved_t_cap(model, spec)
    main, bridge = iter(main), iter(bridge)
    rec = {
        "up": np.zeros(n, dtype=bool), "s_exit": np.full(n, np.nan),
        "x_pre": np.full(n, np.nan), "x_post": np.full(n, np.nan),
        "acc": np.zeros((len(integrands), n)), "censored": np.zeros(n, dtype=bool),
        "passes": 0, "steps": 0, "path_steps": 0,
    }
    x, s = np.full(n, x0), np.full(n, x0)
    acc = np.zeros((len(integrands), n))
    f = np.array([fn(s, x) for fn in integrands])
    t = np.zeros(n) if jumpy else 0.0
    wait = next(main) if jumpy else None
    slots = list(range(n))

    def finish(p, acc_p, up=None, s_end=None, x_pre=None, x_post=None):
        rec["acc"][:, p] = acc_p
        if up is None:
            rec["censored"][p] = True
            return
        rec["up"][p], rec["s_exit"][p] = up, s_end
        rec["x_pre"][p], rec["x_post"][p] = x_pre, x_post

    while slots:
        m = len(slots)
        K = rows_rule(m)
        rec["passes"] += 1
        z = next(main).reshape(K, m)
        u_hi, u_lo = np.full(K * m, np.nan), np.full(K * m, np.nan)
        if cfg.bridge_correction:
            hi, lo, u = next(bridge)
            u_hi[hi], u_lo[lo] = u[:hi.size], u[hi.size:]
        u_hi, u_lo = u_hi.reshape(K, m), u_lo.reshape(K, m)
        ids = np.array(slots)
        level = s[ids].copy() if track else np.full(m, a)
        stepping = np.ones(m, dtype=bool)
        ran = np.zeros(m, dtype=int)
        jumped, tired_at_jump, finished = [], [], []
        for j in range(K):
            sl = np.flatnonzero(stepping)
            if not sl.size:
                break
            p = ids[sl]
            ran[sl] += 1
            h = np.minimum(dt, wait[p]) if jumpy else dt
            x_new = x[p] + (z[j, sl] * (sigma * np.sqrt(h)) + mu * h)
            up = np.zeros(sl.size, dtype=bool)
            down = np.zeros(sl.size, dtype=bool)
            if cfg.bridge_correction:
                var = sigma * sigma * h
                lim = reach * var
                near_hi = (level[sl] - x[p]) * (level[sl] - x_new) < lim
                near_lo = (x[p] - b) * (x_new - b) < lim
                # the stepper drew a uniform for a live step exactly where it
                # is within reach
                assert np.array_equal(~np.isnan(u_hi[j, sl]), near_hi)
                assert np.array_equal(~np.isnan(u_lo[j, sl]), near_lo)

                def extreme(near, u, sign):
                    x_a, x_b = x[p][near], x_new[near]
                    v = var[near] if jumpy else var
                    root = np.sqrt((x_b - x_a) * (x_b - x_a) - np.log(u) * (2.0 * v))
                    return (sign * root + (x_a + x_b)) * 0.5

                top = np.minimum(extreme(near_hi, u_hi[j, sl[near_hi]], 1.0), a)
                s_new = s[p].copy() if track else x_new
                if track:
                    s_new[near_hi] = np.maximum(s_new[near_hi], top)
                up[near_hi] = top >= a
                down[near_lo] = extreme(near_lo, u_lo[j, sl[near_lo]], -1.0) <= b
            else:
                s_new = np.maximum(s[p], np.minimum(x_new, a)) if track else x_new
                up, down = x_new >= a, x_new < b
            if track:
                level[sl] = np.maximum(level[sl], x_new)
            gone = up | down
            f_new = np.array([fn(s_new, x_new) for fn in integrands])
            inc = (f[:, p] + f_new) * (0.5 * h)
            if cfg.bridge_correction:
                inc[:, gone & (x_new < a) & (x_new >= b)] *= 0.5
            acc[:, p] = acc[:, p] + inc
            f[:, p], x[p], s[p] = f_new, x_new, s_new
            if jumpy:
                at_jump = wait[p] <= dt
                t[p] = t[p] + h
                wait[p] = wait[p] - h
                tired = t[p] >= t_cap
            else:
                at_jump = np.zeros(sl.size, dtype=bool)
                t = t + dt
                tired = np.full(sl.size, t >= t_cap)
            for q in np.flatnonzero(gone):
                end = (a if up[q] else b) if cfg.bridge_correction else x_new[q]
                finish(p[q], acc[:, p[q]], up[q], s_new[q] if track else np.nan, end, end)
                finished.append(sl[q])
            for q in np.flatnonzero(at_jump & ~gone):
                jumped.append(sl[q])
                tired_at_jump.append(tired[q])
            for q in np.flatnonzero(tired & ~at_jump & ~gone):
                finish(p[q], acc[:, p[q]])
                finished.append(sl[q])
            stepping[sl[gone | at_jump | tired]] = False
            rec["path_steps"] += sl.size
        rec["steps"] += int(ran.max())

        # jumps fire at the end of their step, in slot order
        order = np.argsort(jumped)
        jumped = np.array(jumped, dtype=int)[order]
        tired_at_jump = np.array(tired_at_jump, dtype=bool)[order]
        if jumped.size:
            sizes, waits = next(main), next(main)
            p = ids[jumped]
            x_jumped = x[p] - sizes
            for q in np.flatnonzero(x_jumped < b):
                s_end = s[p[q]] if track else np.nan
                finish(p[q], acc[:, p[q]], False, s_end, x[p[q]], x_jumped[q])
                finished.append(jumped[q])
            kept = x_jumped >= b
            x[p[kept]], wait[p[kept]] = x_jumped[kept], waits[kept]
            if not track:
                s[p[kept]] = x[p[kept]]
            for k, fn in enumerate(integrands):
                f[k, p[kept]] = fn(s[p[kept]], x[p[kept]])
            for q in np.flatnonzero(kept & tired_at_jump):
                finish(p[q], acc[:, p[q]])
                finished.append(jumped[q])

        finished = sorted(finished)
        live = m - len(finished)
        holes = [q for q in finished if q < live]
        movers = [q for q in range(live, m) if q not in set(finished)]
        for hole, mover in zip(holes, movers):
            slots[hole] = slots[mover]
        del slots[live:]
    return rec
