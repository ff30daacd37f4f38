"""Shared fixtures and independent oracles for the test suite."""

import mpmath as mp
import numpy as np
import pytest

from snlpscale import Family, generalized, make_brownian, make_exp_jump_diffusion, mc


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


@pytest.fixture
def one_pass(monkeypatch):
    """``evaluate_exit`` stops at its first pass, which it reports as not
    converged."""
    monkeypatch.setattr(generalized, "_REFINE_CAP", 0)


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


def _jd_terms_mpmath(model, q, x, digits):
    """``(theta, e^{theta x}/psi'(theta))`` over the cubic's roots; call in ``workdps``."""
    params = (model.mu, model.sigma**2, model.jump_rate, model.eta)
    mu, s2, rate, eta = (mp.mpf(v) for v in params)
    q, x = mp.mpf(q), mp.mpf(x)
    cubic = [s2 / 2, mu + eta * s2 / 2, eta * mu - rate - q, -q * eta]
    return [
        (th, mp.exp(th * x) / (mu + s2 * th - rate * eta / (eta + th) ** 2))
        for th in mp.polyroots(cubic, maxsteps=200, extraprec=2 * digits)
    ]


def w_mpmath(model, q, x, digits=60):
    """``W^{(q)}(x)`` of the jump family from the same partial fractions in mpmath."""
    with mp.workdps(digits):
        return float(mp.re(sum(term for _, term in _jd_terms_mpmath(model, q, x, digits))))


def _w_log_derivative_mpmath(model, q, x, digits):
    """``W^{(q)'}(x)/W^{(q)}(x)`` in mpmath; call in ``workdps``.

    Brownian motion: ``-mu/sigma^2 + delta coth(delta x)`` with ``delta =
    sqrt(mu^2 + 2 q sigma^2)/sigma^2``, and ``1/x`` when ``delta = 0``.  The
    jump family: the partial fractions of :func:`w_mpmath`.
    """
    if model.family is Family.BROWNIAN_DRIFT:
        mu, s2, x = mp.mpf(model.mu), mp.mpf(model.sigma) ** 2, mp.mpf(x)
        delta = mp.sqrt(mu**2 + 2 * mp.mpf(q) * s2) / s2
        return -mu / s2 + (1 / x if delta == 0 else delta * mp.coth(delta * x))
    terms = _jd_terms_mpmath(model, q, x, digits)
    return mp.re(sum(th * t for th, t in terms)) / mp.re(sum(t for _, t in terms))


def constant_iota_mpmath(model, q, x, digits=50):
    """iota of the constant potential ``q`` at ``s - b = x``: ``W_q'/W_q - W'/W``.

    The classical form of Li & Palmowski (2018); evaluated in mpmath, because
    both log-derivatives grow like ``1/x`` and cancel near the barrier.
    """
    with mp.workdps(digits):
        return float(
            _w_log_derivative_mpmath(model, q, x, digits)
            - _w_log_derivative_mpmath(model, 0.0, x, digits)
        )


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


def _bridge_max(x_a, x_b, u, v):
    """Brownian bridge maximum from ``x_a`` to ``x_b`` with variance ``v`` and uniform ``u``."""
    return (np.sqrt((x_b - x_a) * (x_b - x_a) - np.log(u) * (2.0 * v)) + (x_a + x_b)) * 0.5


def _empty_records(n, n_integrands):
    return {
        "up": np.zeros(n, dtype=bool), "s_exit": np.full(n, np.nan),
        "x_pre": np.full(n, np.nan), "x_post": np.full(n, np.nan),
        "acc": np.zeros((n_integrands, n)), "censored": np.zeros(n, dtype=bool),
    }


def reference_exit_chunk(model, spec, cfg, n, integrands, main, bridge, rows_rule, reach,
                         track=True, coupled=False):
    """Plain per-step loop of the Monte Carlo stepper over one chunk.

    It replays the stepper's passes one step at a time, over the paths still
    stepping, with the random numbers the stepper drew:

    - ``main``: the arrays of the chunk's main stream in call order: the
      first waits for the jumps (jump family), then for each pass the flat
      normals of its ``(K, m)`` block and, when paths jump, their jump sizes
      and next waits;
    - ``bridge``: for each pass, the flat ``(row, slot)`` entries that drew
      a maximum, those that drew a minimum, and the uniforms, the maxima's
      first.

    ``rows_rule(m)`` is ``K`` for ``m`` live paths.  A step tests its reach
    against the running maximum of the pass's start supremum and its
    positions, takes the uniform of its own entry (the stepper must have
    drawn one exactly for the live steps within reach), and ends the path's
    pass at an exit, a jump or the time cap, ``mc._T_CAP_SCALE (a-b)^2 /
    sigma^2``.
    Without ``track`` the supremum is not kept: the level is ``a``, the
    integrands get the positions as ``s``, and ``s_exit`` stays NaN.
    Slots follow the stepper's rule: when ``d`` paths finish, the live paths
    of the last ``d`` slots move, in slot order, into the holes the finished
    paths leave in the first ``m - d`` slots.  Returns the records and the
    pass, step and path-step counts.

    With ``coupled`` each path also carries its coarse companion at step
    ``2 dt``.  A step closes the path's pair when the pair has its first
    half done, or when the path jumps at the step's end; it then adds
    ``(f_start + f_end) (h1 + h2) / 2`` to the coarse sum, halved for a
    bridge kill strictly inside the band.  A fine exit at a first half
    finishes its pair with the second half the path would have stepped
    next: ``min(dt, time left)`` long, from the block's next normal, and
    with the next entry's uniform for its bridge maximum, which takes the
    coarse path up when it reaches ``a``.  The stepper must have drawn that
    uniform exactly where the second half is within reach of the running
    level after the exit step, and the next entry must be in the pass.
    ``rec["coarse"]`` holds the coarse records, and ``rec`` counts the fine
    exits at a first half (``odd_exits``), those whose second half takes the
    coarse path up (``odd_exits_up``) or raises its supremum
    (``sup_raised``), and the jumps that close a half-filled pair
    (``jumps_close_half``).
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate
    jumpy = rate > 0.0
    t_cap = mc._T_CAP_SCALE * (a - b) ** 2 / sigma**2
    main, bridge = iter(main), iter(bridge)
    rec = {**_empty_records(n, len(integrands)), "passes": 0, "steps": 0, "path_steps": 0}
    x, s = np.full(n, x0), np.full(n, x0)
    acc = np.zeros((len(integrands), n))
    f = np.array([fn(s, x) for fn in integrands])
    t = np.zeros(n) if jumpy else 0.0
    wait = next(main) if jumpy else None
    slots = list(range(n))
    if coupled:
        coarse = rec["coarse"] = _empty_records(n, len(integrands))
        for key in ("odd_exits", "odd_exits_up", "sup_raised", "jumps_close_half"):
            rec[key] = 0
        half = np.zeros(n, dtype=bool)
        acc_c, f_c = np.zeros_like(acc), f.copy()

    def finish(p, acc_p, up=None, s_end=None, x_pre=None, x_post=None, book=rec):
        book["acc"][:, p] = acc_p
        if up is None:
            book["censored"][p] = True
            return
        book["up"][p], book["s_exit"][p] = up, s_end
        book["x_pre"][p], book["x_post"][p] = x_pre, x_post

    def finish_pairs(j, slot, p, x_a, s_a, up, level, z, u_hi):
        """The coarse records of the paths ``p`` in ``slot`` that left at the
        first half of a pair in step ``j`` of their pass, ``level`` being
        the running level after that step."""
        assert j + 1 < z.shape[0]
        # the second half starts where the fine path left, after dt
        h2 = np.minimum(dt, wait[p]) if jumpy else dt
        x_b = x_a + (z[j + 1, slot] * (sigma * np.sqrt(h2)) + mu * h2)
        var2 = sigma * sigma * h2
        near = (level - x_a) * (level - x_b) < reach * var2
        u = u_hi[j + 1, slot]
        assert np.array_equal(~np.isnan(u), near)
        top = np.minimum(_bridge_max(x_a[near], x_b[near], u[near],
                                     var2[near] if jumpy else var2), a)
        c_up, s2 = up.copy(), s_a.copy()
        c_up[near] |= top >= a
        s2[near] = np.maximum(s2[near], top)
        f_end = np.array([fn(s2 if track else x_b, x_b) for fn in integrands])
        inc = (f_c[:, p] + f_end) * (0.5 * (dt + h2))
        inc[:, (x_b < a) & (x_b >= b)] *= 0.5
        for q, pq in enumerate(p):
            end = a if c_up[q] else b
            finish(pq, acc_c[:, pq] + inc[:, q], c_up[q], s2[q] if track else np.nan, end, end,
                   book=coarse)
        rec["odd_exits"] += p.size
        rec["odd_exits_up"] += int((c_up & ~up).sum())
        rec["sup_raised"] += int((s2 > s_a).sum()) if track else 0

    while slots:
        m = len(slots)
        K = rows_rule(m)
        rec["passes"] += 1
        z = next(main).reshape(K, m)
        u_hi, u_lo = np.full(K * m, np.nan), np.full(K * m, np.nan)
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
            var = sigma * sigma * h
            lim = reach * var
            near_hi = (level[sl] - x[p]) * (level[sl] - x_new) < lim
            near_lo = (x[p] - b) * (x_new - b) < lim
            # the stepper drew a uniform for a live step exactly where it is
            # within reach
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
            if track:
                level[sl] = np.maximum(level[sl], x_new)
            gone = up | down
            f_new = np.array([fn(s_new, x_new) for fn in integrands])
            inc = (f[:, p] + f_new) * (0.5 * h)
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
            if coupled:
                shut = half[p] | at_jump
                rec["jumps_close_half"] += int((half[p] & at_jump & ~gone).sum())
                c_inc = (f_c[:, p] + f_new) * (0.5 * np.where(half[p], dt + h, h))
                c_inc[:, gone & (x_new < a) & (x_new >= b)] *= 0.5
                acc_c[:, p[shut]] = acc_c[:, p[shut]] + c_inc[:, shut]
                f_c[:, p[shut]] = f_new[:, shut]
                half[p] = ~shut
            for q in np.flatnonzero(gone):
                end = a if up[q] else b
                finish(p[q], acc[:, p[q]], up[q], s_new[q] if track else np.nan, end, end)
                if coupled and shut[q]:
                    finish(p[q], acc_c[:, p[q]], up[q], s_new[q] if track else np.nan, end, end,
                           book=coarse)
                finished.append(sl[q])
            if coupled and (gone & ~shut).any():
                odd = np.flatnonzero(gone & ~shut)
                finish_pairs(j, sl[odd], p[odd], x_new[odd], s_new[odd], up[odd],
                             level[sl[odd]] if track else a, z, u_hi)
            for q in np.flatnonzero(at_jump & ~gone):
                jumped.append(sl[q])
                tired_at_jump.append(tired[q])
            for q in np.flatnonzero(tired & ~at_jump & ~gone):
                finish(p[q], acc[:, p[q]])
                if coupled:
                    finish(p[q], acc_c[:, p[q]], book=coarse)
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
                if coupled:
                    finish(p[q], acc_c[:, p[q]], False, s_end, x[p[q]], x_jumped[q],
                           book=coarse)
                finished.append(jumped[q])
            kept = x_jumped >= b
            x[p[kept]], wait[p[kept]] = x_jumped[kept], waits[kept]
            if not track:
                s[p[kept]] = x[p[kept]]
            for k, fn in enumerate(integrands):
                f[k, p[kept]] = fn(s[p[kept]], x[p[kept]])
            if coupled:
                f_c[:, p[kept]] = f[:, p[kept]]
            for q in np.flatnonzero(kept & tired_at_jump):
                finish(p[q], acc[:, p[q]])
                if coupled:
                    finish(p[q], acc_c[:, p[q]], book=coarse)
                finished.append(jumped[q])

        finished = sorted(finished)
        live = m - len(finished)
        holes = [q for q in finished if q < live]
        movers = [q for q in range(live, m) if q not in set(finished)]
        for hole, mover in zip(holes, movers):
            slots[hole] = slots[mover]
        del slots[live:]
    return rec
