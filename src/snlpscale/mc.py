"""Monte Carlo engine for two-sided exit problems with supremum tracking.

One stepper, ``_simulate_exit_chunk``, runs every path.  Paths follow Euler
steps with exact Gaussian increments; the jump family adds downward
exponential jumps at exact exponential event times, with diffusion substeps
between events and barrier checks at every substep.  With the bridge
correction enabled, each diffusion substep samples the conditional extrema of
the Brownian bridge between its endpoints::

    M = (X0 + X1 + sqrt((X1-X0)^2 - 2 sigma^2 dt ln U)) / 2   (maximum)
    m = (X0 + X1 - sqrt((X1-X0)^2 - 2 sigma^2 dt ln U')) / 2  (minimum)

which detects intra-step barrier crossings with the exact conditional
probability and keeps the running supremum free of the O(sqrt(dt)) discrete
maximum bias.

The stepper takes two hooks.  Each integrand ``(s, x) -> rate`` in its list
is accumulated per path by the trapezoid rule in time, consistent with the
first-order path discretization; a bridge kill strictly inside the band gets
a half step.  An optional observer ``(x_old, x_new, dt_eff)`` sees every step
of the paths alive at its start; ``dt_eff`` is one float when no path can
jump.  :func:`run_exit_mc` passes the potential alone; :func:`occupation_mc`
passes its point and smoothed integrands and a box-count observer for the
occupation-density profile.

The stepper keeps only the live paths, in dense arrays in path order: the
position, supremum, time, time to the next jump (jump family only),
integrand values and one accumulator array per integrand, plus a map to each
path's output column.  Every step keeps the survivors with one boolean mask,
and exits and censoring write their records through the map, so a step costs
in proportion to the paths still alive.  A step's temporaries live in
scratch arrays allocated once per chunk; only the new position and supremum,
which the integrands see and may hand back, are fresh arrays each step.

``_collect_states`` drives the stepper over fixed-size chunks and owns the
censoring gate for both entry points: paths that reach the time cap are
censored, a censored fraction above 0.1% raises, and so does any censoring
in an antithetic run, since it would break the pair alignment.

Chunk ``k`` draws from a counter-derived Philox substream keyed by
``(seed, k)``, each step draws one ``standard_normal`` batch of the live
count before one block of twice that many bridge uniforms, and the reduction
runs in fixed chunk order, so estimates are bit-identical for a given
configuration regardless of scheduling.
Antithetic mates rerun a chunk on the same substream with negated Gaussian
increments.

The engine never calls the deterministic solver: it imports only ``ExitSpec``
from :mod:`generalized`.  :func:`conditional_mc` returns Monte Carlo bins,
and the caller pairs each bin with its own deterministic curve.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._csvout import write_csv
from .generalized import ExitSpec
from .models import Family, LevyModel
from .potentials import BivariatePotential, UnivariatePotential

__all__ = [
    "MCConfig",
    "Estimate",
    "ExitSamples",
    "ExitMCResult",
    "ConditionalBin",
    "ConditionalMCResult",
    "OccupationMCResult",
    "run_exit_mc",
    "conditional_mc",
    "occupation_mc",
]

_CHUNK = 1 << 17  # fixed partition; part of the reproducibility contract
_MAX_CENSORED_FRACTION = 1e-3


@dataclass
class MCConfig:
    """Path-engine configuration.

    ``t_cap`` defaults to ``1e4 (a-b)^2 / sigma^2``; paths that exhaust it
    are counted as censored, and a censored fraction above 0.1% fails the
    run.  ``antithetic`` pairs each path with a mate driven by negated
    Gaussian increments (pure-Gaussian family only).
    """

    dt: float
    n_paths: int
    seed: int = 0
    bridge_correction: bool = True
    t_cap: Optional[float] = None
    antithetic: bool = False

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.n_paths < 100:
            raise ValueError("n_paths must be >= 100")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even n_paths")

    def resolved_t_cap(self, model: LevyModel, spec: ExitSpec) -> float:
        if self.t_cap is not None:
            return self.t_cap
        return 1e4 * (spec.a - spec.b) ** 2 / model.sigma**2

    def warn_if_coarse(self, spec: ExitSpec) -> None:
        if self.dt > (spec.a - spec.b) ** 2 / 100.0:
            warnings.warn(
                f"dt={self.dt} is coarse for interval width {spec.a - spec.b}; "
                "recommended dt <= (a-b)^2/100",
                stacklevel=3,
            )


@dataclass
class Estimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n: int
    elapsed: float = 0.0


@dataclass
class ExitSamples:
    """Raw per-path exit records (censored paths excluded)."""

    exited_up: np.ndarray
    s_at_exit: np.ndarray
    x_pre: np.ndarray
    x_post: np.ndarray
    functional: np.ndarray

    def to_csv(self, target) -> None:
        """Dump one row per path: its index, ``exited_up`` as 0/1, then the
        four float columns at 17 significant digits.

        ``target`` is a path or an open text stream.  Rows are formatted in
        blocks of a few thousand by one ``%`` each (``_csvout.write_csv``),
        so the memory a write takes stays bounded however many paths were
        kept.
        """
        write_csv(
            target,
            ["path", "exited_up", "s_at_exit", "x_pre", "x_post", "functional"],
            ["%d", "%d"] + ["%.17g"] * 4,
            [range(self.exited_up.size), self.exited_up, self.s_at_exit,
             self.x_pre, self.x_post, self.functional],
        )


@dataclass
class ExitMCResult:
    up_laplace: Estimate
    down_value: Estimate
    p_up: Estimate
    n_censored: int
    samples: Optional[ExitSamples] = None


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _as_weight(fn: Optional[Callable]) -> Callable[[np.ndarray], np.ndarray]:
    if fn is None:
        return lambda z: np.ones_like(np.asarray(z, dtype=float))

    def wrapped(z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(np.asarray(fn(z), dtype=float), z.shape)

    return wrapped


def _as_weight2(fn: Optional[Callable]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if fn is None:
        return lambda u, v: np.ones_like(np.asarray(u, dtype=float))

    def wrapped(u, v):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(np.asarray(fn(u, np.asarray(v, dtype=float)), dtype=float), u.shape)

    return wrapped


# ---------------------------------------------------------------------------
# Core path loop
# ---------------------------------------------------------------------------


class _ExitState:
    """Terminal records of simulated paths, one column per path.

    ``acc`` holds one row per integrand.
    """

    __slots__ = ("up", "s_exit", "x_pre", "x_post", "acc", "censored")

    def __init__(self, n: int, n_integrands: int):
        self.up = np.zeros(n, dtype=bool)
        self.s_exit = np.full(n, np.nan)
        self.x_pre = np.full(n, np.nan)
        self.x_post = np.full(n, np.nan)
        self.acc = np.zeros((n_integrands, n))
        self.censored = np.zeros(n, dtype=bool)


def _simulate_exit_chunk(
    model: LevyModel,
    spec: ExitSpec,
    cfg: MCConfig,
    rng: np.random.Generator,
    n: int,
    integrands: list,
    observer: Optional[Callable] = None,
    xi_sign: float = 1.0,
) -> _ExitState:
    """Run ``n`` paths to exit or censoring.

    Each integrand ``(s, x) -> rate`` is accumulated per path into its row of
    ``acc``; ``observer(x_old, x_new, dt_eff)`` sees every step of the paths
    alive at its start.  The live paths' state sits in dense arrays, in path
    order, with ``pid`` mapping each to its output column.  Without jumps
    every path takes the full step, so ``dt_eff`` and the elapsed time ``t``
    are one float each.

    Every step allocates its new position and supremum: the integrands and
    the observer see them, and an integrand's result may be one of its own
    inputs (``lambda s, x: s``).  So no step writes into ``x``, ``s`` or an
    integrand's result after an integrand has seen it, except a jump, which
    replaces the jumped paths' position and their integrand values together.
    The step's other temporaries -- the Gaussian draws, the bridge uniforms
    (one block of ``2 m``, the first half for the maximum), the squared gap,
    the endpoint sum, the exit masks and the trapezoid increment -- go into
    per-chunk scratch arrays of length ``n``, sliced to the live count ``m``.
    Exits are found once per step as an index list; the up/down split, the
    bridge half step and the exit records work on that list only.
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate if model.family is Family.EXP_JUMP_DIFFUSION else 0.0
    jumpy = rate > 0.0
    t_cap = cfg.resolved_t_cap(model, spec)
    bridge = cfg.bridge_correction
    # negating sigma negates each increment exactly, as negating xi would
    signed_sigma = xi_sign * sigma

    out = _ExitState(n, len(integrands))
    pid = np.arange(n)
    x = np.full(n, x0)
    s = np.full(n, x0)
    t = np.zeros(n) if jumpy else 0.0
    acc = [np.zeros(n) for _ in integrands]
    jump_in = rng.exponential(1.0 / rate, n) if jumpy else None
    f_prev = [fn(s, x) for fn in integrands]
    xi_buf, sum_buf, gap_buf = np.empty(n), np.empty(n), np.empty(n)
    u_buf = np.empty(2 * n)
    gone_buf, mask_buf = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    while pid.size:
        m = pid.size
        if jumpy:
            dt_eff = np.minimum(dt, jump_in)
            at_jump = jump_in <= dt
        else:
            dt_eff = dt

        xi = rng.standard_normal(m, out=xi_buf[:m])
        np.multiply(xi, signed_sigma * np.sqrt(dt_eff), out=xi)
        x_new = x + mu * dt_eff
        x_new += xi

        if bridge:
            # row 0 gives the bridge maximum, row 1 the minimum
            ext = rng.random(2 * m, out=u_buf[: 2 * m]).reshape(2, m)
            np.log(ext, out=ext)
            ext *= 2.0 * (sigma * sigma * dt_eff)
            gap2 = np.subtract(x_new, x, out=gap_buf[:m])
            np.square(gap2, out=gap2)
            np.subtract(gap2, ext, out=ext)
            np.sqrt(ext, out=ext)
            ends = np.add(x, x_new, out=sum_buf[:m])
            m_hi, m_lo = ext
            np.add(ends, m_hi, out=m_hi)
            m_hi *= 0.5
            np.subtract(ends, m_lo, out=m_lo)
            m_lo *= 0.5
            gone = np.greater_equal(m_hi, a, out=gone_buf[:m])
            gone |= np.less_equal(m_lo, b, out=mask_buf[:m])
            s_new = np.maximum(s, m_hi)
            np.minimum(s_new, a, out=s_new)
        else:
            gone = np.greater_equal(x_new, a, out=gone_buf[:m])
            gone |= np.less(x_new, b, out=mask_buf[:m])
            s_new = np.minimum(x_new, a)
            np.maximum(s, s_new, out=s_new)
        hit = np.flatnonzero(gone)
        x_hit = x_new[hit]
        up = (m_hi[hit] if bridge else x_hit) >= a

        # trapezoid accumulation; bridge kills strictly inside the band get a
        # half step since the crossing time is interior to the step
        f_new = [fn(s_new, x_new) for fn in integrands]
        interior = hit[(x_hit < a) & (x_hit >= b)] if bridge else hit[:0]
        for row, fp, fq in zip(acc, f_prev, f_new):
            d_acc = np.add(fp, fq, out=sum_buf[:m])
            d_acc *= 0.5 * dt_eff
            d_acc[interior] *= 0.5
            row += d_acc
        if observer is not None:
            observer(x, x_new, dt_eff)
        t += dt_eff

        if hit.size:
            ids = pid[hit]
            out.up[ids] = up
            out.s_exit[ids] = np.where(up, a, s_new[hit])
            end = np.where(up, a, b) if bridge else x_hit
            out.x_pre[ids] = end
            out.x_post[ids] = end
        x, s, f_prev = x_new, s_new, f_new
        done = hit

        # jump events fire exactly at the end of their substep
        if jumpy:
            jump_in -= dt_eff
            jumps = np.flatnonzero(at_jump & ~gone)
            if jumps.size:
                sizes = rng.exponential(model.jump_mean, jumps.size)
                jump_in[jumps] = rng.exponential(1.0 / rate, jumps.size)
                x_jumped = x[jumps] - sizes
                below = x_jumped < b
                dn = jumps[below]
                if dn.size:
                    dn_ids = pid[dn]
                    out.s_exit[dn_ids] = s[dn]
                    out.x_pre[dn_ids] = x[dn]
                    out.x_post[dn_ids] = x_jumped[below]
                    gone[dn] = True
                    done = np.flatnonzero(gone)
                keep = jumps[~below]
                x[keep] = x_jumped[~below]
                for fp, fn in zip(f_prev, integrands):
                    fp[keep] = fn(s[keep], x[keep])

        if jumpy or t >= t_cap:
            tired = ~gone & (t >= t_cap)
            if np.any(tired):
                out.censored[pid[tired]] = True
                gone |= tired
                done = np.flatnonzero(gone)

        if done.size:
            done_ids = pid[done]
            for row, out_row in zip(acc, out.acc):
                out_row[done_ids] = row[done]
            live = np.logical_not(gone, out=mask_buf[:m])
            pid, x, s = pid[live], x[live], s[live]
            acc = [row[live] for row in acc]
            f_prev = [fp[live] for fp in f_prev]
            if jumpy:
                t, jump_in = t[live], jump_in[live]
    return out


def _collect_states(model, spec, cfg, integrands, observer=None) -> _ExitState:
    """Simulate all chunks, honoring the antithetic pairing, and merge them.

    With pairing on, the merged records hold all primary chunks followed by
    their mates in the same order, so path ``i`` and path ``i + n/2`` form a
    pair.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap, or
            when any path of an antithetic run does.
    """
    if cfg.antithetic and model.family is not Family.BROWNIAN_DRIFT:
        raise ValueError("antithetic pairing supports the Brownian family only")
    primaries = []
    mates = []
    remaining = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    chunk_index = 0
    while remaining > 0:
        n = min(_CHUNK, remaining)
        primaries.append(
            _simulate_exit_chunk(
                model, spec, cfg, _chunk_rng(cfg.seed, chunk_index), n, integrands, observer
            )
        )
        if cfg.antithetic:
            mates.append(
                _simulate_exit_chunk(
                    model, spec, cfg, _chunk_rng(cfg.seed, chunk_index), n, integrands,
                    observer, xi_sign=-1.0,
                )
            )
        remaining -= n
        chunk_index += 1

    merged = _ExitState(0, len(integrands))
    for name in _ExitState.__slots__:
        parts = [getattr(st, name) for st in primaries + mates]
        setattr(merged, name, np.concatenate(parts, axis=-1))
    n_total = merged.up.size
    n_censored = int(merged.censored.sum())
    if n_censored > _MAX_CENSORED_FRACTION * n_total:
        raise RuntimeError(
            f"{n_censored} of {n_total} paths were censored at the time cap "
            f"(fraction {n_censored / n_total:.2e} > {_MAX_CENSORED_FRACTION})"
        )
    if cfg.antithetic and n_censored:
        raise RuntimeError("censoring breaks antithetic pair alignment; raise t_cap")
    return merged


def _estimate(values: np.ndarray, elapsed: float, antithetic: bool) -> Estimate:
    if antithetic:
        # mate pairs sit in the two halves of each chunk pair; fold them
        half = values.size // 2
        values = 0.5 * (values[:half] + values[half:])
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(mean=mean, std_error=se, n=n, elapsed=elapsed)


def run_exit_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    g: Optional[Callable] = None,
    h: Optional[Callable] = None,
    keep_samples: bool = False,
) -> ExitMCResult:
    """Estimate the two-sided exit functionals by simulation.

    Returns estimates of (i) ``E[e^{-int F}; up]``, (ii)
    ``E[g(S_T) h(X_{T-}, X_T) e^{-int F}; down]`` and (iii) ``P(up)``,
    plus the raw exit records on request.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap, or
            when any path of an antithetic run does.
    """
    cfg.warn_if_coarse(spec)
    g_fn = _as_weight(g)
    h_fn = _as_weight2(h)
    start = time.perf_counter()
    st = _collect_states(model, spec, cfg, [F.eval_pairs])
    counted = ~st.censored
    acc = st.acc[0]
    up_c = st.up[counted]
    lap = np.exp(-acc[counted])
    y_up = np.where(up_c, lap, 0.0)
    down_weight = g_fn(st.s_exit[counted]) * h_fn(st.x_pre[counted], st.x_post[counted])
    y_down = np.where(~up_c, down_weight * lap, 0.0)
    elapsed = time.perf_counter() - start

    result = ExitMCResult(
        up_laplace=_estimate(y_up, elapsed, cfg.antithetic),
        down_value=_estimate(y_down, elapsed, cfg.antithetic),
        p_up=_estimate(up_c.astype(float), elapsed, cfg.antithetic),
        n_censored=int(st.censored.sum()),
    )
    if keep_samples:
        result.samples = ExitSamples(
            exited_up=up_c,
            s_at_exit=st.s_exit[counted],
            x_pre=st.x_pre[counted],
            x_post=st.x_post[counted],
            functional=acc[counted],
        )
    return result


# ---------------------------------------------------------------------------
# Conditional-on-supremum estimates
# ---------------------------------------------------------------------------


@dataclass
class ConditionalBin:
    lo: float
    hi: float
    midpoint: float
    n: int
    mc_mean: float
    mc_se: float
    empty: bool


@dataclass
class ConditionalMCResult:
    bins: list
    up_bin: ConditionalBin
    n_down: int
    n_up: int


def _bin(lo: float, hi: float, vals: np.ndarray) -> ConditionalBin:
    n = vals.size
    return ConditionalBin(
        lo=float(lo),
        hi=float(hi),
        midpoint=float(0.5 * (lo + hi)),
        n=int(n),
        mc_mean=float(vals.mean()) if n else float("nan"),
        mc_se=float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan"),
        empty=n == 0,
    )


def conditional_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    n_bins: int,
) -> ConditionalMCResult:
    """Bin the down-exit Laplace samples by the supremum at the exit.

    Down-exit samples are binned by ``S_T`` over ``[x, a)``; the up-exit
    samples form the ``S_T = a`` atom bin.  Empty bins are flagged rather
    than dropped.  The bins carry Monte Carlo values only: pairing them with
    the deterministic curve is left to the caller.
    """
    if n_bins < 4:
        raise ValueError("conditional_mc needs n_bins >= 4")
    res = run_exit_mc(model, F, spec, cfg, keep_samples=True)
    smp = res.samples
    edges = np.linspace(spec.x, spec.a, n_bins + 1)

    lap = np.exp(-smp.functional)
    down = ~smp.exited_up
    which = np.clip(
        np.searchsorted(edges, smp.s_at_exit[down], side="right") - 1, 0, n_bins - 1
    )
    vals_down = lap[down]
    bins = [_bin(edges[k], edges[k + 1], vals_down[which == k]) for k in range(n_bins)]
    up_bin = _bin(spec.a, spec.a, lap[smp.exited_up])
    return ConditionalMCResult(
        bins=bins, up_bin=up_bin, n_down=int(down.sum()), n_up=int(smp.exited_up.sum())
    )


# ---------------------------------------------------------------------------
# Occupation-density estimates
# ---------------------------------------------------------------------------


@dataclass
class OccupationMCResult:
    time_integral_laplace: Estimate
    occupation_laplace: Estimate
    mean_abs_discrepancy: float
    levels: np.ndarray
    density_profile: np.ndarray
    bandwidth: float


def occupation_mc(
    model: LevyModel,
    f_x: UnivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    n_levels: int,
) -> OccupationMCResult:
    """Cross-check the occupation formula by simulation.

    Per path computes (A) the trapezoidal time integral of ``f(X_t)`` and
    (B) the integral of ``f`` against the box-kernel occupation density with
    bandwidth ``2 sqrt(dt)``.  (B) integrates ``f`` exactly against each box
    through a fine cumulative table, so the A-B discrepancy carries only the
    smoothing error and shrinks like the bandwidth.  ``n_levels`` sets the
    resolution of the returned mean occupation-density profile, which counts
    every simulated path.  Censored paths are left out of (A) and (B), and
    ``cfg.antithetic`` pairs paths as in :func:`run_exit_mc`.

    Raises:
        ValueError: if the bandwidth is unresolvable by the fine table.
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    if n_levels < 8:
        raise ValueError("occupation_mc needs n_levels >= 8")
    b, a = spec.b, spec.a
    w = 2.0 * np.sqrt(cfg.dt)
    fine_n = 4096
    fine = np.linspace(b - 2.0 * w, a + 2.0 * w, fine_n)
    if w <= (fine[1] - fine[0]):
        raise ValueError(
            f"bandwidth {w} is below the table resolution {(fine[1] - fine[0]):.3e}; "
            "increase dt or narrow the interval"
        )
    inside = (fine >= b) & (fine <= a)
    fvals = np.zeros(fine_n)
    fvals[inside] = f_x.eval_array(fine[inside])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fvals[1:] + fvals[:-1]) * np.diff(fine))])

    def point_rate(s, xs):
        return np.interp(xs, fine, fvals)

    def smoothed_rate(s, xs):
        return (np.interp(xs + w, fine, cum) - np.interp(xs - w, fine, cum)) / (2.0 * w)

    levels = np.linspace(b, a, n_levels)
    density = np.zeros(n_levels)

    def box_count(x_old, x_new, dt_eff):
        # occupation-density profile: box-count the step midpoints
        x_mid = 0.5 * (x_old + x_new)
        hits = np.abs(x_mid[:, None] - levels[None, :]) < w
        density[:] += (hits * np.expand_dims(dt_eff, -1)).sum(axis=0) / (2.0 * w)

    start = time.perf_counter()
    st = _collect_states(model, spec, cfg, [point_rate, smoothed_rate], box_count)
    counted = ~st.censored
    acc_a = st.acc[0, counted]
    acc_b = st.acc[1, counted]
    elapsed = time.perf_counter() - start
    return OccupationMCResult(
        time_integral_laplace=_estimate(np.exp(-acc_a), elapsed, cfg.antithetic),
        occupation_laplace=_estimate(np.exp(-acc_b), elapsed, cfg.antithetic),
        mean_abs_discrepancy=float(np.mean(np.abs(acc_a - acc_b))),
        levels=levels,
        density_profile=density / cfg.n_paths,
        bandwidth=w,
    )
