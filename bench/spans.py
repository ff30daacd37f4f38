"""Span and counter recording at the boundaries between ``snlpscale`` layers.

The library has no instrumentation of its own, so the benchmark measures it
from outside: :func:`install` replaces the names each module calls in the
layer below it (the functions ``cli``, ``generalized``, ``volterra``, ``mc``
and ``scale`` import), plus a few internal hot spots, with wrappers that
record a span (name, layer, start, end, parent) and bump counters.
:func:`uninstall` puts the originals back.

A layer's self time is the summed duration of its spans minus the part of
each span its child spans cover.  A target that no longer exists is reported
as missing, together with its layer, instead of failing the run; so is one
whose counter hook raises, because the call no longer looks as the hook
expects.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("models", "scale", "volterra", "generalized", "potentials", "quadrature", "mc", "cli")


class Tracer:
    """In-memory spans plus counters and last-value gauges."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # rows of [name, layer, start, end, parent index or -1]
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.gauges: dict = {}
        self.broken: dict = {}  # target label -> layer, for hooks that raised
        self._stack: list = []

    def enter(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack.pop()


def self_times(spans) -> dict:
    """Per-layer self time: span durations minus the durations of their children."""
    out = defaultdict(float)
    for _, layer, start, end, _ in spans:
        out[layer] += end - start
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][1]] -= end - start
    return dict(out)


# ---------------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result) -> None, run after the call
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(key: str):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += 1

    return hook


def _talbot(tr, args, kwargs, result):
    tr.counts["scale.talbot_calls"] += 1
    tr.counts["scale.talbot_nodes"] += len(_arg(args, kwargs, 1, "xs"))


def _march(tr, args, kwargs, result):
    tr.counts["volterra.march_steps"] += len(_arg(args, kwargs, 3, "inhom")) - 1


def _exit_diagnostics(tr, args, kwargs, result):
    diag = result.diagnostics
    tr.counts["generalized.refine_levels"] += diag["refinement_levels"]
    tr.gauges["generalized.outer_nodes"] = diag["outer_nodes"]
    tr.gauges["generalized.last_delta"] = diag["last_delta"]


def _exit_mc(tr, args, kwargs, result):
    tr.counts["mc.censored"] += result.n_censored


class _CountingRng:
    """Forwards to a numpy Generator; counts the one Gaussian draw per MC step.

    Both stepping loops of ``mc`` draw ``standard_normal(alive)`` exactly
    once per step, and the first draw of a chunk sees every path alive.
    """

    __slots__ = ("_rng", "_tracer", "_paths")

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer
        self._paths = None

    def standard_normal(self, size, *args, **kwargs):
        try:
            if self._paths is None:
                self._paths = size
            counts = self._tracer.counts
            counts["mc.steps"] += 1
            counts["mc.path_steps"] += size
            if 4 * size < self._paths:
                counts["mc.tail_steps"] += 1
        except Exception:
            self._tracer.broken["snlpscale.mc._chunk_rng"] = "mc"
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# ---------------------------------------------------------------------------
# Wrap targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """``owner`` is a module path, or ``module:Class`` for a method."""

    owner: str
    attr: str
    layer: str
    hook: Optional[Callable] = None
    wrap_result: Optional[Callable] = None  # (tracer, result) -> result


_POINT = _count("scale.point_calls")

TARGETS = (
    # cli -> generalized / mc / potentials / scale
    Target("snlpscale.cli", "evaluate_exit", "generalized", _exit_diagnostics),
    Target("snlpscale.cli", "conditional_curve", "generalized"),
    Target("snlpscale.cli", "local_time_laplace", "generalized"),
    Target("snlpscale.cli", "supremum_atom", "generalized"),
    Target("snlpscale.cli", "supremum_density", "generalized"),
    Target("snlpscale.cli", "run_exit_mc", "mc", _exit_mc),
    Target("snlpscale.cli", "conditional_mc", "mc"),
    Target("snlpscale.cli", "occupation_mc", "mc"),
    Target("snlpscale.cli", "parse_bivariate", "potentials"),
    Target("snlpscale.cli", "parse_univariate", "potentials"),
    Target("snlpscale.cli", "parse_g", "potentials"),
    Target("snlpscale.cli", "make_scale_table", "scale"),
    # generalized -> volterra / scale / quadrature
    Target("snlpscale.generalized", "solve_w_z_f", "volterra", _count("volterra.solves")),
    Target("snlpscale.generalized", "wq", "scale", _POINT),
    Target("snlpscale.generalized", "w_derivative", "scale", _POINT),
    Target("snlpscale.generalized", "n_height_tail", "scale"),
    Target("snlpscale.generalized", "classical_exit_up", "scale"),
    Target("snlpscale.generalized", "composite_simpson", "quadrature"),
    Target("snlpscale.generalized", "cumulative_simpson", "quadrature"),
    # volterra -> scale, and its own march loop
    Target("snlpscale.volterra", "_wq_array", "scale"),
    Target("snlpscale.volterra", "_w_deriv_array", "scale"),
    Target("snlpscale.volterra", "w_prime_at_zero", "scale"),
    Target("snlpscale.volterra", "_march", "volterra", _march),
    # mc -> generalized, and the per-chunk generators of its step loops
    Target("snlpscale.mc", "conditional_curve", "generalized"),
    Target("snlpscale.mc", "_chunk_rng", "mc", wrap_result=lambda tr, rng: _CountingRng(rng, tr)),
    # scale internals: point evaluations, Talbot inversion, quadrature
    Target("snlpscale.scale", "wq", "scale", _POINT),
    Target("snlpscale.scale", "zq", "scale", _POINT),
    Target("snlpscale.scale", "w_derivative", "scale", _POINT),
    Target("snlpscale.scale", "_talbot_array", "scale", _talbot),
    Target("snlpscale.scale", "composite_simpson", "quadrature"),
    # models and potentials, reached from every layer above them
    Target("snlpscale.models:LevyModel", "phi", "models", _count("models.phi_calls")),
    Target("snlpscale.potentials:BivariatePotential", "eval_pairs", "potentials",
           _count("potentials.eval_calls")),
    Target("snlpscale.potentials:UnivariatePotential", "eval_array", "potentials",
           _count("potentials.eval_calls")),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _make_wrapper(tracer: Tracer, target: Target, func: Callable) -> Callable:
    name = f"{target.layer}.{target.attr}"
    layer, hook, wrap_result = target.layer, target.hook, target.wrap_result

    def wrapper(*args, **kwargs):
        index = tracer.enter(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(index)
        try:
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if wrap_result is not None:
                return wrap_result(tracer, result)
        except Exception:
            tracer.broken[f"{target.owner}.{target.attr}"] = layer
        return result

    wrapper.__wrapped__ = func
    return wrapper


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists.

    Returns ``(restore, missing)``: the list of ``(owner, attr, original)`` to
    hand to :func:`uninstall`, and the targets that could not be found.
    """
    restore, missing = [], []
    for target in targets:
        owner = _resolve_owner(target.owner)
        original = None if owner is None else vars(owner).get(target.attr)
        if not callable(original):
            missing.append(target)
            continue
        setattr(owner, target.attr, _make_wrapper(tracer, target, original))
        restore.append((owner, target.attr, original))
    return restore, missing


def uninstall(restore) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
