"""Command-line orchestration: tables, exit identities, MC cross-validation.

Subcommands
-----------
``scale-table``   sample a q-scale table to CSV
``exit``          deterministic two-sided exit identities for a potential
``conditional``   conditional Laplace curve given the exit-time supremum
``mc-verify``     deterministic values against Monte Carlo, with z-scores
``local-time``    Laplace transform of the potential-weighted local time

All commands emit a versioned JSON document (``"schema": 10``) to stdout or
``--out``.  ``exit``, ``mc-verify`` and ``local-time`` carry the refinement
diagnostics under ``diagnostics``.  ``mc-verify``, ``conditional`` and
``local-time`` solve the deterministic side while the worker processes step
the paths, and put the Monte Carlo run's counts under ``diagnostics.mc``
(``conditional`` has ``diagnostics`` only when Monte Carlo ran).

Each flag is declared once, in ``_FLAGS``: its type, built-in default and
help text.  Each entry of ``_COMMANDS`` lists the flags its command takes,
and argparse rejects any other; only ``scale-table`` and ``mc-verify`` take
``--csv``.  A value comes from its flag, else from a flat ``key = value``
config file (``--config``), else from the built-in default (the seed is 0).
The file's keys are the running command's flag names without the leading
``--`` (``grid-outer`` or ``grid_outer``), except ``out``, ``csv`` and
``config``; a key that the command has no flag for is an error.

Exit status:

* 0 on success.
* 1 on numerical failure (an error document on stdout), on a failed z-score
  gate of ``mc-verify``/``local-time``, and when the refinement of ``exit``,
  ``mc-verify`` or ``local-time`` did not converge (``diagnostics.converged``
  is false); the last two still emit the full document.  ``converged`` is
  ``max(|d up|, |d down|) / max(|up|, |down|, 1e-12) < 1e-6`` between the
  last two grid levels (``last_delta`` is the ratio): it is scaled by the
  larger value and does not bound the relative change of the smaller one
  (ROADMAP item 13).
* 2 on usage errors: bad flags, and flag or config values that the library
  rejects (a ``ValueError``).  Among these are Monte Carlo settings that
  ``MCConfig`` rejects (e.g. ``--paths 0``, ``--paths`` below 100, or a
  ``--dt`` that is 0, NaN or infinite), grid sizes the solvers cannot use
  (e.g. an even ``--grid-outer``), potentials out of range, and an ``--out``
  or ``--csv`` file that cannot be opened for writing before the run.

``conditional`` and ``local-time`` run Monte Carlo only when ``--paths`` or a
``paths`` line in the config file asks for it; a ``dt`` or ``seed`` from a
flag or the file without a path count is a usage error.  ``mc-verify`` runs
100000 paths unless told otherwise.

The three Monte Carlo commands estimate the dt scheme's means by multilevel
telescoping (``mc`` module docstring) over ``L = max{l <= 5 : 2^l dt <=
(a-b)^2/100}`` levels, the bound of the coarse-step warning, so that the
coarsest step never warns; no flag or config key sets ``L``.  A chunk of
``n`` paths runs ``max(256, ceil(n / 32))`` coupled pairs at the coarsest
correction and half as many at each finer one, down to 256.  Each command
writes the levels under ``diagnostics.mc.levels``.  With ``--csv``,
``mc-verify`` runs the plain dt paths (``L = 0``), since the rows are those
paths.  Each ``mc-verify`` report row carries ``bias_dt`` and
``bias_dt_se``: the level-1 pairs' ``E[Y_2dt - Y_dt]``, to first order the
dt scheme's bias, and null when ``L = 0``.  Each ``mc_bins`` row of
``conditional`` is the bin's numerator ``E[e^{-int F}; down, S_T in bin]``
divided by the bin's exact mass (``supremum_mass``, and ``supremum_atom``
for the up bin), with its standard error divided alike; an empty bin has
null for both, so that every document is strict JSON (RFC 8259).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generalized import (
    DEFAULT_INNER,
    DEFAULT_OUTER,
    ExitSpec,
    conditional_curve,
    evaluate_exit,
    local_time_laplace,
    supremum_atom,
    supremum_density,
    supremum_mass,
)
from .mc import MCConfig, conditional_mc, occupation_mc, run_exit_mc
from .models import LevyModel, make_brownian, make_exp_jump_diffusion
from .potentials import (
    BivariatePotential,
    parse_bivariate,
    parse_g,
    parse_univariate,
)
from .scale import make_scale_table

SCHEMA_VERSION = 10

_NUMERICAL_ERRORS = (ArithmeticError, RuntimeError)


class UsageError(Exception):
    """Bad flag values; reported with status 2 and the offending flag."""


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def parse_model(text: str) -> LevyModel:
    """``bm:mu,sigma`` or ``jd:mu,sigma,rate,jump_mean``."""
    fam, _, argstr = text.partition(":")
    parts = [p for p in argstr.split(",") if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--model: non-numeric parameter in '{text}'") from exc
    try:
        if fam == "bm":
            if len(vals) != 2:
                raise UsageError("--model: bm takes mu,sigma")
            return make_brownian(*vals)
        if fam == "jd":
            if len(vals) != 4:
                raise UsageError("--model: jd takes mu,sigma,rate,jump_mean")
            return make_exp_jump_diffusion(*vals)
    except ValueError as exc:
        raise UsageError(f"--model: {exc}") from exc
    raise UsageError(f"--model: unknown family '{fam}' (use bm: or jd:)")


def _load_config(path: str, command: str, keys) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment.

    ``keys`` are the flag names of ``command`` in attribute form
    (``grid_outer``); any other key is an error that names it and its line,
    and so is a key set twice, however spelled, which names both lines.
    """
    out, lines = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"--config: line {lineno} of {path} is not 'key = value'"
                    )
                key, _, value = line.partition("=")
                name = key.strip().replace("-", "_")
                if name not in keys:
                    raise UsageError(
                        f"--config: unknown key '{key.strip()}' on line {lineno} of {path}: "
                        f"{command} has no --{name.replace('_', '-')} flag"
                    )
                if name in lines:
                    raise UsageError(
                        f"--config: key '{key.strip()}' on line {lineno} of {path} repeats "
                        f"line {lines[name]}"
                    )
                out[name], lines[name] = value.strip(), lineno
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    return out


def _mc_config(args, paths) -> Optional[MCConfig]:
    """Monte Carlo settings for ``paths`` paths, or None when ``paths`` is None."""
    if paths is None:
        return None
    try:
        return MCConfig(dt=args.dt, n_paths=paths, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"--paths/--dt: {exc}") from exc


def _solve_while_stepping(cfg, solve, simulate):
    """``(solve(), simulate(meanwhile=solve))``, or ``(solve(), None)`` when
    ``cfg`` is None.  The commands pass lambdas, so that the library functions
    are looked up in this module at call time, where a tracer may wrap them."""
    if cfg is None:
        return solve(), None
    solved = []
    result = simulate(meanwhile=lambda: solved.append(solve()))
    return solved[0], result


@dataclass
class _Problem:
    """The exit problem that ``exit``, ``conditional``, ``mc-verify`` and
    ``local-time`` share: model, exit triple, potential and grid sizes."""

    model: LevyModel
    spec: ExitSpec
    potential: str
    F: BivariatePotential
    n_outer: int
    n_inner: int

    def header(self, command: str) -> dict:
        """The document keys every exit-problem command starts with."""
        return {
            "schema": SCHEMA_VERSION,
            "command": command,
            "model": self.model.to_dict(),
            "spec": {"b": self.spec.b, "x": self.spec.x, "a": self.spec.a},
            "potential": self.potential,
        }


def _problem_from(args, position_only=False) -> _Problem:
    """Read the shared exit problem; ``position_only`` takes a potential of the position alone."""
    model = parse_model(args.model)
    try:
        spec = ExitSpec(b=args.b, x=args.x, a=args.a)
    except ValueError as exc:
        raise UsageError(f"--b/--x/--a: {exc}") from exc
    text = args.potential
    F = parse_univariate(text) if position_only else parse_bivariate(text, spec.a - spec.b)
    return _Problem(model, spec, text, F, n_outer=args.grid_outer, n_inner=args.grid_inner)


def _open_outputs(args, files: contextlib.ExitStack) -> None:
    """Open the ``--out`` and ``--csv`` files before the command runs, as a
    shell redirection would, so that an unwritable path costs no work; each
    open file replaces its path on ``args``, and ``files`` closes it."""
    for key in ("out", "csv"):
        path = getattr(args, key, None)
        if path:
            try:
                setattr(args, key, files.enter_context(open(path, "w", encoding="utf-8")))
            except OSError as exc:
                raise UsageError(f"--{key}: cannot write {path}: {exc}") from exc


def _emit(doc: dict, out) -> None:
    (out or sys.stdout).write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_scale_table(args) -> dict:
    model = parse_model(args.model)
    table = make_scale_table(model, args.q, args.a, args.grid_inner)
    table.validate()
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "scale-table",
        "model": model.to_dict(),
        "q": args.q,
        "grid": {"lo": table.grid_lo, "hi": table.grid_hi, "n": table.n},
        "normalization_note": table.normalization_note,
    }
    if args.csv:
        table.to_csv(args.csv)
        doc["csv"] = args.csv.name
    else:
        doc["csv_inline"] = table.to_csv_string()
    return doc


def _cmd_exit(args) -> dict:
    p = _problem_from(args)
    result = evaluate_exit(
        p.model, p.F, p.spec, g=parse_g(args.g), n_outer=p.n_outer, n_inner=p.n_inner
    )
    return {**result.to_json_dict(), **p.header("exit"), "g": args.g}


def _cmd_conditional(args) -> dict:
    p = _problem_from(args)
    cfg = _mc_config(args, args.paths)
    (nodes, curve), mc = _solve_while_stepping(
        cfg,
        lambda: conditional_curve(p.model, p.F, p.spec, n_outer=p.n_outer, n_inner=p.n_inner),
        lambda meanwhile: conditional_mc(p.model, p.F, p.spec, cfg,
                                         max(4, (p.n_outer - 1) // 16), meanwhile=meanwhile,
                                         levels=cfg.max_levels(p.spec)),
    )
    density = [
        supremum_density(p.model, p.spec, float(z)) if z < p.spec.a else None for z in nodes
    ]
    doc = {
        **p.header("conditional"),
        "z": [float(z) for z in nodes],
        "conditional_laplace": [float(v) for v in curve],
        "supremum_density": density,
        "supremum_atom": supremum_atom(p.model, p.spec),
    }
    if mc is not None:
        masses = [supremum_mass(p.model, p.spec, bn.lo, bn.hi) for bn in mc.bins]
        # a bin's conditional mean is its numerator over its exact mass, paired
        # with this command's own curve at the bin midpoint
        doc["mc_bins"] = [
            {"lo": bn.lo, "hi": bn.hi, "midpoint": bn.midpoint, "n": bn.n, "empty": bn.empty,
             "mc_mean": None if bn.empty else bn.numerator.mean / mass,
             "mc_se": None if bn.empty else bn.numerator.std_error / mass,
             "deterministic": float(np.interp(bn.midpoint, nodes, curve))}
            for bn, mass in zip(mc.bins + [mc.up_bin], masses + [doc["supremum_atom"]])
        ]
        doc["diagnostics"] = {"mc": mc.diagnostics}
    return doc


def verify_report(deterministic: dict, mc_estimates: dict) -> dict:
    """Per-estimand z-scores ``(det - mc_mean)/se`` with a |z| < 3 gate.

    A zero standard error with ``det != mc_mean`` has no z-score: the row
    carries ``"zscore": None`` and fails.

    Raises:
        ValueError: when the estimand sets differ or the MC set is empty.
    """
    if not mc_estimates:
        raise ValueError("verify_report: empty Monte Carlo estimate set")
    if set(deterministic) != set(mc_estimates):
        raise ValueError(
            f"verify_report: estimand sets differ: {sorted(deterministic)} "
            f"vs {sorted(mc_estimates)}"
        )
    rows = []
    for name in sorted(deterministic):
        det = float(deterministic[name])
        est = mc_estimates[name]
        se = est.std_error
        if det == est.mean:
            z = 0.0
        elif se == 0.0:
            z = None
        else:
            z = (det - est.mean) / se
        rows.append(
            {
                "estimand": name,
                "deterministic": det,
                "mc_mean": est.mean,
                "mc_se": se,
                "zscore": z,
                "pass": z is not None and bool(abs(z) < 3.0),
            }
        )
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def _cmd_mc_verify(args) -> dict:
    p = _problem_from(args)
    g = parse_g(args.g)
    cfg = _mc_config(args, 100000 if args.paths is None else args.paths)
    levels = 0 if args.csv else cfg.max_levels(p.spec)

    det_result, mc = _solve_while_stepping(
        cfg,
        lambda: evaluate_exit(p.model, p.F, p.spec, g=g, n_outer=p.n_outer, n_inner=p.n_inner),
        lambda meanwhile: run_exit_mc(p.model, p.F, p.spec, cfg, g=g,
                                      keep_samples=bool(args.csv), meanwhile=meanwhile,
                                      levels=levels),
    )
    det = {
        "up_laplace": det_result.up_laplace,
        "down_value": det_result.down_value,
        "p_up": supremum_atom(p.model, p.spec),
    }
    report = verify_report(
        det, {"up_laplace": mc.up_laplace, "down_value": mc.down_value, "p_up": mc.p_up}
    )
    for row in report["rows"]:
        bias = mc.bias_dt[row["estimand"]] if mc.bias_dt else None
        row["bias_dt"] = None if bias is None else bias.mean
        row["bias_dt_se"] = None if bias is None else bias.std_error
    doc = {
        **p.header("mc-verify"),
        "g": args.g,
        "mc_config": {"dt": cfg.dt, "paths": cfg.n_paths, "seed": cfg.seed},
        "n_censored": mc.n_censored,
        "report": report["rows"],
        "pass": report["pass"],
        "diagnostics": {**det_result.diagnostics, "mc": mc.diagnostics},
    }
    if args.csv:
        mc.samples.to_csv(args.csv)
        doc["csv"] = args.csv.name
    return doc


def _cmd_local_time(args) -> dict:
    p = _problem_from(args, position_only=True)
    cfg = _mc_config(args, args.paths)
    (value, diagnostics), occ = _solve_while_stepping(
        cfg,
        lambda: local_time_laplace(p.model, p.F, p.spec, n_outer=p.n_outer, n_inner=p.n_inner),
        lambda meanwhile: occupation_mc(p.model, p.F, p.spec, cfg, meanwhile=meanwhile,
                                        levels=cfg.max_levels(p.spec)),
    )
    doc = {**p.header("local-time"), "laplace": value, "diagnostics": diagnostics}
    if occ is not None:
        report = verify_report(
            {"local_time_laplace": value}, {"local_time_laplace": occ.time_integral_laplace}
        )
        doc["mc"] = {
            "time_integral": {
                "mean": occ.time_integral_laplace.mean,
                "se": occ.time_integral_laplace.std_error,
            },
            "occupation_integral": {
                "mean": occ.occupation_laplace.mean,
                "se": occ.occupation_laplace.std_error,
            },
            "mean_abs_discrepancy": occ.mean_abs_discrepancy,
        }
        doc["report"] = report["rows"]
        doc["pass"] = report["pass"]
        doc["diagnostics"] = {**diagnostics, "mc": occ.diagnostics}
    return doc


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


_BIVARIATE = "const:q | reflected:c | indicator:c,r | level:c,r"

# dest -> (argparse type, built-in default, help text); a default of None
# leaves the value unset
_FLAGS = {
    "model": (str, None, "bm:mu,sigma or jd:mu,sigma,rate,jump_mean"),
    "b": (float, None, "lower barrier"),
    "x": (float, None, "starting point, b < x < a"),
    "a": (float, None, "upper barrier"),
    "grid_outer": (int, DEFAULT_OUTER, "outer Simpson node count (odd)"),
    "grid_inner": (int, DEFAULT_INNER, "inner renewal-solve grid intervals"),
    "out": (str, None, "write the JSON report here instead of stdout"),
    "config": (str, None, "flat key = value config file with defaults"),
    "csv": (str, None, "write the command's CSV artifact here"),
    "q": (float, 0.0, "discount rate of the table"),
    "potential": (str, "const:0", _BIVARIATE),
    "g": (str, "one", "down-exit supremum weight: one | identity | const:c"),
    "paths": (int, None, "Monte Carlo path count"),
    "dt": (float, 1e-4, "Euler step"),
    "seed": (int, 0, "RNG seed (default 0)"),
}
# the flags of every command that solves an exit problem
_EXIT_PROBLEM = ("model", "b", "x", "a", "grid_outer", "grid_inner", "out", "config")
_MC = ("paths", "dt", "seed")

# command -> (handler, add_parser keywords, flags in parser order); a flag
# given as (dest, help) takes that help text in place of the table's
_COMMANDS = {
    "scale-table": (
        _cmd_scale_table, {"help": "sample a q-scale table to CSV"},
        ("model", ("a", "upper end of the table"), ("grid_inner", "table node count on [0, a]"),
         "out", "config", "csv", "q")),
    "exit": (
        _cmd_exit, {"help": "deterministic two-sided exit identities"},
        (*_EXIT_PROBLEM, "potential", "g")),
    "conditional": (
        _cmd_conditional, {"help": "conditional Laplace curve given the supremum"},
        (*_EXIT_PROBLEM, "potential", *_MC)),
    "mc-verify": (
        _cmd_mc_verify, {
            "help": "deterministic vs Monte Carlo with z-scores",
            "description": "Deterministic exit identities against multilevel Monte Carlo with "
            "z-scores.  The levels are L = max{l <= 5 : 2^l dt <= (a-b)^2/100}, so that the "
            "coarsest step 2^L dt is not coarse for the band, and each correction level runs "
            "half the coupled pairs of the next coarser one, at least 256 a chunk; with --csv, "
            "L = 0 and the rows are the dt paths."},
        (*_EXIT_PROBLEM, "csv", "potential", "g", *_MC)),
    "local-time": (
        _cmd_local_time, {"help": "potential-weighted local time Laplace transform"},
        (*_EXIT_PROBLEM, ("potential", "position-only potential: const:q | level:c,r"), *_MC)),
}


def _flags_of(command: str) -> dict:
    """dest -> help text of each flag ``command`` takes, in parser order."""
    return dict(f if isinstance(f, tuple) else (f, _FLAGS[f][2]) for f in _COMMANDS[command][2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snlp-scale",
        description="Scale functions and exit identities for spectrally "
        "negative Levy processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, keywords, _) in _COMMANDS.items():
        p = sub.add_parser(command, **keywords)
        for dest, text in _flags_of(command).items():
            p.add_argument("--" + dest.replace("_", "-"), type=_FLAGS[dest][0], help=text)
    return parser


def _fill(args) -> None:
    """Set each unset flag of the command: flag > config file > built-in default."""
    dests = _flags_of(args.command)
    keys = set(dests) - {"out", "csv", "config"}
    config = _load_config(args.config, args.command, keys) if args.config else {}
    for key, raw in config.items():
        if getattr(args, key) is None:
            try:
                setattr(args, key, _FLAGS[key][0](raw))
            except ValueError as exc:
                raise UsageError(f"--config: bad value for '{key}': {raw}") from exc
    # without a path count these two run no Monte Carlo; mc-verify always does
    if args.command in ("conditional", "local-time") and args.paths is None:
        for key in ("dt", "seed"):
            if getattr(args, key) is not None:
                raise UsageError(f"--{key}: {args.command} runs Monte Carlo only with a "
                                 "path count (--paths or a 'paths' config line)")
    for key in dests:
        if getattr(args, key) is None:
            setattr(args, key, _FLAGS[key][1])
    for key in ("model", "b", "x", "a"):
        if key in dests and getattr(args, key) is None:
            raise UsageError(f"--{key}: required flag is missing")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.ExitStack() as files:
        try:
            _fill(args)
            _open_outputs(args, files)
            doc = _COMMANDS[args.command][0](args)
        except (UsageError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except _NUMERICAL_ERRORS as exc:
            _emit({"schema": SCHEMA_VERSION, "command": args.command,
                   "error": type(exc).__name__, "detail": str(exc)}, args.out)
            return 1
        _emit(doc, args.out)
    if doc.get("pass") is False or doc.get("diagnostics", {}).get("converged") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
