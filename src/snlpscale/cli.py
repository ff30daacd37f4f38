"""Command-line orchestration: tables, exit identities, MC cross-validation.

Subcommands
-----------
``scale-table``   sample a q-scale table to CSV
``exit``          deterministic two-sided exit identities for a potential
``conditional``   conditional Laplace curve given the exit-time supremum
``mc-verify``     deterministic values against Monte Carlo, with z-scores
``local-time``    Laplace transform of the potential-weighted local time

All commands emit a versioned JSON document (``"schema": 8``) to stdout or
``--out``.  ``exit``, ``mc-verify`` and ``local-time`` carry the refinement
diagnostics under ``diagnostics``.  ``mc-verify``, ``conditional`` and
``local-time`` solve the deterministic side while the worker processes step
the paths, and put the Monte Carlo run's counts under ``diagnostics.mc``
(``conditional`` has ``diagnostics`` only when Monte Carlo ran).  A flat
``key = value`` config file provides defaults, and explicit flags override
it; the seed is 0 when neither sets it.  The file's keys are the running
command's flag names without the leading ``--`` (``grid-outer`` or
``grid_outer``), except ``out``, ``csv`` and ``config``; a key that the
command has no flag for is an error.

Exit status:

* 0 on success.
* 1 on numerical failure (an error document on stdout), on a failed z-score
  gate of ``mc-verify``/``local-time``, and when the refinement of ``exit``,
  ``mc-verify`` or ``local-time`` did not converge (``diagnostics.converged``
  is false); the last two still emit the full document.
* 2 on usage errors: bad flags, and flag or config values that the library
  rejects (a ``ValueError``).  Among these are Monte Carlo settings that
  ``MCConfig`` rejects (e.g. ``--paths 0``, ``--paths`` below 100, or a
  ``--dt`` that is 0, NaN or infinite), grid sizes the solvers cannot use
  (e.g. an even ``--grid-outer``) and potentials out of range.

``conditional`` and ``local-time`` run Monte Carlo only when ``--paths`` or a
``paths`` line in the config file asks for it.

``mc-verify`` estimates the dt scheme's means by multilevel telescoping
(``mc`` module docstring) over ``L = max{l <= 4 : 2^l dt <= (a-b)^2/100}``
levels, the bound of the coarse-step warning, so that the coarsest step
never warns; no flag or config key sets ``L``.  With ``--csv`` it runs the
plain dt paths (``L = 0``), since the rows are those paths.  Each report row
carries ``bias_dt`` and ``bias_dt_se``: the level-1 pairs' ``E[Y_2dt -
Y_dt]``, to first order the dt scheme's bias, and null when ``L = 0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Union

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
)
from .mc import MCConfig, conditional_mc, occupation_mc, run_exit_mc
from .models import Family, LevyModel
from .potentials import (
    BivariatePotential,
    UnivariatePotential,
    parse_bivariate,
    parse_g,
    parse_univariate,
)
from .scale import make_scale_table

SCHEMA_VERSION = 8

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
            return LevyModel(Family.BROWNIAN_DRIFT, vals[0], vals[1])
        if fam == "jd":
            if len(vals) != 4:
                raise UsageError("--model: jd takes mu,sigma,rate,jump_mean")
            return LevyModel(
                Family.EXP_JUMP_DIFFUSION, vals[0], vals[1],
                jump_rate=vals[2], jump_mean=vals[3],
            )
    except ValueError as exc:
        raise UsageError(f"--model: {exc}") from exc
    raise UsageError(f"--model: unknown family '{fam}' (use bm: or jd:)")


def _load_config(path: str, command: str, keys) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment.

    ``keys`` are the flag names of ``command`` in attribute form
    (``grid_outer``); any other key is an error that names it and its line.
    """
    out = {}
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
                out[name] = value.strip()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    return out


_DEFAULTS = {
    "q": 0.0,
    "potential": "const:0",
    "g": "one",
    "paths": 100000,
    "seed": 0,
    "dt": 1e-4,
    "grid_outer": DEFAULT_OUTER,
    "grid_inner": DEFAULT_INNER,
    "b": None,
    "x": None,
    "a": None,
}


def _resolve(args, config: dict, key: str, cast=float, required=False):
    """Flag > config file > built-in default."""
    val = getattr(args, key, None)
    if val is None and key in config:
        raw = config[key]
        try:
            val = cast(raw)
        except ValueError as exc:
            raise UsageError(f"--config: bad value for '{key}': {raw}") from exc
    if val is None:
        val = _DEFAULTS.get(key)
    if val is None and required:
        raise UsageError(f"--{key.replace('_', '-')}: required flag is missing")
    return val


def _model_from(args, config) -> LevyModel:
    text = getattr(args, "model", None) or config.get("model")
    if text is None:
        raise UsageError("--model: required flag is missing")
    return parse_model(text)


def _mc_config(args, config, n_paths) -> MCConfig:
    try:
        return MCConfig(
            dt=_resolve(args, config, "dt"),
            n_paths=int(n_paths),
            seed=_resolve(args, config, "seed", cast=int),
        )
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


def _optional_mc_config(args, config) -> Optional[MCConfig]:
    """Monte Carlo settings when ``--paths`` or the config file sets a path count.

    There is no built-in path count here: ``conditional`` and ``local-time``
    run Monte Carlo only when asked for, and return ``None`` otherwise.
    """
    if getattr(args, "paths", None) is None and "paths" not in config:
        return None
    return _mc_config(args, config, _resolve(args, config, "paths", cast=int))


@dataclass
class _Problem:
    """The exit problem that ``exit``, ``conditional``, ``mc-verify`` and
    ``local-time`` share: model, exit triple, potential and grid sizes."""

    model: LevyModel
    spec: ExitSpec
    potential: str
    F: Union[BivariatePotential, UnivariatePotential]
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


def _problem_from(args, config, position_only=False) -> _Problem:
    """Read the shared exit problem; ``position_only`` parses ``f(x)`` alone."""
    model = _model_from(args, config)
    b, x, a = (_resolve(args, config, key, required=True) for key in ("b", "x", "a"))
    try:
        spec = ExitSpec(b=b, x=x, a=a)
    except ValueError as exc:
        raise UsageError(f"--b/--x/--a: {exc}") from exc
    text = _resolve(args, config, "potential", cast=str)
    F = parse_univariate(text) if position_only else parse_bivariate(text, spec.a - spec.b)
    return _Problem(
        model, spec, text, F,
        n_outer=int(_resolve(args, config, "grid_outer", cast=int)),
        n_inner=int(_resolve(args, config, "grid_inner", cast=int)),
    )


def _emit(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_scale_table(args, config) -> dict:
    model = _model_from(args, config)
    q = _resolve(args, config, "q")
    hi = _resolve(args, config, "a", required=True)
    n = int(_resolve(args, config, "grid_inner", cast=int))
    table = make_scale_table(model, q, hi, n)
    table.validate()
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "scale-table",
        "model": model.to_dict(),
        "q": q,
        "grid": {"lo": table.grid_lo, "hi": table.grid_hi, "n": table.n},
        "normalization_note": table.normalization_note,
    }
    if args.csv:
        table.to_csv(args.csv)
        doc["csv"] = args.csv
    else:
        doc["csv_inline"] = table.to_csv_string()
    return doc


def _cmd_exit(args, config) -> dict:
    p = _problem_from(args, config)
    g_spec = _resolve(args, config, "g", cast=str)
    result = evaluate_exit(
        p.model, p.F, p.spec, g=parse_g(g_spec), n_outer=p.n_outer, n_inner=p.n_inner
    )
    return {**result.to_json_dict(), **p.header("exit"), "g": g_spec}


def _cmd_conditional(args, config) -> dict:
    p = _problem_from(args, config)
    cfg = _optional_mc_config(args, config)
    (nodes, curve), mc = _solve_while_stepping(
        cfg,
        lambda: conditional_curve(p.model, p.F, p.spec, n_outer=p.n_outer, n_inner=p.n_inner),
        lambda meanwhile: conditional_mc(p.model, p.F, p.spec, cfg,
                                         max(4, (p.n_outer - 1) // 16), meanwhile=meanwhile),
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
        # each bin is paired with this command's own curve, at the bin midpoint
        doc["mc_bins"] = [
            {**asdict(bn), "deterministic": float(np.interp(bn.midpoint, nodes, curve))}
            for bn in mc.bins + [mc.up_bin]
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


def _cmd_mc_verify(args, config) -> dict:
    p = _problem_from(args, config)
    g_spec = _resolve(args, config, "g", cast=str)
    g = parse_g(g_spec)
    cfg = _mc_config(args, config, _resolve(args, config, "paths", cast=int))
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
        "g": g_spec,
        "mc_config": {"dt": cfg.dt, "paths": cfg.n_paths, "seed": cfg.seed},
        "n_censored": mc.n_censored,
        "report": report["rows"],
        "pass": report["pass"],
        "diagnostics": {**det_result.diagnostics, "mc": mc.diagnostics},
    }
    if args.csv:
        mc.samples.to_csv(args.csv)
        doc["csv"] = args.csv
    return doc


def _cmd_local_time(args, config) -> dict:
    p = _problem_from(args, config, position_only=True)
    cfg = _optional_mc_config(args, config)
    (value, diagnostics), occ = _solve_while_stepping(
        cfg,
        lambda: local_time_laplace(p.model, p.F, p.spec, n_outer=p.n_outer, n_inner=p.n_inner),
        lambda meanwhile: occupation_mc(p.model, p.F, p.spec, cfg, meanwhile=meanwhile),
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


def _add_common(p, potential=None, g=False, mc_flags=False, exit_problem=True,
                inner="inner renewal-solve grid intervals"):
    """Shared flags; ``potential`` is the help text of ``--potential``, if taken.

    Only commands that solve an exit problem (``exit_problem``) take ``--b``,
    ``--x`` and ``--grid-outer``; anywhere else argparse rejects them.
    """
    p.add_argument("--model", help="bm:mu,sigma or jd:mu,sigma,rate,jump_mean")
    if exit_problem:
        p.add_argument("--b", type=float, help="lower barrier")
        p.add_argument("--x", type=float, help="starting point, b < x < a")
        p.add_argument("--a", type=float, help="upper barrier")
        p.add_argument("--grid-outer", dest="grid_outer", type=int,
                       help="outer Simpson node count (odd)")
    else:
        p.add_argument("--a", type=float, help="upper end of the table")
    p.add_argument("--grid-inner", dest="grid_inner", type=int, help=inner)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--config", help="flat key = value config file with defaults")
    p.add_argument("--csv", help="write the command's CSV artifact here")
    if potential:
        p.add_argument("--potential", help=potential)
    if g:
        p.add_argument("--g", help="down-exit supremum weight: one | identity | const:c")
    if mc_flags:
        p.add_argument("--paths", type=int, help="Monte Carlo path count")
        p.add_argument("--dt", type=float, help="Euler step")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snlp-scale",
        description="Scale functions and exit identities for spectrally "
        "negative Levy processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale-table", help="sample a q-scale table to CSV")
    _add_common(p, exit_problem=False, inner="table node count on [0, a]")
    p.add_argument("--q", type=float, help="discount rate of the table")

    p = sub.add_parser("exit", help="deterministic two-sided exit identities")
    _add_common(p, potential=_BIVARIATE, g=True)

    p = sub.add_parser("conditional", help="conditional Laplace curve given the supremum")
    _add_common(p, potential=_BIVARIATE, mc_flags=True)

    p = sub.add_parser(
        "mc-verify", help="deterministic vs Monte Carlo with z-scores",
        description="Deterministic exit identities against multilevel Monte Carlo with "
        "z-scores.  The levels are L = max{l <= 4 : 2^l dt <= (a-b)^2/100}, so that the "
        "coarsest step 2^L dt is not coarse for the band; with --csv, L = 0 and the rows "
        "are the dt paths.")
    _add_common(p, potential=_BIVARIATE, g=True, mc_flags=True)

    p = sub.add_parser("local-time", help="potential-weighted local time Laplace transform")
    _add_common(p, potential="position-only potential: const:q | level:c,r", mc_flags=True)
    return parser


_COMMANDS = {
    "scale-table": _cmd_scale_table,
    "exit": _cmd_exit,
    "conditional": _cmd_conditional,
    "mc-verify": _cmd_mc_verify,
    "local-time": _cmd_local_time,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        keys = set(vars(args)) - {"command", "out", "csv", "config"}
        config = _load_config(args.config, args.command, keys) if args.config else {}
        doc = _COMMANDS[args.command](args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": args.command,
                "error": type(exc).__name__,
                "detail": str(exc),
            },
            getattr(args, "out", None),
        )
        return 1
    _emit(doc, args.out)
    if doc.get("pass") is False or doc.get("diagnostics", {}).get("converged") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
