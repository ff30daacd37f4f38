"""One untraced and one traced in-process run of a workload's CLI command.

Usage, from the repository root (``bench/run.py --trace 1`` starts it)::

    PYTHONPATH=src python3 bench/traced.py --workload scale-table-jd --seed 1

Prints one JSON line: the per-layer metrics of the traced run, the check
results of both runs, per-layer self times and the wrap targets that were
not found or whose counter hook raised.  The tracing overhead is traced wall
time against the untraced wall time of the same command in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from spans import LAYERS, Tracer, install, self_times, uninstall
from workloads import WORKLOADS

def run_cli(argv: list, tracer: Tracer = None):
    """``(seconds, stdout, exit code)`` of ``snlpscale.cli.main(argv)``, with a root span."""
    from snlpscale import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        root = tracer.enter("cli.main", "cli") if tracer else -1
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        finally:
            if tracer:
                tracer.exit(root)
        seconds = time.perf_counter() - start
    return seconds, out.getvalue(), code


def layer_metrics(tracer: Tracer, missing_layers: set, wall: float, untraced: float) -> dict:
    """Every per-layer metric except ``fail_frac``; layers with a missing target are left out."""
    selfs = self_times(tracer.spans)
    counts, gauges = tracer.counts, tracer.gauges
    steps = counts["mc.steps"]
    values = {
        "scale.talbot_calls": counts["scale.talbot_calls"],
        "scale.talbot_nodes": counts["scale.talbot_nodes"],
        "scale.point_calls": counts["scale.point_calls"],
        "scale.self_s": selfs.get("scale", 0.0),
        "models.phi_calls": counts["models.phi_calls"],
        "models.phi_s": selfs.get("models", 0.0),
        "volterra.solves": counts["volterra.solves"],
        "volterra.march_steps": counts["volterra.march_steps"],
        "volterra.self_s": selfs.get("volterra", 0.0),
        "generalized.refine_levels": counts["generalized.refine_levels"],
        "generalized.outer_nodes": gauges.get("generalized.outer_nodes", 0),
        "generalized.last_delta": gauges.get("generalized.last_delta", 0.0),
        "generalized.self_s": selfs.get("generalized", 0.0),
        "mc.steps": steps,
        "mc.path_steps": counts["mc.path_steps"],
        "mc.tail_steps_frac": counts["mc.tail_steps"] / steps if steps else 0.0,
        "mc.censored": counts["mc.censored"],
        "mc.self_s": selfs.get("mc", 0.0),
        "potentials.eval_calls": counts["potentials.eval_calls"],
        "potentials.eval_s": selfs.get("potentials", 0.0),
        "quadrature.self_s": selfs.get("quadrature", 0.0),
        "cli.self_s": selfs.get("cli", 0.0),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_frac": wall / untraced - 1.0,
        "trace.unattributed_s": wall - sum(selfs.values()),
    }
    return {
        k: float(v) for k, v in values.items() if k.partition(".")[0] not in missing_layers
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli_argv = workload.argv(args.seed)

    verdicts = []
    untraced, out, code = run_cli(cli_argv)
    verdicts.append(workload.judge(out, code, args.seed))

    tracer = Tracer()
    restore, missing = install(tracer)
    try:
        wall, out, code = run_cli(cli_argv, tracer)
    finally:
        uninstall(restore)
    verdicts.append(workload.judge(out, code, args.seed))

    dropped = {f"{t.owner}.{t.attr}": t.layer for t in missing} | tracer.broken
    metrics = layer_metrics(tracer, set(dropped.values()), wall, untraced)
    metrics["trace.spans"] = float(len(tracer.spans))
    metrics["trace.missing_targets"] = float(len(dropped))
    selfs = self_times(tracer.spans)
    print(json.dumps({
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems],
        "metrics": metrics,
        "layer_self_s": {layer: selfs.get(layer, 0.0) for layer in LAYERS},
        "missing": [f"{label} ({layer})" for label, layer in dropped.items()],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
