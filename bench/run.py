"""Benchmark of the ``snlp-scale`` CLI: end-to-end metrics or a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload scale-table-jd --seed 1 --seconds 60 --trace 0

``--trace 0`` starts fresh CLI processes back to back while another one is
expected to end within ``--seconds`` (at least one).  It reports the medians
of wall time, CPU time and peak resident memory per invocation, the median
import time of ``snlpscale.cli`` in fresh interpreters, sampled before every
invocation and after the last (``setup_s``), and the largest relative error
against the workload's oracle.  ``--trace 1`` runs ``bench/traced.py``
instead: the same command in process, untraced and traced, for the per-layer
metrics.

Every invocation's output is checked (``checks.py``); a failed check or a
non-zero exit counts in ``failed``.  The last line of standard output is the
result object; the line before it records the environment and each
invocation.  The program is run from ``src/`` of the checkout, with BLAS and
OpenMP pinned to one thread.  Without ``src/snlpscale`` the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_BATCH = 4  # fresh-interpreter imports before each invocation and after the last
CHILD_TIMEOUT = 150.0  # seconds before a hung child is killed
LAST_START = 100.0  # no invocation starts later than this into a run
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import snlpscale.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


@dataclass
class Child:
    seconds: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(argv: list, env: dict) -> Child:
    """Run one process to completion; wall, CPU and peak RSS from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    watchdog.start()
    reader.start()
    status = None
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        seconds=seconds,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        code=proc.returncode,
        stdout=out,
        stderr=err[0] if err else "",
    )


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SNLP_SCALE_SEED", None)  # the CLI would read it as a default seed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def measure_setup(env: dict) -> list:
    """Import times of ``snlpscale.cli`` in ``SETUP_BATCH`` fresh interpreters."""
    times = []
    for _ in range(SETUP_BATCH):
        child = run_child([sys.executable, "-c", IMPORT_SNIPPET], env)
        if child.code != 0:
            raise BenchError(f"importing snlpscale.cli failed:\n{child.stderr}")
        times.append(float(child.stdout))
    return times


def _keep_going(start: float, durations: list, seconds: float) -> bool:
    """Start another child while the mean child still fits in ``seconds``; at least one."""
    if not durations:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.mean(durations) <= seconds and elapsed < LAST_START


def timed_run(workload, seed: int, seconds: float, env: dict):
    argv = [sys.executable, "-m", "snlpscale.cli", *workload.argv(seed)]
    children, verdicts, setup = [], [], []
    start = time.perf_counter()
    # set-up samples spread over the whole run, so one slow moment of a shared
    # machine does not set the median
    while _keep_going(start, [c.seconds for c in children], seconds):
        setup += measure_setup(env)
        child = run_child(argv, env)
        children.append(child)
        verdicts.append(workload.judge(child.stdout, child.code, seed))
    setup += measure_setup(env)
    metrics = {
        "wall_s": statistics.median(c.seconds for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        "setup_s": statistics.median(setup),
        "err_rel": max(v.err_rel for v in verdicts),
    }
    detail = {
        "setup_s": setup,
        "invocations": [
            {"wall_s": c.seconds, "cpu_s": c.cpu_s, "peak_rss_mb": c.rss_mb, "exit": c.code,
             "ok": v.ok, "err_rel": v.err_rel, "problems": v.problems, "stderr": c.stderr[-2000:]}
            for c, v in zip(children, verdicts)
        ],
    }
    failed = sum(not v.ok for v in verdicts)
    return len(verdicts), failed, _with_units(metrics, "end_to_end"), detail


def _with_units(values: dict, kind: str) -> dict:
    """``name -> (value, unit)`` in the order ``BENCHMARK.json`` lists ``kind``.

    Names without a value (a layer whose wrap target is missing) are left out.
    """
    from workloads import BENCHMARK

    declared = BENCHMARK[kind]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared if m["name"] in values}


def traced_run(workload, seed: int, seconds: float, env: dict):
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
            "--seed", str(seed)]
    pairs, durations = [], []
    start = time.perf_counter()
    while _keep_going(start, durations, seconds):
        child = run_child(argv, env)
        durations.append(child.seconds)
        if child.code != 0:
            raise BenchError(f"traced run failed with status {child.code}:\n{child.stderr}")
        pairs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    attempted = sum(p["attempted"] for p in pairs)
    failed = sum(p["failed"] for p in pairs)
    values = {name: statistics.median(p["metrics"][name] for p in pairs)
              for name in pairs[0]["metrics"]}
    values["fail_frac"] = failed / attempted
    return attempted, failed, _with_units(values, "per_layer"), {"pairs": pairs}


def main(argv=None) -> int:
    # pinned before numpy is first imported, here (through workloads) or in a child
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="snlp-scale benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snlpscale" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'snlpscale'} is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, metrics, detail = run(workload, args.seed, args.seconds, child_env())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail.update(
        workload=workload.name, why=workload.why, seed=args.seed, trace=args.trace,
        argv=workload.argv(args.seed), environment=environment(),
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
