"""The two ``snlp-scale`` workloads, each loading different layers most.

A workload is a CLI argument list built from the benchmark seed plus the
check its output document must pass.  Each check is pinned to the inputs the
workload passes.  The ``why`` of each workload is read from
``BENCHMARK.json``, which also lists the metrics.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}

JD = (2.0, 1.0, 1.0, 0.5)  # jd:mu,sigma,rate,jump_mean
JD_ARG = "jd:%g,%g,%g,%g" % JD
TABLE_Q, TABLE_HI, TABLE_N = 0.5, 4.0, 4097
MC_Q, MC_SPEC, MC_PATHS, MC_DT = 0.5, (0.0, 0.5, 2.0), 100000, 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    takes_seed: bool
    check: Callable[[dict, int], "checks.Verdict"]  # (document, seed) -> verdict

    @property
    def why(self) -> str:
        return WHY[self.name]

    def argv(self, seed: int) -> list:
        return list(self.args) + (["--seed", str(seed)] if self.takes_seed else [])

    def judge(self, stdout: str, exit_code, seed: int) -> "checks.Verdict":
        """Check one invocation: a JSON document that passes, and exit code 0."""
        doc = checks.parse_document(stdout)
        if doc is None:
            verdict = checks.Verdict()
            verdict.fail(f"exit code {exit_code}, no JSON document on stdout")
            return verdict
        verdict = self.check(doc, seed)
        if exit_code != 0:
            verdict.fail(f"exit code {exit_code}")
        return verdict


def _check_table(doc: dict, seed: int) -> "checks.Verdict":
    return checks.check_scale_table(doc, JD, TABLE_Q, TABLE_HI, TABLE_N)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mcverify-bm-const",
            args=("mc-verify", "--model", "bm:0,1", "--b", "%g" % MC_SPEC[0],
                  "--x", "%g" % MC_SPEC[1], "--a", "%g" % MC_SPEC[2],
                  "--potential", "const:%g" % MC_Q, "--paths", str(MC_PATHS), "--dt", "%g" % MC_DT),
            takes_seed=True,
            check=functools.partial(checks.check_mc_verify, q=MC_Q, spec=MC_SPEC,
                                    paths=MC_PATHS, dt=MC_DT),
        ),
        Workload(
            name="scale-table-jd",
            args=("scale-table", "--model", JD_ARG, "--q", "%g" % TABLE_Q, "--a", "%g" % TABLE_HI,
                  "--grid-inner", str(TABLE_N)),
            takes_seed=False,
            check=_check_table,
        ),
    )
}
