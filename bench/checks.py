"""Output checks: each CLI document against an independent oracle.

Every check returns a :class:`Verdict`: whether the document passed, the
largest relative error against the oracle, and the reasons for a failure.
Tolerances sit one to two orders of magnitude above the errors the seed
implementation reaches, so they catch a broken layer without failing a
correct change of discretisation.  Each check also requires the document to
echo the inputs its workload passed, and builds the oracle from those inputs,
never from the echo: a run that ignores a resolution argument fails.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from oracles import JumpDiffusion, brownian_exit

# seed errors: W 3.7e-7, W' 8.1e-6, Z 2.5e-8 (max relative, x > 0)
TABLE_TOL = {"W": 1e-5, "Wprime": 1e-4, "Z": 1e-6, "Zprime": 1e-5}
MC_DET_TOL = 1e-5  # deterministic side against the sinh closed forms
MC_SE_TOL = 0.05  # standard error against that of the requested path count (seed: < 1%)


@dataclass
class Verdict:
    ok: bool = True
    err_rel: float = 0.0
    problems: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.ok = False
        self.problems.append(reason)

    def compare(self, label: str, got, want, tol: float) -> None:
        """Relative error of ``got`` against ``want``; fails above ``tol``."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            self.fail(f"{label}: shape {got.shape} or non-finite values")
            return
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        self.err_rel = max(self.err_rel, err)
        if not err <= tol:
            self.fail(f"{label}: relative error {err:.3e} > {tol:.1e}")


def _common(doc: dict, command: str, echo: dict) -> Verdict:
    """Checks every document gets: right command and inputs, no error, converged solve.

    ``echo`` holds the inputs the workload passed, as the document must echo
    them; for a dict only the keys given are compared.
    """
    verdict = Verdict()
    if doc.get("error"):
        verdict.fail(f"{doc['error']}: {doc.get('detail', '')}")
    if doc.get("command") != command:
        verdict.fail(f"command is {doc.get('command')!r}, expected {command!r}")
    for key, want in echo.items():
        got = doc.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            got = {k: got.get(k) for k in want}
        if got != want:
            verdict.fail(f"{key} is {got!r}, expected {want!r}")
    # the CLI exits 0 on unconverged refinement; the benchmark does not pass it
    if doc.get("diagnostics", {}).get("converged") is False:
        verdict.fail("diagnostics.converged is false")
    return verdict


def jd_model(mu: float, sigma: float, rate: float, jump_mean: float) -> dict:
    """The ``model`` document of ``--model jd:mu,sigma,rate,jump_mean``."""
    return {"family": "exp_jump_diffusion", "mu": mu, "sigma": sigma, "jump_rate": rate,
            "jump_mean": jump_mean}


def check_scale_table(doc: dict, jd: tuple, q: float, hi: float, n: int) -> Verdict:
    """Table of ``n`` rows on ``[0, hi]``; W, W', Z, Z' against the partial-fraction closed form."""
    verdict = _common(doc, "scale-table",
                      {"model": jd_model(*jd), "q": q, "grid": {"lo": 0.0, "hi": hi, "n": n}})
    if not verdict.ok:
        return verdict
    table = np.loadtxt(io.StringIO(doc["csv_inline"]), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n, 5):
        verdict.fail(f"table shape {table.shape}, expected ({n}, 5)")
        return verdict
    x = table[:, 0]
    if np.max(np.abs(x - np.linspace(0.0, hi, n))) > 1e-12 * hi:
        verdict.fail(f"x column is not the uniform grid of {n} points on [0, {hi}]")
        return verdict
    if abs(table[0, 1]) > 0.0 or x[0] != 0.0:
        verdict.fail("W(0) must be exactly 0 at x = 0")
    model = JumpDiffusion(*jd)
    w = model.w(q, x[1:])
    wanted = {"W": w, "Wprime": model.w_prime(q, x[1:]), "Z": model.z(q, x[1:]), "Zprime": q * w}
    for col, (name, want) in enumerate(wanted.items(), start=1):
        verdict.compare(name, table[1:, col], want, TABLE_TOL[name])
    return verdict


def check_mc_verify(doc: dict, seed: int, q: float, spec: tuple, paths: int, dt: float) -> Verdict:
    """Brownian motion ``bm:0,1`` killed at rate ``q``, exit from ``spec = (b, x, a)``.

    The deterministic side must match the sinh closed forms, the Monte Carlo
    z-score gate must pass with no censored path, and each standard error
    must be the one ``paths`` independent paths give: the per-path variance
    follows from the closed forms at ``2 q``.
    """
    b, x, a = spec
    echo = {"model": {"family": "brownian_drift", "mu": 0.0, "sigma": 1.0},
            "spec": {"b": b, "x": x, "a": a}, "potential": f"const:{q:g}",
            "mc_config": {"paths": paths, "dt": dt, "seed": seed}}
    verdict = _common(doc, "mc-verify", echo)
    if not verdict.ok:
        return verdict
    up, down = brownian_exit(0.0, 1.0, q, b, x, a)
    up2, down2 = brownian_exit(0.0, 1.0, 2.0 * q, b, x, a)  # second moments
    p_up, _ = brownian_exit(0.0, 1.0, 0.0, b, x, a)
    rows = {row["estimand"]: row for row in doc["report"]}
    for key, mean, second in (("up_laplace", up, up2), ("down_value", down, down2),
                              ("p_up", p_up, p_up)):
        if key not in rows:
            verdict.fail(f"report lacks {key}")
            continue
        verdict.compare(key, rows[key]["deterministic"], mean, MC_DET_TOL)
        se = math.sqrt((second - mean * mean) / paths)
        if not abs(rows[key]["mc_se"] / se - 1.0) <= MC_SE_TOL:
            verdict.fail(f"{key}: mc_se {rows[key]['mc_se']:.4g} is not the {se:.4g} "
                         f"of {paths} paths")
    if doc.get("pass") is not True:
        verdict.fail("Monte Carlo z-score gate did not pass")
    if doc.get("n_censored") != 0:
        verdict.fail(f"n_censored is {doc.get('n_censored')}, expected 0")
    return verdict


def parse_document(stdout: str):
    """The CLI prints one indented JSON document; ``None`` when it does not."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None

