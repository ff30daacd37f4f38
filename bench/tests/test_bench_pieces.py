"""Tests for the benchmark's own pieces: oracles, span arithmetic, names, checks."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from oracles import JumpDiffusion, brownian_exit  # noqa: E402
import workloads  # noqa: E402
from traced import layer_metrics, run_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
JD = JumpDiffusion(*workloads.JD)
SEED = 7


# ---------------------------------------------------------------------------
# Oracle formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_partial_fraction_w_has_the_right_laplace_transform(q):
    x = np.linspace(0.0, 40.0, 80001)
    for beta in (2.0, 5.0):
        vals = np.exp(-beta * x) * JD.w(q, x)
        h = x[1] - x[0]
        simpson = h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
        assert simpson == pytest.approx(1.0 / (JD.psi(beta) - q), rel=1e-9)


def test_partial_fraction_boundary_values_and_derivatives():
    q = 0.5
    assert JD.w(q, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert JD.w_prime(q, 0.0) == pytest.approx(2.0 / JD.sigma**2, rel=1e-12)
    assert JD.z(q, 0.0) == pytest.approx(1.0, abs=1e-14)
    x, h = np.linspace(0.2, 3.0, 15), 1e-5
    central = lambda f: (f(q, x + h) - f(q, x - h)) / (2 * h)  # noqa: E731
    np.testing.assert_allclose(central(JD.w), JD.w_prime(q, x), rtol=1e-8)
    np.testing.assert_allclose(central(JD.z), q * JD.w(q, x), rtol=1e-8)


def test_partial_fractions_refuse_a_double_root():
    # psi'(0+) = mu - rate * jump_mean = 0: the root 0 is double at q = 0
    with pytest.raises(ValueError, match="repeated roots"):
        JumpDiffusion(1.0, 1.0, 1.0, 1.0).w(0.0, 1.0)


def test_brownian_exit_solves_the_killed_boundary_problem():
    mu, sigma, q, b, a = 0.7, 1.3, 0.4, -0.5, 1.5
    h = 1e-4
    for side in (0, 1):
        f = lambda y: brownian_exit(mu, sigma, q, b, y, a)[side]  # noqa: E731
        for y in (-0.2, 0.3, 1.1):
            d2 = (f(y + h) - 2 * f(y) + f(y - h)) / h**2
            d1 = (f(y + h) - f(y - h)) / (2 * h)
            assert 0.5 * sigma**2 * d2 + mu * d1 - q * f(y) == pytest.approx(0.0, abs=1e-5)
    eps = 1e-12
    assert brownian_exit(mu, sigma, q, b, a - eps, a)[0] == pytest.approx(1.0)
    assert brownian_exit(mu, sigma, q, b, b + eps, a)[1] == pytest.approx(1.0)


def test_brownian_exit_without_killing():
    up, down = brownian_exit(0.0, 1.0, 0.0, 0.0, 0.5, 2.0)
    assert (up, down) == (0.25, 0.75)
    up, down = brownian_exit(0.3, 1.0, 0.0, 0.0, 0.5, 2.0)
    want = (1 - math.exp(-0.6 * 0.5)) / (1 - math.exp(-0.6 * 2.0))  # scale function of BM
    assert up == pytest.approx(want, rel=1e-12)
    assert up + down == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    rows = [
        ["cli.main", "cli", 0.0, 10.0, -1],
        ["generalized.evaluate_exit", "generalized", 1.0, 9.0, 0],
        ["volterra.solve_w_z_f", "volterra", 2.0, 5.0, 1],
        ["scale._wq_array", "scale", 3.0, 4.0, 2],
        ["scale.wq", "scale", 6.0, 8.0, 1],
        ["scale._talbot_array", "scale", 6.5, 7.5, 4],
    ]
    selfs = spans.self_times(rows)
    assert selfs == {"cli": 2.0, "generalized": 3.0, "volterra": 2.0, "scale": 3.0}
    assert sum(selfs.values()) == 10.0  # self times add up to the root span


def test_tracer_records_parents_from_nesting():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.enter("cli.main", "cli")
    child = tracer.enter("scale.wq", "scale")
    tracer.exit(child)
    sibling = tracer.enter("models.phi", "models")
    tracer.exit(sibling)
    tracer.exit(root)
    assert [row[4] for row in tracer.spans] == [-1, root, root]
    assert spans.self_times(tracer.spans) == {"cli": 3.0, "scale": 1.0, "models": 1.0}


# ---------------------------------------------------------------------------
# Metric names and the benchmark definition
# ---------------------------------------------------------------------------


def test_metric_names_and_units_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert NAME.fullmatch("mc.tail_steps_frac") and not NAME.fullmatch("mc tail")
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
    expected = {m["name"] for m in SPEC["per_layer"] if m["name"].partition(".")[0] in spans.LAYERS}
    assert set(layer_map) == expected
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["flat_on"]) == set(WORKLOADS)


# ---------------------------------------------------------------------------
# Checks reject perturbed output
# ---------------------------------------------------------------------------


def _table_doc(n=workloads.TABLE_N, q=workloads.TABLE_Q, hi=workloads.TABLE_HI, mu=2.0):
    model = JumpDiffusion(mu, 1.0, 1.0, 0.5)
    x = np.linspace(0.0, hi, n)
    w = model.w(q, x)
    w[0] = 0.0
    rows = np.column_stack([x, w, model.w_prime(q, x), model.z(q, x), q * w])
    csv = "x,W,Wprime,Z,Zprime\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
    )
    return {"command": "scale-table", "model": checks.jd_model(mu, 1.0, 1.0, 0.5), "q": q,
            "grid": {"lo": 0.0, "hi": hi, "n": n}, "csv_inline": csv}


def _mc_doc(paths=workloads.MC_PATHS, dt=workloads.MC_DT, seed=SEED):
    """A passing mc-verify document; ``paths`` sets the standard errors."""
    q, (b, x, a) = workloads.MC_Q, workloads.MC_SPEC
    up, down = brownian_exit(0.0, 1.0, q, b, x, a)
    up2, down2 = brownian_exit(0.0, 1.0, 2 * q, b, x, a)
    p_up = (x - b) / (a - b)
    report = [
        {"estimand": name, "deterministic": det, "mc_mean": det,
         "mc_se": math.sqrt((second - det**2) / paths), "zscore": 0.0, "pass": True}
        for name, det, second in (("down_value", down, down2), ("p_up", p_up, p_up),
                                  ("up_laplace", up, up2))
    ]
    return {"command": "mc-verify", "model": {"family": "brownian_drift", "mu": 0.0, "sigma": 1.0},
            "spec": {"b": b, "x": x, "a": a}, "potential": "const:0.5",
            "mc_config": {"bridge": True, "dt": dt, "paths": paths, "seed": seed},
            "report": report, "pass": True, "n_censored": 0,
            "diagnostics": {"converged": True}}


def _perturb_table(doc):
    lines = doc["csv_inline"].splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-4))
    lines[10] = ",".join(cells)
    doc["csv_inline"] = "\n".join(lines) + "\n"


def _set(path, value):
    def apply(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return apply


def _replace(make):
    """Perturbation that swaps in a whole document of other inputs."""

    def apply(doc):
        doc.clear()
        doc.update(make())

    return apply


CASES = [
    ("scale-table-jd", _table_doc, _perturb_table),
    ("scale-table-jd", _table_doc, _set(["q"], 0.51)),
    # a table that follows its own echo but not the workload's arguments
    ("scale-table-jd", _table_doc, _replace(lambda: _table_doc(n=1025))),
    ("scale-table-jd", _table_doc, _replace(lambda: _table_doc(hi=2.0))),
    ("scale-table-jd", _table_doc, _replace(lambda: _table_doc(q=0.25))),
    ("scale-table-jd", _table_doc, _replace(lambda: _table_doc(mu=2.5))),
    ("mcverify-bm-const", _mc_doc, _set(["report", 2, "deterministic"], 0.1437)),
    ("mcverify-bm-const", _mc_doc, _set(["pass"], False)),
    ("mcverify-bm-const", _mc_doc, _set(["n_censored"], 3)),
    ("mcverify-bm-const", _mc_doc, _set(["diagnostics", "converged"], False)),
    ("mcverify-bm-const", _mc_doc, lambda d: d.update(error="InversionError", detail="x")),
    ("mcverify-bm-const", _mc_doc, _set(["spec", "x"], 0.6)),
    ("mcverify-bm-const", _mc_doc, _set(["potential"], "const:0.25")),
    # the configuration the workload asked for, echoed or visible in the errors
    ("mcverify-bm-const", _mc_doc, _set(["mc_config", "paths"], 50000)),
    ("mcverify-bm-const", _mc_doc, _set(["mc_config", "dt"], 1e-2)),
    ("mcverify-bm-const", _mc_doc, _set(["mc_config", "seed"], SEED + 1)),
    ("mcverify-bm-const", _mc_doc, _replace(lambda: {**_mc_doc(paths=75000),
                                                      "mc_config": _mc_doc()["mc_config"]})),
]


@pytest.mark.parametrize("workload, make, perturb", CASES)
def test_check_accepts_good_and_rejects_perturbed_output(workload, make, perturb):
    check = WORKLOADS[workload].check
    good = check(make(), SEED)
    assert good.ok, good.problems
    doc = make()
    perturb(doc)
    assert not check(doc, SEED).ok


def test_judge_rejects_missing_document_and_bad_exit_code():
    workload = WORKLOADS["mcverify-bm-const"]
    assert not workload.judge("Traceback ...", 1, SEED).ok
    assert workload.judge(json.dumps(_mc_doc()), 0, SEED).ok
    assert not workload.judge(json.dumps(_mc_doc()), 1, SEED).ok


# ---------------------------------------------------------------------------
# Wrapping the library
# ---------------------------------------------------------------------------


SMALL_MC = ["mc-verify", "--model", "bm:0,1", "--b", "0", "--x", "0.5", "--a", "2",
            "--potential", "const:0.5", "--paths", "400", "--dt", "1e-2", "--seed", "3",
            "--grid-outer", "33", "--grid-inner", "16"]


def test_traced_run_matches_untraced_and_accounts_for_its_time():
    from snlpscale import cli

    argv = SMALL_MC
    _, plain, code = run_cli(argv)
    originals = dict(vars(cli))
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    try:
        wall, traced, traced_code = run_cli(argv, tracer)
    finally:
        spans.uninstall(restore)
    assert vars(cli) == originals
    assert missing == []
    assert (traced, traced_code) == (plain, code)  # same numbers, MC included
    metrics = layer_metrics(tracer, set(), wall, wall)
    assert metrics["mc.steps"] > 0 and metrics["volterra.solves"] > 0
    assert metrics["mc.path_steps"] >= 400  # the first step moves every path
    assert metrics["generalized.outer_nodes"] == json.loads(plain)["diagnostics"]["outer_nodes"]
    assert -1e-9 < metrics["trace.unattributed_s"] < 1e-3 * max(wall, 1.0)


def test_missing_wrap_target_drops_only_its_layer():
    targets = spans.TARGETS + (spans.Target("snlpscale.volterra", "_renamed_march", "volterra"),)
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer, targets)
    spans.uninstall(restore)
    assert [t.attr for t in missing] == ["_renamed_march"]
    metrics = layer_metrics(tracer, {t.layer for t in missing}, 1.0, 1.0)
    assert not any(name.startswith("volterra.") for name in metrics)
    assert "scale.self_s" in metrics and "mc.steps" in metrics


def test_raising_counter_hook_drops_only_its_layer():
    def broken(tracer, args, kwargs, result):
        raise KeyError("signature changed")

    targets = tuple(t for t in spans.TARGETS if t.attr != "_march")
    targets += (spans.Target("snlpscale.volterra", "_march", "volterra", broken),)
    _, plain, code = run_cli(SMALL_MC)
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer, targets)
    try:
        wall, traced, traced_code = run_cli(SMALL_MC, tracer)
    finally:
        spans.uninstall(restore)
    assert missing == []
    assert (traced, traced_code) == (plain, code)
    assert tracer.broken == {"snlpscale.volterra._march": "volterra"}
    metrics = layer_metrics(tracer, set(tracer.broken.values()), wall, wall)
    assert not any(name.startswith("volterra.") for name in metrics)
    assert metrics["mc.steps"] > 0


def test_counting_rng_survives_a_call_it_does_not_expect():
    tracer = spans.Tracer()
    rng = spans._CountingRng(np.random.default_rng(0), tracer)
    assert np.isscalar(rng.standard_normal(None))
    assert tracer.broken == {"snlpscale.mc._chunk_rng": "mc"}
