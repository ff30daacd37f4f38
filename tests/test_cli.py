"""CLI exit codes and report rows."""

import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from snlpscale import Estimate, cli, make_brownian, make_exp_jump_diffusion
from snlpscale.cli import main, verify_report

BM_SPEC = ["--model", "bm:0,1", "--b", "0", "--x", "0.5", "--a", "1"]
SMALL_GRID = ["--grid-outer", "9", "--grid-inner", "32"]


@pytest.mark.parametrize("command", ["conditional", "local-time"])
@pytest.mark.parametrize("bad_flag", [
    ["--paths", "50"],
    ["--paths", "200", "--dt", "0"],
    # a NaN step never exits or censors a path, so the run would not end
    ["--paths", "200", "--dt", "nan"],
    ["--paths", "200", "--dt=inf"],
])
def test_bad_mc_flags_are_usage_errors(command, bad_flag, capsys):
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", *bad_flag]
    assert main(argv) == 2
    assert "--paths/--dt" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--b", "5"], ["--x", "9"], ["--grid-outer", "7"]])
def test_scale_table_rejects_exit_problem_flags(flag, capsys):
    argv = ["scale-table", "--model", "bm:0,1", "--a", "1", "--grid-inner", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exit", "conditional", "local-time"])
def test_only_the_commands_that_write_a_csv_take_the_flag(command, capsys):
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--csv", "out.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


@pytest.mark.parametrize("command,argv,flag", [
    ("exit", [*BM_SPEC, *SMALL_GRID], "--out"),
    ("scale-table", ["--model", "bm:0,1", "--a", "1"], "--csv"),
    ("mc-verify", [*BM_SPEC, *SMALL_GRID, "--paths", "200", "--dt", "1e-3"], "--csv"),
])
def test_an_unwritable_output_is_a_usage_error_before_the_run(command, argv, flag, tmp_path,
                                                             monkeypatch, capsys):
    # reported as --config reports an unreadable file: no solve and no path
    # runs first, and no traceback
    for name in ("evaluate_exit", "run_exit_mc", "make_scale_table"):
        monkeypatch.setattr(cli, name, None)
    path = str(tmp_path / "missing" / "out")
    assert main([command, *argv, flag, path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: cannot write {path}: ")
    assert captured.out == ""


def test_out_holds_the_document_stdout_would(tmp_path, capsys):
    argv = ["exit", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "doc.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == printed


FAR_SPEC = ["--model", "bm:0,1", "--b", "0", "--x", "1.5", "--a", "2"]
# refinement from 5/16 stalls at last_delta ~ 7e-6 after four doublings
UNCONVERGED = [*FAR_SPEC, "--potential", "reflected:0.5",
               "--grid-outer", "5", "--grid-inner", "16"]


@pytest.mark.parametrize("command,argv", [
    ("exit", UNCONVERGED),
    ("mc-verify", [*UNCONVERGED, "--paths", "200", "--dt", "1e-3", "--seed", "3"]),
    # the jump at 1.7 stalls refinement from 9/16 at last_delta ~ 1.9e-4
    ("local-time", [*FAR_SPEC, "--potential", "level:1,1.7", "--grid-outer", "9",
                    "--grid-inner", "16"]),
], ids=["exit", "mc-verify", "local-time"])
def test_unconverged_refinement_exits_one_with_document(command, argv, capsys):
    assert main([command, *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == command
    assert doc["diagnostics"]["converged"] is False


def test_converged_local_time_exits_zero_with_diagnostics(capsys):
    assert main(["local-time", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["converged"] is True


def test_zero_standard_error_row_fails_without_zscore():
    report = verify_report(
        {"p_up": 0.5, "exact": 1.0},
        {"p_up": Estimate(mean=1.0, std_error=0.0, n=200),
         "exact": Estimate(mean=1.0, std_error=0.0, n=200)},
    )
    rows = {r["estimand"]: r for r in report["rows"]}
    assert rows["p_up"]["zscore"] is None
    assert rows["p_up"]["pass"] is False
    assert rows["exact"]["zscore"] == 0.0
    assert rows["exact"]["pass"] is True
    assert report["pass"] is False


@pytest.mark.parametrize("command,mc_key", [("conditional", "mc_bins"), ("local-time", "mc")])
def test_config_paths_turn_on_monte_carlo(command, mc_key, tmp_path, capsys):
    config = tmp_path / "mc.cfg"
    config.write_text("paths = 200\ndt = 1e-3\nseed = 3\n")
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", "--config", str(config)]
    main(argv)
    assert mc_key in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["conditional", "local-time"])
@pytest.mark.parametrize("key,value", [("dt", "0.5"), ("seed", "4")])
@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
def test_a_step_or_seed_without_a_path_count_is_a_usage_error(command, key, value, in_config,
                                                              tmp_path, capsys):
    # without a path count the command runs no Monte Carlo, so the value
    # would set nothing
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"]
    if in_config:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{key}", value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: --{key}: ")


EXIT_RUN = {"model": "bm:0,1", "b": "0", "x": "0.5", "a": "1", "grid_outer": "9",
            "grid_inner": "32", "potential": "const:0.5"}
# the cheapest run of a command that reads each key
RUNS = {
    "scale-table": {"model": "bm:0,1", "a": "1", "grid_inner": "32"},
    "exit": EXIT_RUN,
    "conditional": {**EXIT_RUN, "paths": "200", "dt": "1e-3", "seed": "3"},
}
# each config key: the command that reads it, and a value other than its default
CONFIG_KEYS = {
    "model": ("exit", "jd:0,1,1,0.5"),
    "b": ("exit", "0.25"),
    "x": ("exit", "0.75"),
    "a": ("exit", "1.25"),
    "grid_outer": ("exit", "17"),
    "grid_inner": ("exit", "64"),
    "potential": ("exit", "reflected:0.5"),
    "g": ("exit", "identity"),
    "q": ("scale-table", "0.5"),
    "paths": ("conditional", "300"),
    "dt": ("conditional", "2e-3"),
    "seed": ("conditional", "4"),
}


def _flag_args(values: dict) -> list:
    return [arg for key, value in values.items() for arg in (f"--{key.replace('_', '-')}", value)]


@pytest.mark.parametrize("key", sorted(set(cli._FLAGS) - {"csv", "out", "config"}))
def test_a_config_line_and_a_flag_give_the_same_document(key, tmp_path, capsys):
    command, value = CONFIG_KEYS[key]
    rest = _flag_args({k: v for k, v in RUNS[command].items() if k != key})
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    runs = []
    for argv in ([*rest, *_flag_args({key: value})], [*rest, "--config", str(config)]):
        runs.append((main([command, *argv]), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1].out)["command"] == command


@pytest.mark.parametrize("command", ["conditional", "local-time"])
def test_zero_paths_is_a_usage_error(command, capsys):
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", "--paths", "0"]
    assert main(argv) == 2
    assert "--paths/--dt" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exit", *BM_SPEC, "--grid-outer", "4"],
    ["conditional", *BM_SPEC, "--grid-outer", "4"],
    ["conditional", *BM_SPEC, "--grid-outer", "8"],
    ["exit", *BM_SPEC, "--grid-inner", "8"],
    ["local-time", *BM_SPEC, "--grid-inner", "8"],
    ["scale-table", "--model", "bm:0,1", "--a", "1", "--grid-inner", "1"],
    # the library alone checks q and the table limit; NaN passes ``q < 0``
    ["scale-table", "--model", "bm:0,1", "--q", "nan", "--a", "1"],
    ["scale-table", "--model", "bm:0,1", "--q", "-1", "--a", "1"],
    ["scale-table", "--model", "bm:0,1", "--a", "nan"],
    ["scale-table", "--model", "bm:0,1", "--a", "0"],
    ["exit", "--model", "bm:nan,1", "--b", "0", "--x", "0.5", "--a", "1"],
    ["exit", "--model", "bm:0,inf", "--b", "0", "--x", "0.5", "--a", "1"],
    ["exit", "--model", "jd:0,1,1,inf", "--b", "0", "--x", "0.5", "--a", "1"],
    ["exit", "--model", "bm:0,1", "--b=-inf", "--x", "0.5", "--a", "1"],
    # a NaN threshold would act as the zero potential
    ["exit", *BM_SPEC, "--potential", "level:1,nan"],
    ["exit", *BM_SPEC, "--potential", "indicator:1,nan"],
    ["exit", *BM_SPEC, "--g", "const:nan"],
    # the bridge correction has no switch: argparse rejects the flags
    ["mc-verify", *BM_SPEC, "--bridge"],
    ["mc-verify", *BM_SPEC, "--no-bridge"],
])
def test_values_the_library_rejects_are_usage_errors(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse exits itself on an unknown flag
        status = exc.code
        assert "error: unrecognized arguments: --" in capsys.readouterr().err
    else:
        assert capsys.readouterr().err.startswith("error: ")
    assert status == 2


@pytest.mark.parametrize("x,potential", [("0.01", "const:0"), ("0.62", "const:0.5")])
def test_outer_nodes_near_the_barrier_are_solved(x, potential, capsys):
    # every outer node (x = 0.01), or all but one (x = 0.62), lies within ten
    # outer steps of b; each is solved, so the run reports its refinement
    argv = ["exit", "--model", "bm:0,1", "--b", "0", "--x", x, "--a", "1",
            "--potential", potential, "--grid-outer", "5", "--grid-inner", "16"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" not in doc
    assert doc["diagnostics"]["converged"] is False
    if potential == "const:0.5":
        # delta = sqrt(2 * 0.5) = 1 on [0, 1]
        xv = float(x)
        assert doc["up_laplace"] == pytest.approx(math.sinh(xv) / math.sinh(1.0), abs=1e-5)
        assert doc["down_value"] == pytest.approx(math.sinh(1.0 - xv) / math.sinh(1.0), abs=1e-5)


def test_numerical_failure_exits_one_with_error_document(capsys):
    # W^(q)(200) overflows under the strong downward drift
    argv = ["exit", "--model", "bm:-5,1", "--b", "0", "--x", "150", "--a", "200",
            "--potential", "const:0.5", "--grid-outer", "5", "--grid-inner", "16"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "exit"
    assert doc["error"] == "OverflowError"


def test_conditional_bins_pair_with_the_documents_curve(capsys):
    argv = ["conditional", *BM_SPEC, "--potential", "const:0.5",
            "--grid-outer", "33", "--grid-inner", "256", "--paths", "200", "--seed", "3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    *bins, up_bin = doc["mc_bins"]
    for bn in bins:
        want = np.interp(bn["midpoint"], doc["z"], doc["conditional_laplace"])
        assert bn["deterministic"] == want
    assert up_bin["deterministic"] == doc["conditional_laplace"][-1]


def test_conditional_bins_divide_each_numerator_by_the_bins_mass(monkeypatch, capsys):
    # under the downward drift no path of 200 reaches the top bins or a, so
    # those are empty and write null, not 0 +- 0
    from snlpscale import ExitSpec, supremum_atom, supremum_mass

    runs, run = [], cli.conditional_mc

    def watched(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "conditional_mc", watched)
    argv = ["conditional", "--model", "bm:-2,1", "--b", "0", "--x", "0.5", "--a", "2",
            "--grid-outer", "129", "--grid-inner", "64", "--potential", "const:0.5",
            "--paths", "200", "--dt", "1e-3", "--seed", "3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    (res,) = runs
    model, spec = make_brownian(-2.0, 1.0), ExitSpec(0.0, 0.5, 2.0)
    masses = [supremum_mass(model, spec, bn.lo, bn.hi) for bn in res.bins]
    assert math.fsum(masses) + supremum_atom(model, spec) == pytest.approx(1.0, rel=1e-12)
    rows = doc["mc_bins"]
    assert [row["n"] for row in rows] == [bn.n for bn in res.bins + [res.up_bin]]
    assert sum(row["n"] for row in rows) == 200
    assert len(doc["diagnostics"]["mc"]["levels"]) == 1 + 5
    for row, bn, mass in zip(rows, res.bins + [res.up_bin], masses + [doc["supremum_atom"]]):
        assert row["empty"] is (bn.n == 0)
        if row["empty"]:
            assert row["mc_mean"] is None and row["mc_se"] is None
        else:
            assert row["mc_mean"] == bn.numerator.mean / mass
            assert row["mc_se"] == bn.numerator.std_error / mass
    assert rows[-1]["empty"] and rows[0]["n"] > 0


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("argv", [
    ["scale-table", "--model", "jd:2,1,1,0.5", "--q", "0.5", "--a", "1", "--grid-inner", "9"],
    ["exit", *BM_SPEC, *SMALL_GRID, "--potential", "reflected:0.5"],
    ["exit", "--model", "bm:-5,1", "--b", "0", "--x", "150", "--a", "200",
     "--potential", "const:0.5", "--grid-outer", "5", "--grid-inner", "16"],
    ["conditional", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"],
    # the run of the test above, whose top bins and up bin are empty
    ["conditional", "--model", "bm:-2,1", "--b", "0", "--x", "0.5", "--a", "2",
     "--grid-outer", "129", "--grid-inner", "64", "--potential", "const:0.5",
     "--paths", "200", "--dt", "1e-3", "--seed", "3"],
    ["local-time", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"],
    ["local-time", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", "--paths", "200"],
    ["mc-verify", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", "--paths", "200"],
    # the jump family; its coarsest run is a plain jump pass
    ["mc-verify", "--model", "jd:2,1,1,0.5", "--b", "0", "--x", "0.5", "--a", "2",
     "--grid-outer", "33", "--grid-inner", "64", "--potential", "reflected:0.5",
     "--paths", "200", "--dt", "1e-3"],
    ["conditional", "--model", "jd:2,1,1,0.5", "--b", "0", "--x", "0.5", "--a", "2",
     "--grid-outer", "33", "--grid-inner", "64", "--potential", "reflected:0.5",
     "--paths", "200", "--dt", "1e-3"],
    ["local-time", "--model", "jd:2,1,1,0.5", "--b", "0", "--x", "0.5", "--a", "2",
     "--grid-outer", "33", "--grid-inner", "64", "--potential", "level:1,0.6",
     "--paths", "200", "--dt", "1e-3"],
], ids=["scale-table", "exit", "exit-error", "conditional", "conditional-empty-bins",
        "local-time", "local-time-mc", "mc-verify", "mc-verify-jd", "conditional-jd",
        "local-time-jd"])
def test_every_document_is_strict_json(argv, capsys):
    # NaN and Infinity are not JSON (RFC 8259); jq and JSON.parse reject them
    main(argv)
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["command"] == argv[0]


@pytest.mark.parametrize("text,model", [
    ("bm:-2,1.5", make_brownian(-2.0, 1.5)),
    ("jd:2,1,1,0.5", make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)),
], ids=["bm", "jd"])
def test_parse_model_builds_the_librarys_model(text, model):
    assert cli.parse_model(text) == model


MC_VERIFY = ["mc-verify", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5",
             "--paths", "200", "--dt", "1e-3"]


def test_mc_verify_passes_with_exit_zero(capsys):
    assert main([*MC_VERIFY, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 10
    assert doc["mc_config"] == {"dt": 1e-3, "paths": 200, "seed": 3}
    assert doc["pass"] is True
    assert doc["diagnostics"]["converged"] is True
    counts = doc["diagnostics"]["mc"]
    assert sorted(counts) == ["censored", "chunks", "half_steps", "levels", "passes",
                              "path_steps", "steps", "sup_tracked", "uniforms"]
    assert counts["chunks"] == 1
    assert counts["censored"] == doc["n_censored"] == 0
    assert 0 < counts["passes"] < counts["steps"]
    assert 200 * counts["steps"] >= counts["path_steps"] >= 200
    # nothing reads the supremum of const:0.5 with the weight one
    assert counts["sup_tracked"] is False
    assert 0 < counts["uniforms"] < counts["path_steps"]


def test_mc_verify_tracks_the_supremum_for_a_weight_of_it(capsys):
    # a tracked run also draws the maxima of the steps within reach of the
    # supremum, so it draws more uniforms than the untracked one
    uniforms = {}
    for g in ("one", "identity"):
        assert main([*MC_VERIFY, "--seed", "3", "--g", g]) == 0
        counts = json.loads(capsys.readouterr().out)["diagnostics"]["mc"]
        assert counts["sup_tracked"] is (g == "identity")
        uniforms[g] = counts["uniforms"]
    assert 0 < uniforms["one"] < uniforms["identity"]


def test_mc_verify_keeps_what_the_benchmark_check_reads(monkeypatch, capsys):
    # bench/checks.py::check_mc_verify reads these parts of the document, and
    # the benchmark counts the steps of a one-chunk run in process: a run of
    # one chunk with levels starts no worker
    from snlpscale import cli

    solve, children = cli.evaluate_exit, []

    def watched(*args, **kwargs):
        children.append(len(multiprocessing.active_children()))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_exit", watched)
    assert main([*MC_VERIFY, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "error" not in doc and doc["command"] == "mc-verify"
    assert doc["model"] == {"family": "brownian_drift", "mu": 0.0, "sigma": 1.0}
    assert doc["spec"] == {"b": 0.0, "x": 0.5, "a": 1.0}
    assert doc["potential"] == "const:0.5"
    assert doc["mc_config"] == {"dt": 1e-3, "paths": 200, "seed": 3}
    assert doc["n_censored"] == 0
    assert sorted(row["estimand"] for row in doc["report"]) == ["down_value", "p_up",
                                                               "up_laplace"]
    for row in doc["report"]:
        assert isinstance(row["deterministic"], float) and row["mc_se"] > 0.0
    assert doc["pass"] is True and doc["diagnostics"]["converged"] is True
    assert len(doc["diagnostics"]["mc"]["levels"]) == 1 + 3  # L = 3 at dt 1e-3 on a band of 1
    assert children == [0]


def test_mc_verify_reports_each_level_and_the_dt_bias(capsys):
    # L = 3: the coarsest run at 8 dt, then the pairs at dt, 2 dt and 4 dt;
    # the estimate is the sum of the level means, and bias_dt is the level-1
    # pairs' coarse minus fine
    assert main([*MC_VERIFY, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    levels = doc["diagnostics"]["mc"]["levels"]
    assert [level["dt"] for level in levels] == [8e-3, 1e-3, 2e-3, 4e-3]
    assert [level["paths"] for level in levels] == [200, 256, 256, 256]
    assert sum(level["path_steps"] for level in levels) == doc["diagnostics"]["mc"]["path_steps"]
    for row in doc["report"]:
        name = row["estimand"]
        means = [level["mean"][name] for level in levels]
        variances = [level["variance"][name] for level in levels]
        assert row["mc_mean"] == pytest.approx(sum(means), rel=1e-12, abs=1e-15)
        assert row["mc_se"] == pytest.approx(
            math.sqrt(sum(v / level["paths"] for v, level in zip(variances, levels))), rel=1e-12)
        assert row["bias_dt"] == -means[1]
        assert row["bias_dt_se"] == pytest.approx(math.sqrt(variances[1] / 256), rel=1e-12)
    # a pair disagrees on the exit side only when its fine path leaves down at
    # a first half and the second half reaches a: a rise of the band's width
    # within one step, which no path here makes
    p_up = next(row for row in doc["report"] if row["estimand"] == "p_up")
    assert p_up["bias_dt"] == p_up["bias_dt_se"] == 0.0


def test_mc_verify_with_csv_runs_the_dt_paths(tmp_path, capsys):
    # the CSV rows are the dt scheme's paths, so the run has no levels
    out = tmp_path / "paths.csv"
    assert main([*MC_VERIFY, "--seed", "3", "--csv", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "levels" not in doc["diagnostics"]["mc"]
    assert all(row["bias_dt"] is None and row["bias_dt_se"] is None for row in doc["report"])
    assert len(out.read_text().splitlines()) == 1 + 200


def test_mc_verify_documents_do_not_depend_on_the_worker_count(monkeypatch, capsys):
    # two chunks of 100 paths, each with its levels, in process or on workers
    from snlpscale import mc

    monkeypatch.setattr(mc, "_CHUNK", 100)
    docs = []
    for workers in (1, 2):
        monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: workers)
        assert main([*MC_VERIFY, "--seed", "3"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    counts = json.loads(docs[0])["diagnostics"]["mc"]
    assert counts["chunks"] == 2
    assert [level["paths"] for level in counts["levels"]] == [200, 512, 512, 512]


MC_RUN = [*BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", "--paths", "200", "--dt", "1e-3",
          "--seed", "3"]
# each Monte Carlo command and the deterministic solver it calls
MC_COMMANDS = {
    "mc-verify": "evaluate_exit",
    "conditional": "conditional_curve",
    "local-time": "local_time_laplace",
}


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
def test_each_mc_command_solves_while_the_workers_step(command, monkeypatch, capsys):
    # the deterministic side runs in the parent after the workers start, and
    # the document is the one of a run in process
    from snlpscale import cli, mc

    solve, seen, docs = getattr(cli, MC_COMMANDS[command]), [], []

    def watched(*args, **kwargs):
        seen.append((os.getpid(), len(multiprocessing.active_children())))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, MC_COMMANDS[command], watched)
    for workers in (2, 1):
        monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: workers)
        assert main([command, *MC_RUN]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    assert seen[0][0] == seen[1][0] == os.getpid()
    assert seen[0][1] > 0 and seen[1][1] == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
def test_each_mc_command_writes_the_run_diagnostics(command, capsys):
    from snlpscale.mc import _ExitState

    assert main([command, *MC_RUN]) == 0
    counts = json.loads(capsys.readouterr().out)["diagnostics"]["mc"]
    # each command telescopes over L = 3 levels at dt 1e-3 on a band of 1
    assert sorted(counts) == sorted(_ExitState.COUNTS + ("chunks", "censored", "sup_tracked",
                                                        "levels"))
    assert [level["dt"] for level in counts["levels"]] == [8e-3, 1e-3, 2e-3, 4e-3]
    assert counts["chunks"] == 1 and counts["censored"] == 0
    # only the conditional law reads the supremum
    assert counts["sup_tracked"] is (command == "conditional")


def test_conditional_without_monte_carlo_has_no_diagnostics(capsys):
    assert main(["conditional", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5"]) == 0
    assert "diagnostics" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("workers", [2, 1])
def test_a_solve_that_fails_while_the_workers_step_exits_one(workers, monkeypatch, capsys):
    # the error document is written once the workers are gone
    from snlpscale import cli, mc

    alive = []

    def failing(*args, **kwargs):
        alive.append(len(multiprocessing.active_children()))
        raise ArithmeticError("solve failed")

    monkeypatch.setattr(cli, "local_time_laplace", failing)
    monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: workers)
    assert main(["local-time", *MC_RUN]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["command"], doc["error"], doc["detail"]) == (
        "local-time", "ArithmeticError", "solve failed")
    assert len(alive) == 1 and (alive[0] > 0) is (workers > 1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flag,config_seed,want", [
    (None, None, 0),
    (None, 4, 4),
    (3, 4, 3),
])
def test_seed_precedence(flag, config_seed, want, tmp_path, monkeypatch, capsys):
    # the seed comes from the flag, then the config file, then 0; the
    # variable set here is not read
    monkeypatch.setenv("SNLP_SCALE_SEED", "5")
    argv = list(MC_VERIFY)
    if flag is not None:
        argv += ["--seed", str(flag)]
    if config_seed is not None:
        config = tmp_path / "seed.cfg"
        config.write_text(f"seed = {config_seed}\n")
        argv += ["--config", str(config)]
    main(argv)
    assert json.loads(capsys.readouterr().out)["mc_config"]["seed"] == want


@pytest.mark.parametrize("value", ["on", "off", "YES", "flase", ""])
def test_the_bridge_key_is_unknown_whatever_its_value(value, tmp_path, capsys):
    # the key once took a true/false spelling; now the value is never read
    config = tmp_path / "run.cfg"
    config.write_text(f"bridge = {value}\n")
    assert main([*MC_VERIFY, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bridge' on line 1" in err
    assert "mc-verify has no --bridge flag" in err


@pytest.mark.parametrize("text", ["grid_outer = 33\ngrid-inner = 32\ngrid-outer = 65\n",
                                  "grid_outer = 33\n# grid_outer = 9\n\ngrid_outer = 33\n"])
def test_a_repeated_config_key_is_a_usage_error(text, tmp_path, capsys):
    # the second line would override the first without a word, also when
    # the two spell the key differently
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert main(["exit", *BM_SPEC, *SMALL_GRID, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config: key ")
    assert "line 1" in err and f"line {len(text.splitlines())}" in err


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("grid-inner = 32\ngrid_outr = 33\n")
    assert main(["exit", *BM_SPEC, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'grid_outr'" in err
    assert "line 2" in err


@pytest.mark.parametrize("text,key,line", [
    ("grid-inner = 32\npaths = 200\n", "paths", 2),
    ("q = 0.5\n", "q", 1),
])
def test_config_key_without_a_flag_of_the_command_is_a_usage_error(text, key, line, tmp_path,
                                                                   capsys):
    # exit runs no Monte Carlo and solves at q = 0: a key it would ignore fails
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert main(["exit", *BM_SPEC, *SMALL_GRID, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err
    assert f"line {line}" in err
    assert f"exit has no --{key} flag" in err
