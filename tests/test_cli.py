"""CLI exit codes and report rows."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from snlpscale import Estimate
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
    # every outer node lies within ten outer steps of b
    ["exit", "--model", "bm:0,1", "--b", "0", "--x", "0.01", "--a", "1",
     "--grid-outer", "5", "--grid-inner", "16"],
    # one outer node clears the guard, too few to extrapolate iota from
    ["exit", "--model", "bm:0,1", "--b", "0", "--x", "0.62", "--a", "1",
     "--potential", "const:0.5", "--grid-outer", "5", "--grid-inner", "16"],
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
])
def test_values_the_library_rejects_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


MC_VERIFY = ["mc-verify", *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5",
             "--paths", "200", "--dt", "1e-3"]


def test_mc_verify_passes_with_exit_zero(capsys):
    assert main([*MC_VERIFY, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 5
    assert doc["pass"] is True
    assert doc["diagnostics"]["converged"] is True
    counts = doc["diagnostics"]["mc"]
    assert sorted(counts) == ["chunks", "passes", "path_steps", "steps", "sup_tracked",
                              "uniforms"]
    assert counts["chunks"] == 1
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


def test_mc_verify_solves_while_the_workers_step(monkeypatch, capsys):
    # the deterministic side runs in the parent after the workers start, and
    # the document is the one of a run in process
    from snlpscale import cli, mc

    solve, seen, docs = cli.evaluate_exit, [], []

    def watched(*args, **kwargs):
        seen.append((os.getpid(), len(multiprocessing.active_children())))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_exit", watched)
    for workers in (2, 1):
        monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: workers)
        assert main([*MC_VERIFY, "--seed", "3"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    assert seen[0][0] == seen[1][0] == os.getpid()
    assert seen[0][1] > 0 and seen[1][1] == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flag,config_seed,want", [
    (None, None, 5),
    (None, 4, 4),
    (3, 4, 3),
])
def test_seed_precedence(flag, config_seed, want, tmp_path, monkeypatch, capsys):
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


def _mc_config_of(argv, capsys, config_text=None, tmp_path=None):
    """``mc_config`` of an ``mc-verify`` run, with ``config_text`` as its config file."""
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        argv = [*argv, "--config", str(config)]
    assert main([*MC_VERIFY, "--seed", "3", *argv]) == 0
    return json.loads(capsys.readouterr().out)["mc_config"]


@pytest.mark.parametrize("flag,config_text,want", [
    ([], None, True),
    (["--no-bridge"], None, False),
    ([], "bridge = off\n", False),
    ([], "bridge = YES\n", True),
    (["--bridge"], "bridge = off\n", True),
    (["--no-bridge"], "bridge = on\n", False),
], ids=["default", "flag-off", "config-off", "config-YES", "flag-over-config-off",
        "flag-off-over-config-on"])
def test_bridge_from_flag_or_config(flag, config_text, want, tmp_path, capsys):
    assert _mc_config_of(flag, capsys, config_text, tmp_path)["bridge"] is want


@pytest.mark.parametrize("spelling", ["flase", "", "2", "y"])
def test_unknown_true_false_spelling_is_a_usage_error(spelling, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"bridge = {spelling}\n")
    assert main([*MC_VERIFY, "--config", str(config)]) == 2
    assert "bad value for 'bridge'" in capsys.readouterr().err


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
