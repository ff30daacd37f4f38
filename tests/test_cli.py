"""CLI exit codes and report rows."""

import json

import numpy as np
import pytest

from snlpscale import Estimate
from snlpscale.cli import main, verify_report

BM_SPEC = ["--model", "bm:0,1", "--b", "0", "--x", "0.5", "--a", "1"]
SMALL_GRID = ["--grid-outer", "9", "--grid-inner", "32"]


@pytest.mark.parametrize("command", ["conditional", "local-time"])
@pytest.mark.parametrize("bad_flag", [["--paths", "50"], ["--paths", "200", "--dt", "0"]])
def test_bad_mc_flags_are_usage_errors(command, bad_flag, capsys):
    argv = [command, *BM_SPEC, *SMALL_GRID, "--potential", "const:0.5", *bad_flag]
    assert main(argv) == 2
    assert "--paths/--dt" in capsys.readouterr().err


# refinement from 5/16 stalls at last_delta ~ 7e-6 after four doublings
UNCONVERGED = [
    "--model", "bm:0,1", "--b", "0", "--x", "1.5", "--a", "2",
    "--potential", "reflected:0.5", "--grid-outer", "5", "--grid-inner", "16",
]


@pytest.mark.parametrize("command,extra", [
    ("exit", []),
    ("mc-verify", ["--paths", "200", "--dt", "1e-3", "--seed", "3"]),
])
def test_unconverged_refinement_exits_one_with_document(command, extra, capsys):
    assert main([command, *UNCONVERGED, *extra]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == command
    assert doc["diagnostics"]["converged"] is False


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
    ["exit", *BM_SPEC, "--grid-inner", "8"],
    ["local-time", *BM_SPEC, "--grid-inner", "8"],
    ["scale-table", "--model", "bm:0,1", "--a", "1", "--grid-inner", "1"],
    # every outer node lies within ten outer steps of b
    ["exit", "--model", "bm:0,1", "--b", "0", "--x", "0.01", "--a", "1",
     "--grid-outer", "5", "--grid-inner", "16"],
])
def test_values_the_library_rejects_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert doc["pass"] is True
    assert doc["diagnostics"]["converged"] is True


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
