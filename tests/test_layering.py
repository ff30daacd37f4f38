"""Import layering and export lists of the library.

The Monte Carlo engine stays independent of the deterministic solver it
cross-checks, and the runtime dependency is numpy alone; both are read from
the source with ``ast``.  The process-pool machinery is imported only by a
Monte Carlo run that starts workers.  No module reads the environment, so a
stray variable cannot change a result, and no module but ``potentials``
names ``UnivariatePotential``: every solver takes the bivariate type.  Every
name a submodule exports is re-exported by the package, ``MCConfig`` holds
the step, the path count and the seed alone, and each Monte Carlo result
holds its run's counts in one ``diagnostics`` dict.
"""

import ast
import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "snlpscale"
MODULES = sorted(SRC.glob("*.py"))


def _imports(path):
    """``(module, name)`` for every import; ``name`` is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name


def test_mc_imports_only_exit_spec_from_generalized():
    from_generalized = {
        (module, name)
        for module, name in _imports(SRC / "mc.py")
        if module.endswith("generalized") or name == "generalized"
    }
    assert from_generalized == {(".generalized", "ExitSpec")}


def test_mc_imports_nothing_from_the_solver():
    solver = {"scale", "volterra"}
    assert not [
        (module, name)
        for module, name in _imports(SRC / "mc.py")
        if module.split(".")[-1] in solver or name in solver
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "potentials"],
                         ids=lambda p: p.name)
def test_only_the_potentials_module_names_the_univariate_potential(path):
    # the solvers take one potential type, F(s, x), and read each slice off it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {name for _, name in _imports(path)}
    assert "UnivariatePotential" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_imports_only_numpy_and_the_standard_library(path):
    assert MODULES
    allowed = {"numpy", "snlpscale", ""} | set(sys.stdlib_module_names)
    # a relative import's top-level name is "", the package itself
    assert not [m for m, _ in _imports(path) if m.split(".")[0] not in allowed]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_reads_no_environment_variable(path):
    reads = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in reads
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    ]
    assert not [name for module, name in _imports(path) if module == "os" and name in reads]


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, snlpscale.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_submodule_exports_resolve_and_reach_the_package(path):
    import snlpscale

    module = importlib.import_module(f"snlpscale.{path.stem}")
    exports = getattr(module, "__all__", ())
    assert [name for name in exports if not hasattr(module, name)] == []
    assert [name for name in exports if name not in snlpscale.__all__] == []


def test_package_exports_resolve():
    import snlpscale

    assert [name for name in snlpscale.__all__ if not hasattr(snlpscale, name)] == []


def test_mc_config_holds_the_step_the_path_count_and_the_seed():
    # one stepper: the bridge correction is always on, and the time cap is a
    # fixed multiple of (a-b)^2 / sigma^2
    from snlpscale import MCConfig

    assert [f.name for f in fields(MCConfig)] == ["dt", "n_paths", "seed"]


def test_mc_results_hold_the_run_counts_in_one_diagnostics_dict():
    # a new count of the run lands in ``diagnostics`` and in no result field
    from snlpscale import ConditionalMCResult, Estimate, ExitMCResult, OccupationMCResult

    def names(cls):
        return {f.name for f in fields(cls)}

    for cls in (ExitMCResult, ConditionalMCResult, OccupationMCResult):
        assert "diagnostics" in names(cls)
    from snlpscale.mc import _ExitState

    assert _ExitState.COUNTS == ("passes", "steps", "path_steps", "uniforms", "half_steps")
    counts = set(_ExitState.COUNTS) | {"chunks", "sup_tracked", "levels"}
    assert not counts & names(ExitMCResult)
    assert "elapsed" not in names(Estimate)
