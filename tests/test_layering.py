"""Import layering of the library, read from the source with ``ast``.

The Monte Carlo engine stays independent of the deterministic solver it
cross-checks, and the runtime dependency is numpy alone.  The process-pool
machinery is imported only by a Monte Carlo run that starts workers.
"""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_imports_only_numpy_and_the_standard_library(path):
    assert MODULES
    allowed = {"numpy", "snlpscale", ""} | set(sys.stdlib_module_names)
    # a relative import's top-level name is "", the package itself
    assert not [m for m, _ in _imports(path) if m.split(".")[0] not in allowed]


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, snlpscale.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"
