"""Import layering: the package root and the algebra load only what they use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from qcplane import algebra

WINDOW_LAYERS = ("matrixops", "qnormal", "represent", "bott", "cli")


def _loaded_after(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing module."""
    script = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    return set(json.loads(done.stdout))


def test_the_package_root_loads_no_numpy():
    assert "numpy" not in _loaded_after("qcplane")


def test_the_algebra_loads_no_window_model():
    # the crossed product stands on its own; window models represent it
    loaded = _loaded_after("qcplane.algebra")
    assert "qcplane.ratfunc" in loaded
    assert not loaded & {f"qcplane.{m}" for m in WINDOW_LAYERS}


def test_the_algebra_builds_no_pair_of_its_own():
    # ratfunc alone writes the (num, den) layout: algebra imports no piece of it
    tree = ast.parse(Path(algebra.__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "ratfunc" and node.level == 1
             for alias in node.names}
    assert "RationalFunction" in names
    assert not names & {"_ONE", "_poly", "_canon", "MAX_POWER_DEGREE", "_once"}
