"""Import layering: the package root and the algebra load only what they use."""

import json
import os
import subprocess
import sys

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
