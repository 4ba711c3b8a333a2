"""Every Python file parses with the oldest grammar that pyproject.toml admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_with_the_oldest_supported_grammar():
    # requires-python = ">=3.10": a newer construct (say a PEP 695 type
    # alias) would break the oldest interpreter in the CI matrix
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    files = [path for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)
