"""CI installs only the package and its test extra, so scipy, sympy and
mpmath may be missing there. A test may use them only through
pytest.importorskip, which skips where they are missing."""

import ast
from pathlib import Path

OPTIONAL = {"scipy", "sympy", "mpmath"}


def _optional_imports(source: str):
    """(line, module) of every import of an optional package in source
    other than pytest.importorskip: import and from-import statements, and
    __import__ / importlib.import_module calls on a string literal."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str) \
                and ast.unparse(node.func) in ("__import__", "importlib.import_module",
                                               "import_module"):
            names = [node.args[0].value]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.split(".")[0] in OPTIONAL)


def test_tests_import_optional_packages_only_through_importorskip():
    found = [(path.name, line, name)
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for line, name in _optional_imports(path.read_text())]
    assert found == []


def test_optional_import_finder():
    source = "\n".join([
        "import numpy, scipy.linalg",
        "from sympy import Matrix",
        "import importlib",
        "mp = importlib.import_module('mpmath')",
        "la = __import__('scipy')",
        "from . import sympy",
        "import pytest",
        "sp = pytest.importorskip('scipy')",
        "mpmath = pytest.importorskip('mpmath')",
    ])
    assert list(_optional_imports(source)) == [
        (1, "scipy.linalg"), (2, "sympy"), (4, "mpmath"), (5, "scipy")]
