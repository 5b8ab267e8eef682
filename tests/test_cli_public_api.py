"""The CLI is a client of the library: it reaches the coinwalk modules
through their public names only, so a private helper can change or go
without touching the command line."""

import ast
from pathlib import Path

import coinwalk

CLI = Path(coinwalk.__file__).with_name("cli.py")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str):
    """(line, dotted name) of every _-prefixed name that source imports from
    a coinwalk module and of every _-prefixed attribute it reads off one."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "coinwalk"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "coinwalk"):
            package = node.module in (None, "coinwalk")    # from . import walk
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"{node.module or ''}.{alias.name}"))
                elif package:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_cli_reads_no_private_name_of_a_coinwalk_module():
    assert _private_reads(CLI.read_text()) == []


def test_private_read_finder():
    source = "\n".join([
        "from . import coins, walk as w",
        "from .io import dump_json, _helper",
        "import coinwalk.spectral",
        "import numpy as np",
        "w._walk_coin(c)",
        "coins.Coin(x).__class__",
        "coinwalk.spectral._FACTORS['x3']",
        "np._private, dump_json._x, w.evolve(s, c, 0)",
        "x = coins._ROWS",
    ])
    assert _private_reads(source) == [
        (2, "io._helper"), (5, "w._walk_coin"), (7, "coinwalk.spectral._FACTORS"),
        (9, "coins._ROWS")]
