"""The package runs on numpy and the standard library alone."""
import ast
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SOURCES = os.path.join(ROOT, "src", "ionwire")


def _imported_roots(path):
    """The top-level package of every absolute import in a source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_the_standard_library_numpy_and_ionwire():
    allowed = set(sys.stdlib_module_names) | {"numpy", "ionwire"}
    found = {name: sorted(set(_imported_roots(os.path.join(SOURCES, name)))
                          - allowed)
             for name in sorted(os.listdir(SOURCES)) if name.endswith(".py")}
    assert "analysis.py" in found
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
