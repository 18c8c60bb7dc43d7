"""Hygiene of the package modules: exports resolve, imports are used.

A deleted function leaves a stale `__all__` entry or an import nothing
reads any more; both checks catch that.  `__init__.py` is exempt from
the unused-import check, since its imports are the package's exports (a
stale one there fails at import time).  A line marked `# noqa` is an
import kept for its side effect, such as deer.py's `import numpy.fft`.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nvdeer"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"nvdeer.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if isinstance(node, ast.Import):
                local = alias.asname or alias.name.split(".")[0]
            else:
                local = alias.asname or alias.name
            bound[local] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_unused_module_imports(name):
    assert _unused_imports(SRC / f"{name}.py") == []
