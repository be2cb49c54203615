"""The package is one import DAG in layers, with every import at module level.

Each module may import only from a lower layer; the three leaves share a
layer, so none imports another.  `cli.py` is exempt from the module-level
rule: it imports its layers lazily so that `import cnsmax.cli` loads
neither scipy nor mpmath.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "cnsmax"

LAYERS = [
    {"errors"},
    {"model"},
    {"__init__"},
    {"_kernels"},
    {"spectral"},
    {"_gram"},
    {"dynamics"},
    {"observability", "control", "stabilize"},
    {"cli"},
]
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}
LAZY = {"cli"}


def _modules():
    return sorted(path.stem for path in PKG.glob("*.py"))


def _tree(name):
    return ast.parse((PKG / f"{name}.py").read_text(), filename=f"{name}.py")


def _package_targets(node):
    """Package modules an import node reads from, by their file stem."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return [parts[1] if len(parts) > 1 else "__init__"] if parts[0] == "cnsmax" else []
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name if (PKG / f"{a.name}.py").is_file() else "__init__" for a in node.names]
    return [a.name.split(".")[1] if "." in a.name else "__init__"
            for a in node.names if a.name.split(".")[0] == "cnsmax"]


def test_every_module_has_a_layer():
    assert set(_modules()) == set(RANK)


@pytest.mark.parametrize("name", _modules())
def test_imports_follow_layer_order(name):
    bad = [f"{name}.py:{node.lineno} imports {target}"
           for node in ast.walk(_tree(name))
           if isinstance(node, (ast.Import, ast.ImportFrom))
           for target in _package_targets(node)
           if RANK[target] >= RANK[name]]
    assert bad == []


@pytest.mark.parametrize("name", sorted(set(_modules()) - LAZY))
def test_no_function_level_imports(name):
    bad = {f"{name}.py:{inner.lineno}"
           for fn in ast.walk(_tree(name))
           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
           for inner in ast.walk(fn)
           if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert sorted(bad) == []
