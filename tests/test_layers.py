"""The package is one import DAG in layers, with every import at module level.

Each module may import only from a lower layer; the three leaves share a
layer, so none imports another.  `cli.py` is exempt from the module-level
rule: it imports its layers lazily so that `import cnsmax.cli` loads
neither mpmath nor the numerics layers.  The package runs on its runtime
dependencies alone: no module loads scipy (a test oracle only), and every
third-party module it imports is listed in pyproject.toml.  It holds no dead
code: no module-level import goes unused, and every module-level function
and class is referenced from src/, tests/ or perfbench/.  Per-mode data
comes from the batched tables, never from a one-mode solve.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "cnsmax"

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


def _runtime_dependencies():
    """Distribution names in [project] dependencies of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return {re.match(r"[\w.-]+", dep).group(0).lower()
            for dep in re.findall(r'"([^"]+)"', block)}


def _top_level_imports(name):
    """Top-level names of the absolute imports at module level of a module."""
    for node in _tree(name).body:
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_runtime_dependencies():
    deps = _runtime_dependencies()
    third_party = {(name, top) for name in _modules() for top in _top_level_imports(name)
                   if top not in sys.stdlib_module_names | {"cnsmax", "__future__"}}
    assert third_party, "the package imports no third-party module"
    missing = sorted(f"{name}.py imports {top}" for name, top in third_party if top not in deps)
    assert missing == []


def test_no_module_loads_scipy():
    # every module in a fresh interpreter: scipy is a test oracle only
    modules = ["cnsmax" if m == "__init__" else f"cnsmax.{m}" for m in _modules()]
    code = (f"import importlib, sys; [importlib.import_module(m) for m in {modules!r}]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(PKG.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _exported(tree):
    """The strings of a module-level __all__ list."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "__all__"
            for elt in node.value.elts}


@pytest.mark.parametrize("name", _modules())
def test_no_unused_module_imports(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = [f"{name}.py:{node.lineno} imports {bound}"
              for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
              for alias in node.names
              for bound in [alias.asname or alias.name.split(".")[0]]
              if bound not in used]
    assert unused == []


def _references():
    """Identifiers read by any file under src/, tests/ or perfbench/:
    names, attributes, and string constants (the benchmark tracer patches
    functions by their name)."""
    refs = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.add(node.value)
    return refs


def test_every_module_level_definition_is_referenced():
    refs = _references()
    orphans = [f"{name}.py:{node.lineno} {node.name}"
               for name in _modules() for node in _tree(name).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in refs]
    assert orphans == []


def test_per_mode_data_comes_from_the_batched_tables():
    # no module solves modes one at a time: none calls mode_system, and no
    # call but mode_system's own body hands the batched solvers a
    # one-element list or tuple of modes
    bad = []
    for name in _modules():
        for top in _tree(name).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                one_mode = any(isinstance(arg, (ast.List, ast.Tuple)) and len(arg.elts) == 1
                               for arg in [*node.args, *(k.value for k in node.keywords)])
                if callee == "mode_system" or (
                        callee in ("mode_eigenvalues_batch", "spectral_table") and one_mode
                        and getattr(top, "name", None) != "mode_system"):
                    bad.append(f"{name}.py:{node.lineno} calls {callee}")
    assert bad == []
