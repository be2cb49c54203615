"""The package is one import DAG in layers, with every import at module level.

Each module may import only from a lower layer; the three leaves share a
layer, so none imports another, and so do the two kernels `_kernels` and
`_exact` (the exact integer arithmetic).  A module reaches another only
through its public names, never an underscored one, and only `_exact`
touches mpmath's low-level `libmp`.  `cli.py` is exempt from the module-level
rule: it imports its layers lazily so that `import cnsmax.cli` loads
neither mpmath nor the numerics layers.  The package runs on its runtime
dependencies alone: no module loads scipy (a test oracle only), and every
third-party module it imports is listed in pyproject.toml.  It holds no dead
code: no module-level import goes unused, and every module-level function
and class, and every method and property of those classes, is referenced
from src/, the acceptance criteria (tests/test_acceptance.py) or
perfbench/; a definition that only the other tests use is an orphan, and
the definitions that only a perfbench string (the tracer's patch targets)
keeps alive are exactly TRACER_ONLY.  Nor does it hold a dead parameter:
every parameter with a default is passed by some call there that names its
function, so none only takes its default; and every dataclass field default
is both left out by some constructor call there and passed by another, so
it is neither a constant nor unused.
Per-mode data comes from the batched tables, never from a one-mode solve,
and each per-mode primitive has one owner: `_kernels` holds the one cubic
solver, and only `spectral.gamma_inverse` inverts a basis change, called
by the modal propagator and the observability pencils alone.
"""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "cnsmax"
BENCH = ROOT / "perfbench"
# definitions that only the benchmark tracer binds (by name): the Pade
# exponential the modal propagator no longer calls, and the terminal Gram
# that is Gamma Gamma^H on its mode blocks (a test oracle)
TRACER_ONLY = {"expm", "terminal_gram"}

LAYERS = [
    {"errors"},
    {"model"},
    {"__init__"},
    {"_kernels", "_exact"},
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("name", _modules())
def test_no_module_reads_private_names_of_another(name):
    # names bound to a package module (`from . import _kernels`) may be
    # read only for their public attributes
    tree = _tree(name)
    bad, modules = [], set()
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.Import, ast.ImportFrom)) and _package_targets(node)):
            continue
        for alias in node.names:
            is_module = isinstance(node, ast.Import) or (
                node.module in (None, "cnsmax") and (PKG / f"{alias.name}.py").is_file())
            if is_module:
                modules.add(alias.asname or alias.name.split(".")[0])
            elif _private(alias.name):
                bad.append(f"{name}.py:{node.lineno} imports {alias.name}")
    bad += [f"{name}.py:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)]
    assert bad == []


def test_only_exact_uses_libmp():
    assert [name for name in _modules()
            if name != "_exact" and "libmp" in (PKG / f"{name}.py").read_text()] == []


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


def _program_trees():
    """(path, AST) of each file of the program, the acceptance criteria and
    the benchmark (src/, tests/test_acceptance.py, perfbench/).  The other
    tests do not count, so code only they use shows as dead."""
    paths = [*(ROOT / "src").rglob("*.py"), ROOT / "tests" / "test_acceptance.py",
             *BENCH.rglob("*.py")]
    for path in paths:
        yield path, ast.parse(path.read_text(), filename=str(path))


def _program_nodes():
    """Every AST node of the program trees."""
    for _, tree in _program_trees():
        yield from ast.walk(tree)


def _references():
    """(program, bench strings): the identifiers the program trees read
    (names, attributes, and string constants outside perfbench/, such as
    `__all__`), and the string constants of perfbench/, by which the
    benchmark tracer patches functions."""
    program, bench = set(), set()
    for path, tree in _program_trees():
        strings = bench if BENCH in path.parents else program
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                program.add(node.id)
            elif isinstance(node, ast.Attribute):
                program.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return program, bench


def _definitions(name):
    """(line, name) of each module-level function and class of a module, and
    of each method and property of those classes but dunders."""
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((fn.lineno, f"{node.name}.{fn.name}") for fn in node.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__")))


def test_every_module_level_definition_is_referenced():
    refs = set.union(*_references())
    orphans = [f"{name}.py:{line} {qual}"
               for name in _modules() for line, qual in _definitions(name)
               if qual.split(".")[-1] not in refs]
    assert orphans == []


def test_tracer_only_definitions_are_the_named_ones():
    # definitions that only a benchmark string keeps alive are debt the
    # tracer pins: exactly TRACER_ONLY, so a change that orphans another
    # one, or gives one of these a program caller, fails here
    program, bench = _references()
    only = {qual.split(".")[-1] for name in _modules() for _, qual in _definitions(name)
            if qual.split(".")[-1] in bench - program}
    assert only == TRACER_ONLY


def _program_calls():
    """(callee, positional count, keyword names) of each call among the
    program nodes, the callee by its Name or Attribute; a *args call counts
    as passing every position and a **kwargs call every keyword (None)."""
    calls = []
    for node in _program_nodes():
        callee = isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None))
        if callee:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keys = {k.arg for k in node.keywords}
            calls.append((callee, math.inf if starred else len(node.args),
                          None if None in keys else keys))
    return calls


def _defaulted_parameters(name):
    """(line, callee, parameter, position) of each parameter with a default
    of each function and method of a module: callee is the name a call uses
    (the class for __init__), position counts from the first argument a
    call passes (after self), None for keyword-only."""
    tree = _tree(name)
    owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = int(fn in owner and not static)
        callee = owner[fn] if fn in owner and fn.name == "__init__" else fn.name
        positional = [*args.posonlyargs, *args.args]
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield fn.lineno, callee, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.lineno, callee, arg.arg, None


def test_every_default_is_set_by_a_caller():
    # a parameter no call of the program passes only ever takes its
    # default: it is a constant, and the branches for other values are dead
    calls = _program_calls()
    unset = [f"{name}.py:{line} {fn}({param})"
             for name in _modules() for line, fn, param, pos in _defaulted_parameters(name)
             if not any(callee == fn and ((pos is not None and npos > pos)
                                          or keys is None or param in keys)
                        for callee, npos, keys in calls)]
    assert unset == []


def _defaulted_fields(name):
    """(line, class, field, position) of each dataclass field of a module
    that has a default; position counts the fields its __init__ takes."""
    for cls in _tree(name).body:
        if not (isinstance(cls, ast.ClassDef) and any(
                getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
                for d in cls.decorator_list)):
            continue
        fields = [node for node in cls.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for pos, node in enumerate(fields):
            keys = {k.arg for k in getattr(node.value, "keywords", [])}
            spec = (isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "field")
            if node.value is not None and (not spec or keys & {"default", "default_factory"}):
                yield node.lineno, cls.name, node.target.id, pos


def test_every_field_default_is_taken_and_overridden():
    # a default every constructor overrides is dead, and one none
    # overrides is a constant; a *args or **kwargs call counts as both
    calls = _program_calls()
    bad = []
    for name in _modules():
        for line, cls, fld, pos in _defaulted_fields(name):
            uses = set()
            for callee, npos, keys in calls:
                if callee != cls:
                    continue
                if npos == math.inf or keys is None:
                    uses |= {"passed", "left out"}
                else:
                    uses.add("passed" if npos > pos or fld in keys else "left out")
            if uses != {"passed", "left out"}:
                bad.append(f"{name}.py:{line} {cls}.{fld} {sorted(uses)}")
    assert bad == []


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


def test_one_cubic_kernel():
    # the characteristic and the slope cubic share one solver
    public = [node.name for node in _tree("_kernels").body
              if isinstance(node, ast.FunctionDef) and not _private(node.name)]
    assert public == ["char_roots_batch"]


def test_only_gamma_inverse_inverts():
    # every Gamma_n^-1 passes the condition-number guard of
    # spectral.gamma_inverse: no other function calls np.linalg.inv
    owners = [(name, getattr(top, "name", None))
              for name in _modules() for top in _tree(name).body
              for node in ast.walk(top)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "inv"
              and getattr(node.func.value, "attr", None) == "linalg"]
    assert owners == [("spectral", "gamma_inverse")]


def test_gamma_inverse_has_two_callers():
    # the modal propagator and the observability pencils work in eigen
    # coordinates; the boundary control's actuator is its boundary trace
    callers = sorted((name, getattr(top, "name", None))
                     for name in _modules() for top in _tree(name).body
                     for node in ast.walk(top)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "gamma_inverse")
    assert callers == [("dynamics", "_modal_basis"), ("observability", "eigh")]
