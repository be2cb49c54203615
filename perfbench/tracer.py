"""Span tracer that wraps the public functions of each cnsmax layer from
outside the program.

`Tracer.install()` replaces every attribute of a loaded `cnsmax` module that
holds a traced function object (modules bind names with
`from .spectral import mode_system`, so one function can sit behind several
attributes), plus the `mpmath` and `scipy.linalg` entry points the layers
call.  `uninstall()` puts the originals back.  Spans stay in memory and are
written out once, by `write_jsonl`, when the run ends.

Two kinds of wrapper exist:
- span wrappers record (id, name, start, end, parent id, case id) and
  optional attributes taken from the arguments or the result;
- leaf wrappers, for callbacks invoked hundreds of thousands of times per
  command (`evolve`'s forcing callable, `mpmath.exp`), add one call and its
  duration to an aggregate keyed by (parent span, name) instead of a span.
Self time of a span is its duration minus its child spans and leaf
aggregates.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MARK = "__perfbench_original__"


class Span:
    __slots__ = ("id", "name", "parent", "case", "start", "end", "attrs")

    def __init__(self, id_, name, parent, case):
        self.id = id_
        self.name = name
        self.parent = parent
        self.case = case
        self.start = 0.0
        self.end = 0.0
        self.attrs = None


def _rows(span, args, kwargs, result):
    span.attrs = {"rows": int(len(args[0]))}


def _mode(span, args, kwargs, result):
    span.attrs = {"n": int(args[1])}


def _batch_rows(span, args, kwargs, result):
    span.attrs = {"rows": int(result.shape[0])}


def _table_size(span, args, kwargs, result):
    span.attrs = {"K": int(result.size)}


def _gram_entries(span, args, kwargs, result):
    span.attrs = {"entries": int(result.size)}


def _synth(span, args, kwargs, result):
    # everywhere -> (sig, resid, final); boundary/localized add cond
    span.attrs = {"residual": float(result[1])}
    if len(result) == 4:
        span.attrs["cond"] = float(result[2])


def _law(span, args, kwargs, result):
    dps = int(result.precision_dps)
    span.attrs = {"dps": dps, "escalated": int(dps > 0), "cond": float(result.cond_M)}


def _samples(span, args, kwargs, result):
    span.attrs = {"samples": int(len(result.times))}


def _file_bytes(index):
    def observe(span, args, kwargs, result):
        span.attrs = {"bytes": Path(args[index]).stat().st_size}
    return observe


# (module, attribute, span name, observer); module-level functions of cnsmax
# are patched wherever a cnsmax module holds them.
SPAN_TARGETS = [
    ("cnsmax._kernels", "char_roots_batch", "kernels.char_roots_batch", _rows),
    ("cnsmax.spectral", "mode_system", "spectral.mode_system", _mode),
    ("cnsmax.spectral", "mode_eigenvalues_batch",
     "spectral.mode_eigenvalues_batch", _batch_rows),
    ("cnsmax.spectral", "gamma_matrix", "spectral.gamma_matrix", None),
    ("cnsmax.spectral", "spectrum_rows", "spectral.spectrum_rows", None),
    ("cnsmax._gram", "build_branch_table", "gram.build_branch_table",
     _table_size),
    ("cnsmax._gram", "eigen_coefficients", "gram.eigen_coefficients", None),
    ("cnsmax._gram", "kernel_gram", "gram.assembly", _gram_entries),
    ("cnsmax._gram", "windowed_gram", "gram.assembly", _gram_entries),
    ("cnsmax._gram", "terminal_gram", "gram.assembly", _gram_entries),
    ("cnsmax._gram", "exp_pair_integrals", "gram.assembly", _gram_entries),
    ("cnsmax.dynamics", "evolve", "dynamics.evolve", None),
    ("cnsmax.control", "synthesize_everywhere_control", "control.synthesize",
     _synth),
    ("cnsmax.control", "synthesize_boundary_control", "control.synthesize",
     _synth),
    ("cnsmax.control", "synthesize_localized_control", "control.synthesize",
     _synth),
    ("cnsmax.observability", "ingham_frame_bounds",
     "observability.ingham_frame_bounds", None),
    ("cnsmax.observability", "boundary_observability_constant",
     "observability.boundary_observability_constant", None),
    ("cnsmax.observability", "interior_observability_constant",
     "observability.interior_observability_constant", None),
    ("cnsmax.observability", "lack_experiment",
     "observability.lack_experiment", None),
    ("cnsmax.observability", "eigh", "linalg.eigh", None),
    ("cnsmax.stabilize", "build_feedback", "stabilize.build_feedback", _law),
    ("cnsmax.stabilize", "closed_loop_simulate",
     "stabilize.closed_loop_simulate", _samples),
    ("cnsmax.stabilize", "spillover_report", "stabilize.spillover_report",
     None),
    ("cnsmax.cli", "write_csv", "cli.write_csv", _file_bytes(0)),
    ("cnsmax.cli", "write_json", "cli.write_json", None),
    ("cnsmax.cli", "emit_svg_scatter", "cli.emit_svg_scatter", _file_bytes(1)),
    ("cnsmax.cli", "run", "cli.run", None),
    ("mpmath", "lu_solve", "mpmath.lu_solve", None),
]
LEAF_TARGETS = [
    ("cnsmax.dynamics", "expm", "dynamics.expm"),
    ("mpmath", "exp", "mpmath.exp"),
]
FORCING = "control.forcing"
MATMUL = "mpmath.matmul"
STABILIZE = ("stabilize.build_feedback", "stabilize.closed_loop_simulate",
             "stabilize.spillover_report")
MPMATH = ("mpmath.lu_solve", MATMUL, "mpmath.exp")


class Tracer:
    """Collects spans and leaf aggregates while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [calls, s]
        self.stack: list[Span] = []
        self.case = None
        self._patches = []  # (owner, attribute, original, owned)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn, observe=None, prepare=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            parent = tracer.stack[-1].id if tracer.stack else -1
            span = Span(len(tracer.spans), name, parent, tracer.case)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack, leaf = self.stack, self.leaf

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = leaf[(stack[-1].id if stack else -1, name)]
                acc[0] += 1
                acc[1] += perf_counter() - t0

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_forcing(self, args, kwargs):
        """Route evolve's forcing callable through a counting leaf wrapper."""
        if kwargs.get("forcing") is not None:
            kwargs = dict(kwargs, forcing=self._leaf_wrapper(FORCING, kwargs["forcing"]))
        elif len(args) > 3 and args[3] is not None:
            args = args[:3] + (self._leaf_wrapper(FORCING, args[3]),) + args[4:]
        return args, kwargs

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, new):
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module, attr, make):
        """Replace `module.attr` and every cnsmax module attribute bound to it."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        holders = dict(_cnsmax_modules(), **{module: sys.modules[module]})
        for mod in holders.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        import mpmath

        import cnsmax.cli  # noqa: F401  (loads every layer the CLI reaches)
        import cnsmax.control  # noqa: F401
        import cnsmax.observability  # noqa: F401
        import cnsmax.stabilize  # noqa: F401

        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, name, observe in SPAN_TARGETS:
                prepare = self._wrap_forcing if name == "dynamics.evolve" else None
                self._patch_everywhere(
                    module, attr,
                    lambda fn, n=name, o=observe, pr=prepare:
                        self._span_wrapper(n, fn, o, pr),
                )
            for module, attr, name in LEAF_TARGETS:
                self._patch_everywhere(module, attr,
                                       lambda fn, n=name: self._leaf_wrapper(n, fn))
            matrix = mpmath.mp.matrix
            self._patch(matrix, "__mul__",
                        self._span_wrapper(MATMUL, matrix.__mul__))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def write_jsonl(self, path: Path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "case": s.case, "attrs": s.attrs,
                }) + "\n")
            for (parent, name), (calls, secs) in sorted(self.leaf.items()):
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "calls": calls,
                    "seconds": secs,
                }) + "\n")


def _cnsmax_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cnsmax" or name.startswith("cnsmax."))}


def leftover_patches() -> list[str]:
    """Attributes of loaded cnsmax/mpmath modules that still hold a wrapper."""
    import mpmath

    found = [f"{name}.{key}"
             for name, mod in dict(_cnsmax_modules(), mpmath=mpmath).items()
             for key, value in list(vars(mod).items())
             if callable(value) and hasattr(value, MARK)]
    if hasattr(vars(mpmath.mp.matrix).get("__mul__"), MARK):
        found.append("mpmath.mp.matrix.__mul__")
    return found


def layer_metrics(spans: list[Span], leaf) -> tuple[dict, float]:
    """Per-layer metrics of one traced pass, and the self time it attributes
    to a layer below `cli.run` (whose own self time is what no other layer
    accounts for)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    for (parent, _), (_, secs) in leaf.items():
        if parent >= 0:
            child[parent] += secs

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    names = {s.id: s.name for s in spans}
    modes = set()
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        self_s[s.name] += dur - child[s.id]
        total_s[s.name] += dur
        if s.name == "spectral.mode_system":
            modes.add((s.case, s.attrs["n"]))
        elif s.name == "gram.assembly":
            # nested assembly calls (exp_pair_integrals inside kernel_gram)
            # are counted once, at the outermost call
            if names.get(s.parent) != "gram.assembly":
                attr_sum["gram.entries"] += s.attrs["entries"]
        elif s.attrs:
            for key, value in s.attrs.items():
                attr_sum[f"{s.name}.{key}"] += value
                attr_max[f"{s.name}.{key}"] = max(attr_max[f"{s.name}.{key}"], value)
    leaf_calls = defaultdict(int)
    for (parent, name), (n, secs) in leaf.items():
        leaf_calls[name] += n
        self_s[name] += secs
        total_s[name] += secs

    # mpmath time over top-level stabilize time (mpmath runs inside it)
    stab_s = sum(s.end - s.start for s in spans
                 if s.name in STABILIZE and names.get(s.parent) not in STABILIZE)
    mp_s = sum(total_s[n] for n in MPMATH)

    def ratio(a, b):
        return a / b if b else 0.0

    def log10(v):
        return math.log10(v) if v > 0 else 0.0

    kr = attr_sum["kernels.char_roots_batch.rows"]
    return {
        "kernels.char_roots_batch.calls": calls["kernels.char_roots_batch"],
        "kernels.char_roots_batch.rows": int(kr),
        "kernels.char_roots_batch.rows_per_call":
            ratio(kr, calls["kernels.char_roots_batch"]),
        "kernels.char_roots_batch.self_s": self_s["kernels.char_roots_batch"],
        "kernels.char_roots_batch.bytes": int(kr) * 6 * 16,
        "spectral.mode_system.calls": calls["spectral.mode_system"],
        "spectral.mode_system.self_s": self_s["spectral.mode_system"],
        "spectral.mode_system.distinct_ratio":
            ratio(len(modes), calls["spectral.mode_system"]),
        "spectral.mode_eigenvalues_batch.calls":
            calls["spectral.mode_eigenvalues_batch"],
        "spectral.mode_eigenvalues_batch.rows":
            int(attr_sum["spectral.mode_eigenvalues_batch.rows"]),
        "spectral.mode_eigenvalues_batch.self_s":
            self_s["spectral.mode_eigenvalues_batch"],
        "spectral.gamma_matrix.calls": calls["spectral.gamma_matrix"],
        "spectral.gamma_matrix.self_s": self_s["spectral.gamma_matrix"],
        "spectral.spectrum_rows.self_s": self_s["spectral.spectrum_rows"],
        "gram.build_branch_table.calls": calls["gram.build_branch_table"],
        "gram.build_branch_table.self_s": self_s["gram.build_branch_table"],
        "gram.build_branch_table.K": int(attr_sum["gram.build_branch_table.K"]),
        "gram.eigen_coefficients.self_s": self_s["gram.eigen_coefficients"],
        "gram.assembly.self_s": self_s["gram.assembly"],
        "gram.gram_entries": int(attr_sum["gram.entries"]),
        "dynamics.evolve.calls": calls["dynamics.evolve"],
        "dynamics.evolve.self_s": self_s["dynamics.evolve"],
        "dynamics.evolve.forcing_calls": leaf_calls[FORCING],
        "dynamics.expm_fallbacks": leaf_calls["dynamics.expm"],
        "control.forcing.calls": leaf_calls[FORCING],
        "control.forcing.self_s": self_s[FORCING],
        "control.synthesize.self_s": self_s["control.synthesize"],
        "control.gramian_cond_log10":
            log10(attr_max["control.synthesize.cond"]),
        "control.residual_max": attr_max["control.synthesize.residual"],
        "observability.ingham_frame_bounds.self_s":
            self_s["observability.ingham_frame_bounds"],
        "observability.boundary_observability_constant.self_s":
            self_s["observability.boundary_observability_constant"],
        "observability.interior_observability_constant.self_s":
            self_s["observability.interior_observability_constant"],
        "observability.lack_experiment.self_s":
            self_s["observability.lack_experiment"],
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.eigh.self_s": self_s["linalg.eigh"],
        "stabilize.build_feedback.calls": calls["stabilize.build_feedback"],
        "stabilize.build_feedback.self_s": self_s["stabilize.build_feedback"],
        "stabilize.build_feedback.escalated":
            int(attr_sum["stabilize.build_feedback.escalated"]),
        "stabilize.precision_dps":
            int(attr_max["stabilize.build_feedback.dps"]),
        "stabilize.cond_M_log10": log10(attr_max["stabilize.build_feedback.cond"]),
        "stabilize.closed_loop_simulate.self_s":
            self_s["stabilize.closed_loop_simulate"],
        "stabilize.closed_loop_simulate.samples":
            int(attr_sum["stabilize.closed_loop_simulate.samples"]),
        "stabilize.spillover_report.self_s": self_s["stabilize.spillover_report"],
        "mpmath.lu_solve.calls": calls["mpmath.lu_solve"],
        "mpmath.lu_solve.self_s": self_s["mpmath.lu_solve"],
        "mpmath.matmul.calls": calls[MATMUL],
        "mpmath.matmul.self_s": self_s[MATMUL],
        "mpmath.exp.calls": leaf_calls["mpmath.exp"],
        "stabilize.mp_share": ratio(mp_s, stab_s),
        "cli.write_csv.calls": calls["cli.write_csv"],
        "cli.write_csv.bytes": int(attr_sum["cli.write_csv.bytes"]),
        "cli.write_csv.self_s": self_s["cli.write_csv"],
        "cli.write_json.self_s": self_s["cli.write_json"],
        "cli.emit_svg_scatter.self_s": self_s["cli.emit_svg_scatter"],
        "cli.emit_svg_scatter.bytes": int(attr_sum["cli.emit_svg_scatter.bytes"]),
        "cli.run.self_s": self_s["cli.run"],
    }, sum(self_s.values()) - self_s["cli.run"]


HIGHER_IS_BETTER = {"kernels.char_roots_batch.rows_per_call",
                    "spectral.mode_system.distinct_ratio", "trace.coverage"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_log10"):
        return "log10"
    if name.endswith("rows_per_call"):
        return "rows/call"
    if name.endswith("precision_dps"):
        return "digits"
    if name.endswith(("_ratio", "_share", ".coverage", "residual_max")):
        return "ratio"
    return "count"
