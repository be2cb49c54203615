"""Self-tests of the benchmark harness (not part of the cnsmax test suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402  (pins BLAS threads on import)
from cases import SLOT_NAMES, WORKLOADS, workload_cases  # noqa: E402
from checks import (  # noqa: E402
    REFERENCE_SEEDS,
    RTOL,
    SEED_DEPENDENT,
    check_case,
    load_reference,
)
from tracer import (  # noqa: E402
    FORCING,
    HIGHER_IS_BETTER,
    Span,
    Tracer,
    layer_metrics,
    leftover_patches,
    unit_of,
)

HUM_FORCING_CALLS = 17 * 64 * 27 * 8     # modes x intervals x panels x GL nodes
EVERYWHERE_FORCING_CALLS = 33 * 64 * 1 * 8


def _expand(workload):
    return [(c.name, c.command, c.block, c.slot) for c in workload_cases(workload)]


def test_workloads_expand_to_their_case_lists():
    T = 1.2 * 21.953193156040005
    assert _expand("hum") == [
        ("control_boundary", "control",
         {"variant": "boundary", "kind": "density", "N": 8, "T": T}, "case1_s"),
        ("control_localized", "control",
         {"variant": "localized", "interval": [0.0, math.pi], "N": 8, "T": T},
         "case2_s"),
        ("control_everywhere", "control",
         {"variant": "everywhere", "N": 16, "T": 1.0}, "case3_s"),
    ]
    assert _expand("feedback") == [
        ("stabilize_exact", "stabilize",
         {"N": 8, "omega": 2.0, "kind": "density"}, "case1_s"),
        ("stabilize_spillover", "stabilize",
         {"N": 2, "omega": 2.0, "kind": "density", "spillover": True}, "case2_s"),
        ("stabilize_f64", "stabilize",
         {"N": 3, "omega": 1.0, "kind": "density", "T_end": 400.0}, "case3_s"),
    ]
    assert _expand("scan") == [
        ("spectrum", "spectrum", {"n_max": 1024}, "case1_s"),
        ("simulate", "simulate", {"N": 64, "T": 5.0, "record_points": 257},
         "case2_s"),
        ("ingham", "ingham", {"N": 64}, "case3_s"),
        ("observability_boundary", "observability",
         {"N": 64, "kind": "density"}, "case3_s"),
        ("observability_interior", "observability",
         {"N": 64, "interval": [0.0, math.pi]}, "case3_s"),
        ("lack", "lack", {"N_list": [8, 16, 32, 64, 128, 256]}, "case3_s"),
    ]
    for workload in WORKLOADS:
        for case in workload_cases(workload):
            cfg = case.config(7)
            assert cfg["model"] == {"rho_s": 1.0, "u_s": 1.0, "b": 1.0,
                                    "kappa": 1.0, "mu": 1.0}
            if case.command in ("simulate", "control", "stabilize"):
                assert cfg[case.command]["seed"] == 7


def _traced_pass(workload, tmp_path, tag):
    cases = workload_cases(workload)
    configs = {}
    for case in cases:
        configs[case.name] = tmp_path / f"{case.name}.json"
        configs[case.name].write_text(json.dumps(case.config(3)))
    tr = Tracer()
    with tr:
        res = bench.run_pass(cases, configs, tmp_path / tag, tr, "")
    assert set(res.codes.values()) == {0}
    metrics, _ = layer_metrics(tr.spans, tr.leaf)
    forcing = {}
    case_of = {s.id: s.case for s in tr.spans}
    for (parent, name), (calls, _) in tr.leaf.items():
        if name == FORCING:
            forcing[case_of[parent]] = forcing.get(case_of[parent], 0) + calls
    counts = {k: v for k, v in metrics.items()
              if unit_of(k) in ("count", "B", "digits")}
    return counts, forcing


def test_traced_counts_repeat_exactly(tmp_path):
    # warm the solver caches the way a traced run's untraced pass does
    _traced_pass("hum", tmp_path, "warm")
    first, forcing1 = _traced_pass("hum", tmp_path, "a")
    second, forcing2 = _traced_pass("hum", tmp_path, "b")
    assert first == second
    assert forcing1 == forcing2 == {
        "control_boundary": HUM_FORCING_CALLS,
        "control_localized": HUM_FORCING_CALLS,
        "control_everywhere": EVERYWHERE_FORCING_CALLS,
    }
    assert first["dynamics.evolve.forcing_calls"] == (
        2 * HUM_FORCING_CALLS + EVERYWHERE_FORCING_CALLS)
    assert first["dynamics.expm_fallbacks"] == 0
    assert leftover_patches() == []


def _module_state():
    return {(name, key): id(value)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name.startswith("cnsmax") or name == "mpmath")
            for key, value in vars(mod).items()}


def test_tracer_restores_every_attribute():
    import mpmath

    import cnsmax.cli  # noqa: F401  (every module the tracer patches)
    import cnsmax.control
    import cnsmax.observability  # noqa: F401
    import cnsmax.spectral
    import cnsmax.stabilize  # noqa: F401

    before = _module_state()
    mul = vars(mpmath.mp.matrix).get("__mul__")
    with Tracer():
        assert hasattr(cnsmax.control.mode_system, "__perfbench_original__")
        assert hasattr(cnsmax.spectral.mode_system, "__perfbench_original__")
        assert "mpmath.mp.matrix.__mul__" in leftover_patches()
    assert leftover_patches() == []
    assert _module_state() == before
    assert vars(mpmath.mp.matrix).get("__mul__") is mul


def test_coverage_leaves_out_cli_run_self_time():
    def span(id_, name, parent, start, end):
        s = Span(id_, name, parent, "c")
        s.start, s.end = start, end
        return s

    spans = [span(0, "cli.run", -1, 0.0, 1.0),
             span(1, "spectral.gamma_matrix", 0, 0.25, 0.5)]
    metrics, attributed = layer_metrics(spans, {})
    assert metrics["cli.run.self_s"] == 0.75
    assert attributed == 0.25


@pytest.fixture(scope="module")
def cheap_outputs(tmp_path_factory):
    """Outputs of the cheapest scan cases, seed 0."""
    from cnsmax.cli import run

    root = tmp_path_factory.mktemp("cheap")
    cases = {c.name: c for c in workload_cases("scan")
             if c.name in ("lack", "ingham", "observability_interior",
                           "simulate")}
    for case in cases.values():
        cfg = root / f"{case.name}.json"
        cfg.write_text(json.dumps(case.config(0)))
        assert run(case.command, str(cfg), str(root / case.name)) == 0
    return root, cases


def test_reference_passes_and_a_wrong_value_fails(cheap_outputs):
    root, cases = cheap_outputs
    reference = load_reference()
    for case in cases.values():
        assert check_case(case, root / case.name, 0, reference) == []
    for key in ("lack.slope", "ingham.C1_hat",
                "observability_interior.lambda_min"):
        wrong = copy.deepcopy(reference)
        wrong["values"][key] *= 1.0 + 10 * RTOL[key]
        case = cases[key.split(".")[0]]
        problems = check_case(case, root / case.name, 0, wrong)
        assert len(problems) == 1 and problems[0].startswith(key)


def test_seed_dependent_reference_is_compared_on_recorded_seeds(cheap_outputs):
    root, cases = cheap_outputs
    key = "simulate.final_energy"
    wrong = copy.deepcopy(load_reference())
    wrong["by_seed"]["0"][key] *= 1.0 + 10 * RTOL[key]
    problems = check_case(cases["simulate"], root / "simulate", 0, wrong)
    assert len(problems) == 1 and problems[0].startswith(key)
    # outside the recorded seeds only the seed-independent scalars compare
    outside = REFERENCE_SEEDS.stop
    assert check_case(cases["simulate"], root / "simulate", outside, wrong) == []


def test_missing_artifact_fails(cheap_outputs):
    root, cases = cheap_outputs
    (root / "lack" / "lack.csv").unlink()
    problems = check_case(cases["lack"], root / "lack", 0, load_reference())
    assert problems and "lack.csv" in problems[0]


def test_reference_covers_every_tolerance():
    reference = load_reference()
    assert set(reference["values"]) == set(RTOL) - SEED_DEPENDENT
    assert set(reference["by_seed"]) == {str(s) for s in REFERENCE_SEEDS}
    for values in reference["by_seed"].values():
        assert set(values) == SEED_DEPENDENT


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(SLOT_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    names, _ = layer_metrics([], {})
    layer = list(names) + ["trace.overhead_s", "trace.coverage"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    for m in spec["per_layer"]:
        assert m["unit"] == unit_of(m["name"])
        assert m["better"] == ("higher" if m["name"] in HIGHER_IS_BETTER else "lower")
