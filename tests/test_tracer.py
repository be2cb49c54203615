"""The benchmark tracer wraps cnsmax functions by name, so renaming or
deleting a traced function must fail here, not only in the benchmark's
own tests."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer():
        pass
    assert tracer.leftover_patches() == []
