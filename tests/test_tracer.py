"""The benchmark tracer wraps cnsmax functions by name, so renaming or
deleting a traced function must fail here, not only in the benchmark's
own tests."""

import importlib.util
import json
from pathlib import Path

import cnsmax.cli as cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    with tracer.Tracer():
        pass
    assert tracer.leftover_patches() == []


def test_writer_spans_count_the_bytes_on_disk(tmp_path):
    # the tracer reads the path of write_csv (argument 0) and of
    # emit_svg_scatter (argument 1) to attribute bytes to them
    tracer = _load_tracer()
    model = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}
    runs = {"spectrum": {"n_max": 8},
            "simulate": {"N": 2, "T": 1.0, "record_points": 5, "snapshots": [0.5]}}
    with tracer.Tracer() as tr:
        for command, block in runs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({"model": model, command: block}))
            assert cli.run(command, str(cfg), str(tmp_path / command)) == 0
    csv_bytes = sum(s.attrs["bytes"] for s in tr.spans if s.name == "cli.write_csv")
    svg = [s.attrs["bytes"] for s in tr.spans if s.name == "cli.emit_svg_scatter"]
    on_disk = sorted(tmp_path.glob("*/*.csv"))
    assert [p.name for p in on_disk] == ["snapshot_t0.5.csv", "trajectory.csv",
                                         "spectrum.csv"]
    assert csv_bytes == sum(p.stat().st_size for p in on_disk)
    assert svg == [(tmp_path / "spectrum" / "eigenvalues.svg").stat().st_size]
    assert tracer.leftover_patches() == []
