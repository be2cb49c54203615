import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnsmax
from cnsmax.cli import emit_svg_scatter, run
from cnsmax.errors import ValidationError
from cnsmax.observability import minimal_time

P1_MODEL = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}
T0_P1 = minimal_time(cnsmax.FluidParams(**P1_MODEL))


def _write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _cli_child(tmp_path, command, block):
    """Run the CLI on P1 and block in a child process under a 30 s timeout,
    so a hang fails the test; returns the exit code and summary.json text."""
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    path = [str(Path(cnsmax.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "cnsmax.cli", command, "--config", cfg, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=30,
    )
    return proc.returncode, (out / "summary.json").read_text()


def test_spectrum_deterministic_and_svg(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json",
                     {"model": P1_MODEL, "spectrum": {"n_max": 30}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("spectrum", cfg, str(out1)) == 0
    assert run("spectrum", cfg, str(out2)) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    svg = (out1 / "eigenvalues.svg").read_text()
    assert svg == (out2 / "eigenvalues.svg").read_text()
    # 3 branches x 60 modes + the 0-mode marker
    assert svg.count("<circle") == 181
    assert ">Re<" in svg and ">Im<" in svg
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["derived"]["big_d"] == pytest.approx(49.0)


def test_spectrum_cluster_means(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json",
                     {"model": P1_MODEL, "spectrum": {"n_max": 30}})
    out = tmp_path / "o"
    assert run("spectrum", cfg, str(out)) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    data = [r.split(",") for r in rows]
    omega = json.loads((out / "summary.json").read_text())["omega"]
    for branch in (1, 2, 3):
        res = [float(r[2]) for r in data
               if int(r[1]) == branch and abs(int(r[0])) == 30]
        assert len(res) == 2
        assert abs(np.mean(res) - (-omega[branch - 1])) < 0.05


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert run("spectrum", str(bad), str(out)) == 2
    assert not (out / "spectrum.csv").exists()

    cfg = _write_cfg(tmp_path, "c2.json", {"model": P1_MODEL})  # no block
    assert run("spectrum", cfg, str(tmp_path / "out2")) == 2

    cfg3 = _write_cfg(
        tmp_path, "c3.json",
        {"model": {**P1_MODEL, "rho_s": -1.0}, "spectrum": {}},
    )
    assert run("spectrum", cfg3, str(tmp_path / "out3")) == 2
    assert not (tmp_path / "out3" / "spectrum.csv").exists()


@pytest.mark.parametrize("command, block", [
    ("control", {"variant": "localized", "interval": [3, 1]}),
    ("control", {"variant": "boundary", "kind": "foo"}),
    ("stabilize", {"omega": "x"}),
    ("lack", {"N_list": [1]}),
    ("spectrum", {"n_max": -3}),
    ("spectrum", {"n_max": 0}),
    ("simulate", {"T": -1}),
    ("stabilize", {"N": 1, "T_end": float("inf")}),
    ("stabilize", {"N": 1, "omega": float("inf")}),
    ("stabilize", {"N": 2.7}),
    ("stabilize", {"N": True}),
    ("stabilize", {"N": 1, "spillover": "no"}),
    ("spectrum", {"seed": "x"}),
    ("simulate", {"N": 2, "seed": -3}),
    ("spectrum", {"seed": 2.7}),
    ("spectrum", {"seed": True}),
    ("spectrum", {"n_max": "3"}),
    ("simulate", {"N": 2, "snapshots": [float("inf")]}),
    ("simulate", {"N": 2, "snapshots": ["1"]}),
    ("simulate", {"N": 2, "snapshots": [True]}),
    ("lack", {"N_list": [8, 16.5]}),
    ("lack", {"N_list": ["8", 16]}),
    ("lack", {"N_list": [True, 8]}),
    ("lack", {"interval": [True, 3]}),
    ("lack", {"interval": ["0", 3]}),
    ("observability", {"N": 2, "interval": [True, 3]}),
    ("observability", {"N": 2, "interval": ["0", 3]}),
    ("control", {"variant": "localized", "N": 2, "interval": [True, 3]}),
    ("control", {"variant": "localized", "N": 2, "interval": ["0", 3]}),
    ("spectrum", {"n_max": 1e300}),
    ("ingham", {"N": 1e300}),
    ("lack", {"N_list": [4, 1e300]}),
    ("simulate", {"record_points": 1e300}),
])
def test_invalid_block_field_exits_2(tmp_path, command, block):
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    assert run(command, cfg, str(out)) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"


@pytest.mark.parametrize("body, seed", [
    ({"model": P1_MODEL, "simulate": {"N": 2}, "spectrum": {}}, None),
    ({"model": P1_MODEL, "simulate": [2]}, None),
    ({"model": {**P1_MODEL, "kappa": "x"}, "simulate": {"N": 2}}, None),
    ({"simulate": {"N": 2}}, None),
    (["simulate"], None),
    ({"model": P1_MODEL, "simulate": {"N": 2}}, -3),
    ({"model": {**P1_MODEL, "rho_s": True}, "simulate": {"N": 2}}, None),
    ({"model": {**P1_MODEL, "rho_s": float("inf")}, "simulate": {"N": 2}}, None),
    ({"model": {**P1_MODEL, "rho_s": "1"}, "simulate": {"N": 2}}, None),
    ({"model": {"rho_s": 1.0, "u_s": 1.0, "kappa": 1.0, "mu": 1.0, "a": 1,
                "gamma": True}, "simulate": {"N": 2}}, None),
    ({"model": {"rho_s": 2, "u_s": 1, "a": 1e308, "gamma": 1e308, "kappa": 1,
                "mu": 1}, "simulate": {"N": 2}}, None),
    ({"model": {**P1_MODEL, "rho_s": 1e-300}, "simulate": {"N": 2}}, None),
    ({"model": {**P1_MODEL, "u_s": 1e200}, "simulate": {"N": 2}}, None),
])
def test_configuration_error_writes_summary(tmp_path, body, seed):
    # errors found before any block field is read exit 2 with a summary.json
    cfg = _write_cfg(tmp_path, "c.json", body)
    out = tmp_path / "out"
    assert run("simulate", cfg, str(out), seed=seed) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert summary["command"] == "simulate" and summary["error"]
    assert not (out / "trajectory.csv").exists()


def test_numerical_failure_exits_3(tmp_path):
    # boundary control far below the waiting time: ill-conditioned Gramian
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL,
         "control": {"variant": "boundary", "N": 4, "T": 6.0, "seed": 1}},
    )
    out = tmp_path / "out"
    with pytest.warns(UserWarning):
        code = run("control", cfg, str(out))
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical-failure"
    assert "condition" in summary["error"]


@pytest.mark.parametrize("command, block", [
    ("stabilize", {"N": 8, "omega": 1e18}),
    ("stabilize", {"N": 8, "omega": 1e19}),
    ("stabilize", {"N": 8, "omega": 1e20}),
    ("stabilize", {"N": 1, "omega": 1e100}),
    ("stabilize", {"N": 2, "omega": 1e300, "spillover": True}),
    ("control", {"variant": "everywhere", "N": 2, "T": 1e-6}),
    ("control", {"variant": "everywhere", "N": 2, "T": 1e-12}),
    ("control", {"variant": "everywhere", "N": 2, "T": 1e-300}),
    ("lack", {"N_list": [2, 4], "T": 1e-300}),
])
def test_numerical_failure_exits_3_in_time(tmp_path, command, block):
    # huge omega leaves the exact evaluator's exponent range; a tiny horizon
    # gives a control no better than none, or observation ratios <= 0
    code, text = _cli_child(tmp_path, command, block)
    assert code == 3
    assert json.loads(text)["status"] == "numerical-failure"
    assert "Infinity" not in text and "NaN" not in text


@pytest.mark.parametrize("command, block", [
    ("control", {"variant": "everywhere", "N": 2, "T": 1e300}),
    ("control", {"variant": "boundary", "N": 2, "T": 1e300}),
    ("stabilize", {"N": 8, "T_end": 1e300}),
    ("stabilize", {"N": 3, "omega": 1.0, "T_end": 1e300}),
    ("stabilize", {"N": 64}),
])
def test_huge_horizon_exits_2_in_time(tmp_path, command, block):
    # the quadrature panels, integrator steps or exact samples a horizon
    # needs, and stabilize's N, are bounded before any work is run
    code, text = _cli_child(tmp_path, command, block)
    assert code == 2
    assert json.loads(text)["status"] == "validation-error"
    assert "Infinity" not in text and "NaN" not in text


@pytest.mark.parametrize("command, block, key", [
    ("ingham", {"N": 12, "T": 0.3 * T0_P1}, "C1_hat"),
    ("observability", {"T": 1e-300}, "lambda_min"),
    ("observability", {"T": 1e300, "interval": [0, 1]}, "lambda_min"),
])
def test_lower_bounds_never_negative(tmp_path, command, block, key):
    # a Gram eigenvalue below 0 is rounding noise, reported as 0; cond is
    # then null, never Infinity
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    assert run(command, cfg, str(out)) == 0
    for name in (f"{command}.json", "summary.json"):
        text = (out / name).read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)[key] >= 0


def test_control_everywhere_cli(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL,
         "control": {"variant": "everywhere", "N": 8, "T": 1.0, "seed": 2}},
    )
    out = tmp_path / "out"
    assert run("control", cfg, str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual"] <= 1e-8
    header = (out / "control.csv").read_text().splitlines()[0]
    assert header.startswith("t,re_f_")


def test_simulate_and_snapshots(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL,
         "simulate": {"N": 4, "T": 2.0, "seed": 3, "snapshots": [1.0, 2.0]}},
    )
    out = tmp_path / "out"
    assert run("simulate", cfg, str(out)) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "snapshot_t1.csv").exists()
    assert (out / "snapshot_t2.csv").exists()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,energy,norm_rho,norm_u,norm_S"


def test_seed_flag_overrides(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL,
         "control": {"variant": "everywhere", "N": 4, "T": 1.0, "seed": 2}},
    )
    outa, outb, outc = (tmp_path / x for x in ("a", "b", "c"))
    assert run("control", cfg, str(outa)) == 0
    assert run("control", cfg, str(outb), seed=9) == 0
    assert run("control", cfg, str(outc), seed=9) == 0
    ca = (outa / "control.csv").read_bytes()
    cb = (outb / "control.csv").read_bytes()
    cc = (outc / "control.csv").read_bytes()
    assert cb == cc and ca != cb


def test_cli_import_loads_neither_scipy_nor_mpmath():
    # each command imports its numerics lazily, inside its runner
    path = [str(Path(cnsmax.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    code = ("import sys, cnsmax.cli; "
            "print(sorted({'scipy', 'mpmath'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=30)
    assert proc.stdout.strip() == "[]", proc.stderr


def test_svg_scatter_contract(tmp_path):
    with pytest.raises(ValidationError):
        emit_svg_scatter([], tmp_path / "x.svg")
    pts = [(0.0, 1.0), (2.0, -1.0), (0.5, 0.25)]
    emit_svg_scatter(pts, tmp_path / "a.svg")
    emit_svg_scatter(pts, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_lack_cli(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL, "lack": {"N_list": [4, 8, 16], "interval": [0.0, np.pi]}},
    )
    out = tmp_path / "out"
    assert run("lack", cfg, str(out)) == 0
    rows = (out / "lack.csv").read_text().strip().splitlines()
    assert rows[0] == "N,ratio,slope"
    assert len(rows) == 4


def test_lack_default_horizon_error_names_its_cause(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json",
                     {"model": P1_MODEL, "lack": {"interval": [0, 2 * np.pi]}})
    out = tmp_path / "out"
    assert run("lack", cfg, str(out)) == 2
    error = json.loads((out / "summary.json").read_text())["error"]
    assert "default T is 0" in error and "2*pi" in error and "np." not in error
