import json

import numpy as np
import pytest

from cnsmax.cli import emit_svg_scatter, run
from cnsmax.errors import ValidationError

P1_MODEL = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}


def _write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


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
])
def test_invalid_block_field_exits_2(tmp_path, command, block):
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    assert run(command, cfg, str(out)) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"


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
