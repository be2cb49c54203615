import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cnsmax
from cnsmax import cli
from cnsmax.cli import emit_svg_scatter, run, write_csv
from cnsmax.errors import ValidationError
from cnsmax.spectral import minimal_time, spectrum_rows

P1_MODEL = {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0}
T0_P1 = minimal_time(cnsmax.FluidParams(**P1_MODEL))


def _write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _cli_child(tmp_path, command, block):
    """Run the CLI on P1 and block in a child process under a 30 s timeout,
    so a hang fails the test, and with RuntimeWarnings as errors, as in the
    suite; returns the exit code and summary.json text."""
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    path = [str(Path(cnsmax.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cnsmax.cli", command,
         "--config", cfg, "--out", str(out)],
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
    ("simulate", {"N": 2, "T": 1.0, "snapshots": [0.5, 0.5000001, 0.5]}),
    ("simulate", {"N": 2, "grid": 1 << 19, "snapshots": [0.5, 1.0, 1.5]}),
    ("lack", {"N_list": [2, 2, 3]}),
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


def test_ill_conditioned_basis_change_exits_3(tmp_path, monkeypatch):
    # the modal propagator has no second path: a Gamma_n past
    # GAMMA_COND_LIMIT is a numerical failure (every nonzero mode of P1 has
    # cond(Gamma_n) > 1)
    from cnsmax import spectral

    monkeypatch.setattr(spectral, "GAMMA_COND_LIMIT", 1.0)
    cfg = _write_cfg(tmp_path, "c.json",
                     {"model": P1_MODEL, "simulate": {"N": 4, "T": 1.0, "seed": 0}})
    out = tmp_path / "out"
    assert run("simulate", cfg, str(out)) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical-failure"
    assert "condition number" in summary["error"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command, block, artifact", [
    ("observability", {"N": 2, "kind": "density"}, "observability.json"),
    ("observability", {"N": 2, "interval": [0.0, np.pi]}, "observability.json"),
    ("control", {"variant": "boundary", "N": 2, "T": 1.2 * T0_P1}, "control.csv"),
])
def test_ill_conditioned_basis_change_guards_pencils_and_forcing(
        tmp_path, monkeypatch, command, block, artifact):
    # the observability pencils and the boundary forcing invert Gamma_n
    # through the same guard as the modal propagator; the control fails
    # before its verification evolve, so no forcing is built
    from cnsmax import control, spectral

    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve called past an ill-conditioned basis change")

    monkeypatch.setattr(spectral, "GAMMA_COND_LIMIT", 1.0)
    monkeypatch.setattr(control, "evolve", no_evolve)
    cfg = _write_cfg(tmp_path, "c.json", {"model": P1_MODEL, command: block})
    out = tmp_path / "out"
    assert run(command, cfg, str(out)) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical-failure"
    assert "condition number" in summary["error"]
    assert not (out / artifact).exists()


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
    ("stabilize", {"N": 8, "omega": 1e15}),
])
def test_numerical_failure_exits_3_in_time(tmp_path, command, block):
    # huge omega leaves the exact evaluator's exponent range, or (at 1e15,
    # inside that range) makes every energy past t = 0 underflow, so the
    # decay-rate fit has no usable sample; a tiny horizon gives a control
    # no better than none, or observation ratios <= 0
    code, text = _cli_child(tmp_path, command, block)
    assert code == 3
    summary = json.loads(text)
    assert summary["status"] == "numerical-failure"
    assert "Infinity" not in text and "NaN" not in text
    if block.get("omega") == 1e15:
        assert "fewer than two usable samples" in summary["error"]


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


def test_ingham_exits_0_where_the_exponential_gram_cancels(tmp_path):
    # a branch at Re lambda = -1.6e-10 puts Gram entries at 0 < |z T| << 1,
    # where e_c conj(e_a) - 1 cancels by 7 digits, enough to fail the
    # Gram's Hermitian check (exit 3) unless those entries take expm1
    model = {"rho_s": 0.00287, "u_s": 1.605, "kappa": 0.00987, "mu": 69.66, "b": 0.00137}
    cfg = _write_cfg(tmp_path, "c.json", {"model": model, "ingham": {}})
    out = tmp_path / "out"
    assert run("ingham", cfg, str(out)) == 0
    bounds = json.loads((out / "ingham.json").read_text())
    assert 0 < bounds["C1_hat"] <= bounds["C2_hat"]


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


def test_snapshot_names_keep_distinct_times_apart(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"model": P1_MODEL,
         "simulate": {"N": 2, "T": 1.0, "snapshots": [0.5, 0.5000001, 1.0]}},
    )
    out = tmp_path / "out"
    assert run("simulate", cfg, str(out)) == 0
    names = ["snapshot_t0.5.csv", "snapshot_t0.5000001.csv", "snapshot_t1.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["artifacts"] == ["trajectory.csv", *names]
    first, second, _ = ((out / name).read_bytes() for name in names)
    assert first != second


@pytest.mark.parametrize("t, label", [
    (5.0, "5"), (0.5, "0.5"), (0.0, "0"), (1e-07, "1e-07"), (1e20, "1e+20"),
    (0.5000001, "0.5000001"), (1 / 3, "0.3333333333333333"),
    (123456.7, "123456.7"),
])
def test_snapshot_label_reads_back_as_its_time(t, label):
    assert cli.snapshot_label(t) == label
    assert float(label) == t


@pytest.mark.parametrize("block, error", [
    ({"snapshots": [0.5, 0.5000001, 0.5]}, "snapshots must be"),
    ({"grid": 1 << 19, "snapshots": [0.5, 1.0, 1.5]}, "of length at most [2]"),
    ({"grid": cli.MAX_GRID, "snapshots": [0.5, 1.0]}, "of length at most [1]"),
])
def test_snapshot_list_errors_name_the_field(block, error):
    p = cnsmax.FluidParams(**P1_MODEL)
    with pytest.raises(ValidationError) as exc:
        cli.read_fields("simulate", cli.TABLES["simulate"], {"N": 2, **block}, p)
    assert str(exc.value).startswith("snapshots must be") and error in str(exc.value)


def test_one_snapshot_stays_legal_at_every_grid():
    p = cnsmax.FluidParams(**P1_MODEL)
    for grid in (5, 64, cli.MAX_GRID // 3, cli.MAX_GRID):
        v = cli.read_fields("simulate", cli.TABLES["simulate"],
                            {"N": 2, "grid": grid, "snapshots": [1.0]}, p)
        assert v["snapshots"] == [1.0]


def _per_cell_csv(header, rows) -> bytes:
    """The former per-cell rule: str for an integer, 17 digits otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (int, np.integer)) else f"{float(v):.16e}"
            for v in row))
    return ("\n".join(lines) + "\n").encode()


_SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308, 1 / 3])


def _spectrum_columns():
    return spectrum_rows(cnsmax.FluidParams(**P1_MODEL), 4)


@pytest.mark.parametrize("columns", [
    [_SPECIAL, _SPECIAL[::-1]],
    [np.arange(-5, 5, dtype=np.int64), np.arange(10, dtype=np.int32),
     np.arange(10, dtype=np.uint16), np.linspace(-1, 1, 10)],
    list(_spectrum_columns()),
    [np.array([], dtype=np.int64), np.array([])],
    list(np.random.default_rng(5).standard_normal((67, 40))),
], ids=["special-floats", "numpy-ints", "spectrum", "empty", "control-shape"])
def test_write_csv_matches_per_cell_rule(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "a.csv", header, columns)
    oracle = _per_cell_csv(header, zip(*columns))
    assert (tmp_path / "a.csv").read_bytes() == oracle


def test_spectrum_columns_keep_integer_dtypes():
    cols = _spectrum_columns()
    assert [c.dtype.kind for c in cols] == ["i", "i"] + ["f"] * 5 + ["i"]


def test_write_csv_streams(tmp_path):
    # the control.csv shape of an everywhere control at N=16
    cols = np.random.default_rng(0).standard_normal((67, 2049))
    path = tmp_path / "control.csv"
    tracemalloc.start()
    try:
        write_csv(path, [f"c{i}" for i in range(67)], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 16


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a"], [np.zeros(3), np.zeros(3)])


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


def _per_point_circles(pts) -> list[str]:
    """The circles of the former per-point SVG loop, in Python floats."""
    W, H, m = 800, 600, 60
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    dx, dy = (x1 - x0) or 1.0, (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * dx, x1 + 0.05 * dx
    y0, y1 = y0 - 0.05 * dy, y1 + 0.05 * dy
    return [f'<circle cx="{m + (x - x0) / (x1 - x0) * (W - 2 * m):.3f}" '
            f'cy="{H - m - (y - y0) / (y1 - y0) * (H - 2 * m):.3f}" r="3" '
            f'fill="steelblue" fill-opacity="0.8"/>' for x, y in pts]


@pytest.mark.parametrize("pts", [
    np.random.default_rng(3).standard_normal((500, 2)).tolist(),
    [(1.5, -2.0), (1.5, 7.0), (1.5, 0.1)],
    [(0.0, 0.0)],
], ids=["random", "one-abscissa", "one-point"])
def test_svg_circles_match_per_point_rule(tmp_path, pts):
    emit_svg_scatter(pts, tmp_path / "a.svg")
    lines = (tmp_path / "a.svg").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("<circle")] == _per_point_circles(pts)
    assert lines[-1] == "</svg>"


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
