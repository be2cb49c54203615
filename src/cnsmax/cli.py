"""Batch front end: JSON config in, deterministic CSV/JSON/SVG artifacts out.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (multiplicity, singular or ill-conditioned Gramian, ...).  A
summary.json echoing the inputs and key scalars is written for every run
that gets past configuration validation; a configuration error writes one
with status validation-error whenever the output directory is known.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CnsmaxError, NumericalFailure, ValidationError
from .model import BOUNDARY_KINDS, SUBSPACES, FluidParams, derive_constants

# Upper bounds of the count fields.  Each keeps its command's peak memory
# near or below 1 GiB; the figures are peak RSS measured at the bound on
# x86-64 with NumPy 2.
MAX_MODES = 1 << 17      # spectrum n_max (about 5 KiB a mode, 700 MiB)
                         # and simulate N (430 MiB)
MAX_GRAM_N = 256         # Gram commands hold (6N+1)^2 complex entries, a few
                         # copies: 290 MiB for observability; control's
                         # forced evolve peaks near 320 MiB at MAX_PANELS
MAX_RECORDS = 1 << 18    # simulate record_points: about 450 B a row
MAX_GRID = 1 << 20       # simulate grid: about 400 B a point
MAX_LACK_N = 1 << 14     # lack N_list entries, with band_mult <= MAX_BAND:
MAX_BAND = 16            # 2 (band_mult - 1) N modes, 520 MiB
MAX_STABILIZE_N = 44     # stabilize N, for time: its exact solve is cubic in
                         # 6N, and a spillover run at N=44 took 32-35 s


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length 1-D arrays as the columns of a CSV under header.

    The row format is fixed once per file from the column dtypes: `%d` for an
    integer column, `%.16e` (17 significant digits, locale independent) for
    any other.  Each row is formatted with one `%` and streamed to the file,
    so the whole file is never held in memory.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (n,) for c in columns):
        raise ValueError("write_csv needs one equal-length 1-D column per "
                         "header name")
    row_format = ",".join("%d" if c.dtype.kind in "iu" else "%.16e"
                          for c in columns) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(row_format % row for row in zip(*columns))


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not serializable: {type(v)}")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def emit_svg_scatter(points, path: Path, title: str = "spectrum") -> None:
    """Standalone deterministic SVG scatter of (Re, Im) points, streamed to
    path one circle per line."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not len(pts):
        raise ValidationError("cannot render an empty point set")
    W, H, m = 800, 600, 60
    xs, ys = pts[:, 0], pts[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * dx, x1 + 0.05 * dx
    y0, y1 = y0 - 0.05 * dy, y1 + 0.05 * dy
    sx = m + (xs - x0) / (x1 - x0) * (W - 2 * m)
    sy = H - m - (ys - y0) / (y1 - y0) * (H - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 15}" font-size="14" text-anchor="middle">Re</text>',
        f'<text x="18" y="{H // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {H // 2})">Im</text>',
        f'<text x="{W // 2}" y="25" font-size="15" text-anchor="middle">{title}</text>',
    ]
    for i, lab in enumerate(np.linspace(x0, x1, 5)):
        px = m + i * (W - 2 * m) / 4
        parts.append(
            f'<text x="{px:.1f}" y="{H - m + 18}" font-size="10" '
            f'text-anchor="middle">{lab:.3g}</text>'
        )
    for i, lab in enumerate(np.linspace(y0, y1, 5)):
        py = H - m - i * (H - 2 * m) / 4
        parts.append(
            f'<text x="{m - 8:.1f}" y="{py:.1f}" font-size="10" '
            f'text-anchor="end">{lab:.3g}</text>'
        )
    circle = ('<circle cx="%.3f" cy="%.3f" r="3" fill="steelblue" '
              'fill-opacity="0.8"/>\n')
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
        f.writelines(circle % xy for xy in zip(sx, sy))
        f.write("</svg>\n")


# Field types, named as the errors state them.  A table row is
# (type, default, *bounds): the least and most value of a count, or of each
# entry of a list of counts, or the values of a choice.  A callable default
# or bound is computed from the model p and the fields v above it.
COUNT = "an integer in"
POSITIVE = "a finite positive number"
TIME = "a finite number >= 0"
FLAG = "true or false"
CHOICE = "one of"
INTERVAL = "[l1, l2] with 0 <= l1 < l2 <= 2*pi"
TIMES = "a list of distinct finite times >= 0 of length at most"
COUNTS = "a list of two or more distinct integers in"


def _convert(kind: str, value, bounds: list):
    """value as a field of type kind within bounds, else TypeError or ValueError."""
    if kind in (INTERVAL, TIMES, COUNTS):
        if not isinstance(value, list):
            raise TypeError("not a list")
        value = [_convert(COUNT if kind == COUNTS else TIME, x, bounds)
                 for x in value]
        if kind == INTERVAL:
            ok = len(value) == 2 and value[0] < value[1] <= 2 * np.pi
        elif kind == TIMES:
            ok = len(set(value)) == len(value) <= bounds[0]
        else:
            ok = len(set(value)) == len(value) >= 2
    elif kind == COUNT:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        ok = type(value) is int and bounds[0] <= value <= bounds[1]
    elif kind in (POSITIVE, TIME):
        if isinstance(value, (bool, str)):
            raise TypeError("not a number")
        value = float(value)
        ok = math.isfinite(value) and (value > 0 if kind == POSITIVE else value >= 0)
    else:
        ok = isinstance(value, bool) if kind == FLAG else value in bounds
    if not ok:
        raise ValueError("out of bounds")
    return value


def read_fields(name: str, table: dict, block, p=None) -> dict:
    """The fields of block checked against table, absent ones at their
    default; ValidationError for a key not in the table or a value not of its
    row's type and bounds.  A row whose default is None may be null (absent)."""
    if not isinstance(block, dict):
        raise ValidationError(f"{name} must be an object")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ValidationError(f"{name} does not read {unknown}; its fields "
                              f"are {sorted(table)}")
    values = {}
    for key, (kind, default, *bounds) in table.items():
        value = block.get(key, default)
        if callable(value):
            value = value(p, values)
        bounds = [b(p, values) if callable(b) else b for b in bounds]
        try:
            values[key] = (None if value is None and default is None
                           else _convert(kind, value, bounds))
        except (TypeError, ValueError, OverflowError):
            what = f"{kind} {bounds}" if bounds else kind
            raise ValidationError(f"{key} must be {what}, got {value!r}") from None
    return values


def _waiting_time(p) -> float:
    from .spectral import minimal_time

    return minimal_time(p)


MODEL_FIELDS = {key: (POSITIVE, None) for key in
                ("rho_s", "u_s", "kappa", "mu", "b", "a", "gamma")}
CONTROL_VARIANTS = ("everywhere", "boundary", "localized")
_INTERVAL = (INTERVAL, [0.0, np.pi])
_KIND = (CHOICE, "density", *BOUNDARY_KINDS)
_CONTROL = {"variant": (CHOICE, "everywhere", *CONTROL_VARIANTS),
            "N": (COUNT, 16, 1, MAX_GRAM_N),
            "T": (POSITIVE, 1.0)}
_OBSERVABILITY = {"N": (COUNT, 8, 1, MAX_GRAM_N),
                  "T": (POSITIVE, lambda p, v: 1.2 * _waiting_time(p))}
# The field table of each command block; control and observability have one
# per variant, since the variant decides which fields are read.
_BLOCKS = {
    "spectrum": {"n_max": (COUNT, 30, 1, MAX_MODES)},
    "simulate": {
        "N": (COUNT, 16, 1, MAX_MODES),
        "T": (POSITIVE, 5.0),
        "record_points": (COUNT, 65, 2, MAX_RECORDS),
        "subspace": (CHOICE, "Zm", *SUBSPACES),
        "grid": (COUNT, lambda p, v: max(4 * v["N"], 64),
                 lambda p, v: 2 * v["N"] + 1, MAX_GRID),
        # each snapshot writes a grid-row CSV
        "snapshots": (TIMES, lambda p, v: [v["T"]],
                      lambda p, v: MAX_GRID // v["grid"]),
    },
    "control everywhere": _CONTROL,
    "control boundary": {**_CONTROL, "kind": _KIND},
    "control localized": {**_CONTROL, "interval": _INTERVAL},
    "observability boundary": {**_OBSERVABILITY, "kind": _KIND},
    "observability interior": {**_OBSERVABILITY, "interval": _INTERVAL},
    "ingham": {"N": (COUNT, 12, 1, MAX_GRAM_N),
               "T": (POSITIVE, lambda p, v: 1.1 * _waiting_time(p))},
    "lack": {"N_list": (COUNTS, [4, 8, 16, 32], 1, MAX_LACK_N),
             "interval": _INTERVAL,
             "band_mult": (COUNT, 4, 2, MAX_BAND),
             "T": (POSITIVE, None)},
    "stabilize": {"N": (COUNT, 8, 1, MAX_STABILIZE_N),
                  "omega": (POSITIVE, 2.0),
                  "kind": _KIND,
                  "T_end": (POSITIVE, 40.0),
                  "spillover": (FLAG, False)},
}
TABLES = {name: {**fields, "seed": (COUNT, 0, 0, math.inf)}
          for name, fields in _BLOCKS.items()}


def table_name(command: str, block: dict) -> str:
    """The table that reads block; the everywhere one refuses a bad variant."""
    if command == "control":
        variant = block.get("variant")
        return f"control {variant if variant in CONTROL_VARIANTS else 'everywhere'}"
    if command == "observability":
        return f"observability {'interior' if 'interval' in block else 'boundary'}"
    return command


def _run_spectrum(p, v, out, summary):
    from .spectral import solve_beta_cubic, spectrum_rows

    n_max = v["n_max"]
    cols = spectrum_rows(p, n_max)
    write_csv(
        out / "spectrum.csv",
        ["n", "branch", "re_lambda", "im_lambda", "theta", "re_psi", "im_psi",
         "mult_flag"],
        cols,
    )
    # the eigenvalues and the 0-mode marker
    pts = np.column_stack([np.append(cols[2], 0.0), np.append(cols[3], 0.0)])
    emit_svg_scatter(pts, out / "eigenvalues.svg",
                     title=f"eigenvalues, |n| <= {n_max}")
    roots = solve_beta_cubic(p)
    summary["n_max"] = n_max
    summary["beta"] = list(roots.beta)
    summary["omega"] = list(roots.omega)
    summary["artifacts"] = ["spectrum.csv", "eigenvalues.svg"]


def snapshot_label(t: float) -> str:
    """t in the name of its snapshot file: `:g` when that reads back as t,
    else the round-trip `repr`, so distinct times never share a file."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def _run_simulate(p, v, out, summary):
    from .dynamics import evolve, random_state, synthesize_physical

    N, T = v["N"], v["T"]
    state0 = random_state(p, N, subspace=v["subspace"], seed=v["seed"])
    rec, final = evolve(p, state0, T,
                        record_times=np.linspace(0, T, v["record_points"]))
    write_csv(
        out / "trajectory.csv",
        ["t", "energy", "norm_rho", "norm_u", "norm_S"],
        [rec.times, rec.energies, rec.norm_rho, rec.norm_u, rec.norm_S],
    )
    arts = ["trajectory.csv"]
    for t_snap in v["snapshots"]:
        # exact flow to the snapshot instant
        _, snap = evolve(p, state0, t_snap, record_times=np.array([0.0, t_snap]))
        x, fields = synthesize_physical(snap, v["grid"])
        name = f"snapshot_t{snapshot_label(t_snap)}.csv"
        write_csv(out / name, ["x", "rho", "u", "S"], [x, *fields.real])
        arts.append(name)
    summary["N"] = N
    summary["T"] = T
    summary["initial_energy"] = rec.energies[0]
    summary["final_energy"] = rec.energies[-1]
    summary["artifacts"] = arts


def _run_control(p, v, out, summary):
    from .control import (
        synthesize_boundary_control,
        synthesize_everywhere_control,
        synthesize_localized_control,
    )
    from .dynamics import random_state

    variant, N, T = v["variant"], v["N"], v["T"]
    summary.update(v)
    state0 = random_state(p, N, subspace="Zmm" if variant == "boundary" else "Zm",
                          seed=v["seed"])
    if variant == "everywhere":
        sig, resid, _ = synthesize_everywhere_control(p, state0, T, N)
        cond = None
    elif variant == "boundary":
        sig, resid, cond, _ = synthesize_boundary_control(p, state0, T, N, v["kind"])
    else:
        sig, resid, cond, _ = synthesize_localized_control(p, state0, T, N, v["interval"])
    # free flow never raises the energy, so a residual >= 1 is no better
    # than no control at all
    if not (math.isfinite(sig.norm_l2) and resid < 1.0):
        raise NumericalFailure(f"control failed: residual {resid:.3e}, "
                               f"control norm {sig.norm_l2:.3e}")

    if sig.samples.ndim == 1:
        write_csv(out / "control.csv", ["t", "re_q", "im_q"],
                  [sig.times, sig.samples.real, sig.samples.imag])
    else:
        header = ["t"]
        for n in sig.mode_labels:
            header += [f"re_f_{n}", f"im_f_{n}"]
        cols = np.empty((1 + 2 * len(sig.mode_labels), len(sig.times)))
        cols[0] = sig.times
        cols[1::2] = sig.samples.real
        cols[2::2] = sig.samples.imag
        write_csv(out / "control.csv", header, cols)
    summary["residual"] = resid
    summary["control_norm"] = sig.norm_l2
    if cond is not None:
        summary["gramian_cond"] = cond
    summary["artifacts"] = ["control.csv"]


def _run_observability(p, v, out, summary):
    from .observability import (
        boundary_observability_constant,
        interior_observability_constant,
    )

    payload = {key: v[key] for key in v if key != "seed"}
    if "interval" in v:
        lmin, lmax = interior_observability_constant(p, v["N"], v["T"], v["interval"])
    else:
        lmin, lmax = boundary_observability_constant(p, v["N"], v["T"], v["kind"])
    payload["lambda_min"] = lmin
    payload["lambda_max"] = lmax
    payload["cond"] = lmax / lmin if lmin > 0 else None
    write_json(out / "observability.json", payload)
    summary.update(payload)
    summary["artifacts"] = ["observability.json"]


def _run_ingham(p, v, out, summary):
    from .observability import ingham_frame_bounds
    from .spectral import minimal_time

    N, T = v["N"], v["T"]
    c1, c2 = ingham_frame_bounds(p, N, T)
    payload = {"N": N, "T": T, "C1_hat": c1, "C2_hat": c2,
               "T0": minimal_time(p)}
    write_json(out / "ingham.json", payload)
    summary.update(payload)
    summary["artifacts"] = ["ingham.json"]


def _run_lack(p, v, out, summary):
    from .observability import lack_experiment

    N_list, (lo, hi) = v["N_list"], v["interval"]
    res = lack_experiment(p, N_list, v["T"], (lo, hi), band_mult=v["band_mult"])
    write_csv(out / "lack.csv", ["N", "ratio", "slope"],
              [res.N_list, res.ratios, np.full(len(res.ratios), res.slope)])
    summary.update({"N_list": N_list, "T": res.T, "interval": [lo, hi],
                    "ratios": res.ratios, "slope": res.slope})
    summary["artifacts"] = ["lack.csv"]


def _run_stabilize(p, v, out, summary):
    from .dynamics import random_state
    from .stabilize import (
        build_feedback,
        closed_loop_simulate,
        fit_decay_rate,
        spillover_report,
    )

    N, omega, kind, T_end = v["N"], v["omega"], v["kind"], v["T_end"]
    law = build_feedback(p, N, omega, kind)
    z0 = random_state(p, N, subspace="Zmm", seed=v["seed"])
    traj = closed_loop_simulate(p, law, z0, T_end)
    nu = fit_decay_rate(traj)
    write_csv(
        out / "trajectory.csv",
        ["t", "energy", "norm_rho", "norm_u", "norm_S", "re_q", "im_q"],
        [traj.times, traj.energies, traj.norm_rho, traj.norm_u, traj.norm_S,
         traj.control.real, traj.control.imag],
    )
    payload = {
        "omega": omega,
        "N": N,
        "kind": kind,
        "nu_fit": nu,
        "closed_loop_abscissa": law.abscissa,
        "cond_M": law.cond_M,
        "growth_threshold": law.growth,
        "T_end": T_end,
    }
    if v["spillover"]:
        payload["spillover"] = spillover_report(p, law, z0, T_end)
    write_json(out / "stabilize.json", payload)
    summary.update(payload)
    summary["artifacts"] = ["stabilize.json", "trajectory.csv"]


_RUNNERS = {
    "spectrum": _run_spectrum,
    "simulate": _run_simulate,
    "control": _run_control,
    "observability": _run_observability,
    "ingham": _run_ingham,
    "lack": _run_lack,
    "stabilize": _run_stabilize,
}


def run(command: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = Path(out_dir) if out_dir else None
    summary = {"version": __version__, "command": command}
    try:
        cfg = json.loads(Path(config_path).read_text())
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
        out = Path(out_dir or cfg.get("out", "."))
        if command not in _RUNNERS:
            raise ValidationError(f"unknown command {command!r}")
        if command not in cfg or not {"model", "out", command}.issuperset(cfg):
            raise ValidationError(f"config must carry 'model', the {command!r} "
                                  f"block and at most 'out', found {sorted(cfg)}")
        p = FluidParams(**read_fields("model", MODEL_FIELDS, cfg.get("model")))
        block = cfg[command]
        if not isinstance(block, dict):
            raise ValidationError("command block must be an object")
        if seed is not None:
            block = {**block, "seed": seed}
        out.mkdir(parents=True, exist_ok=True)
    except (ValidationError, json.JSONDecodeError, OSError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        summary.update(status="validation-error", error=str(exc))
        with suppress(OSError):  # a summary.json whenever out is known
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                write_json(out / "summary.json", summary)
        return 2

    dc = derive_constants(p)
    summary["status"] = "ok"
    summary["model"] = {k: v for k, v in cfg["model"].items()}
    summary["derived"] = {"b": dc.b, "big_d": dc.big_d, "inv_kappa": dc.inv_kappa}
    try:
        name = table_name(command, block)
        values = read_fields(name, TABLES[name], block, p)
        summary["seed"] = values["seed"]
        _RUNNERS[command](p, values, out, summary)
        code = 0
    except ValidationError as exc:
        summary["status"] = "validation-error"
        summary["error"] = str(exc)
        print(f"validation error: {exc}", file=sys.stderr)
        code = 2
    except CnsmaxError as exc:
        summary["status"] = "numerical-failure"
        summary["error"] = str(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    write_json(out / "summary.json", summary)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="cnsmax",
        description="spectral control toolkit for the relaxed compressible "
                    "Navier-Stokes system on a periodic interval",
    )
    ap.add_argument("command", choices=list(_RUNNERS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the command block's seed")
    args = ap.parse_args()
    return run(args.command, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
