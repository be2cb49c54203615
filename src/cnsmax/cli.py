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
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CnsmaxError, NumericalFailure, ValidationError
from .model import FluidParams, derive_constants, validate

COMMANDS = ("spectrum", "simulate", "control", "observability", "ingham",
            "lack", "stabilize")

# Upper bounds of the count fields.  Each keeps its command's peak memory
# near or below 1 GiB; the figures are peak RSS measured at the bound on
# x86-64 with NumPy 2.
MAX_MODES = 1 << 17      # spectrum n_max (about 5 KiB a mode, 700 MiB)
                         # and simulate N (430 MiB)
MAX_GRAM_N = 256         # Gram commands hold (6N+1)^2 complex entries, a few
                         # copies: 290 MiB for observability; control's
                         # forced evolve at MAX_PANELS stays below 1 GiB too
MAX_RECORDS = 1 << 18    # simulate record_points: about 450 B a row
MAX_GRID = 1 << 20       # simulate grid: about 400 B a point
MAX_LACK_N = 1 << 14     # lack N_list entries, with band_mult <= MAX_BAND:
MAX_BAND = 16            # 2 (band_mult - 1) N modes, 520 MiB


def fmt(x) -> str:
    """Fixed 17-significant-digit scientific format (locale independent)."""
    return f"{float(x):.16e}"


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append(str(v) if isinstance(v, (int, np.integer)) else fmt(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not serializable: {type(v)}")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def emit_svg_scatter(points, path: Path, title: str = "spectrum") -> None:
    """Standalone deterministic SVG scatter of complex points (Re, Im axes)."""
    pts = [(float(re), float(im)) for re, im in points]
    if not pts:
        raise ValidationError("cannot render an empty point set")
    W, H, m = 800, 600, 60
    xs = [pt[0] for pt in pts]
    ys = [pt[1] for pt in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * dx, x1 + 0.05 * dx
    y0, y1 = y0 - 0.05 * dy, y1 + 0.05 * dy

    def sx(x):
        return m + (x - x0) / (x1 - x0) * (W - 2 * m)

    def sy(y):
        return H - m - (y - y0) / (y1 - y0) * (H - 2 * m)

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
    for re, im in pts:
        parts.append(
            f'<circle cx="{sx(re):.3f}" cy="{sy(im):.3f}" r="3" '
            f'fill="steelblue" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _params_from_config(cfg) -> FluidParams:
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ValidationError("config must carry a 'model' object")
    known = {"rho_s", "u_s", "kappa", "mu", "b", "a", "gamma"}
    extra = set(block) - known
    if extra:
        raise ValidationError(f"unknown model fields: {sorted(extra)}")
    for key, value in block.items():
        if value is not None:  # null stands for an absent field
            _field(block, key, None, _real, math.isfinite, "a finite number")
    probe = argparse.Namespace(
        rho_s=block.get("rho_s"), u_s=block.get("u_s"),
        kappa=block.get("kappa"), mu=block.get("mu"),
        b=block.get("b"), a=block.get("a"), gamma=block.get("gamma"),
    )
    errs = validate(probe)
    if errs:
        raise ValidationError("; ".join(errs))
    return FluidParams(**{k: block[k] for k in block})


def _field(block, key, default, cast, ok, what):
    """block[key] (default if absent) converted by cast and checked by ok."""
    value = block.get(key, default)
    try:
        converted = cast(value)
        if ok(converted):
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{key} must be {what}, got {value!r}")


def _real(value) -> float:
    """value as a float; a JSON boolean or string is not a number."""
    if isinstance(value, (bool, str)):
        raise TypeError("not a number")
    return float(value)


def _integer(value) -> int:
    """value as an int; booleans and non-integral numbers are refused."""
    n = int(value)
    if n != _real(value):
        raise ValueError("not integral")
    return n


def _count(block, key, default, most, least=1):
    return _field(block, key, default, _integer, lambda v: least <= v <= most,
                  f"an integer in [{least}, {most}]")


def _positive(block, key, default):
    return _field(block, key, default, _real,
                  lambda v: v > 0 and math.isfinite(v), "a finite positive number")


def _flag(block, key, default=False):
    return _field(block, key, default, lambda v: v,
                  lambda v: isinstance(v, bool), "true or false")


def _interval(block):
    return _field(block, "interval", [0.0, np.pi],
                  lambda v: tuple(_real(x) for x in v),
                  lambda v: len(v) == 2 and 0.0 <= v[0] < v[1] <= 2 * np.pi,
                  "[l1, l2] with 0 <= l1 < l2 <= 2*pi")


def _kind(block):
    from .control import check_boundary_kind

    kind = block.get("kind", "density")
    check_boundary_kind(kind)
    return kind


def _run_spectrum(p, block, out, summary, seed):
    from .spectral import solve_beta_cubic, spectrum_rows

    n_max = _count(block, "n_max", 30, MAX_MODES)
    rows = spectrum_rows(p, n_max)
    write_csv(
        out / "spectrum.csv",
        ["n", "branch", "re_lambda", "im_lambda", "theta", "re_psi", "im_psi",
         "mult_flag"],
        rows,
    )
    pts = [(r[2], r[3]) for r in rows] + [(0.0, 0.0)]
    emit_svg_scatter(pts, out / "eigenvalues.svg",
                     title=f"eigenvalues, |n| <= {n_max}")
    roots = solve_beta_cubic(p)
    summary["n_max"] = n_max
    summary["beta"] = list(roots.beta)
    summary["omega"] = list(roots.omega)
    summary["artifacts"] = ["spectrum.csv", "eigenvalues.svg"]


def _run_simulate(p, block, out, summary, seed):
    from .dynamics import SUBSPACES, evolve, random_state, synthesize_physical

    N = _count(block, "N", 16, MAX_MODES)
    T = _positive(block, "T", 5.0)
    points = _count(block, "record_points", 65, MAX_RECORDS, least=2)
    subspace = _field(block, "subspace", "Zm", str, lambda v: v in SUBSPACES,
                      f"one of {SUBSPACES}")
    grid = _count(block, "grid", max(4 * N, 64), MAX_GRID, least=2 * N + 1)
    snapshots = _field(block, "snapshots", [T], lambda v: [_real(t) for t in v],
                       lambda v: all(t >= 0 and math.isfinite(t) for t in v),
                       "a list of finite times >= 0")
    state0 = random_state(p, N, subspace=subspace, seed=seed)
    rec, final = evolve(p, state0, T, record_times=np.linspace(0, T, points))
    write_csv(
        out / "trajectory.csv",
        ["t", "energy", "norm_rho", "norm_u", "norm_S"],
        zip(rec.times, rec.energies, rec.norm_rho, rec.norm_u, rec.norm_S),
    )
    arts = ["trajectory.csv"]
    for t_snap in snapshots:
        # exact flow to the snapshot instant
        _, snap = evolve(p, state0, t_snap, record_times=np.array([0.0, t_snap]))
        x, fields = synthesize_physical(snap, grid)
        name = f"snapshot_t{t_snap:g}.csv"
        write_csv(
            out / name,
            ["x", "rho", "u", "S"],
            zip(x, fields[0].real, fields[1].real, fields[2].real),
        )
        arts.append(name)
    summary["N"] = N
    summary["T"] = T
    summary["initial_energy"] = rec.energies[0]
    summary["final_energy"] = rec.energies[-1]
    summary["artifacts"] = arts


def _run_control(p, block, out, summary, seed):
    from .control import (
        synthesize_boundary_control,
        synthesize_everywhere_control,
        synthesize_localized_control,
    )
    from .dynamics import random_state

    variant = block.get("variant", "everywhere")
    if variant not in ("everywhere", "boundary", "localized"):
        raise ValidationError(f"unknown control variant {variant!r}")
    N = _count(block, "N", 16, MAX_GRAM_N)
    T = _positive(block, "T", 1.0)
    summary.update({"variant": variant, "N": N, "T": T})
    if variant == "everywhere":
        state0 = random_state(p, N, subspace="Zm", seed=seed)
        sig, resid, _ = synthesize_everywhere_control(p, state0, T, N)
        cond = None
    elif variant == "boundary":
        kind = _kind(block)
        state0 = random_state(p, N, subspace="Zmm", seed=seed)
        sig, resid, cond, _ = synthesize_boundary_control(p, state0, T, N, kind)
        summary["kind"] = kind
    else:
        lo, hi = _interval(block)
        state0 = random_state(p, N, subspace="Zm", seed=seed)
        sig, resid, cond, _ = synthesize_localized_control(p, state0, T, N, (lo, hi))
        summary["interval"] = [lo, hi]
    # free flow never raises the energy, so a residual >= 1 is no better
    # than no control at all
    if not (math.isfinite(sig.norm_l2) and resid < 1.0):
        raise NumericalFailure(f"control failed: residual {resid:.3e}, "
                               f"control norm {sig.norm_l2:.3e}")

    if sig.samples.ndim == 1:
        write_csv(out / "control.csv", ["t", "re_q", "im_q"],
                  zip(sig.times, sig.samples.real, sig.samples.imag))
    else:
        header = ["t"]
        for n in sig.mode_labels:
            header += [f"re_f_{n}", f"im_f_{n}"]
        rows = np.empty((len(sig.times), 1 + 2 * len(sig.mode_labels)))
        rows[:, 0] = sig.times
        rows[:, 1::2] = sig.samples.real.T
        rows[:, 2::2] = sig.samples.imag.T
        write_csv(out / "control.csv", header, rows)
    summary["residual"] = resid
    summary["control_norm"] = sig.norm_l2
    if cond is not None:
        summary["gramian_cond"] = cond
    summary["artifacts"] = ["control.csv"]


def _run_observability(p, block, out, summary, seed):
    from .observability import (
        boundary_observability_constant,
        interior_observability_constant,
        minimal_time,
    )

    N = _count(block, "N", 8, MAX_GRAM_N)
    T = _positive(block, "T", 1.2 * minimal_time(p))
    payload = {"N": N, "T": T}
    if "interval" in block:
        lo, hi = _interval(block)
        lmin, lmax = interior_observability_constant(p, N, T, (lo, hi))
        payload["interval"] = [lo, hi]
    else:
        kind = _kind(block)
        lmin, lmax = boundary_observability_constant(p, N, T, kind)
        payload["kind"] = kind
    payload["lambda_min"] = lmin
    payload["lambda_max"] = lmax
    payload["cond"] = lmax / lmin if lmin > 0 else None
    write_json(out / "observability.json", payload)
    summary.update(payload)
    summary["artifacts"] = ["observability.json"]


def _run_ingham(p, block, out, summary, seed):
    from .observability import ingham_frame_bounds, minimal_time

    N = _count(block, "N", 12, MAX_GRAM_N)
    T = _positive(block, "T", 1.1 * minimal_time(p))
    c1, c2 = ingham_frame_bounds(p, N, T)
    payload = {"N": N, "T": T, "C1_hat": c1, "C2_hat": c2,
               "T0": minimal_time(p)}
    write_json(out / "ingham.json", payload)
    summary.update(payload)
    summary["artifacts"] = ["ingham.json"]


def _run_lack(p, block, out, summary, seed):
    from .observability import lack_experiment
    from .spectral import solve_beta_cubic

    N_list = _field(block, "N_list", [4, 8, 16, 32], lambda v: [_integer(n) for n in v],
                    lambda v: 1 <= min(v) <= max(v) <= MAX_LACK_N and len(set(v)) >= 2,
                    f"a list of at least two distinct integers in [1, {MAX_LACK_N}]")
    lo, hi = _interval(block)
    band_mult = _count(block, "band_mult", 4, MAX_BAND, least=2)
    beta = solve_beta_cubic(p).beta
    bhat = min(abs(b) for b in beta)
    T = _positive(block, "T", 0.8 * (2 * np.pi - hi) / bhat)
    res = lack_experiment(p, N_list, T, (lo, hi), band_mult=band_mult)
    write_csv(
        out / "lack.csv",
        ["N", "ratio", "slope"],
        [(n, r, res.slope) for n, r in zip(res.N_list, res.ratios)],
    )
    summary.update({"N_list": N_list, "T": T, "interval": [lo, hi],
                    "ratios": res.ratios, "slope": res.slope})
    summary["artifacts"] = ["lack.csv"]


def _run_stabilize(p, block, out, summary, seed):
    from .dynamics import random_state
    from .stabilize import (
        build_feedback,
        closed_loop_simulate,
        fit_decay_rate,
        growth_threshold,
    )

    N = _count(block, "N", 8, MAX_GRAM_N)
    omega = _positive(block, "omega", 2.0)
    kind = _kind(block)
    T_end = _positive(block, "T_end", 40.0)
    spillover = _flag(block, "spillover")
    law = build_feedback(p, N, omega, kind)
    z0 = random_state(p, N, subspace="Zmm", seed=seed)
    traj = closed_loop_simulate(p, law, z0, T_end)
    nu = fit_decay_rate(traj)
    rows = zip(traj.times, traj.energies, traj.norm_rho, traj.norm_u,
               traj.norm_S, traj.control.real, traj.control.imag)
    write_csv(
        out / "trajectory.csv",
        ["t", "energy", "norm_rho", "norm_u", "norm_S", "re_q", "im_q"],
        rows,
    )
    payload = {
        "omega": omega,
        "N": N,
        "kind": kind,
        "nu_fit": nu,
        "closed_loop_abscissa": law.abscissa,
        "cond_M": law.cond_M,
        "growth_threshold": growth_threshold(p, N),
        "T_end": T_end,
    }
    if spillover:
        from .stabilize import spillover_report

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


def _seed(block, override):
    """The run seed: the --seed override if given, else the block's seed."""
    source = block if override is None else {"seed": override}
    return _field(source, "seed", 0, _integer, lambda v: v >= 0, "an integer >= 0")


def _write_early_summary(out, summary) -> None:
    """summary.json for a configuration error, when the output directory is
    known and can be made."""
    if out is None:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "summary.json", summary)
    except OSError:
        pass


def run(command: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = Path(out_dir) if out_dir else None
    try:
        cfg = json.loads(Path(config_path).read_text())
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
        out = Path(out_dir or cfg.get("out", "."))
        if command not in COMMANDS:
            raise ValidationError(f"unknown command {command!r}")
        blocks = [k for k in cfg if k in COMMANDS]
        if blocks != [command]:
            raise ValidationError(
                f"config must carry exactly the {command!r} command block, "
                f"found {blocks}"
            )
        p = _params_from_config(cfg)
        block = cfg[command]
        if not isinstance(block, dict):
            raise ValidationError("command block must be an object")
        eff_seed = _seed(block, seed)
        out.mkdir(parents=True, exist_ok=True)
    except (ValidationError, json.JSONDecodeError, OSError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _write_early_summary(out, {
            "version": __version__, "command": command,
            "status": "validation-error", "error": str(exc),
        })
        return 2

    dc = derive_constants(p)
    summary = {
        "version": __version__,
        "command": command,
        "model": {k: v for k, v in cfg["model"].items()},
        "derived": {"b": dc.b, "big_d": dc.big_d, "inv_kappa": dc.inv_kappa},
        "seed": eff_seed,
        "status": "ok",
    }
    try:
        _RUNNERS[command](p, block, out, summary, eff_seed)
        code = 0
    except ValidationError as exc:
        summary["status"] = "validation-error"
        summary["error"] = str(exc)
        print(f"validation error: {exc}", file=sys.stderr)
        code = 2
    except (NumericalFailure, CnsmaxError) as exc:
        summary["status"] = "numerical-failure"
        summary["error"] = str(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    write_json(out / "summary.json", summary)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cnsmax",
        description="spectral control toolkit for the relaxed compressible "
                    "Navier-Stokes system on a periodic interval",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the command block's seed")
    args = ap.parse_args(argv)
    return run(args.command, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
