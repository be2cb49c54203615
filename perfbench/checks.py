"""Output checks for every benchmark case.

A case passes when the command exits 0, writes every artifact it names,
meets the acceptance bounds of the paper's criteria, and reproduces the key
scalars recorded in `reference.json` within the relative tolerances below.
Seed-independent scalars are always compared.  Seed-dependent ones (control
norms, energies, fitted decay rates) are recorded for REFERENCE_SEEDS only;
for any other seed they are checked by the acceptance bounds alone, and
`seed_scalars_compared` reports that so the caller can say it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Seeds whose seed-dependent scalars reference.json holds.
REFERENCE_SEEDS = range(100)

# Relative tolerance of each compared scalar, set by its conditioning.
# Values with no error amplification (spectral data, closed-form constants,
# energies, fitted rates, the lack slope) are tight; quantities that pass
# through a solve or eigensolve of an ill-conditioned Gram are allowed about
# eps * cond of drift, with margin.
RTOL = {
    # spectrum.csv column sums and the slope-cubic offsets: 17-digit output
    # of Newton-polished roots
    "spectrum.sum_re_lambda": 1e-12,
    "spectrum.sum_abs_im_lambda": 1e-12,
    "spectrum.sum_theta": 1e-12,
    "spectrum.sum_abs_psi": 1e-12,
    "spectrum.omega_1": 1e-12,
    "spectrum.omega_2": 1e-12,
    "spectrum.omega_3": 1e-12,
    "simulate.initial_energy": 1e-12,
    "simulate.final_energy": 1e-10,
    "ingham.T0": 1e-12,
    "ingham.C2_hat": 1e-10,
    # smallest eigenvalue of an exponential Gram with cond ~ 8e7
    "ingham.C1_hat": 1e-5,
    "observability_boundary.lambda_max": 1e-8,
    # generalized eigenvalue of the boundary pencil, cond ~ 5e8
    "observability_boundary.lambda_min": 1e-3,
    "observability_interior.lambda_max": 1e-8,
    # interior pencil, cond ~ 9e3
    "observability_interior.lambda_min": 1e-6,
    "lack.slope": 1e-10,
    "lack.ratio_min": 1e-9,
    "lack.ratio_max": 1e-9,
    # HUM Gram cond ~ 3e7 (boundary) and ~ 4e3 (localized): the cond
    # estimate and the norm sqrt(y* G^-1 y) drift by about eps * cond
    "control_boundary.gramian_cond": 1e-6,
    "control_boundary.control_norm": 1e-7,
    "control_localized.gramian_cond": 1e-9,
    "control_localized.control_norm": 1e-9,
    "control_everywhere.control_norm": 1e-10,
    # the exact route's cond(M) ~ 1e18 is past double precision, so only
    # its order of magnitude is stable
    "stabilize_exact.cond_M_log10": 0.05,
    "stabilize_exact.closed_loop_abscissa": 1e-12,
    "stabilize_exact.growth_threshold": 1e-12,
    "stabilize_exact.nu_fit": 1e-8,
    # cond(M) ~ 3e11 on the f64 solve of the design law
    "stabilize_spillover.cond_M_log10": 1e-4,
    "stabilize_spillover.closed_loop_abscissa": 1e-12,
    "stabilize_spillover.growth_threshold": 1e-12,
    "stabilize_spillover.nu_fit": 1e-6,
    "stabilize_spillover.nu_fit_design": 1e-8,
    "stabilize_spillover.nu_fit_extended": 1e-8,
    "stabilize_spillover.spillover_energy_peak": 1e-8,
    "stabilize_f64.cond_M_log10": 1e-7,
    "stabilize_f64.closed_loop_abscissa": 1e-12,
    "stabilize_f64.growth_threshold": 1e-12,
    "stabilize_f64.nu_fit": 1e-8,
}

# Scalars that depend on the random initial state, hence on the seed.
SEED_DEPENDENT = {
    "simulate.final_energy",
    "control_boundary.control_norm",
    "control_localized.control_norm",
    "control_everywhere.control_norm",
    "stabilize_exact.nu_fit",
    "stabilize_spillover.nu_fit",
    "stabilize_spillover.nu_fit_design",
    "stabilize_spillover.nu_fit_extended",
    "stabilize_spillover.spillover_energy_peak",
    "stabilize_f64.nu_fit",
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _csv(path: Path, rows: int, cols: int) -> np.ndarray:
    _require(path.is_file(), f"missing artifact {path.name}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape == (rows, cols),
             f"{path.name} has shape {data.shape}, expected {(rows, cols)}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name} holds non-finite values")
    return data


def _json(path: Path) -> dict:
    _require(path.is_file(), f"missing artifact {path.name}")
    return json.loads(path.read_text())


def observe(case, out: Path) -> dict:
    """Check artifacts and acceptance bounds; return the scalars to compare."""
    s = _json(out / "summary.json")
    _require(s.get("status") == "ok", f"status {s.get('status')!r}")
    for name in s["artifacts"]:
        _require((out / name).is_file(), f"missing artifact {name}")
    block = case.block
    obs: dict[str, float] = {}

    if case.command == "control":
        variant = block["variant"]
        limit = 1e-8 if variant == "everywhere" else 1e-6
        _require(s["residual"] <= limit,
                 f"residual {s['residual']:.3e} > {limit:g}")
        N = block["N"]
        if variant == "boundary":
            _csv(out / "control.csv", 2048, 3)
        else:
            samples = 2048 if variant == "everywhere" else 512
            _csv(out / "control.csv", samples, 1 + 2 * (2 * N + 1))
        obs["control_norm"] = s["control_norm"]
        if variant != "everywhere":
            obs["gramian_cond"] = s["gramian_cond"]

    elif case.command == "stabilize":
        omega = block["omega"]
        _require(s["nu_fit"] >= omega, f"nu_fit {s['nu_fit']} < omega {omega}")
        _require(s["closed_loop_abscissa"] <= -omega,
                 f"abscissa {s['closed_loop_abscissa']} > -omega")
        traj = _json(out / "stabilize.json")
        _require(traj["nu_fit"] == s["nu_fit"], "stabilize.json disagrees with summary")
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        _require(data.shape[1] == 7 and data.shape[0] >= 64,
                 f"trajectory.csv has shape {data.shape}")
        _require(math.isclose(data[-1, 0], block.get("T_end", 40.0), rel_tol=1e-12),
                 "trajectory does not end at T_end")
        obs["nu_fit"] = s["nu_fit"]
        obs["closed_loop_abscissa"] = s["closed_loop_abscissa"]
        obs["growth_threshold"] = s["growth_threshold"]
        obs["cond_M_log10"] = math.log10(s["cond_M"])
        if block.get("spillover"):
            sp = s["spillover"]
            _require(sp["nu_fit_design"] >= omega,
                     f"nu_fit_design {sp['nu_fit_design']} < omega")
            _require(0.0 < sp["nu_fit_extended"] < sp["nu_fit_design"],
                     f"nu_fit_extended {sp['nu_fit_extended']} outside "
                     f"(0, nu_fit_design)")
            for key in ("nu_fit_design", "nu_fit_extended", "spillover_energy_peak"):
                obs[key] = sp[key]

    elif case.command == "spectrum":
        n_max = block["n_max"]
        data = _csv(out / "spectrum.csv", 6 * n_max, 8)
        _require(not np.any(data[:, 7]), "multiplicity flag raised")
        svg = (out / "eigenvalues.svg").read_text()
        _require(svg.count("<circle") == 6 * n_max + 1, "SVG point count")
        for j, om in enumerate(s["omega"]):
            sel = (np.abs(data[:, 0]) == n_max) & (data[:, 1] == j + 1)
            dev = abs(float(np.mean(data[sel, 2])) + om)
            _require(sel.sum() == 2 and dev < 0.05,
                     f"|n|={n_max} cluster mean of branch {j + 1} is {dev:.3e} "
                     f"from -omega")
            obs[f"omega_{j + 1}"] = om
        obs["sum_re_lambda"] = float(np.sum(data[:, 2]))
        obs["sum_abs_im_lambda"] = float(np.sum(np.abs(data[:, 3])))
        obs["sum_theta"] = float(np.sum(data[:, 4]))
        obs["sum_abs_psi"] = float(np.sum(np.hypot(data[:, 5], data[:, 6])))

    elif case.command == "simulate":
        data = _csv(out / "trajectory.csv", block["record_points"], 5)
        _csv(out / f"snapshot_t{float(block['T']):g}.csv", 4 * block["N"], 4)
        _require(bool(np.all(np.diff(data[:, 1]) <= 1e-12)),
                 "free energy increased")
        _require(data[-1, 1] == s["final_energy"], "trajectory disagrees with summary")
        obs["initial_energy"] = s["initial_energy"]
        obs["final_energy"] = s["final_energy"]

    elif case.command == "ingham":
        d = _json(out / "ingham.json")
        _require(0.0 < d["C1_hat"] <= d["C2_hat"], "frame bounds out of order")
        obs["T0"] = d["T0"]
        obs["C1_hat"] = d["C1_hat"]
        obs["C2_hat"] = d["C2_hat"]

    elif case.command == "observability":
        d = _json(out / "observability.json")
        _require(0.0 < d["lambda_min"] <= d["lambda_max"],
                 "observability constants out of order")
        obs["lambda_min"] = d["lambda_min"]
        obs["lambda_max"] = d["lambda_max"]

    elif case.command == "lack":
        data = _csv(out / "lack.csv", len(block["N_list"]), 3)
        _require(bool(np.all(data[:, 1] > 0)), "nonpositive lack ratio")
        _require(bool(np.all(np.diff(data[:, 1]) < 0)), "lack ratio not decreasing")
        obs["slope"] = s["slope"]
        obs["ratio_min"] = float(data[:, 1].min())
        obs["ratio_max"] = float(data[:, 1].max())

    return {f"{case.name}.{k}": float(v) for k, v in obs.items()}


def seed_scalars_compared(seed: int) -> bool:
    """Whether the seed-dependent scalars of `seed` have reference values."""
    return seed in REFERENCE_SEEDS


def compare(observed: dict, reference: dict, seed: int) -> list[str]:
    """Differences from the recorded reference beyond each key's tolerance."""
    expected = dict(reference["values"])
    if seed_scalars_compared(seed):
        expected.update(reference["by_seed"][str(seed)])
    problems = []
    for key, value in observed.items():
        if key in SEED_DEPENDENT and not seed_scalars_compared(seed):
            continue
        if key not in expected:
            problems.append(f"{key}: no reference value")
            continue
        ref = expected[key]
        if not abs(value - ref) <= RTOL[key] * abs(ref):
            problems.append(f"{key}: {value!r} vs reference {ref!r} "
                            f"(rtol {RTOL[key]:g})")
    return problems


def check_case(case, out: Path, seed: int, reference: dict) -> list[str]:
    """All problems of one case's outputs; an empty list means it passed."""
    try:
        observed = observe(case, out)
    except CheckFailed as exc:
        return [f"{case.name}: {exc}"]
    return compare(observed, reference, seed)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
