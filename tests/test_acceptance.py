"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cnsmax import FluidParams, derive_constants
from cnsmax.control import (
    gramian_closed_form,
    synthesize_boundary_control,
    synthesize_everywhere_control,
    synthesize_localized_control,
)
from cnsmax._gram import boundary_observation_vector, build_branch_table, kernel_gram
from cnsmax.dynamics import random_state
from cnsmax.observability import (
    exponential_gram,
    ingham_frame_bounds,
    lack_experiment,
)
from cnsmax.spectral import (
    TWO_PI,
    minimal_time,
    branch_residual_slope,
    gamma_matrix,
    mode_eigenvalues_batch,
    mode_system,
    solve_beta_cubic,
    biorthogonality_matrix,
)
from cnsmax.stabilize import (
    build_feedback,
    closed_loop_simulate,
    fit_decay_rate,
    quadrature_gramian,
)
from conftest import make_params


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_01_spectral_identities(p1):
    t0 = time.monotonic()
    ns = np.concatenate([np.arange(-200, 0), np.arange(1, 201)])
    params = [p1] + [make_params(s) for s in (101, 202, 303)]
    for p in params:
        # mode_eigenvalues_batch enforces the six root-coefficient
        # identities at 1e-8 relative internally and raises otherwise
        lam = mode_eigenvalues_batch(p, ns)
        assert np.all(lam.real < 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"root-coefficient identities + negative real parts over "
               f"1<=|n|<=200 for 4 parameter sets in {elapsed:.2f}s")


def test_criterion_02_asymptotics(p1):
    slope, _, _ = branch_residual_slope(p1, 20, 200)
    assert -1.3 <= slope <= -0.7
    roots = solve_beta_cubic(p1)
    lam = mode_eigenvalues_batch(p1, [10_000])[0]
    assert np.max(np.abs(-lam.real - np.asarray(roots.omega))) < 1e-6
    assert np.allclose(roots.omega, (0.5432, 0.3493, 0.1076), atol=1.5e-4)
    _report(2, f"branch residual slope {slope:.3f} in [-1.3,-0.7]; omega "
               f"within 1e-6 of the |n|=1e4 eigensolve")


def test_criterion_03_discriminant(p1):
    assert derive_constants(p1).big_d == pytest.approx(49.0, abs=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        v = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 5))
        p = FluidParams(rho_s=v[0], u_s=v[1], kappa=v[2], mu=v[3], b=v[4])
        assert derive_constants(p).big_d > 0
    _report(3, "big_d(P1) = 49 to 1e-10; positive on 1000 random draws")


def test_criterion_04_biorthogonality_and_gamma(p1):
    worst = 0.0
    for n in range(1, 51):
        for sign in (n, -n):
            m = mode_system(p1, sign)
            worst = max(worst, np.max(np.abs(
                biorthogonality_matrix(p1, m) - np.eye(3))))
    # cross-mode pairs vanish through Fourier orthogonality; spot-check two
    # (uniform periodic Riemann sum is exact for these integrands)
    x = TWO_PI * np.arange(4096) / 4096
    for n, k in [(3, 7), (12, -12)]:
        quad = TWO_PI * np.mean(np.exp(1j * (n - k) * x))
        worst = max(worst, abs(quad) / TWO_PI)
    assert worst <= 1e-9

    worst_det = 0.0
    for n in range(1, 101):
        for sign in (n, -n):
            gm = gamma_matrix(p1, mode_system(p1, sign))
            det = np.linalg.det(gm.entries)
            worst_det = max(worst_det,
                            abs(det - gm.det_closed_form) / abs(det))
    assert worst_det <= 1e-9
    _report(4, f"biorthogonality error {worst:.2e} <= 1e-9 (|n|<=50); "
               f"det Gamma closed-form error {worst_det:.2e} <= 1e-9 (|n|<=100)")


def test_criterion_05_gramian_oracle(p1):
    xs, ws = leggauss(60)
    worst = 0.0
    for n in list(range(1, 21)) + [-n for n in range(1, 21)]:
        m = mode_system(p1, n)
        for T in (0.5, 1.0, 2.0):
            data = gramian_closed_form(p1, m, T)
            Wq = np.zeros((3, 3), dtype=complex)
            for x_, w_ in zip(xs, ws):
                t = 0.5 * T * (x_ + 1.0)
                v = np.exp(t * m.lambdas) * data.B_n
                Wq += 0.5 * T * w_ * np.outer(v, np.conj(v))
            worst = max(worst, float(np.max(np.abs(Wq - data.W))))
    assert worst <= 1e-8

    roots = solve_beta_cubic(p1)
    beta, omega = np.asarray(roots.beta), np.asarray(roots.omega)
    T = 1.0
    denom = (p1.b_eff + (beta + p1.u_s) ** 2 / p1.rho_s
             + p1.mu * (beta + p1.u_s) ** 2 / (p1.kappa * p1.rho_s**2 * beta**2))
    limit = TWO_PI * p1.b_eff**2 * (1 - np.exp(-2 * T * omega)) / (
        4 * np.pi * omega * denom
    )
    d100 = np.abs(np.diag(gramian_closed_form(p1, mode_system(p1, 100), T).W))
    d200 = np.abs(np.diag(gramian_closed_form(p1, mode_system(p1, 200), T).W))
    drift = float(np.max(np.abs(d100 - d200) / limit))
    assert drift < 1e-2
    assert np.allclose(d200, limit, rtol=1e-2)
    _report(5, f"closed-form Gramian vs quadrature {worst:.2e} <= 1e-8 "
               f"(|n|<=20, T in {{0.5,1,2}}); diagonal drift {drift:.2e} < 1e-2")


def test_criterion_06_everywhere_control(p1):
    t0 = time.monotonic()
    z0 = random_state(p1, 32, "Zm", seed=11)
    sig, resid, _ = synthesize_everywhere_control(p1, z0, 1.0, 32)
    assert resid <= 1e-8
    z1 = random_state(p1, 32, "Zm", seed=12)
    _, resid2, _ = synthesize_everywhere_control(p1, z0, 1.0, 32, target=z1)
    assert resid2 <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, f"everywhere control N=32 T=1: null residual {resid:.2e}, "
               f"steering residual {resid2:.2e}, {elapsed:.1f}s")


def test_criterion_07_boundary_and_localized_hum(p1):
    T0 = minimal_time(p1)
    z0 = random_state(p1, 8, "Zmm", seed=13)
    sig, resid_b, cond, _ = synthesize_boundary_control(
        p1, z0, 1.2 * T0, 8, "density"
    )
    assert resid_b <= 1e-6
    z0m = random_state(p1, 8, "Zm", seed=14)
    _, resid_l, _, _ = synthesize_localized_control(
        p1, z0m, 1.2 * T0, 8, (0.0, np.pi)
    )
    assert resid_l <= 1e-6
    tab = build_branch_table(p1, 8, "Zmm")
    bv = boundary_observation_vector(tab, "density")
    c_low = np.linalg.cond(kernel_gram(tab, 0.5 * T0, bv))
    c_high = np.linalg.cond(kernel_gram(tab, 1.5 * T0, bv))
    assert c_low / c_high >= 1e3
    _report(7, f"HUM at N=8, T=1.2*T0: boundary residual {resid_b:.2e}, "
               f"localized residual {resid_l:.2e}; cond ratio "
               f"{c_low / c_high:.2e} >= 1e3")


def test_criterion_08_ingham(p1):
    g = exponential_gram(1j * np.arange(-6, 7), TWO_PI)
    sanity = np.max(np.abs(g - TWO_PI * np.eye(13)))
    assert sanity <= 1e-12
    T0 = minimal_time(p1)
    c1_hi, _ = ingham_frame_bounds(p1, 12, 1.1 * T0)
    c1_lo, _ = ingham_frame_bounds(p1, 12, 0.3 * T0)
    ratio = c1_lo / c1_hi
    assert ratio <= 1e-3
    _report(8, f"Fourier Gram sanity {sanity:.1e} <= 1e-12; frame-bound "
               f"ratio C1(0.3 T0)/C1(1.1 T0) = {ratio:.2e} <= 1e-3")


def test_criterion_09_lack_scaling(p1):
    beta_hat = min(abs(b) for b in solve_beta_cubic(p1).beta)
    T = 0.8 * (TWO_PI - np.pi) / beta_hat
    res = lack_experiment(p1, [4, 8, 16, 32], T, (0.0, np.pi))
    assert all(r > 0 for r in res.ratios)
    assert -2.5 <= res.slope <= -1.5
    _report(9, f"observation/terminal ratio slope {res.slope:.3f} in "
               f"[-2.5, -1.5] over N in {{4,8,16,32}}")


def test_criterion_10_stabilization(p1):
    law2 = build_feedback(p1, 8, 2.0, "density")
    Mq = quadrature_gramian(law2, points=800)
    oracle_err = float(np.max(np.abs(Mq - law2.M)))
    assert oracle_err <= 1e-9
    assert law2.abscissa <= -2.0

    nus = []
    for omega in (1.5, 2.0, 3.0):
        law = build_feedback(p1, 8, omega, "density")
        z0 = random_state(p1, 8, "Zmm", seed=15)
        traj = closed_loop_simulate(p1, law, z0, 40.0)
        nu = fit_decay_rate(traj)
        assert nu >= omega
        assert law.abscissa <= -omega
        nus.append(nu)
    assert nus[0] <= nus[1] <= nus[2]
    _report(10, f"abscissa {law2.abscissa:.3f} <= -2; nu_fit sweep "
                f"{[f'{v:.2f}' for v in nus]} >= omega and nondecreasing; "
                f"Gramian oracle error {oracle_err:.1e} <= 1e-9")


def test_criterion_11_figure_reproduction(tmp_path, p1):
    import json

    from cnsmax.cli import run

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"rho_s": 1.0, "u_s": 1.0, "b": 1.0, "kappa": 1.0, "mu": 1.0},
        "spectrum": {"n_max": 30},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("spectrum", str(cfg), str(out1)) == 0
    assert run("spectrum", str(cfg), str(out2)) == 0
    csv1 = (out1 / "spectrum.csv").read_bytes()
    assert csv1 == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "eigenvalues.svg").exists()

    rows = [r.split(",") for r in csv1.decode().strip().splitlines()[1:]]
    omega = solve_beta_cubic(p1).omega
    devs = []
    for branch in (1, 2, 3):
        res = [float(r[2]) for r in rows
               if int(r[1]) == branch and abs(int(r[0])) == 30]
        dev = abs(np.mean(res) + omega[branch - 1])
        assert dev < 0.05
        devs.append(dev)
    _report(11, f"spectrum CSV byte-deterministic; |n|=30 cluster-mean "
                f"deviations from -omega: {[f'{d:.1e}' for d in devs]} < 0.05")
