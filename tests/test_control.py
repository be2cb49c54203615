import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cnsmax._gram import (
    boundary_observation_vector,
    build_branch_table,
    kernel_gram,
)
from cnsmax.control import (
    _gramian_blocks,
    _steer,
    gramian_closed_form,
    mode_control_operator,
    synthesize_boundary_control,
    synthesize_everywhere_control,
    synthesize_localized_control,
)
from cnsmax.dynamics import energy_norm, random_state
from cnsmax.errors import IllConditioned, ValidationError
from cnsmax.observability import boundary_observability_constant
from cnsmax.spectral import TWO_PI, minimal_time, mode_system, solve_beta_cubic, spectral_table
from conftest import state_of


def test_hautus_ranks(p1, pb):
    # the table's eigenvalues are simple, so [lambda I - A_n | B_n] has full
    # rank at every eigenvalue exactly when no entry of B_n vanishes
    for p in (p1, pb):
        tab = build_branch_table(p, 64, "Zm")
        B = np.abs(mode_control_operator(p, tab))
        ns, mode = np.unique(tab.idx_n, return_inverse=True)
        peak = np.zeros(ns.size)
        np.maximum.at(peak, mode, B)
        assert ns.tolist() == list(range(-64, 65))  # the n = 0 row included
        assert np.all(np.isfinite(B)) and np.all(peak > 0)
        assert np.all(B >= 1e-10 * peak[mode])


def test_mode_control_operator(p1, pb):
    for p in (p1, pb):
        # the n = 0 entry, the last row of the Zm table, is sqrt(b)
        B0 = mode_control_operator(p, build_branch_table(p, 2, "Zm"))[-1]
        assert B0 == pytest.approx(np.sqrt(p.b_eff), rel=1e-15, abs=0)
    norms = []
    for n in list(range(1, 201, 13)) + [200, -200]:
        Bn = mode_control_operator(p1, mode_system(p1, n))
        norms.append(np.linalg.norm(Bn))
    assert max(norms) < 10.0
    # modal entries settle between |n| = 100 and 200
    b100 = np.abs(mode_control_operator(p1, mode_system(p1, 100)))
    b200 = np.abs(mode_control_operator(p1, mode_system(p1, 200)))
    assert np.allclose(b100, b200, rtol=1e-2)


def test_gramian_zero_mode(p1, pb):
    # the 1x1 Gramian of the table's n = 0 row is b T
    for p in (p1, pb):
        tab = build_branch_table(p, 2, "Zm")
        W = _gramian_blocks(p, tab.lam[-1:], tab.psi[-1:], 2.0)
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(p.b_eff * 2.0, rel=1e-15, abs=0)


def test_gramian_closed_form_vs_quadrature(p1):
    xs, ws = leggauss(60)
    for n in (1, 3, 20, -7):
        m = mode_system(p1, n)
        for T in (0.5, 1.0, 2.0):
            data = gramian_closed_form(p1, m, T)
            Bn = data.B_n
            Wq = np.zeros((3, 3), dtype=complex)
            for x_, w_ in zip(xs, ws):
                t = 0.5 * T * (x_ + 1.0)
                v = np.exp(t * m.lambdas) * Bn
                Wq += 0.5 * T * w_ * np.outer(v, np.conj(v))
            assert np.max(np.abs(Wq - data.W)) < 1e-8
            ev = np.linalg.eigvalsh(data.W)
            assert ev[0] > 0
            assert np.max(np.abs(data.W - data.W.conj().T)) < 1e-12


def test_gramian_large_n_diagonal_limits(p1):
    roots = solve_beta_cubic(p1)
    beta, omega = np.asarray(roots.beta), np.asarray(roots.omega)
    b = p1.b_eff
    T = 1.0
    # branch-wise limit of the Gramian diagonals; the 2 pi b^2 prefactor of
    # the Gramian's closed form carries through to the limit
    limit = TWO_PI * b**2 * (1.0 - np.exp(-2 * T * omega)) / (
        4 * np.pi * omega * (
            b
            + (beta + p1.u_s) ** 2 / p1.rho_s
            + p1.mu * (beta + p1.u_s) ** 2 / (p1.kappa * p1.rho_s**2 * beta**2)
        )
    )
    d100 = np.abs(np.diag(gramian_closed_form(p1, mode_system(p1, 100), T).W))
    d200 = np.abs(np.diag(gramian_closed_form(p1, mode_system(p1, 200), T).W))
    assert np.allclose(d100, limit, rtol=1e-2)
    assert np.allclose(d200, limit, rtol=1e-2)
    assert np.max(np.abs(d100 - d200) / limit) < 1e-2
    # off-diagonals decay toward zero
    off100 = np.abs(gramian_closed_form(p1, mode_system(p1, 100), T).W
                    - np.diag(np.diag(gramian_closed_form(p1, mode_system(p1, 100), T).W)))
    off5 = np.abs(gramian_closed_form(p1, mode_system(p1, 5), T).W
                  - np.diag(np.diag(gramian_closed_form(p1, mode_system(p1, 5), T).W)))
    assert off100.max() < 0.2 * off5.max()


def test_minimal_control_zero_mode(p1, pb):
    # on the table's n = 0 row, the constant control -c/(sqrt(b) T) empties
    # the scalar integrator
    T, c = 2.0, 1.7 + 0.3j
    for p in (p1, pb):
        tab = build_branch_table(p, 2, "Zm")
        B, lam = mode_control_operator(p, tab)[-1:], tab.lam[-1:]
        W = _gramian_blocks(p, lam, tab.psi[-1:], T)
        f = _steer(B[None], lam[None], W[None], np.array([[c]]), np.zeros((1, 1)), T)
        vals = f(np.array([0.0, 0.5, 1.9]))[0]
        assert np.allclose(vals, vals[0])
        assert vals[0] == pytest.approx(-c / (np.sqrt(p.b_eff) * T))
        reached = c + np.sqrt(p.b_eff) * vals[0] * T
        assert abs(reached) < 1e-14


def test_minimal_control_mode_drives_to_zero(p1):
    # _steer on four stacked modes against a forward Gauss-Legendre oracle
    rng = np.random.default_rng(8)
    ns, T = (5, 17, 64, -5), 1.0
    d0 = np.array([rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in ns])
    tab = spectral_table(p1, ns)
    B = mode_control_operator(p1, tab)
    f = _steer(B, tab.lambdas, _gramian_blocks(p1, tab.lambdas, tab.psi, T), d0,
               np.zeros_like(d0), T)
    # forward evolution oracle: fine composite Gauss-Legendre
    xs, ws = leggauss(12)
    npan = 64
    mids = T * (np.arange(npan) + 0.5) / npan
    half = 0.5 * T / npan
    ts = (mids[:, None] + half * xs).ravel()
    wts = np.tile(half * ws, npan)
    worst_ratio = 0.0
    for i in range(len(ns)):
        lam = tab.lambdas[i]
        dT = np.exp(T * lam) * d0[i] + np.sum(
            (wts * f(ts)[i])[:, None] * np.exp((T - ts)[:, None] * lam) * B[i], axis=0)
        assert np.linalg.norm(dT) <= 1e-10 * np.linalg.norm(d0[i])
        tgrid = np.linspace(0, T, 4001)
        fl2 = np.sqrt(np.trapezoid(np.abs(f(tgrid)[i]) ** 2, tgrid))
        worst_ratio = max(worst_ratio, fl2 / np.linalg.norm(d0[i]))
    assert worst_ratio < 50.0


def test_everywhere_control(p1, pb):
    for p in (p1, pb):
        z0 = random_state(p, 8, "Zm", seed=1)
        sig, resid, final = synthesize_everywhere_control(p, z0, 1.0, 8)
        assert resid <= 1e-8
        assert sig.norm_l2 < 50.0
        # zero initial state -> identically zero control
        sig0, resid0, _ = synthesize_everywhere_control(p, state_of(4, {}), 1.0, 4)
        assert np.max(np.abs(sig0.samples)) == 0.0


def test_everywhere_two_point_steering(p1, pb):
    for p in (p1, pb):
        z0 = random_state(p, 6, "Zm", seed=2)
        z1 = random_state(p, 6, "Zm", seed=3)
        sig, resid, final = synthesize_everywhere_control(p, z0, 1.0, 6, target=z1)
        assert resid <= 1e-8


@pytest.mark.parametrize("N, T", [(4, 0.5), (8, 1.0), (16, 2.0)])
@pytest.mark.parametrize("params", ["p1", "pb"])
def test_everywhere_equals_full_circle_localized(params, N, T, request):
    # on the full circle the localized control is the everywhere control:
    # the two routes solve the same minimal-norm problem from different
    # Gramians (3x3 blocks against the dense windowed Gramian)
    p = request.getfixturevalue(params)
    z0 = random_state(p, N, "Zm", seed=N)
    sig_e, resid_e, _ = synthesize_everywhere_control(p, z0, T, N)
    sig_l, resid_l, _, _ = synthesize_localized_control(p, z0, T, N, (0.0, TWO_PI))
    assert resid_e <= 1e-8 and resid_l <= 1e-8
    ends = [0, -1]
    assert np.array_equal(sig_l.times[ends], sig_e.times[ends])
    scale = np.abs(sig_e.samples).max()
    assert np.abs(sig_l.samples[:, ends] - sig_e.samples[:, ends]).max() <= 1e-10 * scale
    # the everywhere norm is a trapezoid, the localized one sqrt(x* G x)
    assert sig_l.norm_l2 == pytest.approx(sig_e.norm_l2, rel=1e-5)


def test_boundary_observation_identities(p1):
    b = p1.b_eff
    tab = build_branch_table(p1, 9, "Zmm")
    n, lam_b, psi = tab.idx_n, np.conj(tab.lam), tab.psi
    got = boundary_observation_vector(tab, "density")
    assert np.allclose(got, b * lam_b / (psi * 1j * n), rtol=1e-10, atol=0)
    gotv = boundary_observation_vector(tab, "velocity")
    wantv = -lam_b * (lam_b - 1j * n * p1.u_s) / (n**2 * psi)
    assert np.allclose(gotv, wantv, rtol=1e-10, atol=0)
    gots = boundary_observation_vector(tab, "stress")
    assert np.allclose(gots, -tab.alpha[:, 1] / psi, rtol=1e-12, atol=0)
    assert np.all(np.abs(gots) > 0)


def test_boundary_observation_rejects_unknown_kind(p1):
    tab = build_branch_table(p1, 2, "Zmm")
    with pytest.raises(ValidationError, match="density.*velocity.*stress.*'pressure'"):
        boundary_observation_vector(tab, "pressure")


def test_boundary_control_null_and_conditioning(p1):
    T0 = minimal_time(p1)
    z0 = random_state(p1, 4, "Zmm", seed=4)
    sig, resid, cond, _ = synthesize_boundary_control(p1, z0, 1.2 * T0, 4, "density")
    assert resid <= 1e-6
    # below the waiting time the Gramian degenerates
    tab = build_branch_table(p1, 4, "Zmm")
    bv = boundary_observation_vector(tab, "density")
    c_low = np.linalg.cond(kernel_gram(tab, 0.5 * T0, bv))
    c_high = np.linalg.cond(kernel_gram(tab, 1.5 * T0, bv))
    assert c_low / c_high >= 1e3
    with pytest.warns(UserWarning):
        with pytest.raises(IllConditioned):
            synthesize_boundary_control(p1, z0, 0.3 * T0, 4, "density")


def test_boundary_control_zero_state(p1):
    T0 = minimal_time(p1)
    sig, resid, cond, _ = synthesize_boundary_control(
        p1, state_of(3, {}, "Zmm"), 1.2 * T0, 3, "density"
    )
    assert np.max(np.abs(sig.samples)) < 1e-12


def test_localized_reduces_to_everywhere(p1):
    z0 = random_state(p1, 4, "Zm", seed=5)
    sig_l, resid_l, cond, _ = synthesize_localized_control(
        p1, z0, 1.0, 4, (0.0, TWO_PI)
    )
    sig_e, resid_e, _ = synthesize_everywhere_control(p1, z0, 1.0, 4)
    assert abs(resid_l - resid_e) <= 1e-8
    assert resid_l <= 1e-8
    # on the full circle both are the same minimal control: equal modal
    # coefficients at the shared sample times t = 0 and t = T, and equal
    # norms up to the trapezoid error of the everywhere norm
    assert sig_l.mode_labels == sig_e.mode_labels
    ends = [0, -1]
    assert np.array_equal(sig_l.times[ends], sig_e.times[ends])
    scale = np.abs(sig_e.samples).max()
    assert np.abs(sig_l.samples[:, ends] - sig_e.samples[:, ends]).max() <= 1e-10 * scale
    assert sig_l.norm_l2 == pytest.approx(sig_e.norm_l2, rel=1e-5)


def test_localized_waiting_time_warning(p1):
    T = 0.5 * minimal_time(p1)
    z0 = random_state(p1, 2, "Zm", seed=5)
    with pytest.warns(UserWarning, match="waiting time"):
        synthesize_localized_control(p1, z0, T, 2, (0.0, np.pi))
    # the full circle is controllable at any horizon: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synthesize_localized_control(p1, z0, T, 2, (0.0, TWO_PI))


def test_localized_control_residual_and_norm_growth(p1):
    T0 = minimal_time(p1)
    z0 = random_state(p1, 3, "Zm", seed=6)
    norms = []
    for lo, hi in [(0.0, TWO_PI), (0.0, np.pi), (0.0, 0.7 * np.pi)]:
        sig, resid, cond, _ = synthesize_localized_control(
            p1, z0, 1.2 * T0, 3, (lo, hi)
        )
        assert resid <= 1e-6
        norms.append(sig.norm_l2)
    # shrinking the actuation window costs control energy (monitored trend)
    assert norms[0] <= norms[1] <= norms[2]


def test_admissibility_constant_stable_under_refinement(p1):
    T = 1.2 * minimal_time(p1)
    # the admissibility constant is lambda_max of the boundary pencil
    c4 = boundary_observability_constant(p1, 4, T, "density")[1]
    c8 = boundary_observability_constant(p1, 8, T, "density")[1]
    assert c8 <= 10.0 * max(c4, 1e-12) and c4 <= 10.0 * c8
