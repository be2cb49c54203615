import numpy as np
import pytest

from cnsmax.control import boundary_observation
from cnsmax.dynamics import TrajectoryRecord, component_norms, random_state
from cnsmax.errors import DegenerateWindow, OmegaTooSmall, StepTooLarge
from cnsmax.spectral import mode_system
from cnsmax.stabilize import (
    build_feedback,
    closed_loop_simulate,
    fit_decay_rate,
    growth_threshold,
    quadrature_gramian,
)


def test_growth_threshold(p1):
    g8 = growth_threshold(p1, 8)
    g64 = growth_threshold(p1, 64)
    assert 0 < g8 <= g64 < 1.0 / p1.kappa
    # approaches the largest branch offset from below-ish at large N
    from cnsmax.spectral import solve_beta_cubic

    om_max = max(solve_beta_cubic(p1).omega)
    assert g64 >= om_max - 1e-2


def test_build_feedback_guards(p1):
    with pytest.raises(OmegaTooSmall):
        build_feedback(p1, 4, 0.1)
    law = build_feedback(p1, 2, 2.0)
    assert law.cond_M > 1.0
    # b_vec entries match the per-mode boundary observations
    tab = law.table
    for a in range(tab.size):
        m = mode_system(p1, int(tab.idx_n[a]))
        want = boundary_observation("density", m, int(tab.idx_l[a]), p1)
        assert law.b_vec[a] == pytest.approx(want, rel=1e-12)


def test_gramian_matches_quadrature_oracle(p1):
    law = build_feedback(p1, 2, 2.0)
    Mq = quadrature_gramian(law, points=800)
    assert np.max(np.abs(Mq - law.M)) <= 1e-9


def test_single_mode_closed_loop_analytic(p1):
    """1x1 truncation: the scalar loop eigenvalue is lambda - (2w + 2 Re lambda),
    i.e. real part -2w - Re lambda."""
    m = mode_system(p1, 1)
    lam = m.lambdas[0]
    bv = boundary_observation("density", m, 0, p1)
    om = 2.0
    Mscal = abs(bv) ** 2 / (2 * om + 2 * lam.real)
    gain = -bv / Mscal
    closed = lam + np.conj(bv) * gain
    assert closed.real == pytest.approx(-2 * om - lam.real, rel=1e-12)
    assert closed.real <= -om


def test_abscissa_similarity_vs_dense_eigensolve(p1):
    # at N=1 the Gramian is well conditioned and the assembled closed-loop
    # matrix confirms the similarity value -2w + max(-Re lambda)
    law = build_feedback(p1, 1, 2.0)
    g = law.gain_vector()
    Acl = np.diag(law.lam) + np.outer(np.conj(law.b_vec), g)
    dense = np.linalg.eigvals(Acl).real.max()
    assert dense == pytest.approx(law.abscissa, abs=1e-6)
    assert law.abscissa <= -2.0


def test_closed_loop_decay_and_linearity(p1):
    law = build_feedback(p1, 1, 2.0)
    z0 = random_state(p1, 1, "Zmm", seed=3)
    traj = closed_loop_simulate(p1, law, z0, 10.0)
    assert traj.energies[0] == pytest.approx(1.0, rel=1e-10)
    assert traj.energies[-1] < 1e-8
    nu = fit_decay_rate(traj)
    assert nu >= 2.0

    z2 = z0.copy()
    for c in z2.coeffs.values():
        c *= 2.0
    traj2 = closed_loop_simulate(p1, law, z2, 10.0)
    assert np.allclose(traj2.energies, 4.0 * traj.energies, rtol=1e-9, atol=1e-250)


def test_closed_loop_extended_precision_path(p1):
    law = build_feedback(p1, 8, 2.0)
    assert law.precision_dps > 0  # clustered exponents force the exact route
    z0 = random_state(p1, 8, "Zmm", seed=7)
    traj = closed_loop_simulate(p1, law, z0, 40.0)
    assert traj.energies[0] == pytest.approx(1.0, rel=1e-8)
    nu = fit_decay_rate(traj)
    assert nu >= law.omega
    assert law.abscissa <= -law.omega


def test_closed_loop_component_norms(p1):
    # the norm_* columns are the plain L^2 component norms on both routes
    routes = []
    for N in (1, 3):
        law = build_feedback(p1, N, 2.0)
        routes.append(law.precision_dps > 0)
        z0 = random_state(p1, N, "Zmm", seed=3)
        traj = closed_loop_simulate(p1, law, z0, 10.0)
        got = [traj.norm_rho[0], traj.norm_u[0], traj.norm_S[0]]
        assert np.allclose(got, component_norms(z0), rtol=1e-12, atol=0)
    assert routes == [False, True]


def test_step_too_large_guard(p1):
    law = build_feedback(p1, 1, 2.0)
    z0 = random_state(p1, 1, "Zmm", seed=3)
    with pytest.raises(StepTooLarge):
        closed_loop_simulate(p1, law, z0, 5.0, dt=1.0)


def test_fit_decay_rate_synthetic():
    t = np.linspace(0, 10, 201)
    e = np.exp(-6.0 * t)  # norm e^{-3t} -> energy e^{-6t}
    traj = TrajectoryRecord(
        times=t, energies=e, norm_rho=np.sqrt(e), norm_u=np.sqrt(e),
        norm_S=np.sqrt(e),
    )
    assert fit_decay_rate(traj) == pytest.approx(3.0, abs=1e-6)
    dead = TrajectoryRecord(
        times=t, energies=np.zeros_like(t), norm_rho=np.zeros_like(t),
        norm_u=np.zeros_like(t), norm_S=np.zeros_like(t),
    )
    with pytest.raises(DegenerateWindow):
        fit_decay_rate(dead)


def test_spillover_report(p1):
    from cnsmax.stabilize import spillover_report

    law = build_feedback(p1, 2, 2.0)
    z0 = random_state(p1, 2, "Zmm", seed=2)
    rep = spillover_report(p1, law, z0, 20.0)
    assert rep["N2"] == 4
    assert rep["nu_fit_design"] >= law.omega
    # unmodeled modes are excited by the transient and decay only open-loop;
    # the extended-plant rate collapses toward the slowest branch offset
    assert 0 < rep["nu_fit_extended"] < rep["nu_fit_design"]


def test_free_decay_contraction(p1):
    # with the feedback switched off the flow contracts up to a uniform
    # constant (open-loop energies are non-increasing per eigenmode)
    from cnsmax.dynamics import evolve

    z0 = random_state(p1, 4, "Zmm", seed=1)
    rec, _ = evolve(p1, z0, 5.0)
    assert rec.energies[-1] <= 10.0 * rec.energies[0]
    assert rec.energies[-1] < rec.energies[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spillover_matches_expm_oracle(p1, seed):
    # independent oracle: step the assembled extended closed loop (design
    # modes under the gain, extra modes driven open-loop by the same control)
    # with a dense matrix exponential on the report's sample grid
    from scipy.linalg import expm

    from cnsmax._gram import build_branch_table, eigen_coefficients
    from cnsmax.control import boundary_observation_vector
    from cnsmax.dynamics import SpectralState
    from cnsmax.stabilize import _state_norms, spillover_report

    N, T, samples = 1, 10.0, 129
    law = build_feedback(p1, N, 2.0)
    assert law.precision_dps == 0
    z0 = random_state(p1, 2 * N, "Zmm", seed=seed)  # excites the extra modes too
    rep = spillover_report(p1, law, z0, T)

    tab2 = build_branch_table(p1, 2 * N, "Zmm")
    extra = np.abs(tab2.idx_n) > N
    lam_e = tab2.lam[extra]
    b_e = boundary_observation_vector(tab2, law.kind)[extra]
    g = law.gain_vector()
    K, E = law.lam.size, lam_e.size
    A = np.zeros((K + E, K + E), dtype=complex)
    A[:K, :K] = np.diag(law.lam) + np.outer(np.conj(law.b_vec), g)
    A[K:, :K] = np.outer(np.conj(b_e), g)
    A[K:, K:] = np.diag(lam_e)
    design = SpectralState(
        N=N, coeffs={n: c for n, c in z0.coeffs.items() if abs(n) <= N},
        subspace="Zmm",
    )
    c = np.concatenate([eigen_coefficients(law.table, design),
                        eigen_coefficients(tab2, z0)[extra]])
    times = np.linspace(0.0, T, samples)
    step = expm(A * (times[1] - times[0]))
    states = [c]
    for _ in times[1:]:
        states.append(step @ states[-1])
    states = np.array(states)

    e_design = _state_norms(p1, law.table.modes.xi_coeffs, states[:, :K])[0]
    xi_e = tab2.modes.xi_coeffs[np.abs(tab2.modes.ns) > N]
    e_extra = _state_norms(p1, xi_e, states[:, K:])[0]

    def nu(energies):
        return fit_decay_rate(TrajectoryRecord(
            times=times, energies=energies, norm_rho=np.sqrt(energies),
            norm_u=np.sqrt(energies), norm_S=np.sqrt(energies),
        ))

    assert rep["spillover_energy_peak"] == pytest.approx(e_extra.max(), rel=1e-9)
    assert rep["nu_fit_extended"] == pytest.approx(nu(e_design + e_extra), rel=1e-9)
    assert rep["nu_fit_design"] == pytest.approx(nu(e_design), rel=1e-6)


def test_spillover_mp_exponentials_per_sample(p1, monkeypatch):
    # the closed form needs one exponential per design mode (x(t)) and one per
    # extra mode (its free response) at each sample: K + E, not K + E(2K + 1)
    import mpmath

    from cnsmax.stabilize import spillover_report

    calls = [0]
    exp = mpmath.exp

    def counting_exp(*args, **kwargs):
        calls[0] += 1
        return exp(*args, **kwargs)

    law = build_feedback(p1, 2, 2.0)
    z0 = random_state(p1, 2, "Zmm", seed=2)
    monkeypatch.setattr(mpmath, "exp", counting_exp)
    rep = spillover_report(p1, law, z0, 20.0)
    K = law.lam.size
    E = 3 * 2 * (rep["N2"] - law.N)
    assert 0 < calls[0] <= 129 * (K + E) == 3096
