import mpmath as mp
import numpy as np
import pytest

from cnsmax import FluidParams
from cnsmax.errors import MultiplicityDetected
from cnsmax.spectral import (
    asymptotic_frequencies,
    biorthogonality_matrix,
    branch_residual_slope,
    gamma_inverse,
    gamma_matrix,
    mode_eigenvalues_batch,
    mode_system,
    nonzero_modes,
    solve_beta_cubic,
    spectral_table,
    z_weights,
    TWO_PI,
)
from conftest import make_params, mode_matrix


def test_beta_roots_p1(p1):
    r = solve_beta_cubic(p1)
    assert np.allclose(r.beta, (0.8019, -0.5550, -2.2470), atol=2e-4)
    # Vieta: sum = -2 u_s, product = mu u_s / (kappa rho_s)
    assert sum(r.beta) == pytest.approx(-2.0, abs=1e-12)
    assert np.prod(r.beta) == pytest.approx(1.0, abs=1e-12)


def test_beta_roots_match_mp_oracle():
    # log-uniform parameter sets over six decades against mpmath's polyroots
    # at 50 digits, root by root; the residual check scales with the
    # cubic's largest term, so it refuses none of them
    rng = np.random.default_rng(0)
    with mp.workdps(50):
        for v in np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(200, 5))):
            p = FluidParams(*map(float, v))
            beta = np.asarray(solve_beta_cubic(p).beta)
            r, u, k, m, b = map(mp.mpf, (p.rho_s, p.u_s, p.kappa, p.mu, p.b_eff))
            roots = mp.polyroots([1, 2 * u, u**2 - b * r - m / (k * r), -m * u / (k * r)],
                                 maxsteps=200, extraprec=200)
            want = np.array(sorted((float(mp.re(x)) for x in roots), reverse=True))
            assert np.all(np.abs(beta - want) <= 1e-11 * np.abs(want))


@pytest.mark.parametrize("params", ["p1", "pb", 3, 11])
def test_gamma_inverse_is_the_lu_inverse(request, params):
    p = request.getfixturevalue(params) if isinstance(params, str) else make_params(params)
    tab = spectral_table(p, nonzero_modes(64))
    assert np.array_equal(gamma_inverse(tab), np.linalg.inv(tab.gamma))


def test_omega_p1_against_large_n_eigensolve(p1):
    r = solve_beta_cubic(p1)
    assert np.allclose(r.omega, (0.5432, 0.3493, 0.1076), atol=1.5e-4)
    assert sum(r.omega) == pytest.approx(1.0, rel=1e-9)  # 1/kappa
    lam = mode_eigenvalues_batch(p1, [10_000])[0]
    assert np.allclose(-lam.real, r.omega, atol=1e-6)


def test_vieta_random_params():
    for seed in (1, 2, 3):
        p = make_params(seed)
        r = solve_beta_cubic(p)
        assert sum(r.beta) == pytest.approx(-2 * p.u_s, rel=1e-12, abs=1e-12)
        assert np.prod(r.beta) == pytest.approx(
            p.mu * p.u_s / (p.kappa * p.rho_s), rel=1e-10
        )
        assert sum(r.omega) == pytest.approx(1.0 / p.kappa, rel=1e-9)
        assert len({np.sign(w) for w in r.omega}) == 1 and r.omega[0] > 0


def test_omega_difference_identity(p1):
    # |omega_j - omega_l| agrees with the closed parameter expression
    p = p1
    r = solve_beta_cubic(p)
    beta = np.asarray(r.beta)
    b = p.b_eff
    # p'(beta), the slope cubic's derivative at its roots
    pp = 3 * beta**2 + 4 * p.u_s * beta + p.u_s**2 - b * p.rho_s - p.mu / (p.kappa * p.rho_s)
    for (j, l, q) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
        expr = (beta[j] - beta[l]) / (p.kappa * pp[j] * pp[l]) * (
            2 * p.mu * p.u_s**2 / (p.kappa * p.rho_s * beta[q])
            + beta[q] * (2 * b * p.rho_s - 2 * p.u_s**2 - p.mu / (p.kappa * p.rho_s))
            + 2 * p.u_s * (b * p.rho_s - p.u_s**2)
        )
        assert abs(r.omega[j] - r.omega[l]) == pytest.approx(abs(expr), rel=1e-8)


def test_asymptotic_frequencies(p1):
    r = solve_beta_cubic(p1)
    pred = asymptotic_frequencies(r, [10, -3])
    assert pred.shape == (2, 3)
    assert pred[0, 0] == pytest.approx(-0.5431 + 8.0194j, abs=2e-3)
    # real parts sum to -1/kappa for any n
    assert np.allclose(pred.real.sum(axis=1), -1.0, rtol=1e-9)
    # the row of -3 is the row of 10 with the slopes rescaled
    assert np.allclose(pred[1].imag, -0.3 * pred[0].imag, rtol=1e-14)
    # conjugate reflection between n and -n up to the O(1/n) residual
    lam_p = mode_eigenvalues_batch(p1, [10])[0]
    lam_m = mode_eigenvalues_batch(p1, [-10])[0]
    assert np.allclose(np.conj(lam_m), lam_p, atol=1e-12)
    # n = 0 has no branches to pair
    with pytest.raises(ValueError):
        mode_eigenvalues_batch(p1, [3, 0])


def test_mode_matrix(p1):
    A1 = mode_matrix(p1, 1)
    assert A1[2, 2] == pytest.approx(-1.0)
    # trace = -1/kappa - 2 i n u_s (matches the eigenvalue sum identities)
    A2 = mode_matrix(p1, 2)
    assert np.trace(A2) == pytest.approx(-1.0 - 4.0j)
    with pytest.raises(ValueError):
        mode_matrix(p1, 0)
    # eigenvalues of the matrix match the characteristic-cubic roots
    lam = np.sort_complex(np.linalg.eigvals(mode_matrix(p1, 7)))
    lam2 = np.sort_complex(spectral_table(p1, [7]).lambdas[0])
    assert np.allclose(lam, lam2, atol=1e-10)
    # the batched table against a dense eigensolve of every mode |n| <= 512
    ns = nonzero_modes(512)
    for p in (p1, make_params(5)):
        lam = spectral_table(p, ns).lambdas
        dense = np.linalg.eigvals(np.stack([mode_matrix(p, n) for n in ns]))
        err = np.abs(lam[:, :, None] - dense[:, None, :]).min(axis=2)
        assert np.all(err <= 1e-10 * np.abs(lam))


@pytest.mark.parametrize("params", ["p1", "pb", 3])
def test_negative_modes_are_conjugate_rows(request, params):
    # the system is real: the row of -n conjugates lambda, the adjoint triple
    # and psi of n, which lets lack_experiment solve n > 0 only and count
    # each term twice (and real_form pair n with -n)
    p = request.getfixturevalue(params) if isinstance(params, str) else make_params(params)
    ns = np.arange(1, 257)
    plus, minus = spectral_table(p, ns), spectral_table(p, -ns)
    for field in ("lambdas", "xi_star_coeffs", "psi"):
        a, b = getattr(plus, field), np.conj(getattr(minus, field))
        scale = np.abs(a).reshape(ns.size, -1).max(axis=1)
        err = np.abs(a - b).reshape(ns.size, -1).max(axis=1)
        assert np.all(err <= 1e-13 * scale), field


def test_mode_eigenvalues_p1_n10(p1):
    lam = spectral_table(p1, [10]).lambdas[0]
    assert lam[0] == pytest.approx(-0.54326 + 8.00346j, abs=5e-4)
    assert lam.real.sum() == pytest.approx(-1.0, abs=1e-10)
    assert lam.imag.sum() == pytest.approx(-20.0, abs=1e-9)
    assert np.all(lam.real < 0)


def test_real_parts_negative_wide_range(p1):
    ns = np.concatenate([np.arange(-200, 0), np.arange(1, 201)])
    for p in [p1, make_params(5)]:
        lam = mode_eigenvalues_batch(p, ns)
        assert np.all(lam.real < 0)


def test_biorthogonality(p1):
    for n in list(range(1, 51)) + [-3, -17, -50]:
        m = mode_system(p1, n)
        err = np.max(np.abs(biorthogonality_matrix(p1, m) - np.eye(3)))
        assert err < 1e-9
        assert np.allclose(m.xi_star_coeffs[:, 0], 1.0)  # alpha^1 = 1 exactly
    ns = nonzero_modes(512)
    for p in (p1, make_params(5)):
        err = biorthogonality_matrix(p, spectral_table(p, ns)) - np.eye(3)
        assert np.max(np.abs(err)) <= 1e-9


def test_normalizer_asymptotics(p1):
    # |theta|, |psi| approach the same branch-wise limit at |n| -> 200
    r = solve_beta_cubic(p1)
    beta = np.asarray(r.beta)
    b = p1.b_eff
    limit = np.sqrt(
        TWO_PI * (
            b
            + (beta + p1.u_s) ** 2 / p1.rho_s
            + p1.mu * (beta + p1.u_s) ** 2 / (p1.kappa * p1.rho_s**2 * beta**2)
        )
    )
    tab = spectral_table(p1, [200, -200])
    for theta, psi in zip(tab.theta, tab.psi):
        assert np.allclose(theta, limit, rtol=2e-2)
        assert np.allclose(np.abs(psi), limit, rtol=2e-2)


def test_gamma_matrix_det(p1):
    m = mode_system(p1, 5)
    gm = gamma_matrix(p1, m)
    det = np.linalg.det(gm.entries)
    assert abs(det - gm.det_closed_form) <= 1e-9 * abs(det)
    # determinant magnitude settles at large |n|
    d100 = gamma_matrix(p1, mode_system(p1, 100)).det_closed_form
    d200 = gamma_matrix(p1, mode_system(p1, 200)).det_closed_form
    assert abs(abs(d100) - abs(d200)) / abs(d200) < 1e-2
    # invertibility with finite conditioning across a range
    conds = [
        np.linalg.cond(gamma_matrix(p1, mode_system(p1, n)).entries)
        for n in (1, 2, 5, 20, 100, -1, -20)
    ]
    assert max(conds) < 1e3


def test_gamma_diagonalizes_mode_matrix(p1):
    from scipy.linalg import expm

    m = mode_system(p1, 4)
    gm = gamma_matrix(p1, m)
    t = 0.37
    direct = expm(t * mode_matrix(p1, 4))
    via = np.linalg.solve(gm.entries, np.diag(np.exp(t * m.lambdas)) @ gm.entries)
    assert np.allclose(direct, via, atol=1e-12)


def test_riesz_frame_bounds(p1):
    # orthonormal sanity: the weighted Fourier frame has unit Gram by design
    w = z_weights(p1)
    phi = np.diag(1.0 / np.sqrt(TWO_PI * w))  # component triples of phi_{n,l}
    gram = TWO_PI * np.einsum("lp,p,qp->lq", phi, w, np.conj(phi))
    assert np.allclose(gram, np.eye(3), atol=1e-14)

    def bounds(N):
        # extreme eigenvalues of the eigenbasis Gram over |n| <= N: 3x3
        # blocks by Fourier orthogonality, plus <xi_0, xi_0>_Z = 1
        xi = spectral_table(p1, nonzero_modes(N)).require_simple().xi_coeffs
        ev = np.linalg.eigvalsh(TWO_PI * np.einsum("mlp,p,mqp->mlq", xi, w, np.conj(xi)))
        return min(ev[:, 0].min(), 1.0), max(ev[:, -1].max(), 1.0)

    lo10, hi10 = bounds(10)
    lo25, hi25 = bounds(25)
    assert lo25 > 0
    # principal-submatrix nesting: bounds widen with N
    assert lo25 <= lo10 <= hi10 <= hi25


def test_detect_multiplicity_clean_spectrum(p1):
    ns = list(range(1, 201, 7)) + [200, -200]
    tab = spectral_table(p1, ns)
    assert not tab.flag.any()
    assert np.all(np.abs(tab.psi) > 1e-10)
    tab.require_simple()
    # empirical spectral-gap floor over the full computed range
    lam = mode_eigenvalues_batch(p1, nonzero_modes(200)).ravel()
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 0


def test_multiplicity_guard_fires():
    # b -> 0 drives q_n to zero: a genuinely degenerate parameter set
    p = FluidParams(rho_s=1.0, u_s=1.0, kappa=1.0, mu=1.0, b=1e-300)
    assert spectral_table(p, [3]).flag[0]
    with pytest.raises(MultiplicityDetected) as err:
        mode_system(p, 3)
    assert err.value.n == 3 and err.value.min_q < 1e-30


def test_branch_residual_slope(p1):
    slope, ns, resid = branch_residual_slope(p1, 20, 200)
    assert -1.3 <= slope <= -0.7
    assert np.all(resid > 0)
