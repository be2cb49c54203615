import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cnsmax import FluidParams
from cnsmax._gram import (
    BranchTable,
    boundary_observation_vector,
    build_branch_table,
    kernel_gram,
    terminal_gram,
    windowed_gram,
)
from cnsmax.errors import HypothesisViolated
from cnsmax.observability import (
    boundary_observability_constant,
    canonical_product,
    canonical_product_derivative,
    exp_gram,
    exponential_gram,
    gram_pencil_eigvals,
    ingham_frame_bounds,
    interior_observability_constant,
    lack_experiment,
    psi_interpolant,
)
from cnsmax.spectral import TWO_PI, minimal_time, mode_eigenvalues_batch, mode_system


def test_minimal_time(p1):
    t0 = minimal_time(p1)
    assert t0 == pytest.approx(21.95, abs=0.01)
    assert t0 > 0
    # doubling every characteristic slope halves the waiting time
    p2 = FluidParams(rho_s=1.0, u_s=2.0, kappa=1.0, mu=4.0, b=4.0)
    assert minimal_time(p2) == pytest.approx(t0 / 2.0, rel=1e-12)


def test_exponential_gram_fourier_sanity():
    lams = 1j * np.arange(-5, 6)
    g = exponential_gram(lams, TWO_PI)
    assert np.max(np.abs(g - TWO_PI * np.eye(11))) < 1e-12


def test_exp_gram_closed_form_vs_quadrature(p1):
    T = 3.0
    g = exp_gram(p1, 3, T)
    lam = np.array([mode_eigenvalues_batch(p1, [n])[0] for n in (-3, -2, -1, 1, 2, 3)]).ravel()
    # same flattening order as the branch table
    xs, ws = leggauss(200)
    quad = np.zeros((lam.size, lam.size), dtype=complex)
    for x_, w_ in zip(xs, ws):
        t = 0.5 * T * (x_ + 1.0)
        v = np.exp(np.conj(lam) * (T - t))
        # orientation: conj(x) @ G @ x must equal || sum_a x_a e^{conj(lam_a)(T-t)} ||^2
        quad += 0.5 * T * w_ * np.outer(np.conj(v), v)
    assert np.max(np.abs(quad - g.entries)) < 1e-9


def test_ingham_bounds_and_trend(p1):
    t0 = minimal_time(p1)
    c1_hi, c2_hi = ingham_frame_bounds(p1, 12, 1.1 * t0)
    assert c1_hi > 0
    c1_lo, _ = ingham_frame_bounds(p1, 12, 0.3 * t0)
    assert c1_lo / c1_hi <= 1e-3


def test_canonical_product_zeros(p1):
    K = 24
    assert canonical_product(p1, 0.0, K) == 0.0
    # first two derivatives also vanish at zero: P(z)/z^2 -> 0
    for eps in (1e-6, 1e-7):
        assert abs(canonical_product(p1, eps, K)) / eps**2 < 1e-3
    lam = mode_eigenvalues_batch(p1, [4])[0]
    for j in range(3):
        site = 1j * np.conj(lam[j])
        val = canonical_product(p1, site, K)
        ref = abs(canonical_product(p1, site * (1 + 1e-3), K))
        assert abs(val) <= 1e-10 * max(ref, 1.0)


def test_canonical_product_bounded_on_real_axis(p1):
    # truncation inflates |P| by about exp(x^2 c / K); on a fixed grid the
    # sampled bound is finite and shrinks toward the limit as K doubles
    xs = np.linspace(-5, 5, 41)
    m32 = max(abs(canonical_product(p1, x, 32)) for x in xs)
    m64 = max(abs(canonical_product(p1, x, 64)) for x in xs)
    assert np.isfinite(m32) and np.isfinite(m64)
    assert m64 <= m32 * 1.01
    print(f"\nreal-axis bound on |x|<=5: K=32 -> {m32:.4e}, K=64 -> {m64:.4e}")


def test_canonical_product_derivative_at_each_zero(p1):
    # P'(z_m) is the slope of P at its zero z_m, for the first and last
    # modes of the truncation and every branch
    K = 24
    for n in (-K, -1, 1, 7, K):
        for j in range(3):
            site = 1j * np.conj(mode_eigenvalues_batch(p1, [n])[0][j])
            h = 1e-6 * (1.0 + abs(site))
            rise = canonical_product(p1, site + h, K) - canonical_product(p1, site - h, K)
            slope = rise / (2 * h)
            assert canonical_product_derivative(p1, n, j, K) == pytest.approx(slope, rel=1e-6)
    for n, j in [(0, 0), (K + 1, 0), (-K - 1, 2), (3, 3), (3, -1)]:
        with pytest.raises(ValueError):
            canonical_product_derivative(p1, n, j, K)
        with pytest.raises(ValueError):
            psi_interpolant(p1, (n, j), 0.5, K)


def test_psi_interpolant_kronecker(p1):
    K = 64
    pairs = [(3, 0), (-5, 1), (10, 2)]
    for n, j in pairs:
        lam = mode_eigenvalues_batch(p1, [n])[0][j]
        site = 1j * np.conj(lam)
        assert psi_interpolant(p1, (n, j), site, K) == pytest.approx(1.0, abs=1e-8)
    # off-site values vanish within truncation
    worst = 0.0
    for k, l in [(2, 0), (7, 1), (-12, 2), (20, 0)]:
        lam = mode_eigenvalues_batch(p1, [k])[0][l]
        site = 1j * np.conj(lam)
        v = abs(psi_interpolant(p1, (3, 0), site, K))
        worst = max(worst, v)
    assert worst <= 1e-6


def test_psi_interpolant_refinement(p1):
    def maxdev(K):
        dev = 0.0
        for k, l in [(2, 0), (5, 1), (-4, 2)]:
            lam = mode_eigenvalues_batch(p1, [k])[0][l]
            site = 1j * np.conj(lam)
            want = 1.0 if (k, l) == (2, 0) else 0.0
            dev = max(dev, abs(psi_interpolant(p1, (2, 0), site, K) - want))
        return dev

    d32, d64 = maxdev(32), maxdev(64)
    assert d64 <= d32 + 1e-10


def test_interior_observability_parseval_sanity():
    """With flat kernels, no decay, and an orthonormal family the windowed
    form over the full circle is exactly T times the identity."""
    N, T = 4, 2.3
    ns = np.arange(-N, N + 1)
    psi = np.full(ns.size, np.sqrt(TWO_PI), dtype=complex)
    tab = BranchTable(
        p=FluidParams(rho_s=1, u_s=1, kappa=1, mu=1, b=1),
        idx_n=ns,
        idx_l=np.zeros(ns.size, dtype=int),
        lam=np.zeros(ns.size, dtype=complex),
        alpha=np.tile(np.array([1.0, 0, 0], dtype=complex), (ns.size, 1)),
        psi=psi,
    )
    M = windowed_gram(tab, T, 1.0 / np.sqrt(TWO_PI) * np.ones(ns.size), 0.0, TWO_PI)
    R = terminal_gram(tab)
    assert np.allclose(R, np.eye(ns.size), atol=1e-12)
    assert np.allclose(M, T * np.eye(ns.size), atol=1e-12)


def test_interior_observability_constant(p1):
    t0 = minimal_time(p1)
    lmin, lmax = interior_observability_constant(p1, 4, 1.2 * t0, (0.0, np.pi))
    assert lmin > 0
    lmin2, _ = interior_observability_constant(p1, 4, 1.2 * t0, (0.0, 0.5 * np.pi))
    assert lmin2 <= lmin


def test_boundary_observability_single_mode(p1):
    # one-dimensional form: constant = |B* xi*|^2 (e^{2 Re lam T} - 1)/(2 Re lam)
    from cnsmax._gram import boundary_observation_vector, kernel_gram

    n, l, T = 2, 1, 1.7
    m = mode_system(p1, n)
    lam = m.lambdas[l]

    tab = BranchTable(
        p=p1,
        idx_n=np.array([n]),
        idx_l=np.array([l]),
        lam=np.array([lam]),
        alpha=m.xi_star_coeffs[l][None, :],
        psi=np.array([m.psi[l]]),
    )
    bv = boundary_observation_vector(tab, "density")[0]
    want = abs(bv) ** 2 * (np.exp(2 * lam.real * T) - 1.0) / (2 * lam.real)
    got = kernel_gram(tab, T, np.array([bv]))[0, 0]
    assert got.real == pytest.approx(want, rel=1e-12)
    nrm = terminal_gram(tab)[0, 0].real
    assert want / nrm > 0


@pytest.mark.parametrize("subspace", ["Zmm", "Zm"])
@pytest.mark.parametrize("N", [1, 8, 64])
@pytest.mark.parametrize("f", [0.3, 1.2])
def test_gram_pencil_eigvals_match_scipy(p1, subspace, N, f):
    # the block Cholesky reduction against scipy's generalized eigh: boundary
    # tables (Zmm) and interior ones with the trailing n = 0 row (Zm)
    from scipy.linalg import eigh

    T = f * minimal_time(p1)
    tab = build_branch_table(p1, N, subspace)
    if subspace == "Zmm":
        M = kernel_gram(tab, T, boundary_observation_vector(tab, "density"))
    else:
        M = windowed_gram(tab, T, tab.sigma_coeff, 0.0, np.pi)
    R = terminal_gram(tab)
    got = gram_pencil_eigvals(M, tab)
    want = np.maximum(eigh(0.5 * (M + M.conj().T), 0.5 * (R + R.conj().T),
                           eigvals_only=True), 0.0)
    assert abs(got[-1] - want[-1]) <= 1e-13 * want[-1]
    if want[0] > 0:
        assert abs(got[0] - want[0]) <= 1e-6 * want[0]
    else:  # scipy's lambda_min was rounding noise below 0: ours is noise too
        assert got[0] <= tab.size * np.finfo(float).eps * want[-1]


def test_log_pn_matches_gammaln():
    from scipy.special import gammaln

    from cnsmax.observability import _log_pn

    for N in (8, 16, 32, 64, 128, 256):
        ns = np.arange(N + 1, 4 * N + 1).astype(float)
        want = gammaln(ns + N + 1.0) - gammaln(ns - N)
        assert np.allclose(_log_pn(ns, N), want, rtol=1e-12, atol=0.0)


def test_boundary_observability_constant_trend(p1):
    t0 = minimal_time(p1)
    lmin_hi, _ = boundary_observability_constant(p1, 8, 1.5 * t0, "density")
    lmin_mid, _ = boundary_observability_constant(p1, 8, 1.2 * t0, "density")
    lmin_lo, _ = boundary_observability_constant(p1, 8, 0.5 * t0, "density")
    assert lmin_mid > 0
    assert lmin_lo / lmin_hi <= 1e-2


def test_lack_experiment_scaling(p1):
    t0_side = (TWO_PI - np.pi) / 0.5549581320873712
    T = 0.8 * t0_side
    res = lack_experiment(p1, [4, 8, 16, 32], T, (0.0, np.pi))
    assert all(r > 0 for r in res.ratios)
    assert -2.5 <= res.slope <= -1.5


def test_lack_experiment_control_profile_inside_window(p1):
    # support inside the observation window: the ratio stays O(1)
    T = 0.8 * (TWO_PI - np.pi) / 0.5549581320873712
    res = lack_experiment(
        p1, [4, 8, 16, 32], T, (0.0, np.pi),
        support=(0.1 * np.pi, 0.9 * np.pi),
    )
    assert all(r > 1e-2 for r in res.ratios)
    assert abs(res.slope) < 0.5


def test_lack_experiment_hypothesis_guard(p1):
    with pytest.raises(HypothesisViolated):
        lack_experiment(p1, [4, 8], 100.0, (0.0, np.pi))
