import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cnsmax import FluidParams
from cnsmax._gram import (
    BranchTable,
    boundary_observation_vector,
    build_branch_table,
    kernel_gram,
    real_form,
    space_overlap,
    terminal_gram,
    texp,
    windowed_gram,
)
from cnsmax.control import synthesize_localized_control
from cnsmax.errors import HypothesisViolated, NumericalFailure, ValidationError
from cnsmax.observability import (
    boundary_observability_constant,
    eigh,
    exponential_gram,
    ingham_frame_bounds,
    interior_observability_constant,
    lack_experiment,
)
from cnsmax.spectral import TWO_PI, minimal_time, mode_eigenvalues_batch, mode_system, z_weights
from conftest import make_params, state_of


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
    g = exponential_gram(build_branch_table(p1, 3, "Zmm").lam, T)
    lam = np.array([mode_eigenvalues_batch(p1, [n])[0] for n in (-3, -2, -1, 1, 2, 3)]).ravel()
    # same flattening order as the branch table
    xs, ws = leggauss(200)
    quad = np.zeros((lam.size, lam.size), dtype=complex)
    for x_, w_ in zip(xs, ws):
        t = 0.5 * T * (x_ + 1.0)
        v = np.exp(np.conj(lam) * (T - t))
        # orientation: conj(x) @ G @ x must equal || sum_a x_a e^{conj(lam_a)(T-t)} ||^2
        quad += 0.5 * T * w_ * np.outer(np.conj(v), v)
    assert np.max(np.abs(quad - g)) < 1e-9


def test_ingham_bounds_and_trend(p1):
    t0 = minimal_time(p1)
    c1_hi, c2_hi = ingham_frame_bounds(p1, 12, 1.1 * t0)
    assert c1_hi > 0
    c1_lo, _ = ingham_frame_bounds(p1, 12, 0.3 * t0)
    assert c1_lo / c1_hi <= 1e-3


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
        modes=None,
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
        modes=None,
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
    # the Gamma^-1 reduction against scipy's generalized eigh on the explicit
    # terminal Gram: boundary tables (Zmm) and interior ones with the
    # trailing n = 0 row (Zm)
    from scipy.linalg import eigh as scipy_eigh

    T = f * minimal_time(p1)
    tab = build_branch_table(p1, N, subspace)
    if subspace == "Zmm":
        M = kernel_gram(tab, T, boundary_observation_vector(tab, "density"))
    else:
        M = windowed_gram(tab, T, tab.sigma_coeff, 0.0, np.pi)
    R = terminal_gram(tab)
    got = eigh(M, tab)
    want = np.maximum(scipy_eigh(0.5 * (M + M.conj().T), 0.5 * (R + R.conj().T),
                                 eigvals_only=True), 0.0)
    assert abs(got[-1] - want[-1]) <= 1e-13 * want[-1]
    if want[0] > 0:
        assert abs(got[0] - want[0]) <= 1e-6 * want[0]
    else:  # scipy's lambda_min was rounding noise below 0: ours is noise too
        assert got[0] <= tab.size * np.finfo(float).eps * want[-1]


@pytest.mark.parametrize("subspace", ["Zmm", "Zm"])
@pytest.mark.parametrize("N", [1, 8, 64])
def test_real_form_keeps_the_eigenvalues(p1, subspace, N):
    # Q^H h Q over the (n, -n) pairs is real symmetric with the eigenvalues
    # of h: the exponential Gram of a Zmm table, and the windowed Gram with
    # the trailing n = 0 row of a Zm one
    T = 1.2 * minimal_time(p1)
    tab = build_branch_table(p1, N, subspace)
    if subspace == "Zmm":
        h = exponential_gram(tab.lam, T)
    else:
        h = windowed_gram(tab, T, tab.sigma_coeff, 0.0, np.pi)
    h = 0.5 * (h + h.conj().T)
    s = real_form(h, tab)
    # symmetric up to the table's conjugation asymmetry, about 1e-15
    assert s.dtype == float and s.shape == h.shape
    assert np.max(np.abs(s - s.T)) <= 1e-13 * np.abs(s).max()
    got, want = np.linalg.eigvalsh(s), np.linalg.eigvalsh(h)
    assert np.max(np.abs(got - want)) <= 1e-13 * want[-1]


def test_real_form_refuses_an_unpaired_row(p1):
    tab = build_branch_table(p1, 2, "Zm")
    for keep in (np.arange(tab.size) != 9, np.arange(tab.size) != 2, [6]):
        part = BranchTable(p=p1, idx_n=tab.idx_n[keep], idx_l=tab.idx_l[keep],
                           lam=tab.lam[keep], alpha=tab.alpha[keep], psi=tab.psi[keep],
                           modes=None)
        h = np.eye(part.size, dtype=complex)
        with pytest.raises(ValueError, match="no conjugate partner"):
            real_form(h, part)


def test_space_overlap_is_the_elementwise_closed_form():
    # one evaluation per distinct difference, indexed: the same formula on
    # the same integers, so bit for bit the entrywise one
    def entrywise(dn, lo, hi):
        zero = dn == 0
        dns = np.where(zero, 1, dn)
        return np.where(zero, hi - lo,
                        (np.exp(1j * dns * hi) - np.exp(1j * dns * lo)) / (1j * dns))

    rng = np.random.default_rng(7)
    cases = [np.array([0]), np.array([-5]), np.array([[3]]),
             np.arange(-4, 5)[None, :] - np.arange(-4, 5)[:, None],
             rng.integers(-300, 300, size=(17, 23)), rng.integers(1, 9, size=40)]
    for dn in cases:
        for lo, hi in ((0.0, np.pi), (0.3, 2.0 * np.pi), (1.1, 1.7)):
            got = space_overlap(dn, lo, hi)
            assert got.shape == dn.shape
            assert np.array_equal(got.view(float), entrywise(dn, lo, hi).view(float))


def test_exponential_gram_from_the_exponentials(p1):
    # e_c conj(e_a) against the entrywise texp of the summed exponent, and
    # the exact limit T on the n = 0 diagonal
    for N, T in ((8, 1.2 * minimal_time(p1)), (64, 0.5), (64, 30.0)):
        tab = build_branch_table(p1, N, "Zm")
        g = exponential_gram(tab.lam, T)
        want = texp(np.conj(tab.lam)[None, :] + tab.lam[:, None], T)
        assert np.max(np.abs(g - want)) <= 1e-14 * np.abs(want).max()
        assert g[-1, -1] == T
    with pytest.raises(NumericalFailure, match="Re lambda > 0"):
        exponential_gram(np.array([-1.0 + 2j, 1e-300 - 1j]), 1.0)


def test_exponential_gram_matches_mpmath_where_zt_is_small():
    # a branch of this set has Re lambda = -1.6e-10, so e_c conj(e_a) - 1
    # cancels where 0 < |z T| << 1; every entry of `ingham`'s default Gram
    # (N = 12, T = 1.1 T0) against expm1(z T) / z at 40 digits
    import mpmath as mp

    p = FluidParams(0.00287, 1.605, 0.00987, 69.66, 0.00137)
    tab = build_branch_table(p, 12, "Zmm")
    T = 1.1 * minimal_time(p)
    g = exponential_gram(tab.lam, T)
    z = np.conj(tab.lam)[None, :] + tab.lam[:, None]
    assert np.any(np.abs(z) * T < 1e-3)
    with mp.workdps(40):
        lam = [mp.mpc(v) for v in tab.lam]
        want = np.array([[complex(mp.expm1((lc + mp.conj(la)) * T) / (lc + mp.conj(la)))
                          for la in lam] for lc in lam])
    np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)


def test_terminal_gram_is_the_masked_dense_form(p1):
    tab = build_branch_table(p1, 4, "Zm")
    star = tab.alpha / tab.psi[:, None]
    dense = TWO_PI * np.einsum("ap,p,cp->ca", star, z_weights(p1), np.conj(star))
    want = np.where(tab.idx_n[None, :] == tab.idx_n[:, None], dense, 0.0)
    assert np.max(np.abs(terminal_gram(tab) - want)) <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("params", ["p1", "pb", 3, 11])
@pytest.mark.parametrize("N", [1, 8, 64])
def test_terminal_gram_is_gamma_gamma_h(request, params, N):
    # what lets eigh reduce its pencils by Gamma^-1: each mode block of the
    # terminal Gram is Gamma_n Gamma_n^H, and the Zm n = 0 entry is 1
    p = request.getfixturevalue(params) if isinstance(params, str) else make_params(params)
    tab = build_branch_table(p, N, "Zm")
    R = terminal_gram(tab)
    m = tab.modes.ns.size
    blocks = R[:3 * m, :3 * m].reshape(m, 3, m, 3)[np.arange(m), :, np.arange(m)]
    gamma = tab.modes.gamma
    want = gamma @ gamma.conj().transpose(0, 2, 1)
    assert np.max(np.abs(blocks - want)) <= 1e-15 * np.abs(want).max()
    assert abs(R[-1, -1] - 1.0) <= 1e-15


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


@pytest.mark.parametrize("interval", [(3.0, 1.0), (-1.0, 9.0), (1.0, 1.0),
                                      (0.0, 7.0), (np.nan, 1.0)])
def test_every_window_takes_one_check(p1, interval):
    # the interior observability constant, the localized control and the
    # lack experiment share one window check and its message
    state0 = state_of(1, {}, "Zm")
    calls = [
        lambda: interior_observability_constant(p1, 2, 30.0, interval),
        lambda: synthesize_localized_control(p1, state0, 30.0, 1, interval),
        lambda: lack_experiment(p1, [2, 4], 1.0, interval),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"interval must satisfy 0 <= l1 < l2 <= 2\*pi"):
            call()


def test_lack_experiment_hypothesis_guard(p1):
    with pytest.raises(HypothesisViolated):
        lack_experiment(p1, [4, 8], 100.0, (0.0, np.pi))
