import numpy as np
import pytest

from cnsmax._gram import boundary_observation_vector, build_branch_table
from cnsmax.dynamics import SpectralState, TrajectoryRecord, random_state
from cnsmax.errors import DegenerateWindow, OmegaTooSmall
from cnsmax.stabilize import (
    build_feedback,
    closed_loop_simulate,
    fit_decay_rate,
    quadrature_gramian,
)
from cnsmax.spectral import nonzero_modes, solve_beta_cubic, spectral_table


def _growth(p, N):
    """Growth bound max(-Re lambda) of the modes 1 <= |n| <= N."""
    return (-spectral_table(p, nonzero_modes(N)).lambdas.real).max()


def test_growth_threshold(p1):
    g8 = build_feedback(p1, 8, 2.0).growth
    g64 = _growth(p1, 64)
    assert g8 == _growth(p1, 8)
    assert 0 < g8 <= g64 < 1.0 / p1.kappa
    # approaches the largest branch offset from below-ish at large N
    om_max = max(solve_beta_cubic(p1).omega)
    assert g64 >= om_max - 1e-2


def test_build_feedback_guards(p1):
    with pytest.raises(OmegaTooSmall):
        build_feedback(p1, 4, 0.1)
    law = build_feedback(p1, 2, 2.0)
    assert law.cond_M > 1.0
    # the law keeps the growth bound it checked omega against, the bound of
    # its own eigenvalues
    assert law.growth == _growth(p1, 2) == (-law.lam.real).max()


def test_gramian_matches_quadrature_oracle(p1):
    law = build_feedback(p1, 2, 2.0)
    Mq = quadrature_gramian(law, points=800)
    assert np.max(np.abs(Mq - law.M)) <= 1e-9


def test_single_mode_closed_loop_analytic(p1):
    """1x1 truncation: the scalar loop eigenvalue is lambda - (2w + 2 Re lambda),
    i.e. real part -2w - Re lambda."""
    tab = build_branch_table(p1, 1, "Zmm")
    a = int(np.flatnonzero((tab.idx_n == 1) & (tab.idx_l == 0))[0])
    lam = tab.lam[a]
    bv = boundary_observation_vector(tab, "density")[a]
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


def test_gain_vector_needs_double_precision_law(p1):
    # an extended-precision law has no double-precision gain: the closed
    # loop of such a law runs through the exact route only
    from cnsmax.errors import IllConditioned

    law = build_feedback(p1, 3, 2.0)
    assert law.precision_dps > 0
    with pytest.raises(IllConditioned):
        law.gain_vector()


def test_closed_loop_decay_and_linearity(p1):
    law = build_feedback(p1, 1, 2.0)
    z0 = random_state(p1, 1, "Zmm", seed=3)
    traj = closed_loop_simulate(p1, law, z0, 10.0)
    assert traj.energies[0] == pytest.approx(1.0, rel=1e-10)
    assert traj.energies[-1] < 1e-8
    nu = fit_decay_rate(traj)
    assert nu >= 2.0

    z2 = SpectralState(N=z0.N, coeffs=2.0 * z0.coeffs, subspace=z0.subspace)
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
        want = np.sqrt(np.sum(np.abs(z0.coeffs) ** 2, axis=0))
        assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert routes == [False, True]


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

    from cnsmax._gram import build_branch_table, boundary_observation_vector, eigen_coefficients
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
    design = SpectralState(N=N, coeffs=z0.coeffs[N:3 * N + 1], subspace="Zmm")
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


def _count_mp_calls(monkeypatch, names, context=()):
    """Counters of calls to mpmath.<name> for each name, and also to the
    context method mpmath.mp.<name> for the names in `context`."""
    import mpmath

    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(mpmath, name, counting(name, getattr(mpmath, name)))
    for name in context:
        monkeypatch.setattr(mpmath.mp, name, counting(name, getattr(mpmath.mp, name)))
    return calls


def test_spillover_mp_exponentials_per_law(p1, monkeypatch):
    # the closed form needs one exponential per design mode (x(t)) and one per
    # extra mode (its free response) for the whole grid: K + E, whatever the
    # sample count; the solve and the mat-vecs are integer arithmetic, so no
    # mp.lu_solve and no mp.fdot at all
    from cnsmax.stabilize import spillover_report

    law = build_feedback(p1, 2, 2.0)
    z0 = random_state(p1, 2, "Zmm", seed=2)
    calls = _count_mp_calls(monkeypatch, ("exp", "fdot", "lu_solve"),
                            context=("fdot", "lu_solve"))
    rep = spillover_report(p1, law, z0, 20.0)
    K = law.lam.size
    E = 3 * 2 * (rep["N2"] - law.N)
    assert calls == {"exp": K + E, "fdot": 0, "lu_solve": 0}
    assert K + E == 24


def test_closed_loop_mp_calls_independent_of_samples(p1, monkeypatch):
    # the exact route spends K mp exponentials per law, none per sample, and
    # solves for x0 without mp.lu_solve
    law = build_feedback(p1, 3, 2.0)
    assert law.precision_dps > 0
    z0 = random_state(p1, 3, "Zmm", seed=1)
    calls = _count_mp_calls(monkeypatch, ("exp", "lu_solve"), context=("lu_solve",))
    counts = []
    for T_end in (10.0, 40.0):
        calls.update(exp=0, lu_solve=0)
        traj = closed_loop_simulate(p1, law, z0, T_end)
        counts.append((len(traj.times), dict(calls)))
    assert counts[0][0] < counts[1][0]
    K = law.lam.size
    assert [c for _, c in counts] == [{"exp": K, "lu_solve": 0}] * 2


@pytest.mark.parametrize("spillover", [False, True])
def test_exact_loop_mp_exponentials_once_per_mode(p1, monkeypatch, spillover):
    # the 451 samples of `stabilize` at T_end = 40 cost one integer step
    # factor per mode, so mp.exp runs once per design and extra mode
    from cnsmax._gram import build_branch_table, boundary_observation_vector, eigen_coefficients
    from cnsmax.stabilize import _exact_loop

    law = build_feedback(p1, 2, 2.0)
    z0 = random_state(p1, 4, "Zmm", seed=3)
    c0 = eigen_coefficients(law.table, SpectralState(N=2, coeffs=z0.coeffs[2:7],
                                                     subspace="Zmm"))
    extra = None
    if spillover:
        tab2 = build_branch_table(p1, 4, "Zmm")
        ex = np.abs(tab2.idx_n) > 2
        extra = (tab2.lam[ex], boundary_observation_vector(tab2, law.kind)[ex],
                 eigen_coefficients(tab2, z0)[ex])
    calls = _count_mp_calls(monkeypatch, ("exp",))
    states, _ = _exact_loop(law, c0, 40.0, 451, 30, extra=extra)
    K, E = law.lam.size, states.shape[1] - law.lam.size
    assert E == (12 if spillover else 0)
    assert calls == {"exp": K + E}


def _to_mp(a):
    """mp.matrix holding a complex NumPy array (a vector becomes a column);
    the conversion is exact, precision is the caller's mp context."""
    import mpmath as mp

    a = np.asarray(a)
    if a.ndim == 1:
        return mp.matrix([mp.mpc(v) for v in a])
    return mp.matrix([[mp.mpc(v) for v in row] for row in a])


def _from_int(re, im, exp):
    """mp values (re + i im) 2^exp; exact when the context holds the bits."""
    import mpmath as mp

    return [mp.mpc(mp.ldexp(a, exp), mp.ldexp(b, exp)) for a, b in zip(re, im)]


def test_double_parts_match_mpmath():
    # the mantissa tuples mpmath holds, for random doubles over the whole
    # exponent range, subnormals, signed zeros and the extremes
    import mpmath as mp

    from cnsmax._exact import mantissas

    rng = np.random.default_rng(5)
    v = rng.standard_normal(1000) * np.exp2(rng.integers(-1080, 1020, 1000))
    v = np.concatenate([v, [0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, 2.0 ** -1022,
                            np.nextafter(2.0 ** -1022, 0), 1.7976931348623157e308,
                            -1.7976931348623157e308, 1.0, -3.5, 2.0 ** 52 + 1]])
    z = v[::2] + 1j * v[1::2]
    want = [tuple(int(x) for x in part) for w in z for part in mp.mpc(w)._mpc_]
    got = mantissas(z)
    assert got == want
    assert all(type(x) is int for part in got for x in part)


@pytest.mark.parametrize("N", [6, 8])
def test_int_solve_matches_lu_solve(p1, N):
    # x0 = M^{-1} c0 in fixed-point integers against mp.lu_solve 40 digits
    # above the law's precision; row-permuting M and c0 must give the very
    # same integers, since partial pivoting picks the same pivot rows
    import mpmath as mp

    from cnsmax._gram import eigen_coefficients
    from cnsmax._exact import mantissas, solve

    law = build_feedback(p1, N, 2.0)
    c0 = eigen_coefficients(law.table, random_state(p1, N, "Zmm", seed=1))
    with mp.workdps(law.precision_dps):
        prec = mp.mp.prec
    re, im, exp = solve(mantissas(law.M), c0, prec)
    perm = np.roll(np.arange(c0.size)[::-1], 5)
    p_re, p_im, p_exp = solve(mantissas(law.M[perm]), c0[perm], prec)
    assert p_exp == exp
    assert np.array_equal(p_re, re) and np.array_equal(p_im, im)
    with mp.workdps(law.precision_dps + 40):
        want = mp.lu_solve(_to_mp(law.M), _to_mp(c0))
        with mp.workprec(4 * prec):
            got = _from_int(re, im, exp)
        err = max(abs(g - w) for g, w in zip(got, want))
        assert err / max(abs(w) for w in want) < 1e-45


def test_int_solve_pivots_and_guards():
    from cnsmax.errors import IllConditioned
    from cnsmax._exact import mantissas, solve

    # a zero leading entry needs a row exchange; the solution is exact
    re, im, exp = solve(mantissas(np.array([[0, 2j], [1, 1]])), np.array([2j, 3]), 100)
    assert [(a * 2.0 ** exp, b * 2.0 ** exp) for a, b in zip(re, im)] == [
        (2.0, 0.0), (1.0, 0.0)]
    # a pivot 2^-40 below the largest entry passes; 2^-200 leaves fewer
    # than prec = 100 bits above 2^-F, F = 100 + 138, and is refused
    ok = np.array([[1, 1], [1, 1 + 2.0 ** -40]], dtype=complex)
    solve(mantissas(ok), np.array([1, 2], dtype=complex), 100)
    for M in ([[1, 2], [2, 4]], [[1, 1], [1, 1 + 2.0 ** -200]]):
        with pytest.raises(IllConditioned):
            solve(mantissas(np.array(M, dtype=complex)),
                       np.array([1, 2], dtype=complex), 100)


def test_mode_exponentials_relative_accuracy():
    # every mode keeps its own exponent: a mode that starts 1e-30 below the
    # others and dominates later, and a step with |rate s| ~ 23, are both
    # accurate relative to their own size at every sample t_j = 40 j / 450,
    # whose doubles np.linspace rounds
    import mpmath as mp

    from cnsmax.stabilize import _mode_exponentials

    rates = np.array([-0.3 + 0.1j, -5.0 + 7.0j, -256.0 + 3.0j])
    y0 = (np.array([1, 3 << 200, -(5 << 200)], dtype=object),
          np.array([-1, 1 << 200, 1 << 190], dtype=object),
          np.array([-120, -200, -200]))
    blocks = list(_mode_exponentials(y0, rates, 40.0, 451, 120))
    assert [b[0].shape for b in blocks] == [(3, 64)] * 7 + [(3, 3)]
    re, im, exp = (np.concatenate(part, axis=1) for part in zip(*blocks))
    with mp.workprec(400):
        for a, r in enumerate(rates):
            start = mp.mpc(mp.ldexp(y0[0][a], int(y0[2][a])),
                           mp.ldexp(y0[1][a], int(y0[2][a])))
            for j in range(451):
                want = start * mp.exp(mp.mpc(r) * mp.mpf(40) * j / 450)
                got = mp.mpc(mp.ldexp(re[a, j], int(exp[a, j])),
                             mp.ldexp(im[a, j], int(exp[a, j])))
                assert abs(got - want) <= 2.0 ** -110 * abs(want)


def _mp_closed_form(law, c0, T_end, samples, dps, extra=None):
    """The mpmath closed form as an oracle for `_exact_loop`: one mp.matrix
    mat-vec [M; M_e] x(t) per sample t = T_end j / (samples - 1), formed in
    mp (each entry an mp.fdot), the free responses added in mp, and the
    control summed by mp.fsum at dps + 20."""
    import mpmath as mp

    lam, bv = law.lam, law.b_vec
    K = lam.size
    with mp.workdps(dps):
        A = _to_mp(law.M)
        x0 = mp.lu_solve(A, _to_mp(c0))
        rates = [mp.mpc(r) for r in -(2.0 * law.omega) - np.conj(lam)]
        lam_x, free = [], []
        if extra is not None:
            lam_e, b_e, c0_e = extra
            A.rows = K + len(lam_e)
            for e in range(len(lam_e)):
                le, be = mp.mpc(lam_e[e]), mp.mpc(np.conj(b_e[e]))
                for a in range(K):
                    A[K + e, a] = be * mp.mpc(bv[a]) / (le - rates[a])
                lam_x.append(le)
                free.append(mp.mpc(c0_e[e])
                            - mp.fsum(A[K + e, a] * x0[a] for a in range(K)))
        states, qs = [], []
        for j in range(samples):
            t = mp.mpf(T_end) * j / (samples - 1)
            xt = mp.matrix([x0[a] * mp.exp(rates[a] * t) for a in range(K)])
            ct = A * xt
            for e in range(len(lam_x)):
                ct[K + e] += free[e] * mp.exp(lam_x[e] * t)
            states.append([complex(v) for v in ct])
            with mp.workdps(dps + 20):
                qs.append(complex(-mp.fsum(xt[a] * mp.mpc(bv[a]) for a in range(K))))
    return np.array(states), np.array(qs)


@pytest.mark.parametrize("N, seed, samples", [
    (3, 0, 33), (3, 7, 33), (8, 0, 33), (8, 7, 33), (3, 0, 46), (3, 7, 46),
], ids=["3-0", "3-7", "8-0", "8-7", "3-0-46", "3-7-46"])
def test_exact_loop_matches_mp_oracle(p1, N, seed, samples):
    # integer mat-vecs round the same exact sums as mp.fdot: identical
    # states.  q(t) = -b . x(t) cancels heavily (at N=8, |x_a| ~ 1e17 for
    # |q| ~ 1e8), so it too must be the exact sum rounded once.  The oracle
    # samples the exact times 40 j / (samples - 1): every 40 j / 32 is a
    # double, while 40 of the 46 times 40 j / 45 are not, and np.linspace
    # rounds them
    from fractions import Fraction

    from cnsmax._gram import eigen_coefficients
    from cnsmax.stabilize import _exact_loop

    law = build_feedback(p1, N, 2.0)
    assert law.precision_dps > 0
    c0 = eigen_coefficients(law.table, random_state(p1, N, "Zmm", seed=seed))
    rounded = sum(Fraction(t) != Fraction(40 * j, samples - 1)
                  for j, t in enumerate(np.linspace(0.0, 40.0, samples).tolist()))
    assert rounded == (40 if samples == 46 else 0)
    states, q = _exact_loop(law, c0, 40.0, samples, law.precision_dps)
    want, want_q = _mp_closed_form(law, c0, 40.0, samples, law.precision_dps)
    assert np.array_equal(states, want)
    np.testing.assert_allclose(q.real, want_q.real, rtol=1e-12, atol=0)
    np.testing.assert_allclose(q.imag, want_q.imag, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [0, 2])
def test_exact_loop_spillover_rows_match_oracle(p1, seed):
    # the extra rows [M_e, diag(c0_e - M_e x0)] are identical doubles too
    from cnsmax._gram import build_branch_table, boundary_observation_vector, eigen_coefficients
    from cnsmax.stabilize import _exact_loop

    law = build_feedback(p1, 2, 2.0)
    z0 = random_state(p1, 4, "Zmm", seed=seed)
    tab2 = build_branch_table(p1, 4, "Zmm")
    ex = np.abs(tab2.idx_n) > 2
    design = SpectralState(N=2, coeffs=z0.coeffs[2:7], subspace="Zmm")
    c0 = eigen_coefficients(law.table, design)
    extra = (tab2.lam[ex], boundary_observation_vector(tab2, law.kind)[ex],
             eigen_coefficients(tab2, z0)[ex])
    states, _ = _exact_loop(law, c0, 40.0, 129, 30, extra=extra)
    want, _ = _mp_closed_form(law, c0, 40.0, 129, 30, extra=extra)
    assert states.shape == (129, law.lam.size + extra[0].size)
    assert np.array_equal(states, want)


def _stepping_oracle(law, c0, T_end, dt):
    """The exponential integrator written step by step: every product formed
    in every step, every state of both runs kept, then every RECORD_STRIDE-th
    state (and the last) of the dt run picked out."""
    from cnsmax.errors import StepTooLarge
    from cnsmax.stabilize import RECORD_STRIDE

    lam = law.lam
    g = law.gain_vector()
    bconj = np.conj(law.b_vec)

    def run(step):
        nst = int(np.ceil(T_end / step))
        h = T_end / nst
        eL = np.exp(lam * h)
        z = lam * h
        small = np.abs(z) < 1e-8
        lam_s = np.where(small, 1.0, lam)
        phi1 = np.where(small, h, (eL - 1.0) / lam_s)
        phi2 = np.where(small, h / 2.0, (eL - 1.0 - z) / (lam_s * z))
        c = c0.copy()
        traj = [c.copy()]
        qs = [complex(g @ c)]
        for _ in range(nst):
            q0 = g @ c
            pred = eL * c + phi1 * bconj * q0
            q1 = g @ pred
            c = eL * c + phi1 * bconj * q0 + phi2 * bconj * (q1 - q0)
            traj.append(c.copy())
            qs.append(complex(g @ c))
        return np.array(traj), np.array(qs), h

    traj, qs, h = run(dt)
    traj2, _, _ = run(dt / 2.0)
    drift = np.linalg.norm(traj[-1] - traj2[-1]) / max(np.linalg.norm(c0), 1e-300)
    if drift > 1e-6:
        raise StepTooLarge(f"oracle drift {drift:.3e}")
    keep = np.arange(0, traj.shape[0], RECORD_STRIDE)
    if keep[-1] != traj.shape[0] - 1:
        keep = np.append(keep, traj.shape[0] - 1)
    return traj[keep], qs[keep], keep * h


@pytest.mark.parametrize("N, omega, T_end, seed",
                         [(3, 1.0, 400.0, 1), (2, 2.0, 40.0, 0), (2, 2.0, 40.0, 7)])
def test_integrate_matches_stepping_oracle(p1, N, omega, T_end, seed):
    # the products formed once per run and the end-of-step control reused
    # as the next step's q leave every floating-point operation as it was:
    # identical states, controls and times
    from cnsmax._gram import eigen_coefficients
    from cnsmax.stabilize import _integrate

    law = build_feedback(p1, N, omega)
    assert law.precision_dps == 0
    c0 = eigen_coefficients(law.table, random_state(p1, N, "Zmm", seed=seed))
    dt = 0.1 / float(np.abs(law.lam).max())
    got = _integrate(law, c0, T_end, dt)
    want = _stepping_oracle(law, c0, T_end, dt)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_integrate_short_horizon_drift_unchanged(p1):
    # the dt vs dt/2 check at T_end refuses this short horizon with the
    # same drift as the step-by-step integrator
    from cnsmax.errors import StepTooLarge

    law = build_feedback(p1, 1, 2.0)
    z0 = random_state(p1, 1, "Zmm", seed=4)
    with pytest.raises(StepTooLarge, match="drift 2.383e-04 exceeds"):
        closed_loop_simulate(p1, law, z0, 5.0)


def test_integrate_memory_peak(p1):
    # only the recorded states are kept: the traced peak of the f64 route
    # over 26928 steps (the dt/2 state is one matrix power) stays far below
    # one state per step (47 MB)
    import tracemalloc

    law = build_feedback(p1, 3, 1.0)
    z0 = random_state(p1, 3, "Zmm", seed=1)
    tracemalloc.start()
    try:
        closed_loop_simulate(p1, law, z0, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("N, omega, T_end, seed",
                         [(3, 1.0, 400.0, 1), (2, 2.0, 40.0, 0), (2, 2.0, 40.0, 7),
                          (1, 2.0, 5.0, 4), (1, 2.0, 10.0, 4)])
def test_final_state_matches_stepping(p1, N, omega, T_end, seed):
    # the matrix power of the one-step map lands where every dt/2 step of
    # the exponential integrator, taken one by one, lands
    from cnsmax._gram import eigen_coefficients
    from cnsmax.stabilize import _final_state

    law = build_feedback(p1, N, omega)
    c0 = eigen_coefficients(law.table, random_state(p1, N, "Zmm", seed=seed))
    step = 0.1 / float(np.abs(law.lam).max()) / 2.0
    g = law.gain_vector()
    lam, bconj = law.lam, np.conj(law.b_vec)
    nst = int(np.ceil(T_end / step))
    h = T_end / nst
    eL = np.exp(lam * h)
    phi1 = (eL - 1.0) / lam
    phi2 = (eL - 1.0 - lam * h) / (lam * lam * h)
    c = c0.copy()
    for _ in range(nst):
        q0 = g @ c
        pred = eL * c + phi1 * bconj * q0
        c = pred + phi2 * bconj * (g @ pred - q0)
    got = _final_state(law, g, c0, T_end, step)
    assert np.linalg.norm(got - c) <= 1e-9 * np.linalg.norm(c0)


def test_integrate_nonfinite_drift_fails(p1):
    # NaN compares False with any bound: the drift check must still refuse
    from cnsmax.errors import StepTooLarge
    from cnsmax.stabilize import _integrate

    law = build_feedback(p1, 1, 2.0)
    c0 = np.full(law.lam.size, np.nan, dtype=complex)
    dt = 0.1 / float(np.abs(law.lam).max())
    with pytest.raises(StepTooLarge, match="drift nan exceeds"):
        _integrate(law, c0, 10.0, dt)


def _random_ints(rng, shape, bits):
    """Signed Python integers of up to `bits` bits, each with its own width."""
    widths = rng.integers(0, bits + 1, size=shape).ravel().tolist()
    signs = rng.integers(-1, 2, size=len(widths)).tolist()
    return np.array([s * (int.from_bytes(rng.bytes(w // 8 + 1), "little") % (1 << w))
                     for s, w in zip(signs, widths)], dtype=object).reshape(shape)


def _accumulated(acc, bits):
    """The integers sum_k acc[k] 2^(k bits) of a limb accumulator."""
    return np.array([sum(int(c) << (k * bits) for k, c in enumerate(col))
                     for col in acc.reshape(len(acc), -1).T.tolist()],
                    dtype=object).reshape(acc.shape[1:])


def _sums(a, y, bits):
    """`_limb_sums` of the integer matrices a and y into a buffer one entry
    longer than the accumulator and full of garbage, as a reused one is."""
    from cnsmax._exact import _limb_sums, _limbs, _sum_limbs

    a_limbs, y_limbs = _limbs(a, bits), _limbs(y, bits)
    n = _sum_limbs(len(a_limbs), len(y_limbs), a.shape[1], bits)
    buf = np.full(n * a.shape[0] * y.shape[1] + 1, -1, dtype=np.int64)
    return _limb_sums(a_limbs, y_limbs, bits, buf)


@pytest.mark.parametrize("case", ["special", "mixed", "one_column", "spillover_N8"])
def test_limb_matmul_matches_object_product(case):
    # the normalized limb accumulator of the BLAS product holds the exact
    # integer product, at the widest limb the column count allows
    from cnsmax._exact import _limb_bits

    rng = np.random.default_rng(3)
    if case == "special":
        # zeros, +-1 and powers of two at limb edges, beside 600-bit entries
        a = np.array([[0, 1, -1, 1 << 24], [-(1 << 24), (1 << 23) - 1, 0, 0],
                      [(1 << 640) - 1, -(1 << 639), 1 << 48, -1]], dtype=object)
        y = np.array([[1, -1, 0], [-(1 << 700), 0, 1], [(1 << 23), 1 << 47, -3],
                      [0, (1 << 25) - 1, (1 << 650) + 1]], dtype=object)
    elif case == "mixed":
        a = _random_ints(rng, (7, 5), 700)
        a[0] = 0
        a[:, 1] = rng.integers(-2, 3, size=7).tolist()
        y = _random_ints(rng, (5, 9), 650)
        y[:, 3] = 0
    elif case == "one_column":
        a = _random_ints(rng, (6, 1), 300)
        y = _random_ints(rng, (1, 4), 620)
    else:
        # the spillover R at N = 8: K + E = 96 columns, K + E + 1 rows
        a = _random_ints(rng, (97, 96), 130)
        y = _random_ints(rng, (96, 64), 250)
    bits = _limb_bits(a.shape[1])
    assert bits == {"special": 24, "mixed": 24, "one_column": 25, "spillover_N8": 22}[case]
    acc = _sums(a, y, bits)
    assert acc.dtype == np.int64 and acc.shape[1:] == (a.shape[0], y.shape[1])
    assert np.all((acc[:-1] >= 0) & (acc[:-1] < 1 << bits))
    assert np.array_equal(_accumulated(acc, bits), a @ y)


def test_limb_matmul_refuses_inexact_limbs():
    # L = (52 - cols.bit_length()) // 2 keeps cols 2^(2L) <= 2^52: limbs at
    # their extremes stay exact at the most columns each width allows, one
    # width more is refused, and a count no width fits raises; so does a
    # buffer shorter than the accumulator
    from cnsmax._exact import _limb_bits, _limb_sums, _limbs

    assert _limb_bits(96) == 22 and _limb_bits(1056) == 20
    for bits in (25, 24, 22, 21, 20, 19):
        cols = (1 << (52 - 2 * bits)) - 1
        assert _limb_bits(cols) == bits and _limb_bits(cols + 1) == bits - 1
        # limbs [2^L - 1, 2^L - 1, -2^(L-1)] and [2^L - 1, 2^L - 1, 2^(L-1) - 1]
        lo = -(1 << (3 * bits - 1)) + (1 << (2 * bits)) - 1
        hi = (1 << (3 * bits - 1)) - 1
        assert _limbs(np.array([lo, hi], dtype=object), bits).tolist() == [
            [2.0 ** bits - 1] * 2, [2.0 ** bits - 1] * 2,
            [-2.0 ** (bits - 1), 2.0 ** (bits - 1) - 1]]
        a = np.array([[lo] * cols, [hi] * cols], dtype=object)
        y = np.array([[lo, hi]] * cols, dtype=object)
        acc = _sums(a, y, bits)
        assert np.array_equal(_accumulated(acc, bits), a @ y)
        with pytest.raises(ValueError, match="not exact"):
            _sums(a, y, bits + 1)
        with pytest.raises(ValueError, match="longer buffer"):
            _limb_sums(_limbs(a, bits), _limbs(y, bits), bits, np.empty(acc.size - 1, np.int64))
    assert _limb_bits((1 << 50) - 1) == 1
    with pytest.raises(ValueError, match="no limb width"):
        _limb_bits(1 << 50)


def _mp_rounded(man, exp, prec):
    from mpmath.libmp import from_man_exp, mpc_to_complex, round_nearest

    return mpc_to_complex((from_man_exp(man, exp, prec, round_nearest),
                           from_man_exp(0, 0, prec, round_nearest)),
                          rnd=round_nearest).real


def _round_limbs(ints, exps, prec, bits=22):
    """`_round_limb_sums` on the accumulator of 1 @ [ints]."""
    from cnsmax._exact import _round_limb_sums

    acc = _sums(np.ones((1, 1), dtype=object), np.array([ints], dtype=object), bits)
    return _round_limb_sums(acc, bits, np.array(exps), prec)[0].tolist()


def test_round_limb_sums_matches_mpmath():
    import math

    prec = 64
    # 2^63 + 2^11 + 2^10 rounds to 53 bits as a tie with an odd last bit;
    # one below it, times 2, is a tie at prec bits that rounds up onto it
    mid = (1 << 63) + (1 << 11) + (1 << 10)
    cases = [
        (0, 5), (0, -2000), (1, 0), (-1, 0), (-12345, -7),
        ((1 << 65) + (1 << 1), 0), ((1 << 65) + (3 << 1), 0),      # ties at prec
        (-((1 << 65) + (1 << 1)), 3), (-((1 << 65) + (3 << 1)), 3),
        (2 * mid - 1, 0), (-(2 * mid - 1), -40),                  # double rounding
        ((1 << 59) + 1, 1000), (1, 1024), (-1, 1024), ((1 << 60) - 1, 964),
        (1, -1074), (3, -1076), (-5, -1076), ((1 << 59) + 12345, -1130),
        (1, -1080), (-(1 << 70) - 1, -1140),                     # subnormal, 0
    ]
    # the double-rounding case differs from one rounding to 53 bits
    assert _round_limbs([2 * mid - 1], [0], prec)[0] != float(2 * mid - 1)
    rng = np.random.default_rng(0)
    for _ in range(300):
        bits = int(rng.integers(1, 200))
        man = int.from_bytes(rng.bytes(25), "little") % (1 << bits)
        cases.append((man * int(rng.choice([-1, 1])), int(rng.integers(-1300, 1100))))
    got = _round_limbs([m for m, _ in cases], [e for _, e in cases], prec)
    want = [_mp_rounded(m, e, prec) for m, e in cases]
    _same_doubles(got, want)
    # mpmath's rounding has no upper bound on prec: a plain sum, a window
    # next to a tie whose last bit is a tie at 1100 bits, overflow and a
    # short mantissa
    wide = [((1 << 1099) + (1 << 60) + 1, -1150), ((((1 << 63) + 0x400) << 1037) + 1, -1100),
            (-((1 << 1098) - 3), 0), (1, 5)]
    _same_doubles(_round_limbs([m for m, _ in wide], [e for _, e in wide], 1100),
                  [_mp_rounded(m, e, 1100) for m, e in wide])
    assert got[cases.index((1, 1024))] == math.inf
    assert got[cases.index((-1, 1024))] == -math.inf
    assert 0 < got[cases.index((3, -1076))] < 2.0 ** -1022


def _count_exact_roundings(monkeypatch):
    """The list that collects every mantissa `_round_limb_sums` hands to
    mpmath's from_man_exp (mpmath itself never calls it by that attribute)."""
    import mpmath.libmp as libmp

    exact = []
    rounded = libmp.from_man_exp

    def counted(man, exp, prec, rnd):
        exact.append(man)
        return rounded(man, exp, prec, rnd)

    monkeypatch.setattr(libmp, "from_man_exp", counted)
    return exact


def _same_doubles(got, want):
    import math

    assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]
    assert got == want


def test_round_limb_sums_hand_cases(monkeypatch):
    # the limb-domain rounding gives mpmath's doubles bit for bit, and only
    # windows whose 11 discarded bits read 0x3FF or 0x400 reach mpmath
    top = 1 << 63
    cases = [
        (0, 0, 64), (1, 0, 64), (-1, 0, 64), ((1 << 53) - 1, 3, 64),
        # windows ending in 0x3FF or 0x400, with and without bits below
        (top + 0x3FF, 0, 64), (top + 0x400, 0, 64), (-(top + 0x400), 0, 64),
        ((top + 0x3FF << 9) + 511, -20, 64), ((top + 0x3FF << 9) + 256, -20, 64),
        ((top + 0x400 << 9) + 255, 5, 72), ((top + 0xC00 << 9) + 256, 5, 72),
        ((top + 0xBFF << 40) + (1 << 39), 0, 100),
        # ties at prec: the prec rounding decides the double
        ((top + 0x3FF << 1) + 1, 0, 64), ((top + 0xBFF << 1) + 1, 0, 64),
        (-((top + 0x3FF << 1) + 1), 0, 64),
        # a mantissa carry into the next binade
        ((1 << 64) - 1, 0, 64), (-((1 << 64) - 1), 7, 64), ((1 << 200) - 1, 0, 180),
        ((top + 0x7FF << 30) + 5, 0, 64),
        # negatives that borrow across every limb
        (-(1 << 660), 0, 64), (-(1 << 660) + 1, 0, 64), (-(1 << 659) - 1, -600, 300),
        (-((1 << 22) ** 20), 0, 200), (-(((1 << 22) ** 20) - 1), 0, 200),
        # +-inf overflow, and the largest double
        (1, 1024, 64), (-1, 1024, 64), (top, 961, 64), (-(top + 0x7FF), 961, 64),
        ((1 << 53) - 1 << 11, 960, 64), ((1 << 64) - 1, 960, 64),
        # subnormals, their ties and underflow to +-0
        (1, -1074, 64), (3, -1076, 64), (-5, -1076, 64), (1, -1075, 64), (1, -1080, 64),
        (-1, -1080, 64), (top + 12345, -1130, 64), (-(1 << 70) - 1, -1140, 64),
        ((top + 0x3FF << 2) + 3, -1100, 66),
    ]
    want = [_mp_rounded(m, e, prec) for m, e, prec in cases]
    exact = _count_exact_roundings(monkeypatch)
    near = sorted(m for m, _, _ in cases if _window(m) & 0x7FF in (0x3FF, 0x400))
    assert len(near) >= 12
    for bits in (22, 20, 16, 25):
        exact.clear()
        _same_doubles([_round_limbs([m], [e], prec, bits)[0] for m, e, prec in cases], want)
        assert sorted(exact) == near
    assert _round_limbs([1, -1], [1024, 1024], 64) == [np.inf, -np.inf]
    assert 0 < _round_limbs([3], [-1076], 64)[0] < 2.0 ** -1022


def _window(man):
    """The 64 bits of |man| below and at its leading bit."""
    n = abs(man).bit_length()
    return abs(man) >> max(n - 64, 0) << max(64 - n, 0)


def test_round_limb_sums_refuses_short_prec():
    # below 64 bits the prec rounding can move a double that the window
    # rounds
    for prec in (63, 53):
        with pytest.raises(ValueError, match="prec"):
            _round_limbs([12345], [0], prec)


def test_round_limb_sums_matches_mpmath_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    ints = st.integers(0, 700).flatmap(lambda n: st.integers(-(1 << n), 1 << n))
    row = st.lists(st.tuples(ints, st.integers(-1300, 1100)), min_size=1, max_size=24)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(row, st.integers(64, 400), st.integers(1, 25))
    def check(cases, prec, bits):
        mans, exps = [m for m, _ in cases], [e for _, e in cases]
        _same_doubles(_round_limbs(mans, exps, prec, bits),
                      [_mp_rounded(m, e, prec) for m, e in cases])

    check()


def test_exact_loop_rounds_few_entries_exactly(p1, monkeypatch):
    # the window rounding settles all but the outputs whose discarded bits
    # sit next to a tie: at most 1% of the N = 8, 451-sample loop
    import cnsmax.stabilize as stab
    from cnsmax._gram import eigen_coefficients

    law = build_feedback(p1, 8, 2.0)
    c0 = eigen_coefficients(law.table, random_state(p1, 8, "Zmm", seed=0))
    exact = _count_exact_roundings(monkeypatch)
    states, q = stab._exact_loop(law, c0, 40.0, 451, law.precision_dps)
    outputs = 2 * (states.size + q.size)
    assert outputs == 44_198
    assert 0 < len(exact) <= outputs // 100


def test_build_feedback_one_eigensolve(p1, monkeypatch):
    # the growth bound and the branch table read one spectral table
    import cnsmax.spectral as spectral

    solves = []
    solve = spectral.mode_eigenvalues_batch

    def counted(p, ns):
        solves.append(len(ns))
        return solve(p, ns)

    monkeypatch.setattr(spectral, "mode_eigenvalues_batch", counted)
    build_feedback(p1, 8, 2.0)
    assert solves == [16]


def test_build_feedback_checks_omega_before_multiplicity():
    # b = 1e-300 makes every mode's normalizer q_n vanish: omega below the
    # growth bound is still OmegaTooSmall (exit 2), and above it the
    # multiplicity (exit 3)
    from cnsmax import FluidParams
    from cnsmax.errors import MultiplicityDetected

    p = FluidParams(rho_s=1.0, u_s=1.0, kappa=1.0, mu=1.0, b=1e-300)
    with pytest.raises(OmegaTooSmall):
        build_feedback(p, 2, 0.1)
    with pytest.raises(MultiplicityDetected):
        build_feedback(p, 2, 5.0)
