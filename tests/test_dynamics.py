import numpy as np
import pytest

from cnsmax import dynamics as dyn
from cnsmax.dynamics import (
    SpectralState,
    energy_norm,
    evolve,
    random_state,
    synthesize_physical,
)
from cnsmax.errors import GridTooCoarse, ValidationError
from cnsmax.spectral import TWO_PI, mode_system, z_weights
from conftest import complex_state, mode_matrix, state_of


def test_energy_constant_density(p1):
    # rho = 1 has coefficient sqrt(2 pi) on e^{i0x}/sqrt(2 pi); norm^2 = 2 pi b
    st = SpectralState(N=0, coeffs=[[np.sqrt(TWO_PI), 0, 0]], subspace="Zm")
    assert energy_norm(st, p1) ** 2 == pytest.approx(TWO_PI * p1.b_eff, rel=1e-14)
    assert energy_norm(state_of(2, {}), p1) == 0.0


def test_energy_of_eigenfunctions_is_one(p1):
    for n in (1, 7, -20):
        m = mode_system(p1, n)
        for l in range(3):
            st = state_of(abs(n), {n: m.xi_coeffs[l] * np.sqrt(TWO_PI)})
            assert energy_norm(st, p1) == pytest.approx(1.0, abs=1e-10)


def test_subspace_constraints():
    with pytest.raises(ValidationError):
        state_of(1, {0: [0, 1, 0]}, subspace="Zm")
    with pytest.raises(ValidationError):
        state_of(1, {0: [1, 0, 0]}, subspace="Zmm")
    with pytest.raises(ValidationError):  # rows of modes beyond N = 1
        SpectralState(N=1, coeffs=state_of(5, {5: [1, 0, 0]}).coeffs)


@pytest.mark.parametrize("subspace, filled", [
    ("Z", [True, True, True]), ("Zm", [True, False, False]), ("Zmm", [False, False, False]),
])
def test_random_state_fills_its_subspace(p1, subspace, filled):
    # which components of the n = 0 triple are random; the state is real
    # (conjugate symmetric) and of unit energy norm in every subspace
    st = random_state(p1, 4, subspace, seed=2)
    assert (st.coeffs[4] != 0).tolist() == filled
    assert np.array_equal(st.coeffs[::-1], np.conj(st.coeffs))
    assert energy_norm(st, p1) == pytest.approx(1.0, rel=1e-14)


def test_propagate_mode_identity_and_semigroup(p1):
    def flow(st, t):
        return evolve(p1, st, t, record_times=np.array([0.0, t]))[1]

    rng = np.random.default_rng(0)
    for n in (1, 5, -9):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        st = state_of(abs(n), {n: c})
        assert np.allclose(flow(st, 0.0).rows([n])[0], c, atol=1e-14)
        one = flow(flow(st, 0.7), 0.4).rows([n])[0]
        two = flow(st, 1.1).rows([n])[0]
        assert np.allclose(one, two, atol=1e-9)
        # group property: negative time inverts
        back = flow(flow(st, 0.8), -0.8).rows([n])[0]
        assert np.allclose(back, c, atol=1e-9)


def test_expm_matches_scipy(p1):
    # the Pade exponential against scipy.linalg.expm on (m, k, 3, 3) stacks
    # of scaled generator blocks, a Jordan block and zeros
    from scipy.linalg import expm as scipy_expm

    from cnsmax.dynamics import expm

    ns = np.concatenate([np.arange(-256, 0), np.arange(1, 257)])
    blocks = np.array([mode_matrix(p1, n) for n in ns])
    taus = np.linspace(0.0, 2.0, 9)
    jordan = np.eye(3) + np.eye(3, k=1)
    for a in (taus[None, :, None, None] * blocks[:, None], jordan, np.zeros((2, 4, 3, 3))):
        got, want = expm(a), scipy_expm(a)
        assert got.shape == want.shape
        err = np.linalg.norm(got - want, axis=(-2, -1))
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=(-2, -1)))


def test_propagator_uniformly_bounded(p1):
    # ||e^{t A_n}|| stays below a modest constant over modes and times
    worst = 0.0
    for n in range(1, 65):
        m = mode_system(p1, n)
        from cnsmax.spectral import gamma_matrix

        gm = gamma_matrix(p1, m)
        ginv = np.linalg.inv(gm.entries)
        for t in (0.0, 0.5, 2.0, 5.0):
            prop = ginv @ np.diag(np.exp(t * m.lambdas)) @ gm.entries
            worst = max(worst, np.linalg.norm(prop, 2))
    assert worst < 10.0


def test_evolve_zero_and_eigenmode(p1):
    rec, final = evolve(p1, state_of(4, {}), 1.0)
    assert np.all(rec.energies == 0)

    n, l = 3, 1
    m = mode_system(p1, n)
    st = state_of(n, {n: m.xi_coeffs[l] * np.sqrt(TWO_PI)})
    ts = np.linspace(0, 2.0, 9)
    rec, _ = evolve(p1, st, 2.0, record_times=ts)
    expect = np.exp(2 * m.lambdas[l].real * ts)
    assert np.allclose(rec.energies, expect, rtol=1e-9)
    assert np.all(np.diff(rec.energies) < 0)


def test_free_flow_zero_mode_invariants(p1):
    # d/dt mean(u) = 0 and mean(S) e^{t/kappa} constant, via the n=0 block
    st = state_of(1, {0: [0.3, 0.5, 0.8], 1: [0.1, 0, 0]})
    ts = np.array([0.0, 0.7, 1.9])
    rec, final = evolve(p1, st, 1.9, record_times=ts)
    c0 = final.rows([0])[0]
    assert c0[1] == pytest.approx(0.5, rel=1e-12)
    assert c0[2] * np.exp(1.9 / p1.kappa) == pytest.approx(0.8, rel=1e-12)
    assert c0[0] == pytest.approx(0.3, rel=1e-12)


def test_forced_evolution_quadrature_self_convergence(p1, monkeypatch):
    state0 = random_state(p1, 4, "Zm", seed=2)

    def forcing(ts):
        return np.outer(np.ones(9), (1, 0, 0)), np.broadcast_to(np.sin(ts), (9, len(ts)))

    monkeypatch.setattr(dyn, "PANELS_PER_UNIT", 32)
    _, f1 = evolve(p1, state0, 1.5, forcing=forcing)
    monkeypatch.setattr(dyn, "PANELS_PER_UNIT", 64)
    _, f2 = evolve(p1, state0, 1.5, forcing=forcing)
    diff = np.max(np.abs(f1.coeffs - f2.coeffs))
    assert diff < 1e-10


def test_forced_evolution_matches_van_loan(p1):
    """Forcing v_n e^{mu_n t} on every mode, n = 0 included, as the columns
    v_n and the signals e^{mu_n t}: the final state is e^{T A_n} c_n +
    int_0^T e^{(T-s) A_n} v_n e^{mu_n s} ds, read off the augmented
    exponential expm([[A_n, v_n], [0, mu_n]]) (Van Loan)."""
    from scipy.linalg import expm

    N, T = 4, 1.5
    state0 = complex_state(p1, N, seed=3)
    rng = np.random.default_rng(12)
    ns = np.arange(-N, N + 1)
    v = rng.standard_normal((ns.size, 3)) + 1j * rng.standard_normal((ns.size, 3))
    mu = -0.4 + 0.9j * ns

    def forcing(ts):
        return v, np.exp(mu[:, None] * ts)

    _, final = evolve(p1, state0, T, forcing=forcing)
    sw = np.sqrt(z_weights(p1))
    got = sw * final.coeffs
    want = []
    for n, vn, mun in zip(ns, v, mu):
        A = np.diag([0.0, 0.0, -1.0 / p1.kappa]) if n == 0 else mode_matrix(p1, n)
        aug = np.zeros((4, 4), dtype=complex)
        aug[:3, :3], aug[:3, 3], aug[3, 3] = A, vn, mun
        want.append(expm(T * A) @ (sw * state0.coeffs[n + N]) + expm(T * aug)[:3, 3])
    want = np.array(want)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_evolve_empty_state_gives_complex_zeros(p1):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec, final = evolve(p1, state_of(2, {}), 1.0)
        assert final.coeffs.dtype == complex and np.all(final.coeffs == 0)
        assert np.all(rec.energies == 0) and np.all(rec.norm_S == 0)
        rec, final = evolve(p1, state_of(2, {}), 1.0,
                            forcing=lambda ts: (np.zeros((5, 3)), np.zeros((5, len(ts)))))
    assert final.coeffs.shape == (5, 3)
    assert final.coeffs.dtype == complex and np.all(final.coeffs == 0)
    assert np.all(rec.energies == 0)


def test_forcing_called_once_per_record_interval(p1, monkeypatch):
    """evolve samples the forcing once per record interval with dt > 0, on
    that interval's whole composite Gauss-Legendre grid."""
    N, ppu, gl = 3, 10, 4
    ts = np.array([0.0, 0.1, 0.1, 0.35, 1.0])
    calls = []

    def forcing(s):
        calls.append(np.array(s))
        return np.zeros((2 * N + 1, 3)), np.zeros((2 * N + 1, len(s)), dtype=complex)

    monkeypatch.setattr(dyn, "PANELS_PER_UNIT", ppu)
    monkeypatch.setattr(dyn, "GL_POINTS", gl)
    evolve(p1, random_state(p1, N, seed=1), 1.0, forcing=forcing, record_times=ts)
    spans = [(a, b) for a, b in zip(ts[:-1], ts[1:]) if b > a]
    assert len(calls) == len(spans)
    for s, (a, b) in zip(calls, spans):
        assert s.shape == (int(np.ceil((b - a) * ppu)) * gl,)
        assert np.all((s > a) & (s < b))

    # a signal, then a column array, with one mode too few
    for bad in (lambda s: (np.zeros((2 * N + 1, 3)), np.zeros((2 * N, len(s)))),
                lambda s: (np.zeros((2 * N, 3)), np.zeros((2 * N + 1, len(s))))):
        with pytest.raises(ValidationError):
            evolve(p1, random_state(p1, N, seed=1), 1.0, forcing=bad)


def test_duality_pairing_constant_with_rk4_oracle(p1):
    """<z(t), w(t)>_Z is constant when z flows forward and w solves the
    adjoint; the adjoint here is integrated independently by dense RK4 on
    the weighted mode blocks."""
    N, T = 2, 0.9
    z0 = complex_state(p1, N, seed=4)
    wT = complex_state(p1, N, seed=9)
    w = z_weights(p1)

    def inner(a, b):
        return np.sum(w * a.coeffs * np.conj(b.coeffs))

    ts = np.linspace(0, T, 5)
    # forward states at each record time, exact per-mode exponentials
    z_states = [evolve(p1, z0, float(t), record_times=np.array([0.0, float(t)]))[1]
                if t > 0 else z0 for t in ts]

    # RK4 backward integration of the adjoint per weighted mode block
    steps = 600
    dt = T / steps
    blocks = {}
    for n in range(-N, N + 1):
        if n == 0:
            A = np.diag([0.0, 0.0, -1.0 / p1.kappa])
        else:
            A = mode_matrix(p1, n)
        blocks[n] = A.conj().T  # adjoint block in the weighted frame
    cur = {n: np.sqrt(w) * wT.coeffs[n + N] for n in range(-N, N + 1)}
    w_states = {round(float(T), 12): {n: c / np.sqrt(w) for n, c in cur.items()}}
    for k in range(steps):
        for n, A in blocks.items():
            c = cur[n]
            f = lambda y: A @ y  # v(s) = w(T - s) satisfies dv/ds = +A* v
            k1 = f(c)
            k2 = f(c + 0.5 * dt * k1)
            k3 = f(c + 0.5 * dt * k2)
            k4 = f(c + dt * k3)
            cur[n] = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = T - (k + 1) * dt
        w_states[round(float(t), 12)] = {n: c / np.sqrt(w) for n, c in cur.items()}

    pairings = []
    for t, z_t in zip(ts, z_states):
        key = round(float(t), 12)
        wdict = w_states[min(w_states, key=lambda s: abs(s - key))]
        wt = state_of(N, wdict)
        pairings.append(inner(z_t, wt))
    pairings = np.array(pairings)
    assert np.max(np.abs(pairings - pairings[0])) < 1e-7 * max(1, abs(pairings[0]))


def test_synthesize_roundtrip_and_reality(p1):
    st = state_of(1, {1: [1.0, 0, 0]})
    x, fields = synthesize_physical(st, 8)
    assert np.allclose(fields[0], np.exp(1j * x) / np.sqrt(TWO_PI), atol=1e-12)

    # against the direct sum of c_n e^{inx} / sqrt(2 pi) on the same grid
    rnd = complex_state(p1, 16, seed=5)
    x, fields = synthesize_physical(rnd, 64)
    waves = np.exp(1j * np.outer(np.arange(-16, 17), x)) / np.sqrt(TWO_PI)
    err = np.max(np.abs(fields - rnd.coeffs.T @ waves))
    assert err < 1e-12

    sym = random_state(p1, 8, "Zm", seed=6)
    _, fields = synthesize_physical(sym, 64)
    assert np.max(np.abs(fields.imag)) < 1e-12

    with pytest.raises(GridTooCoarse):
        synthesize_physical(rnd, 16)
