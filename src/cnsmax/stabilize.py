"""Gramian boundary feedback (infinite-horizon, exponentially weighted) and
closed-loop simulation.

The feedback inverts the weighted observability Gramian of the reversed
adjoint flow: with modal observations b_a = B* xi*_a, the matrix
M[b, a] = b_a conj(b_b) / (2 omega + conj(lambda_a) + lambda_b) represents
the Gramian in eigenbasis coordinates, and the gain on a state with
direct-eigenbasis coordinates c is q = -sum_a x_a b_a where M x = c.

M is a Cauchy-type matrix; its conditioning degrades exponentially with the
number of retained modes because the e^{-2 omega t} weight localizes the
observation window far below the controllability waiting time.  The solver
therefore escalates to extended precision when needed; by the Lyapunov
identity (A + omega)M + M(A + omega)* = B B* the exact closed loop is
similar to -A* - 2 omega, which pins its spectral abscissa at
-2 omega + max(-Re lambda) regardless of conditioning.  In coordinates
x = M^{-1} c the loop is pure modal decay x(t) = x0 e^{rt} with
r = -(2 omega + conj lambda), so c(t) = M x(t) and q(t) = -b . x(t) in
closed form (`_exact_loop`).

The same derivation gives a Sylvester identity for modes outside the
truncation: an open-loop mode e with eigenvalue lambda_e, driven through
conj(b_e) by that q, satisfies lambda_e M_e - M_e diag(r) = conj(b_e) b^T
with M_e[e, a] = conj(b_e) b_a / (lambda_e + 2 omega + conj lambda_a), the
Gramian's formula extended to the extra rows.  Hence its exact response is
c_e(t) = M_e x(t) + e^{lambda_e t} (c_e(0) - M_e x0): spillover is the
rectangular Gramian [M; M_e] applied to the same x(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._gram import build_branch_table, eigen_coefficients, texp
from .dynamics import SpectralState, TrajectoryRecord
from .errors import DegenerateWindow, IllConditioned, OmegaTooSmall, StepTooLarge
from .model import FluidParams
from .spectral import TWO_PI, mode_eigenvalues_batch, nonzero_modes, z_weights

F64_COND_LIMIT = 1e12
COND_HARD_LIMIT = 1e30
RECORD_STRIDE = 16            # integrator steps per recorded sample


def growth_threshold(p: FluidParams, N: int) -> float:
    """Numerical growth bound of the reversed flow: max of -Re lambda."""
    lam = mode_eigenvalues_batch(p, nonzero_modes(N))
    return float((-lam.real).max())


@dataclass
class FeedbackLaw:
    omega: float
    N: int
    kind: str
    lam: np.ndarray               # (K,) retained eigenvalues
    b_vec: np.ndarray             # (K,) boundary observations B* xi*_a
    M: np.ndarray                 # (K, K) Gramian, eigenbasis coordinates
    cond_M: float
    table: object = field(repr=False)
    precision_dps: int = 0        # 0 -> double precision solves suffice

    @property
    def abscissa(self) -> float:
        """Exact closed-loop spectral abscissa via the Lyapunov similarity."""
        return float(-2.0 * self.omega + (-self.lam.real).max())

    def gain_vector(self) -> np.ndarray:
        """Row vector g with q = g . c (solved against M^T)."""
        if self.precision_dps == 0:
            return -np.linalg.solve(self.M.T, self.b_vec)
        import mpmath as mp

        with mp.workdps(self.precision_dps):
            x = mp.lu_solve(_to_mp(self.M.T), _to_mp(self.b_vec))
        return -np.array([complex(v) for v in x])


def _to_mp(a):
    """mp.matrix holding a complex NumPy array (a vector becomes a column);
    the conversion is exact, precision is the caller's mp context."""
    import mpmath as mp

    a = np.asarray(a)
    if a.ndim == 1:
        return mp.matrix([mp.mpc(v) for v in a])
    return mp.matrix([[mp.mpc(v) for v in row] for row in a])


def _exact_loop(law: FeedbackLaw, c0, times, dps: int, extra=None):
    """Closed-form closed loop of `law` at dps digits (see the module
    docstring): x0 = M^{-1} c0 once, then x(t) = x0 e^{rt} with
    r = -(2 omega + conj lambda), c(t) = M x(t) and q(t) = -b . x(t).

    extra = (lam_e, b_e, c0_e) appends E open-loop modes driven by q; their
    rows are M_e x(t) + e^{lam_e t} (c0_e - M_e x0) (Sylvester identity),
    with M_e built in mp from the given double-precision lam and b.  That
    is K + E exponentials per sample.  Returns the states, shape
    (len(times), K + E), and the controls, shape (len(times),).
    """
    import mpmath as mp

    lam, bv = law.lam, law.b_vec
    K = lam.size
    with mp.workdps(dps):
        A = _to_mp(law.M)
        x0 = mp.lu_solve(A, _to_mp(c0))
        rates = [mp.mpc(r) for r in -(2.0 * law.omega) - np.conj(lam)]
        lam_x, free = [], []  # extra modes: lambda_e and c0_e - M_e x0
        if extra is not None:
            lam_e, b_e, c0_e = extra
            A.rows = K + len(lam_e)  # rows K.. take M_e: A = [M; M_e]
            for e in range(len(lam_e)):
                le, be = mp.mpc(lam_e[e]), mp.mpc(np.conj(b_e[e]))
                for a in range(K):
                    A[K + e, a] = be * mp.mpc(bv[a]) / (le - rates[a])
                lam_x.append(le)
                free.append(mp.mpc(c0_e[e])
                            - mp.fsum(A[K + e, a] * x0[a] for a in range(K)))
        states, qs = [], []
        for t in times:
            xt = mp.matrix([x0[a] * mp.exp(rates[a] * t) for a in range(K)])
            ct = A * xt
            for e in range(len(lam_x)):
                ct[K + e] += free[e] * mp.exp(lam_x[e] * t)
            states.append([complex(v) for v in ct])
            qs.append(complex(-sum(complex(xt[a]) * bv[a] for a in range(K))))
    return np.array(states), np.array(qs)


def build_feedback(
    p: FluidParams, N: int, omega: float, kind: str = "density"
) -> FeedbackLaw:
    """Assemble the feedback Gramian and verify its definiteness."""
    from .control import boundary_observation_vector

    g_hat = growth_threshold(p, N)
    if omega <= max(g_hat, 0.0):
        raise OmegaTooSmall(
            f"omega={omega} must exceed max(growth threshold {g_hat:.4f}, 0)"
        )
    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    lam = tab.lam
    denon = 2.0 * omega + np.conj(lam)[None, :] + lam[:, None]
    if np.any(denon.real <= 0):
        raise OmegaTooSmall("a Gramian integral fails to converge")
    M = bv[None, :] * np.conj(bv)[:, None] / denon
    herm = float(np.max(np.abs(M - M.conj().T)))
    scale = float(np.abs(M).max())
    if herm > 1e-10 * max(scale, 1.0):
        raise IllConditioned("feedback Gramian symmetry", herm / scale, 1e-10)
    ev = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    if ev[0] < -1e-10 * max(ev[-1], 1.0):
        raise IllConditioned("feedback Gramian definiteness", -ev[0], 1e-10)
    cond = float(np.linalg.cond(M))
    if cond > COND_HARD_LIMIT:
        raise IllConditioned("feedback Gramian", cond, COND_HARD_LIMIT)
    dps = 0
    if cond > F64_COND_LIMIT:
        dps = int(30 + 1.3 * np.log10(cond))
    return FeedbackLaw(
        omega=omega, N=N, kind=kind, lam=lam, b_vec=bv, M=M,
        cond_M=cond, table=tab, precision_dps=dps,
    )


def quadrature_gramian(law: FeedbackLaw, tail_tol: float = 1e-12, points: int = 400):
    """Independent Gauss-Legendre evaluation of the Gramian integral."""
    from numpy.polynomial.legendre import leggauss

    lam, bv, om = law.lam, law.b_vec, law.omega
    rate = float(2.0 * om + 2.0 * lam.real.min())
    T_big = -np.log(tail_tol) / rate
    xs, ws = leggauss(points)
    ts = 0.5 * T_big * (xs + 1.0)
    wts = 0.5 * T_big * ws
    K = lam.size
    M = np.zeros((K, K), dtype=complex)
    for t, w in zip(ts, wts):
        col = bv * np.exp(-(om + np.conj(lam)) * t)
        M += w * np.outer(np.conj(col), col)
    return M


def _state_norms(p: FluidParams, xi: np.ndarray, cs) -> tuple[np.ndarray, np.ndarray]:
    """Energies (squared Z norms) and plain L^2 component norms (rho, u, S)
    of the states whose direct-eigenbasis coordinates are the rows of cs.

    xi (M, 3, 3) holds the direct triples of M modes; each mode owns three
    consecutive coordinates, in branch order.
    """
    cs = np.asarray(cs)
    comps = np.einsum("tml,mlp->tmp", cs.reshape(len(cs), -1, 3), xi)
    sq = TWO_PI * np.sum(np.abs(comps) ** 2, axis=1)
    return sq @ z_weights(p), np.sqrt(sq)


def closed_loop_simulate(
    p: FluidParams,
    law: FeedbackLaw,
    z0: SpectralState,
    T_end: float,
    dt: float | None = None,
) -> TrajectoryRecord:
    """Closed-loop trajectory of the truncated feedback system.

    Well-conditioned laws integrate the eigen-coordinate ODE with a
    second-order exponential integrator and a dt vs dt/2 self-convergence
    check.  Ill-conditioned laws use the exact route: the Lyapunov identity
    makes x = M^{-1} c evolve by pure modal decay e^{-(2 omega + conj
    lambda)t}, so the trajectory is evaluated in closed form with extended
    precision and there is no time-step error.
    """
    c0 = eigen_coefficients(law.table, z0)
    lam = law.lam
    max_rate = float(np.abs(lam).max())
    if dt is None:
        dt = 0.1 / max_rate
    if dt > 0.1 / max_rate * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt} does not resolve the fastest mode")
    if law.precision_dps > 0:
        nrec = max(int(np.ceil(T_end / dt / RECORD_STRIDE)), 64)
        times = np.linspace(0.0, T_end, nrec + 1)
        states, qs = _exact_loop(law, c0, times, law.precision_dps)
    else:
        states, qs, times = _integrate(law, c0, T_end, dt)
    energies, comp = _state_norms(p, law.table.modes.xi_coeffs, states)
    return TrajectoryRecord(
        times=times,
        energies=energies,
        norm_rho=comp[:, 0],
        norm_u=comp[:, 1],
        norm_S=comp[:, 2],
        control=qs,
        log_energies=np.log(np.maximum(energies, 1e-300)),
    )


def _integrate(law: FeedbackLaw, c0, T_end, dt):
    """Exponential-integrator route: recorded eigen-coordinate states,
    controls and times."""
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
        raise StepTooLarge(
            f"dt vs dt/2 self-convergence drift {drift:.3e} exceeds 1e-6"
        )
    keep = np.arange(0, traj.shape[0], RECORD_STRIDE)
    if keep[-1] != traj.shape[0] - 1:
        keep = np.append(keep, traj.shape[0] - 1)
    return traj[keep], qs[keep], keep * h


def spillover_report(
    p: FluidParams,
    law: FeedbackLaw,
    z0: SpectralState,
    T_end: float,
    N2: int | None = None,
    samples: int = 129,
) -> dict:
    """Decay-rate change when the N-truncation gain drives a larger plant.

    The feedback only reads the first-N modal projection, whose closed loop
    stays the exact similarity system; modes with N < |n| <= N2 are driven
    open-loop by the resulting control.  By the Sylvester identity (module
    docstring) mode e responds exactly as
    c_e(t) = sum_a M_e[e, a] x_a(t) + e^{lambda_e t} (c_e(0) - sum_a M_e[e, a] x0_a)
    with M_e[e, a] = conj(b_e) b_a / (lambda_e + 2 omega + conj lambda_a),
    so design and extra modes are the rows of [M; M_e] applied to the same
    x(t) (`_exact_loop`).  Returns the fitted rates of the design truncation
    and of the extended plant.
    """
    N2 = N2 or 2 * law.N
    if N2 <= law.N:
        raise ValueError("N2 must exceed the design truncation")
    tab2 = build_branch_table(p, N2, "Zmm")
    extra = np.abs(tab2.idx_n) > law.N
    from .control import boundary_observation_vector

    bv2 = boundary_observation_vector(tab2, law.kind)

    z0_design = SpectralState(
        N=law.N,
        coeffs={n: c for n, c in z0.coeffs.items() if abs(n) <= law.N},
        subspace="Zmm",
    )
    c0 = eigen_coefficients(law.table, z0_design)
    c0_extra = eigen_coefficients(tab2, z0)[extra]

    times = np.linspace(0.0, T_end, samples)
    K = law.lam.size
    cs, _ = _exact_loop(law, c0, times, law.precision_dps or 30,
                        extra=(tab2.lam[extra], bv2[extra], c0_extra))

    e_design = _state_norms(p, law.table.modes.xi_coeffs, cs[:, :K])[0]
    xi_extra = tab2.modes.xi_coeffs[np.abs(tab2.modes.ns) > law.N]
    e_extra = _state_norms(p, xi_extra, cs[:, K:])[0]
    total = np.maximum(e_design + e_extra, 1e-300)

    def rate_of(energies):
        rec = TrajectoryRecord(
            times=times, energies=energies,
            norm_rho=np.sqrt(energies), norm_u=np.sqrt(energies),
            norm_S=np.sqrt(energies),
            log_energies=np.log(np.maximum(energies, 1e-300)),
        )
        return fit_decay_rate(rec)

    nu_design = rate_of(np.maximum(e_design, 1e-300))
    nu_extended = rate_of(total)
    return {
        "N": law.N,
        "N2": N2,
        "nu_fit_design": nu_design,
        "nu_fit_extended": nu_extended,
        "spillover_energy_peak": float(e_extra.max()),
    }


def fit_decay_rate(traj: TrajectoryRecord, window: tuple[float, float] = (0.2, 0.9)):
    """Exponential decay rate of the energy norm by least squares.

    Fits (1/2) log energy against t over [w0, w1] * T_end and returns the
    negated slope; underflowed samples are dropped (window auto-shortened).
    """
    t = np.asarray(traj.times, dtype=float)
    loge = traj.log_energies
    if loge is None:
        with np.errstate(divide="ignore"):
            loge = np.log(np.asarray(traj.energies, dtype=float))
    T_end = t[-1]
    mask = (t >= window[0] * T_end) & (t <= window[1] * T_end) & np.isfinite(loge)
    mask &= loge > np.log(1e-290)
    if mask.sum() < 2:
        raise DegenerateWindow("fewer than two usable samples in the fit window")
    slope = np.polyfit(t[mask], 0.5 * loge[mask], 1)[0]
    return float(-slope)
