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
-2 omega + max(-Re lambda) regardless of conditioning.
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

    def _solve(self, c: np.ndarray) -> np.ndarray:
        if self.precision_dps == 0:
            return np.linalg.solve(self.M, c)
        import mpmath as mp

        with mp.workdps(self.precision_dps):
            Mmp = mp.matrix(
                [[mp.mpc(self.M[i, j]) for j in range(self.M.shape[1])]
                 for i in range(self.M.shape[0])]
            )
            x = mp.lu_solve(Mmp, mp.matrix([mp.mpc(v) for v in c]))
        return np.array([complex(v) for v in x])

    def gain(self, c: np.ndarray) -> complex:
        """Feedback value q for a state with eigenbasis coordinates c."""
        x = self._solve(np.asarray(c, dtype=complex))
        return complex(-np.sum(x * self.b_vec))

    def gain_vector(self) -> np.ndarray:
        """Row vector g with q = g . c (solved against M^T)."""
        if self.precision_dps == 0:
            return -np.linalg.solve(self.M.T, self.b_vec)
        import mpmath as mp

        with mp.workdps(self.precision_dps):
            Mt = mp.matrix(
                [[mp.mpc(self.M[j, i]) for j in range(self.M.shape[0])]
                 for i in range(self.M.shape[1])]
            )
            x = mp.lu_solve(Mt, mp.matrix([mp.mpc(v) for v in self.b_vec]))
        return -np.array([complex(v) for v in x])


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
    record_every: int | None = None,
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
        import mpmath as mp

        nrec = max(int(np.ceil(T_end / dt / max(record_every or 16, 1))), 64)
        times = np.linspace(0.0, T_end, nrec + 1)
        with mp.workdps(law.precision_dps):
            K = lam.size
            Mmp = mp.matrix(
                [[mp.mpc(law.M[i, j]) for j in range(K)] for i in range(K)]
            )
            x0 = mp.lu_solve(Mmp, mp.matrix([mp.mpc(v) for v in c0]))
            rates = [mp.mpc(-(2.0 * law.omega) - np.conj(lam[a])) for a in range(K)]
            cs, qs = [], []
            for t in times:
                xt = mp.matrix([x0[a] * mp.exp(rates[a] * t) for a in range(K)])
                ct = Mmp * xt
                cs.append(np.array([complex(v) for v in ct]))
                qs.append(complex(-sum(complex(xt[a]) * law.b_vec[a] for a in range(K))))
        states, qs = cs, np.array(qs)
    else:
        states, qs, times = _integrate(law, c0, T_end, dt, record_every)
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


def _integrate(law: FeedbackLaw, c0, T_end, dt, record_every):
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
    stride = record_every or 16
    keep = np.arange(0, traj.shape[0], stride)
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
    open-loop by the resulting control, which is an exponential sum, so
    their response has a closed form.  Returns the fitted rates of the
    design truncation and of the extended plant.
    """
    import mpmath as mp

    N2 = N2 or 2 * law.N
    if N2 <= law.N:
        raise ValueError("N2 must exceed the design truncation")
    tab2 = build_branch_table(p, N2, "Zmm")
    extra = np.abs(tab2.idx_n) > law.N
    lam_e = tab2.lam[extra]
    from .control import boundary_observation_vector

    bv2 = boundary_observation_vector(tab2, law.kind)
    bconj_e = np.conj(bv2[extra])

    z0_design = SpectralState(
        N=law.N,
        coeffs={n: c for n, c in z0.coeffs.items() if abs(n) <= law.N},
        subspace="Zmm",
    )
    c0 = eigen_coefficients(law.table, z0_design)
    c0_extra = eigen_coefficients(tab2, z0)[extra]

    times = np.linspace(0.0, T_end, samples)
    dps = law.precision_dps or 30
    K = law.lam.size
    with mp.workdps(dps):
        Mmp = mp.matrix([[mp.mpc(law.M[i, j]) for j in range(K)] for i in range(K)])
        x0 = mp.lu_solve(Mmp, mp.matrix([mp.mpc(v) for v in c0]))
        rates = [mp.mpc(-(2.0 * law.omega) - np.conj(law.lam[a])) for a in range(K)]
        amp = [-x0[a] * mp.mpc(law.b_vec[a]) for a in range(K)]  # q(t) = sum amp_a e^{rates_a t}
        design_c, extra_c = [], []
        for t in times:
            xt = mp.matrix([x0[a] * mp.exp(rates[a] * t) for a in range(K)])
            ct = Mmp * xt
            design_c.append(np.array([complex(v) for v in ct]))
            row = []
            for e in range(lam_e.size):
                le = mp.mpc(lam_e[e])
                acc = mp.mpc(c0_extra[e]) * mp.exp(le * t)
                for a in range(K):
                    den = le - rates[a]
                    conv = (mp.exp(le * t) - mp.exp(rates[a] * t)) / den
                    acc += mp.mpc(bconj_e[e]) * amp[a] * conv
                row.append(complex(acc))
            extra_c.append(np.array(row))

    e_design = _state_norms(p, law.table.modes.xi_coeffs, design_c)[0]
    xi_extra = tab2.modes.xi_coeffs[np.abs(tab2.modes.ns) > law.N]
    e_extra = _state_norms(p, xi_extra, extra_c)[0]
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
