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

`_exact_loop` works in Python integers through `cnsmax._exact`, which
solves x0 = M^{-1} c0 and rounds its exact sums (`rounded_product`).
It owns its sample grid, the exact times t_j = j T_end / (samples - 1):
x(t_j) = x0 e^{r t_j} is x(t_{j-1}) times w = e^{r T_end / (samples - 1)},
and each mode keeps its own int64 exponent (`_mode_exponentials`; rates
too large for it raise NumericalFailure).  Callers record the t_j rounded
to double (np.linspace), like every other column.  mpmath is left with one
exponential per mode and the rows M_e: no mp.lu_solve and nothing per
sample.

The double-precision route (`_integrate`) steps the closed loop with a
second-order exponential integrator, a few NumPy vector operations per
step, and keeps only the recorded states.  The step is linear, so the
dt/2 state of its self-convergence check is one matrix power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from ._exact import fixed_point, mantissas, rounded_product, solve
from ._gram import boundary_observation_vector, build_branch_table, eigen_coefficients
from .dynamics import SpectralState, TrajectoryRecord
from .errors import (DegenerateWindow, IllConditioned, NumericalFailure,
                     OmegaTooSmall, StepTooLarge, ValidationError)
from .model import FluidParams
from .spectral import TWO_PI, nonzero_modes, spectral_table, z_weights

F64_COND_LIMIT = 1e12
COND_HARD_LIMIT = 1e30
RECORD_STRIDE = 16            # integrator steps per recorded sample
SAMPLE_BLOCK = 64             # samples per block of the exact evaluator
# Work bounds of closed_loop_simulate, far above the largest cases in use
# (about 27k integrator steps, 451 exact samples): the double-precision
# route runs T_end / dt steps, about 7 us each (15 s at the bound), and
# takes its dt/2 state from one matrix power; an exact sample costs about
# 0.27 ms at N = 8 (9 s at the bound, one core).
MAX_STEPS = 1 << 21
MAX_SAMPLES = 1 << 15
_bit_length = np.frompyfunc(int.bit_length, 1, 1)


@dataclass
class FeedbackLaw:
    omega: float
    N: int
    kind: str
    lam: np.ndarray               # (K,) retained eigenvalues
    b_vec: np.ndarray             # (K,) boundary observations B* xi*_a
    M: np.ndarray                 # (K, K) Gramian, eigenbasis coordinates
    cond_M: float
    growth: float                 # growth bound max(-Re lambda) of the retained modes
    table: object = field(repr=False)
    precision_dps: int            # 0 -> double precision solves suffice

    @property
    def abscissa(self) -> float:
        """Exact closed-loop spectral abscissa via the Lyapunov similarity."""
        return -2.0 * self.omega + self.growth

    def gain_vector(self) -> np.ndarray:
        """Row vector g with q = g . c (solved against M^T), in double
        precision; a law that needs extended precision has no usable
        double-precision gain, so it raises IllConditioned."""
        if self.precision_dps > 0:
            raise IllConditioned("feedback gain in double precision",
                                 self.cond_M, F64_COND_LIMIT)
        return -np.linalg.solve(self.M.T, self.b_vec)


def _bits(re, im) -> np.ndarray:
    """Bit length of max(|re|, |im|) for each pair of integer arrays."""
    return _bit_length(np.maximum(np.abs(re), np.abs(im))).astype(np.int64)


def _mode_exponentials(y0, rates, T_end: float, samples: int, bits: int):
    """y0_a e^{rates_a t_j} at the exact times t_j = j T_end / (samples - 1),
    yielded in blocks of SAMPLE_BLOCK samples as integer arrays re, im and
    exponents, shape (len(rates), SAMPLE_BLOCK); each mode and sample has
    its own exponent.

    y0 = (re, im, exp) integers.  w_a = e^{rates_a T_end / (samples - 1)},
    formed in mp at `bits` + a few bits, is the only mp.exp per mode.
    Sample 0 is y0 and sample j is sample j - 1 times w_a, cut back to
    `bits` + a few bits after each product.  Exponents are int64, so
    NumericalFailure is raised when |rates| T_end reaches 2^60.
    """
    r_t = float(np.abs(rates).max()) * T_end
    if r_t >= 2.0 ** 60:
        raise NumericalFailure(f"closed-loop exponent |r t| = {r_t:.3e} "
                               "is out of the evaluator's exponent range")
    work = bits + samples.bit_length()   # covers the error growth of the products

    def renorm(a, b, e):
        shift = np.maximum(_bits(a, b) - work, 0)
        return a >> shift, b >> shift, e + shift

    ws = []
    with mp.workprec(work + 8):
        step = mp.mpf(T_end) / (samples - 1)
        for r in rates:
            parts = mp.exp(mp.mpc(r) * step)._mpc_
            low = max(e + bc for _, m, e, bc in parts if m) - work
            ws.append((*fixed_point(parts, low), low))
    w_re = np.array([w[0] for w in ws], dtype=object)
    w_im = np.array([w[1] for w in ws], dtype=object)
    w_exp = np.array([w[2] for w in ws], dtype=np.int64)
    a, b, e = renorm(*y0)
    for start in range(0, samples, SAMPLE_BLOCK):
        n = min(SAMPLE_BLOCK, samples - start)
        re, im = (np.empty((len(rates), n), dtype=object) for _ in range(2))
        ex = np.empty((len(rates), n), dtype=np.int64)
        for j in range(n):
            if start + j:
                a, b, e = renorm(a * w_re - b * w_im, a * w_im + b * w_re, e + w_exp)
            re[:, j], im[:, j], ex[:, j] = a, b, e
        yield re, im, ex


def _exact_loop(law: FeedbackLaw, c0, T_end: float, samples: int, dps: int,
                extra=None):
    """Closed-form closed loop of `law` at dps digits (see the module
    docstring): x0 = M^{-1} c0 once, then x(t) = x0 e^{rt} with
    r = -(2 omega + conj lambda), c(t) = M x(t) and q(t) = -b . x(t), at
    the exact times t_j = j T_end / (samples - 1), j < samples.

    extra = (lam_e, b_e, c0_e) appends E open-loop modes driven by q; their
    rows are M_e x(t) + e^{lam_e t} (c0_e - M_e x0) (Sylvester identity),
    with M_e built in mp from the given double-precision lam and b.

    All rows are one rectangular matrix
    R = [[M, 0], [M_e, diag(c0_e - M_e x0)], [-b^T, 0]] applied to
    y(t) = [x0 e^{rt}; e^{lam_e t}], from `_mode_exponentials`: K + E mp.exp
    values per law, none per sample.  R is split into re/im integer
    mantissas at one common exponent, exactly: M and b are doubles, M_e and
    the free terms mp values.  Each y(t) is split at a block exponent
    prec + 64 bits below its largest x(t) entry; only bits that far below
    are dropped.  Every entry of R y(t) is the exact sum rounded as mp.fdot
    rounds it (`rounded_product`).  Returns the states, shape
    (samples, K + E), and the controls, shape (samples,).
    """
    lam, bv = law.lam, law.b_vec
    K = lam.size
    E = 0 if extra is None else len(extra[0])
    rates = -(2.0 * law.omega) - np.conj(lam)
    with mp.workdps(dps):
        prec = mp.mp.prec
        m_parts = mantissas(law.M)
        x_re, x_im, x_exp = solve(m_parts, np.asarray(c0), prec)
        y0 = (np.concatenate([x_re, np.ones(E, dtype=object)]),
              np.concatenate([x_im, np.zeros(E, dtype=object)]),
              np.array([x_exp] * K + [0] * E))
        # the mantissa tuples of R row by row: M and -b are doubles, the
        # rows [M_e, diag(c0_e - M_e x0)] mp values
        parts = [t for a in range(0, 2 * K * K, 2 * K)
                 for t in m_parts[a:a + 2 * K] + [(0, 0, 0, 0)] * (2 * E)]
        if extra is not None:
            lam_e, b_e, c0_e = extra
            x0 = [mp.mpc(mp.ldexp(x_re[a], x_exp), mp.ldexp(x_im[a], x_exp))
                  for a in range(K)]
            for e in range(E):
                le, be = mp.mpc(lam_e[e]), mp.mpc(np.conj(b_e[e]))
                row = [be * mp.mpc(bv[a]) / (le - mp.mpc(rates[a])) for a in range(K)]
                row += [mp.mpc(0)] * E
                row[K + e] = mp.mpc(c0_e[e]) - mp.fsum(row[a] * x0[a] for a in range(K))
                parts += [p for z in row for p in z._mpc_]
            rates = np.concatenate([rates, lam_e])
        parts += mantissas(np.concatenate([-bv, np.zeros(E)]))
    r_low = min((e for _, m, e, _ in parts if m), default=0)
    r_int = fixed_point(parts, r_low).reshape(K + E + 1, K + E, 2)
    product = rounded_product(r_int[..., 0], r_int[..., 1], prec)
    out = np.empty((K + E + 1, samples), dtype=complex)
    start = 0
    for y_re, y_im, y_exp in _mode_exponentials(y0, rates, T_end, samples, prec + 64):
        # every row reads x(t); the free responses set the scale only
        # when x(t) = 0
        nz = (y_re != 0) | (y_im != 0)
        tops = np.where(nz, y_exp + _bits(y_re, y_im), np.iinfo(np.int64).min)
        top = np.where(nz[:K].any(axis=0), tops[:K].max(axis=0), tops.max(axis=0))
        y_low = np.where(nz.any(axis=0), top, 0) - prec - 64
        up, down = np.maximum(y_exp - y_low, 0), np.maximum(y_low - y_exp, 0)
        stop = start + len(y_low)
        out[:, start:stop] = product((y_re << up) >> down, (y_im << up) >> down, r_low + y_low)
        start = stop
    return out[:K + E].T, out[K + E]


def build_feedback(
    p: FluidParams, N: int, omega: float, kind: str = "density"
) -> FeedbackLaw:
    """Assemble the feedback Gramian and verify its definiteness.

    One eigen-solve serves both checks: omega against the growth bound
    (OmegaTooSmall) first, then the simplicity of the spectrum
    (MultiplicityDetected)."""
    modes = spectral_table(p, nonzero_modes(N))
    g_hat = float((-modes.lambdas.real).max())
    if omega <= max(g_hat, 0.0):
        raise OmegaTooSmall(
            f"omega={omega} must exceed max(growth threshold {g_hat:.4f}, 0)"
        )
    tab = build_branch_table(p, N, "Zmm", modes=modes)
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
        cond_M=cond, growth=g_hat, table=tab, precision_dps=dps,
    )


def quadrature_gramian(law: FeedbackLaw, points: int = 400):
    """Independent Gauss-Legendre evaluation of the Gramian integral,
    truncated where the integrand's weight has decayed to 1e-12."""
    lam, bv, om = law.lam, law.b_vec, law.omega
    rate = float(2.0 * om + 2.0 * lam.real.min())
    T_big = -np.log(1e-12) / rate
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
) -> TrajectoryRecord:
    """Closed-loop trajectory of the truncated feedback system.

    Well-conditioned laws integrate the eigen-coordinate ODE with a
    second-order exponential integrator at step dt = 0.1 / max|lambda| and
    check the final state against the dt/2 one, taken from one matrix
    power (`_integrate`).  Ill-conditioned laws use the exact route: the
    Lyapunov identity makes x = M^{-1} c evolve by pure modal decay
    e^{-(2 omega + conj lambda)t}, so the trajectory is evaluated in closed
    form with exact integer sums (`_exact_loop`) and there is no time-step
    error; it is sampled about every RECORD_STRIDE steps dt, at the exact
    times j T_end / nrec, and `times` holds them rounded to double.
    Either route holds only the recorded samples in memory, and a horizon
    needing more than MAX_STEPS steps or MAX_SAMPLES exact samples is a
    ValidationError.
    """
    c0 = eigen_coefficients(law.table, z0)
    dt = 0.1 / float(np.abs(law.lam).max())
    exact = law.precision_dps > 0
    count, limit = ((T_end / dt / RECORD_STRIDE, MAX_SAMPLES) if exact
                    else (T_end / dt, MAX_STEPS))
    if count > limit:
        raise ValidationError(f"T_end={T_end:g} needs {count:.3e} closed-loop "
                              f"{'samples' if exact else 'steps'}, more than {limit}")
    if exact:
        nrec = max(int(np.ceil(count)), 64)
        times = np.linspace(0.0, T_end, nrec + 1)
        states, qs = _exact_loop(law, c0, T_end, nrec + 1, law.precision_dps)
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
    )


def _step_vectors(law: FeedbackLaw, T_end, step):
    """Step count nst, step h = T_end / nst and the vectors e^{lambda h},
    u = phi1 conj(b) and v = phi2 conj(b) of `_integrate`'s step."""
    lam = law.lam
    nst = int(np.ceil(T_end / step))
    h = T_end / nst
    eL = np.exp(lam * h)
    z = lam * h
    small = np.abs(z) < 1e-8
    lam_s = np.where(small, 1.0, lam)
    phi1 = np.where(small, h, (eL - 1.0) / lam_s)
    phi2 = np.where(small, h / 2.0, (eL - 1.0 - z) / (lam_s * z))
    bconj = np.conj(law.b_vec)
    return nst, h, eL, phi1 * bconj, phi2 * bconj


def _final_state(law: FeedbackLaw, g, c0, T_end, step):
    """c0 after every step of `_integrate` at `step`, as one matrix power:
    the step is c+ = Phi c, Phi = P + v g^T (P - I), P = diag(e^{lambda h}) + u g^T."""
    nst, _, eL, u, v = _step_vectors(law, T_end, step)
    P = np.diag(eL) + np.outer(u, g)
    return np.linalg.matrix_power(P + np.outer(v, g @ (P - np.eye(eL.size))), nst) @ c0


def _integrate(law: FeedbackLaw, c0, T_end, dt):
    """Exponential-integrator route: recorded eigen-coordinate states,
    controls and times.

    Each step is c+ = pred + v (g . pred - q), pred = e^{lambda h} c + u q,
    q = g . c (`_step_vectors`); g . c+ is the next q and the recorded
    control.  Every RECORD_STRIDE-th state and the last are kept.  The
    final state must be within 1e-6 ||c0|| of the dt/2 one, a matrix power
    (`_final_state`); a non-finite drift fails too.
    """
    g = law.gain_vector()
    nst, h, eL, u, v = _step_vectors(law, T_end, dt)
    c = c0
    q = g @ c
    keep, traj, qs = [0], [c], [complex(q)]
    for k in range(1, nst + 1):
        pred = eL * c + u * q
        c = pred + v * (g @ pred - q)
        q = g @ c
        if k % RECORD_STRIDE == 0 or k == nst:
            keep.append(k)
            traj.append(c)
            qs.append(complex(q))
    c_half = _final_state(law, g, c0, T_end, dt / 2.0)
    drift = np.linalg.norm(c - c_half) / max(np.linalg.norm(c0), 1e-300)
    if not drift <= 1e-6:
        raise StepTooLarge(
            f"dt vs dt/2 self-convergence drift {drift:.3e} exceeds 1e-6"
        )
    return np.array(traj), np.array(qs), np.array(keep) * h


def spillover_report(
    p: FluidParams,
    law: FeedbackLaw,
    z0: SpectralState,
    T_end: float,
) -> dict:
    """Decay-rate change when the N-truncation gain drives a larger plant.

    The feedback only reads the first-N modal projection, whose closed loop
    stays the exact similarity system; modes with N < |n| <= N2 = 2N are
    driven open-loop by the resulting control.  By the Sylvester identity
    (module docstring) mode e responds exactly as
    c_e(t) = sum_a M_e[e, a] x_a(t) + e^{lambda_e t} (c_e(0) - sum_a M_e[e, a] x0_a)
    with M_e[e, a] = conj(b_e) b_a / (lambda_e + 2 omega + conj lambda_a),
    so design and extra modes are the rows of [M; M_e] applied to the same
    x(t) (`_exact_loop`), sampled at 129 times on [0, T_end].  Returns the
    fitted rates of the design truncation and of the extended plant.
    """
    N2 = 2 * law.N
    tab2 = build_branch_table(p, N2, "Zmm")
    extra = np.abs(tab2.idx_n) > law.N
    bv2 = boundary_observation_vector(tab2, law.kind)
    c0 = eigen_coefficients(tab2, z0)
    times = np.linspace(0.0, T_end, 129)
    K = law.lam.size
    cs, _ = _exact_loop(law, c0[~extra], T_end, times.size, law.precision_dps or 30,
                        extra=(tab2.lam[extra], bv2[extra], c0[extra]))

    e_design = _state_norms(p, law.table.modes.xi_coeffs, cs[:, :K])[0]
    xi_extra = tab2.modes.xi_coeffs[np.abs(tab2.modes.ns) > law.N]
    e_extra = _state_norms(p, xi_extra, cs[:, K:])[0]
    return {
        "N": law.N,
        "N2": N2,
        "nu_fit_design": _fit_rate(times, e_design),
        "nu_fit_extended": _fit_rate(times, e_design + e_extra),
        "spillover_energy_peak": float(e_extra.max()),
    }


def fit_decay_rate(traj: TrajectoryRecord):
    """Exponential decay rate of the energy norm by least squares.

    Fits (1/2) log energy against t over [0.2, 0.9] * T_end and returns the
    negated slope; underflowed samples are dropped (window auto-shortened).
    """
    return _fit_rate(traj.times, traj.energies)


def _fit_rate(times, energies) -> float:
    """The fit of `fit_decay_rate` on the energies at the given times.

    The log is taken of the energies floored at 1e-300; samples at or below
    1e-290 are dropped, so the floor never enters the fit."""
    loge = np.log(np.maximum(np.asarray(energies, dtype=float), 1e-300))
    t = np.asarray(times, dtype=float)
    T_end = t[-1]
    mask = (t >= 0.2 * T_end) & (t <= 0.9 * T_end) & np.isfinite(loge)
    mask &= loge > np.log(1e-290)
    if mask.sum() < 2:
        raise DegenerateWindow("fewer than two usable samples in the fit window")
    slope = np.polyfit(t[mask], 0.5 * loge[mask], 1)[0]
    return float(-slope)
