"""Exact control synthesis: everywhere/localized interior and boundary HUM.

Per-mode controls use the closed-form 3x3 controllability Gramian; localized
and boundary controls assemble one dense Hermitian Gramian over all retained
modal indices and solve the corresponding moment problem.  Every synthesized
control is re-verified by independently evolving the truncated system with
the control as a sampled forcing: each synthesizer hands `evolve` a forcing
that evaluates the control on a whole array of times, returning the modal
forcing triples of modes -N..N in weighted Fourier coordinates
(2N+1, 3, len(ts)), and its control samples come from the same array
evaluation.  `evolve` integrates that sampled forcing by quadrature; it never
sees the closed form of the exponential-sum control.
"""

from __future__ import annotations

from dataclasses import dataclass
from warnings import warn

import numpy as np

from ._gram import (
    BranchTable,
    build_branch_table,
    eigen_coefficients,
    kernel_gram,
    space_overlap,
    texp,
    windowed_gram,
)
from .dynamics import SpectralState, energy_norm, evolve
from .errors import IllConditioned, ObservationVanished, RankDeficient, ValidationError
from .model import FluidParams
from .observability import minimal_time
from .spectral import (
    TWO_PI,
    ModeEigenSystem,
    mode_system,
    nonzero_modes,
    spectral_table,
    z_weights,
)

COND_LIMIT = 1e14
BOUNDARY_KINDS = ("density", "velocity", "stress")


@dataclass
class ModeControlData:
    n: int
    B_n: np.ndarray
    W: np.ndarray
    W_inv: np.ndarray
    cond: float


@dataclass
class ControlSignal:
    """Sampled control: boundary scalar q(t) or per-mode modal coefficients."""

    kind: str
    horizon: float
    times: np.ndarray
    samples: np.ndarray           # (m,) boundary scalar or (modes, m) modal
    mode_labels: list | None = None
    norm_l2: float = 0.0


@dataclass
class HautusReport:
    n: int
    sigma_ratios: np.ndarray   # smallest/largest singular value per eigenvalue
    rank: int


def hautus_check(p: FluidParams, n: int, B_override=None, tol_rank: float = 1e-10):
    """Rank of [lambda I - A_n ; B_n] at every eigenvalue of mode n."""
    if n == 0:
        b0 = np.sqrt(p.b_eff) if B_override is None else B_override
        ratio = np.array([1.0 if abs(b0) > 0 else 0.0])
        if abs(b0) <= tol_rank:
            raise RankDeficient(0, 0.0, abs(b0))
        return HautusReport(n=0, sigma_ratios=ratio, rank=1)
    m = mode_system(p, n)
    Bn = mode_control_operator(p, m) if B_override is None else np.asarray(B_override)
    ratios = []
    for lam in m.lambdas:
        mat = np.concatenate(
            [np.diag(lam - m.lambdas), Bn.reshape(3, 1)], axis=1
        )
        sv = np.linalg.svd(mat, compute_uv=False)
        ratios.append(sv[-1] / sv[0])
        if sv[-1] < tol_rank * sv[0]:
            raise RankDeficient(n, lam, float(sv[-1]))
    return HautusReport(n=n, sigma_ratios=np.array(ratios), rank=3)


def mode_control_operator(p: FluidParams, mode: ModeEigenSystem | None) -> np.ndarray:
    """Control column of an everywhere density actuator, eigenbasis coords.

    mode=None addresses the n = 0 block, where the operator is the scalar
    sqrt(b).
    """
    if mode is None:
        return np.array([np.sqrt(p.b_eff)])
    return p.b_eff * np.sqrt(TWO_PI) / np.conj(mode.psi)


def gramian_closed_form(
    p: FluidParams, mode: ModeEigenSystem | None, T: float
) -> ModeControlData:
    """Controllability Gramian of one mode over [0, T], closed form."""
    if mode is None:
        w = np.array([[p.b_eff * T]])
        return ModeControlData(
            n=0, B_n=mode_control_operator(p, None), W=w, W_inv=1.0 / w, cond=1.0
        )
    lam, psi = mode.lambdas, mode.psi
    z = lam[:, None] + np.conj(lam)[None, :]
    W = TWO_PI * p.b_eff**2 * texp(z, T) / (np.conj(psi)[:, None] * psi[None, :])
    W = 0.5 * (W + W.conj().T)  # strip rounding skew; exact form is Hermitian
    W_inv = np.linalg.inv(W)
    return ModeControlData(
        n=mode.n,
        B_n=mode_control_operator(p, mode),
        W=W,
        W_inv=W_inv,
        cond=float(np.linalg.cond(W)),
    )


def minimal_control_mode(p: FluidParams, mode: ModeEigenSystem | None, T: float,
                         d0, d1=None):
    """Minimal-norm modal control steering eigen-coords d0 to d1 (default 0).

    Returns a callable ts -> complex control coefficients of mode n at the
    times ts (any shape; a scalar time gives a scalar).
    """
    data = gramian_closed_form(p, mode, T)
    d0 = np.atleast_1d(np.asarray(d0, dtype=complex))
    lam = mode.lambdas if mode is not None else np.zeros(1, dtype=complex)
    target = np.zeros_like(d0) if d1 is None else np.atleast_1d(np.asarray(d1, complex))
    y = target - np.exp(T * lam) * d0
    eta = np.linalg.solve(data.W, y) if mode is not None else y / data.W[0, 0]
    Bn = data.B_n

    def f(ts):
        tau = T - np.asarray(ts, dtype=float)[..., None]
        return np.sum(np.conj(Bn) * np.exp(np.conj(lam) * tau) * eta, axis=-1)

    return f, data


def _modal_controls(p, state0, T, N, target=None):
    """Per-mode minimal controls for the everywhere-density actuator."""
    # d_0 = <z, xi*_0>_Z of the n = 0 block
    d0 = complex(
        p.b_eff * (state0.coeff(0)[0] / np.sqrt(TWO_PI)) * TWO_PI
        / np.sqrt(2.0 * p.b_eff * np.pi)
    )
    d1 = None
    if target is not None:
        d1 = complex(
            p.b_eff * (target.coeff(0)[0] / np.sqrt(TWO_PI)) * TWO_PI
            / np.sqrt(2.0 * p.b_eff * np.pi)
        )
    controls = {0: minimal_control_mode(p, None, T, [d0], None if d1 is None else [d1])}
    tab = spectral_table(p, nonzero_modes(N)).require_simple()
    w = np.sqrt(z_weights(p))
    for i, n in enumerate(tab.ns.tolist()):
        m = tab.mode(i)
        d0 = m.gamma @ (w * state0.coeff(n))
        d1 = None
        if target is not None:
            d1 = m.gamma @ (w * target.coeff(n))
        controls[n] = minimal_control_mode(p, m, T, d0, d1)
    return controls


def synthesize_everywhere_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    target: SpectralState | None = None,
    samples: int = 2048,
    panels_per_unit: int = 64,
):
    """Everywhere-in-density exact control at any horizon T > 0.

    Steers state0 to target (default: rest) on the truncated system; the
    reported residual comes from an independent quadrature evolution.
    Returns (ControlSignal, residual, final_state).
    """
    controls = _modal_controls(p, state0, T, N, target)
    labels = sorted(controls)
    sb = np.sqrt(p.b_eff)

    def coeffs(ts):
        return np.array([controls[n][0](ts) for n in labels])

    def forcing(ts):
        out = np.zeros((len(labels), 3, len(ts)), dtype=complex)
        out[:, 0] = sb * coeffs(ts)
        return out

    rec, final = evolve(
        p, state0, T, forcing=forcing, panels_per_unit=panels_per_unit
    )
    e0 = energy_norm(state0, p) or 1.0
    if target is not None:
        diff = final.copy()
        for n in range(-N, N + 1):
            c = diff.coeff(n) - target.coeff(n)
            if np.any(c != 0):
                diff.coeffs[n] = c
            elif n in diff.coeffs:
                del diff.coeffs[n]
        resid = energy_norm(diff, p) / e0
    else:
        resid = energy_norm(final, p) / e0

    times = np.linspace(0.0, T, samples)
    samp = coeffs(times)
    norm2 = float(np.trapezoid(np.sum(np.abs(samp) ** 2, axis=0), times))
    sig = ControlSignal(
        kind="everywhere_density",
        horizon=T,
        times=times,
        samples=samp,
        mode_labels=labels,
        norm_l2=float(np.sqrt(norm2)),
    )
    return sig, float(resid), final


def check_boundary_kind(kind: str) -> None:
    if kind not in BOUNDARY_KINDS:
        raise ValidationError(f"kind must be one of {BOUNDARY_KINDS}, got {kind!r}")


def _boundary_values(p: FluidParams, kind: str, a: np.ndarray, psi, ns, ls):
    """B* xi* of adjoint triples a (K, 3) with normalizers psi (K,) that
    belong to modes ns and branches ls."""
    check_boundary_kind(kind)
    b = p.b_eff
    if kind == "density":
        vals = (b * p.u_s * a[:, 0] + b * p.rho_s * a[:, 1]) / psi
    elif kind == "velocity":
        vals = (b * p.rho_s * a[:, 0] + p.rho_s * p.u_s * a[:, 1] - a[:, 2]) / psi
    else:
        vals = -a[:, 1] / psi
    small = np.abs(vals) < 1e-13
    if np.any(small):
        i = int(np.argmax(small))
        raise ObservationVanished(
            f"boundary observation ({kind}) vanished at n={ns[i]}, branch {ls[i] + 1}"
        )
    return vals


def boundary_observation(kind: str, mode: ModeEigenSystem, l: int, p: FluidParams):
    """Boundary observation B* xi*_{n,l} for one actuator placement."""
    vals = _boundary_values(p, kind, mode.xi_star_coeffs[[l]], mode.psi[[l]],
                            [mode.n], [l])
    return complex(vals[0])


def boundary_observation_vector(tab: BranchTable, kind: str) -> np.ndarray:
    """B* xi*_a over a branch table (boundary placements; no n=0 rows)."""
    return _boundary_values(tab.p, kind, tab.alpha, tab.psi, tab.idx_n, tab.idx_l)


def _hum_solve(G, y, what):
    cond = float(np.linalg.cond(G))
    if cond > COND_LIMIT:
        raise IllConditioned(what, cond, COND_LIMIT)
    return np.linalg.solve(G, y), cond


def synthesize_boundary_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    kind: str = "density",
    target: SpectralState | None = None,
    samples: int = 2048,
    panels_per_unit: int = 64,
):
    """Single boundary control steering a mean-free state over [0, T].

    HUM at truncation: the dense Gramian over all modal indices |n| <= N is
    assembled in closed form and inverted once.  Returns
    (ControlSignal, residual, cond, final_state).
    """
    t0 = minimal_time(p)
    if T <= t0:
        warn(
            f"horizon T={T:.3f} below the controllability waiting time "
            f"T0={t0:.3f}; expect an ill-conditioned Gramian",
            stacklevel=2,
        )
    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    G = kernel_gram(tab, T, bv)
    d0 = eigen_coefficients(tab, state0)
    d1 = np.zeros_like(d0) if target is None else eigen_coefficients(tab, target)
    y = d1 - np.exp(T * tab.lam) * d0
    x, cond = _hum_solve(G, y, f"boundary HUM Gramian ({kind})")

    def q(ts):
        # summed row by row like a single time, so every sample rounds the
        # same whatever the batch; a BLAS matrix-vector product would not
        return np.sum(x * bv * np.exp(np.conj(tab.lam) * (T - ts[:, None])), axis=1)

    # independent verification through the quadrature evolution oracle; the
    # Zmm rows are the three branches of each mode in turn, and each mode's
    # forcing is Gamma_n^{-1} (conj(B* xi*_n) q(t)); the n = 0 row stays zero
    actuated = np.einsum("mij,mj->mi", np.linalg.inv(tab.modes.gamma),
                         np.conj(bv).reshape(-1, 3))
    rows = tab.modes.ns + N

    def forcing(ts):
        out = np.zeros((2 * N + 1, 3, len(ts)), dtype=complex)
        out[rows] = actuated[:, :, None] * q(ts)
        return out

    rec, final = evolve(p, state0, T, forcing=forcing,
                        panels_per_unit=panels_per_unit)
    e0 = energy_norm(state0, p) or 1.0
    if target is None:
        resid = energy_norm(final, p) / e0
    else:
        dfin = eigen_coefficients(tab, final)
        resid = float(np.linalg.norm(dfin - d1) / max(np.linalg.norm(d0), 1e-300))

    times = np.linspace(0.0, T, samples)
    qs = q(times)
    sig = ControlSignal(
        kind=f"boundary_{kind}",
        horizon=T,
        times=times,
        samples=qs,
        norm_l2=float(np.sqrt(max(np.real(np.conj(x) @ G @ x), 0.0))),
    )
    return sig, float(resid), cond, final


def synthesize_localized_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    interval: tuple[float, float],
    target: SpectralState | None = None,
    samples: int = 512,
    panels_per_unit: int = 64,
):
    """Localized interior density control supported on interval = (l1, l2).

    Returns (ControlSignal, residual, cond, final_state); the control samples
    are the modal coefficients of the actuated forcing restricted to the
    truncation.
    """
    lo, hi = interval
    if not (0.0 <= lo < hi <= TWO_PI):
        raise ValidationError("interval must satisfy 0 <= l1 < l2 <= 2*pi")
    t0 = minimal_time(p)
    if T <= t0 and (hi - lo) < TWO_PI - 1e-12:
        warn(
            f"horizon T={T:.3f} below the controllability waiting time "
            f"T0={t0:.3f}; expect an ill-conditioned Gramian",
            stacklevel=2,
        )
    tab = build_branch_table(p, N, "Zm")
    weights = p.b_eff * tab.sigma_coeff
    G = windowed_gram(tab, T, weights, lo, hi)
    d0 = eigen_coefficients(tab, state0)
    d1 = np.zeros_like(d0) if target is None else eigen_coefficients(tab, target)
    y = d1 - np.exp(T * tab.lam) * d0
    x, cond = _hum_solve(G, y, "localized HUM Gramian")

    # Fourier coefficients (scalar basis e^{inx}/sqrt(2 pi)) of the actuated
    # control 1_O * f1 at the retained modes
    all_n = np.arange(-N, N + 1)
    si = space_overlap(tab.idx_n[None, :] - all_n[:, None], lo, hi)

    def coeff_rows(ts):
        # a stack of matrix-vector products, one per time, rounds exactly as
        # evaluating each time alone; one matrix-matrix product would not
        ker = x * weights * np.exp(np.conj(tab.lam) * (T - ts[:, None]))
        return (si @ ker[:, :, None])[:, :, 0].T / np.sqrt(TWO_PI)

    sb = np.sqrt(p.b_eff)

    def forcing(ts):
        out = np.zeros((all_n.size, 3, len(ts)), dtype=complex)
        out[:, 0] = sb * coeff_rows(ts)
        return out

    rec, final = evolve(p, state0, T, forcing=forcing,
                        panels_per_unit=panels_per_unit)
    e0 = energy_norm(state0, p) or 1.0
    if target is None:
        resid = energy_norm(final, p) / e0
    else:
        dfin = eigen_coefficients(tab, final)
        resid = float(np.linalg.norm(dfin - d1) / max(np.linalg.norm(d0), 1e-300))

    times = np.linspace(0.0, T, samples)
    samp = coeff_rows(times)
    sig = ControlSignal(
        kind="localized_density",
        horizon=T,
        times=times,
        samples=samp,
        mode_labels=all_n.tolist(),
        norm_l2=float(np.sqrt(max(np.real(np.conj(x) @ G @ x), 0.0))),
    )
    return sig, float(resid), cond, final


def admissibility_constant(p: FluidParams, N: int, T: float, kind: str = "density"):
    """Numerical admissibility constant at truncation.

    Largest generalized eigenvalue of the boundary observation form against
    the terminal energy Gram: sup over terminal data of
    int_0^T |B* T*_{T-t} z|^2 dt / ||z||^2.
    """
    from .observability import gram_pencil_eigvals

    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    return float(gram_pencil_eigvals(kernel_gram(tab, T, bv), tab)[-1])
