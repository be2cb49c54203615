"""Exact control synthesis: everywhere/localized interior and boundary HUM.

Everywhere controls are one batch over the spectral table: the closed-form
3x3 controllability Gramians of all modes, one stacked solve, one array
expression for every mode's control (n = 0 is a scalar integrator).
Localized and boundary controls share one solve of the HUM moment problem
on a dense Hermitian Gramian over all retained modal indices.  Every control
is re-verified by independently evolving the truncated system with it as a
sampled forcing: `evolve` gets a forcing that evaluates the control on an
array of times, returning the modal forcing triples of modes -N..N in
weighted Fourier coordinates (2N+1, 3, len(ts)), and the control samples
come from the same array evaluation.  `evolve` integrates that sampled
forcing by quadrature; it never sees the closed form of the control.
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
from .model import BOUNDARY_KINDS, FluidParams
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
RANK_TOL = 1e-10              # Hautus test: smallest/largest singular value


@dataclass
class ModeControlData:
    n: int
    B_n: np.ndarray
    W: np.ndarray


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


def hautus_check(p: FluidParams, n: int, B_override=None):
    """Rank of [lambda I - A_n ; B_n] at every eigenvalue of mode n."""
    if n == 0:
        b0 = np.sqrt(p.b_eff) if B_override is None else B_override
        ratio = np.array([1.0 if abs(b0) > 0 else 0.0])
        if abs(b0) <= RANK_TOL:
            raise RankDeficient(0, 0.0, abs(b0))
        return HautusReport(n=0, sigma_ratios=ratio, rank=1)
    m = mode_system(p, n)
    Bn = mode_control_operator(p, m) if B_override is None else np.asarray(B_override)
    ratios = []
    for lam in m.lambdas:
        mat = np.concatenate([np.diag(lam - m.lambdas), Bn.reshape(3, 1)], axis=1)
        sv = np.linalg.svd(mat, compute_uv=False)
        ratios.append(sv[-1] / sv[0])
        if sv[-1] < RANK_TOL * sv[0]:
            raise RankDeficient(n, lam, float(sv[-1]))
    return HautusReport(n=n, sigma_ratios=np.array(ratios), rank=3)


def mode_control_operator(p: FluidParams, mode: ModeEigenSystem | None) -> np.ndarray:
    """Control column of an everywhere density actuator, eigenbasis coords.

    mode=None addresses the n = 0 block, where the operator is the scalar
    sqrt(b); a SpectralTable gives the columns of all its modes, (m, 3).
    """
    if mode is None:
        return np.array([np.sqrt(p.b_eff)])
    return p.b_eff * np.sqrt(TWO_PI) / np.conj(mode.psi)


def _gramian_blocks(p: FluidParams, lam, psi, T: float) -> np.ndarray:
    """Closed-form controllability Gramians over [0, T] of the everywhere
    actuator from eigenvalue and normalizer rows (..., 3): (..., 3, 3)."""
    z = lam[..., :, None] + np.conj(lam)[..., None, :]
    W = TWO_PI * p.b_eff**2 * texp(z, T) / (np.conj(psi)[..., :, None] * psi[..., None, :])
    # strip rounding skew; the exact form is Hermitian
    return 0.5 * (W + W.conj().swapaxes(-1, -2))


def gramian_closed_form(
    p: FluidParams, mode: ModeEigenSystem | None, T: float
) -> ModeControlData:
    """Controllability Gramian of one mode over [0, T], closed form."""
    if mode is None:
        return ModeControlData(n=0, B_n=mode_control_operator(p, None),
                               W=np.array([[p.b_eff * T]]))
    return ModeControlData(n=mode.n, B_n=mode_control_operator(p, mode),
                           W=_gramian_blocks(p, mode.lambdas, mode.psi, T))


def _steer(B, lam, W, d0, d1, T: float):
    """Minimal-norm controls steering eigen-coordinates d0 to d1 over [0, T]
    for a stack of modes: rows of B, lam, d0, d1 (m, k), Gramians W (m, k, k).

    Returns a callable ts (1-D) -> controls of every mode, (m, len(ts)).
    """
    y = d1 - np.exp(T * lam) * d0
    if W.shape[-1] == 1:  # the scalar n = 0 block
        eta = y / W[..., 0]
    else:
        eta = np.linalg.solve(W, y[..., None])[..., 0]

    def controls(ts):
        tau = T - ts[:, None]
        return np.sum(np.conj(B)[:, None] * np.exp(np.conj(lam)[:, None] * tau)
                      * eta[:, None], axis=-1)

    return controls


def minimal_control_mode(p: FluidParams, mode: ModeEigenSystem | None, T: float,
                         d0, d1=None):
    """Minimal-norm modal control steering eigen-coords d0 to d1 (default 0).

    Returns a callable ts -> complex control coefficients of mode n at the
    times ts (any shape; a scalar time gives a scalar), and the Gramian data.
    """
    data = gramian_closed_form(p, mode, T)
    d0 = np.atleast_1d(np.asarray(d0, dtype=complex))
    lam = mode.lambdas if mode is not None else np.zeros(1, dtype=complex)
    d1 = np.zeros_like(d0) if d1 is None else np.atleast_1d(np.asarray(d1, complex))
    controls = _steer(data.B_n[None], lam[None], data.W[None], d0[None], d1[None], T)

    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return controls(ts.ravel())[0].reshape(ts.shape)[()]

    return f, data


def _everywhere_coords(p: FluidParams, tab, state: SpectralState):
    """Eigen-coordinates of state for the everywhere actuator: the n = 0
    block's d_0 = <z, xi*_0>_Z, shape (1, 1), and the rows of the modes of
    the spectral table tab, (m, 3)."""
    d_zero = complex(p.b_eff * (state.coeff(0)[0] / np.sqrt(TWO_PI)) * TWO_PI
                     / np.sqrt(2.0 * p.b_eff * np.pi))
    c = np.sqrt(z_weights(p)) * state.rows(tab.ns)
    return np.array([[d_zero]]), (tab.gamma @ c[..., None])[..., 0]


def _verify(p: FluidParams, state0: SpectralState, T: float, forcing,
            target: SpectralState | None = None):
    """Evolve state0 under forcing by the independent quadrature; returns the
    energy distance of the final state from target (default rest) relative
    to the energy of state0, and the final state."""
    _, final = evolve(p, state0, T, forcing=forcing)
    diff = final.coeffs
    if target is not None:
        diff = diff - target.rows(np.arange(-final.N, final.N + 1))
    resid = energy_norm(SpectralState(final.N, diff), p) / (energy_norm(state0, p) or 1.0)
    return float(resid), final


def synthesize_everywhere_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    target: SpectralState | None = None,
):
    """Everywhere-in-density exact control at any horizon T > 0.

    Steers state0 to target (default: rest) on the truncated system; the
    reported residual comes from an independent quadrature evolution.
    Returns (ControlSignal, residual, final_state).
    """
    tab = spectral_table(p, nonzero_modes(N)).require_simple()
    d0 = _everywhere_coords(p, tab, state0)
    d1 = ([np.zeros_like(d) for d in d0] if target is None
          else _everywhere_coords(p, tab, target))
    zero = gramian_closed_form(p, None, T)
    zero_control = _steer(zero.B_n[None], np.zeros((1, 1), dtype=complex),
                          zero.W[None], d0[0], d1[0], T)
    mode_controls = _steer(mode_control_operator(p, tab), tab.lambdas,
                           _gramian_blocks(p, tab.lambdas, tab.psi, T),
                           d0[1], d1[1], T)
    sb = np.sqrt(p.b_eff)

    def coeffs(ts):
        # rows -N..-1, then n = 0, then 1..N
        return np.insert(mode_controls(ts), N, zero_control(ts)[0], axis=0)

    def forcing(ts):
        out = np.zeros((2 * N + 1, 3, len(ts)), dtype=complex)
        out[:, 0] = sb * coeffs(ts)
        return out

    resid, final = _verify(p, state0, T, forcing, target)
    times = np.linspace(0.0, T, 2048)
    samp = coeffs(times)
    norm2 = float(np.trapezoid(np.sum(np.abs(samp) ** 2, axis=0), times))
    sig = ControlSignal(kind="everywhere_density", horizon=T, times=times,
                        samples=samp, mode_labels=list(range(-N, N + 1)),
                        norm_l2=float(np.sqrt(norm2)))
    return sig, resid, final


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


def _warn_below_waiting_time(p: FluidParams, T: float) -> None:
    t0 = minimal_time(p)
    if T <= t0:
        warn(
            f"horizon T={T:.3f} below the controllability waiting time "
            f"T0={t0:.3f}; expect an ill-conditioned Gramian",
            stacklevel=3,
        )


def _moment_solve(G, tab: BranchTable, state0: SpectralState, T: float, what: str):
    """HUM moment problem G x = -e^{T lambda} d0 that steers state0 to rest.

    Raises IllConditioned when cond(G) exceeds COND_LIMIT.  Returns x,
    cond(G) and the control norm sqrt(x* G x).
    """
    cond = float(np.linalg.cond(G))
    if cond > COND_LIMIT:
        raise IllConditioned(what, cond, COND_LIMIT)
    x = np.linalg.solve(G, -np.exp(T * tab.lam) * eigen_coefficients(tab, state0))
    return x, cond, float(np.sqrt(max(np.real(np.conj(x) @ G @ x), 0.0)))


def synthesize_boundary_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    kind: str = "density",
):
    """Single boundary control steering a mean-free state to rest over [0, T].

    HUM at truncation: the dense Gramian over all modal indices |n| <= N is
    assembled in closed form and inverted once.  Returns
    (ControlSignal, residual, cond, final_state).
    """
    _warn_below_waiting_time(p, T)
    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    x, cond, norm = _moment_solve(kernel_gram(tab, T, bv), tab, state0, T,
                                  f"boundary HUM Gramian ({kind})")

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

    resid, final = _verify(p, state0, T, forcing)
    times = np.linspace(0.0, T, 2048)
    sig = ControlSignal(kind=f"boundary_{kind}", horizon=T, times=times,
                        samples=q(times), norm_l2=norm)
    return sig, resid, cond, final


def synthesize_localized_control(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    N: int,
    interval: tuple[float, float],
):
    """Localized interior density control supported on interval = (l1, l2),
    steering state0 to rest over [0, T].

    Returns (ControlSignal, residual, cond, final_state); the control samples
    are the modal coefficients of the actuated forcing restricted to the
    truncation.
    """
    lo, hi = interval
    if not (0.0 <= lo < hi <= TWO_PI):
        raise ValidationError("interval must satisfy 0 <= l1 < l2 <= 2*pi")
    if (hi - lo) < TWO_PI - 1e-12:  # the full circle has no waiting time
        _warn_below_waiting_time(p, T)
    tab = build_branch_table(p, N, "Zm")
    weights = p.b_eff * tab.sigma_coeff
    x, cond, norm = _moment_solve(windowed_gram(tab, T, weights, lo, hi), tab,
                                  state0, T, "localized HUM Gramian")

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

    resid, final = _verify(p, state0, T, forcing)
    times = np.linspace(0.0, T, 512)
    sig = ControlSignal(kind="localized_density", horizon=T, times=times,
                        samples=coeff_rows(times), mode_labels=all_n.tolist(),
                        norm_l2=norm)
    return sig, resid, cond, final


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
