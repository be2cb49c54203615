"""Exact control synthesis: everywhere/localized interior and boundary HUM.

Everywhere controls are one batch over the Zm branch table: the closed-form
3x3 controllability Gramians of all modes, one stacked solve, one array
expression for every mode's control; n = 0 takes the same formulas as a
1x1 block.  No separate Hautus test is run: the table rejects multiple
eigenvalues, so [lambda I - A_n | B_n] has full rank at every eigenvalue
exactly when no entry of the actuator column B_n vanishes.
Localized and boundary controls share one solve of the HUM moment problem
on a dense Hermitian Gramian over all retained modal indices.  Every control
is re-verified by independently evolving the truncated system with it as a
sampled forcing.  Each control has one actuator: `evolve` gets a forcing
that returns each mode's actuator column in weighted Fourier coordinates
(sqrt(b) on the density for the interior controls, the boundary trace
c / sqrt(2 pi w) for the boundary one, which reads nothing of the table
the HUM solved) and the control's scalar signal per mode evaluated on an
array of times, and the control samples come from the same array
evaluation.  `evolve` integrates that sampled signal by quadrature; it
never sees the closed form of the control.
"""

from __future__ import annotations

from dataclasses import dataclass
from warnings import warn

import numpy as np

from ._gram import (
    BranchTable,
    boundary_observation_vector,
    boundary_trace,
    build_branch_table,
    eigen_coefficients,
    kernel_gram,
    space_overlap,
    texp,
    window,
    windowed_gram,
)
from .dynamics import SpectralState, energy_norm, evolve
from .errors import IllConditioned
from .model import FluidParams
from .spectral import TWO_PI, ModeEigenSystem, minimal_time, mode_system, z_weights

# mode_system stays importable from here: the perfbench tracer patches it by
# name in every module that holds it
__all__ = ["mode_system"]

COND_LIMIT = 1e14


@dataclass
class ModeControlData:
    B_n: np.ndarray
    W: np.ndarray


@dataclass
class ControlSignal:
    """Sampled control: boundary scalar q(t) or per-mode modal coefficients."""

    times: np.ndarray
    samples: np.ndarray           # (m,) boundary scalar or (modes, m) modal
    norm_l2: float
    mode_labels: list | None = None


def mode_control_operator(p: FluidParams, mode: ModeEigenSystem | BranchTable) -> np.ndarray:
    """Control column of an everywhere density actuator, eigenbasis coords.

    mode is a ModeEigenSystem, or a BranchTable for one entry per row, (K,);
    on the n = 0 row of a Zm table the entry is the scalar sqrt(b).
    """
    return p.b_eff * np.sqrt(TWO_PI) / np.conj(mode.psi)


def _gramian_blocks(p: FluidParams, lam, psi, T: float) -> np.ndarray:
    """Closed-form controllability Gramians over [0, T] of the everywhere
    actuator from eigenvalue and normalizer rows (..., k): (..., k, k)."""
    # texp on the pair sums, not exponential_gram's e_c conj(e_a) - 1: that
    # difference cancels at small |zT|, and the everywhere control at
    # T = 1e-6, N = 2, seed 0 then exits 0 instead of 3
    # (tests/test_cli.py::test_numerical_failure_exits_3_in_time)
    z = lam[..., :, None] + np.conj(lam)[..., None, :]
    W = TWO_PI * p.b_eff**2 * texp(z, T) / (np.conj(psi)[..., :, None] * psi[..., None, :])
    # strip rounding skew; the exact form is Hermitian
    return 0.5 * (W + W.conj().swapaxes(-1, -2))


def gramian_closed_form(p: FluidParams, mode: ModeEigenSystem, T: float) -> ModeControlData:
    """Controllability Gramian of one mode n != 0 over [0, T], closed form."""
    return ModeControlData(B_n=mode_control_operator(p, mode),
                           W=_gramian_blocks(p, mode.lambdas, mode.psi, T))


def _steer(B, lam, W, d0, d1, T: float):
    """Minimal-norm controls steering eigen-coordinates d0 to d1 over [0, T]
    for a stack of modes: rows of B, lam, d0, d1 (m, k), Gramians W (m, k, k).

    Returns a callable ts (1-D) -> controls of every mode, (m, len(ts)).
    """
    y = d1 - np.exp(T * lam) * d0
    eta = np.linalg.solve(W, y[..., None])[..., 0]

    def controls(ts):
        tau = T - ts[:, None]
        return np.sum(np.conj(B)[:, None] * np.exp(np.conj(lam)[:, None] * tau)
                      * eta[:, None], axis=-1)

    return controls


def _density_forcing(p: FluidParams, N: int, signal):
    """`evolve` forcing of an interior density control: the actuator column
    sqrt(b) on the density of every mode -N..N (weighted Fourier
    coordinates), driven by the modal coefficients signal(ts)."""
    columns = np.outer(np.full(2 * N + 1, np.sqrt(p.b_eff)), (1, 0, 0))
    return lambda ts: (columns, signal(ts))


def _verify(p: FluidParams, state0: SpectralState, T: float, forcing,
            target: SpectralState | None = None):
    """Evolve state0 under an `evolve` forcing by the independent quadrature;
    returns the energy distance of the final state from target (default
    rest) relative to the energy of state0, and the final state."""
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
    tab = build_branch_table(p, N, "Zm")
    B = mode_control_operator(p, tab)
    d0 = eigen_coefficients(tab, state0)
    d1 = np.zeros_like(d0) if target is None else eigen_coefficients(tab, target)

    def steer(rows, k):
        # the table rows `rows`, taken as blocks of k branches each
        B_k, lam, psi, d0_k, d1_k = (v[rows].reshape(-1, k)
                                     for v in (B, tab.lam, tab.psi, d0, d1))
        return _steer(B_k, lam, _gramian_blocks(p, lam, psi, T), d0_k, d1_k, T)

    # the 3x3 blocks of modes -N..-1, 1..N, then the 1x1 block of n = 0
    mode_controls, zero_control = steer(np.s_[:-1], 3), steer(np.s_[-1:], 1)

    def coeffs(ts):
        # rows -N..-1, then n = 0, then 1..N
        return np.insert(mode_controls(ts), N, zero_control(ts)[0], axis=0)

    resid, final = _verify(p, state0, T, _density_forcing(p, N, coeffs), target)
    times = np.linspace(0.0, T, 2048)
    samp = coeffs(times)
    # a horizon too short for any control overflows here; the infinite norm
    # is reported as a numerical failure by the caller
    with np.errstate(over="ignore"):
        norm2 = float(np.trapezoid(np.sum(np.abs(samp) ** 2, axis=0), times))
    sig = ControlSignal(times=times, samples=samp, mode_labels=list(range(-N, N + 1)),
                        norm_l2=float(np.sqrt(norm2)))
    return sig, resid, final


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

    # independent verification through the quadrature evolution oracle:
    # every mode n != 0 carries the boundary trace as its actuator column,
    # driven by q(t) alone; the n = 0 column stays zero
    columns = np.zeros((2 * N + 1, 3), dtype=complex)
    columns[tab.modes.ns + N] = boundary_trace(p, kind) / np.sqrt(TWO_PI * z_weights(p))
    resid, final = _verify(p, state0, T, lambda ts: (
        columns, np.broadcast_to(q(ts), (2 * N + 1, len(ts)))))
    times = np.linspace(0.0, T, 2048)
    sig = ControlSignal(times=times, samples=q(times), norm_l2=norm)
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
    lo, hi = window(interval)
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

    resid, final = _verify(p, state0, T, _density_forcing(p, N, coeff_rows))
    times = np.linspace(0.0, T, 512)
    sig = ControlSignal(times=times, samples=coeff_rows(times), mode_labels=all_n.tolist(),
                        norm_l2=norm)
    return sig, resid, cond, final
