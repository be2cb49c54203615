"""Ingham frame bounds, observability and admissibility constants, and the
small-time lack-of-controllability scaling experiment.

All quadratic forms are assembled in closed form over flattened modal
indices; finite sections are always positive definite, so the reported
"constants" are trends in (N, T), not the theory's existential constants.
The observability constants are eigenvalues of an observation Gram relative
to the terminal energy Gram, which is Gamma Gamma^H on the mode blocks, so
each pencil is reduced by the inverse basis changes Gamma_n^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gram import (
    boundary_observation_vector,
    build_branch_table,
    exponential_gram,
    kernel_gram,
    real_form,
    texp,
    windowed_gram,
)
from .errors import HypothesisViolated, NumericalFailure, ValidationError
from .model import FluidParams
from .spectral import TWO_PI, gamma_inverse, solve_beta_cubic, spectral_table, z_weights

BUMP_GRID = 1 << 14  # grid points of the bump profile's FFT


@dataclass
class LackResult:
    N_list: list[int]
    ratios: list[float]
    slope: float


def ingham_frame_bounds(p: FluidParams, N: int, T: float) -> tuple[float, float]:
    """Numerical frame constants of the adjoint exponential family on [0, T]:
    the extreme eigenvalues of the Gram of the 3*(2N) adjoint exponentials
    of modes 0 < |n| <= N."""
    tab = build_branch_table(p, N, "Zmm")
    g = exponential_gram(tab.lam, T)
    herm = np.max(np.abs(g - g.conj().T))
    if herm > 1e-12 * max(1.0, float(np.abs(g).max())):
        raise NumericalFailure(f"exponential Gram lost Hermitian symmetry: {herm:.2e}")
    ev = np.linalg.eigvalsh(real_form(g, tab))
    # a Gram matrix has no negative eigenvalue: below 0 is rounding noise
    return max(float(ev[0]), 0.0), float(ev[-1])


def eigh(a: np.ndarray, tab) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian observation Gram a over the
    branch table tab relative to its terminal energy Gram, floored at 0.

    The terminal Gram is Gamma_n Gamma_n^H on the 3x3 block of each mode n
    and 1 on the n = 0 row (see `terminal_gram`), so the pencil reduces to
    the real form of Gamma^-1 a Gamma^-H, the n = 0 row untouched (Golub &
    Van Loan 8.7).  The pencil is positive semidefinite, so a negative
    eigenvalue is rounding noise."""
    m = tab.modes.ns.size
    ginv = gamma_inverse(tab.modes)
    for _ in range(2):  # a <- (Gamma^-1 a)^H, so twice gives Gamma^-1 a Gamma^-H
        a = np.vstack([(ginv @ a[:3 * m].reshape(m, 3, -1)).reshape(3 * m, -1),
                       a[3 * m:]]).conj().T
    return np.maximum(np.linalg.eigvalsh(real_form(a, tab)), 0.0)


def interior_observability_constant(
    p: FluidParams, N: int, T: float, interval: tuple[float, float]
):
    """Smallest generalized eigenvalue of the windowed density observation
    against the terminal energy Gram, over modes |n| <= N in the mean-free
    velocity/stress subspace.  Returns (lambda_min, lambda_max)."""
    lo, hi = interval
    tab = build_branch_table(p, N, "Zm")
    vals = eigh(windowed_gram(tab, T, tab.sigma_coeff, lo, hi), tab)
    return float(vals[0]), float(vals[-1])


def boundary_observability_constant(p: FluidParams, N: int, T: float, kind: str):
    """As above with the scalar boundary observation functional.  The
    largest eigenvalue is the numerical admissibility constant: the sup over
    terminal data of int_0^T |B* T*_{T-t} z|^2 dt / ||z||^2."""
    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    vals = eigh(kernel_gram(tab, T, bv), tab)
    return float(vals[0]), float(vals[-1])


def _bump_profile_coeffs(lo: float, hi: float) -> np.ndarray:
    """Fourier coefficients (basis e^{inx}) of exp(-1/(1-s^2)) on (lo, hi)."""
    x = TWO_PI * np.arange(BUMP_GRID) / BUMP_GRID
    prof = np.zeros(BUMP_GRID)
    ins = (x > lo) & (x < hi)
    s = 2.0 * (x[ins] - lo) / (hi - lo) - 1.0
    prof[ins] = np.exp(-1.0 / (1.0 - s**2))
    return np.fft.fft(prof) / BUMP_GRID


def _log_pn(ns: np.ndarray, N: int) -> np.ndarray:
    """log |P^N(n)| = log prod_{j=-N}^{N} (n - j) for n > N."""
    return np.array([math.lgamma(n + N + 1.0) - math.lgamma(n - N) for n in ns.tolist()])


def lack_experiment(
    p: FluidParams,
    N_list,
    T: float,
    interval: tuple[float, float],
    band_mult: int = 4,
) -> LackResult:
    """Small-time non-controllability scaling of the observation ratio.

    For each N the terminal data is the high-pass polynomial image of a
    compactly supported bump carried by the slowest branch,
    sum_{|n| > N} a_n P^N(n) xi*_{n, l_hat}, with all coefficient scaling in
    log-magnitude space.  The bump sits in the clearance between the window
    O = (l1, l2) and the end of [0, 2 pi] from which the slow branch
    transports it toward O, |beta_hat| T plus a pad from O, so its
    characteristic strip over (0, T) stops that pad short of O;
    HypothesisViolated unless |beta_hat| T is below the clearance.  The
    observation energy over (0,T) x O is evaluated through its
    transport-comparison majorant in closed form: the transported profile
    vanishes on O, which leaves a full-circle Parseval residual of the exact
    minus asymptotic exponentials.  The reported ratio divides by the
    terminal energy norm squared, so the statistic is scale invariant.
    """
    lo, hi = interval
    if not (0.0 <= lo < hi <= TWO_PI):
        raise ValidationError("interval must satisfy 0 <= l1 < l2 <= 2*pi")
    roots = solve_beta_cubic(p)
    beta = np.asarray(roots.beta)
    l_hat = int(np.argmin(np.abs(beta)))
    bhat = float(beta[l_hat])
    what = float(np.asarray(roots.omega)[l_hat])
    clearance = (TWO_PI - hi) if bhat < 0 else lo
    if abs(bhat) * T >= clearance:
        raise HypothesisViolated(
            "the slow branch sweeps toward the wrong side of the window "
            f"(clearance {clearance:.3f} < |beta| T {abs(bhat) * T:.3f})"
        )
    pad = 0.05 * (clearance - abs(bhat) * T)  # 5% of the free clearance
    if bhat < 0:
        a0, b0 = hi + abs(bhat) * T + pad, TWO_PI - pad
    else:
        a0, b0 = pad, lo - bhat * T - pad

    coeffs = _bump_profile_coeffs(a0, b0)
    wz = z_weights(p)
    alinf = np.array(
        [
            1.0,
            -(bhat + p.u_s) / p.rho_s,
            -p.mu * (bhat + p.u_s) / (p.kappa * p.rho_s * bhat),
        ],
        dtype=complex,
    )

    ratios = []
    for N in N_list:
        ns = np.arange(N + 1, band_mult * N + 1)
        av = coeffs[ns % coeffs.size]
        logs = np.log(np.abs(av) + 1e-300) + _log_pn(ns.astype(float), N)
        logs -= logs.max()
        w = np.exp(logs)
        w /= np.sqrt(2.0 * np.sum(w**2))
        # mode -n conjugates lambda, the adjoint triple and the transport
        # exponent of mode n, and alinf is real, so both carry the same
        # terms: solve n > 0 and count each twice
        w2 = 2.0 * w**2
        tab = spectral_table(p, ns)
        lam_b = np.conj(tab.lambdas[:, l_hat])
        al = tab.xi_star_coeffs[:, l_hat]
        mu_exp = -what - 1j * bhat * ns  # transported-branch exponent
        resid = np.zeros(ns.size)
        for comp in range(3):
            t1 = np.abs(al[:, comp]) ** 2 * np.real(texp(2.0 * lam_b.real, T))
            t2 = np.abs(alinf[comp]) ** 2 * np.real(texp(2.0 * mu_exp.real, T))
            t12 = -2.0 * np.real(
                al[:, comp] * np.conj(alinf[comp]) * texp(lam_b + np.conj(mu_exp), T)
            )
            resid += t1 + t2 + t12
        obs = 2.0 * float(np.sum(w2 * resid))
        den = TWO_PI * float(np.sum(w2 * (np.abs(al) ** 2 @ wz)))
        ratios.append(obs / den)

    if not all(0.0 < r < np.inf for r in ratios):
        raise NumericalFailure(f"observation ratios {ratios} are not all positive and finite")
    slope = float(np.polyfit(np.log(np.asarray(N_list, float)), np.log(ratios), 1)[0])
    return LackResult(N_list=list(N_list), ratios=ratios, slope=slope)
