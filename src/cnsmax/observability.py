"""Ingham frame bounds, canonical-product interpolants, observability and
admissibility constants, and the small-time lack-of-controllability scaling
experiment.

All quadratic forms are assembled in closed form over flattened modal
indices; finite sections are always positive definite, so the reported
"constants" are trends in (N, T), not the theory's existential constants.
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
    terminal_gram,
    texp,
    windowed_gram,
)
from .errors import HypothesisViolated, NumericalFailure, ValidationError
from .model import FluidParams
from .spectral import (
    TWO_PI,
    mode_eigenvalues_batch,
    nonzero_modes,
    solve_beta_cubic,
    spectral_table,
    z_weights,
)


@dataclass
class ExpGram:
    """Hermitian Gram of the adjoint exponential family on [0, T]."""

    T: float
    entries: np.ndarray
    eig_min: float
    eig_max: float


@dataclass
class LackResult:
    N_list: list[int]
    ratios: list[float]
    slope: float


def exp_gram(p: FluidParams, N: int, T: float) -> ExpGram:
    """Gram of the 3*(2N) adjoint exponentials of modes 0 < |n| <= N."""
    tab = build_branch_table(p, N, "Zmm")
    g = exponential_gram(tab.lam, T)
    herm = np.max(np.abs(g - g.conj().T))
    if herm > 1e-12 * max(1.0, float(np.abs(g).max())):
        raise NumericalFailure(f"exponential Gram lost Hermitian symmetry: {herm:.2e}")
    ev = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    # a Gram matrix has no negative eigenvalue: below 0 is rounding noise
    return ExpGram(T=T, entries=g,
                   eig_min=max(float(ev[0]), 0.0), eig_max=float(ev[-1]))


def ingham_frame_bounds(p: FluidParams, N: int, T: float) -> tuple[float, float]:
    """Numerical frame constants of the adjoint exponential family on [0, T]."""
    g = exp_gram(p, N, T)
    return g.eig_min, g.eig_max


def _product_zeros(p: FluidParams, K: int) -> np.ndarray:
    """Nonzero zeros i*conj(lambda_n^j) of the canonical product, |n| <= K."""
    lam = mode_eigenvalues_batch(p, nonzero_modes(K))
    return (1j * np.conj(lam)).ravel()


def canonical_product(p: FluidParams, z: complex, K: int) -> complex:
    """Truncated canonical product P(z) = z^3 prod (1 - z/(i conj(lambda))).

    Accumulates complex logarithms so that huge or tiny magnitudes cannot
    overflow; an exact hit on a zero returns 0.
    """
    return _product_at(_product_zeros(p, K), z)


def _product_at(zeros: np.ndarray, z: complex) -> complex:
    z = complex(z)
    if z == 0:
        return 0.0
    fac = 1.0 - z / zeros
    if np.any(fac == 0):
        return 0.0
    return complex(np.exp(3.0 * np.log(complex(z)) + np.sum(np.log(fac))))


def _zero_index(n: int, j: int, K: int) -> int:
    """Position of z_m = i*conj(lambda_n^j) in `_product_zeros(p, K)`: n's
    row in nonzero_modes(K) times 3, plus j."""
    if not (1 <= abs(n) <= K and 0 <= j < 3):
        raise ValueError("(n, j) is not inside the truncated zero set")
    return 3 * (n + K - (n > 0)) + j


def canonical_product_derivative(p: FluidParams, n: int, j: int, K: int) -> complex:
    """P'(z_m) at the zero z_m = i*conj(lambda_n^j), skipping its own factor."""
    return _derivative_at(_product_zeros(p, K), _zero_index(n, j, K))


def _derivative_at(zeros: np.ndarray, m: int) -> complex:
    fac = 1.0 - zeros[m] / np.delete(zeros, m)
    logmag = 2.0 * np.log(complex(zeros[m])) + np.sum(np.log(fac))
    return complex(-np.exp(logmag))


def psi_interpolant(p: FluidParams, nj: tuple[int, int], z: complex, K: int) -> complex:
    """Interpolant P(z)/((z - z_m) P'(z_m)) with z_m = i conj(lambda_n^j).

    Evaluating exactly at z_m returns the limiting value 1; at every other
    truncated zero the product vanishes, giving the Kronecker property.
    """
    zeros, m = _product_zeros(p, K), _zero_index(*nj, K)
    zm, z = zeros[m], complex(z)
    if z == zm:
        return 1.0
    return complex(_product_at(zeros, z) / ((z - zm) * _derivative_at(zeros, m)))


def eigh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian pencil (a, b), b positive definite
    and block diagonal like `terminal_gram` (3x3 blocks, then at most one 1x1):
    eigvalsh(L^-1 a L^-H), L the blocks' Cholesky factors (Golub & Van Loan 8.7)."""
    m = b.shape[0] // 3
    i = np.arange(m)
    linv = np.linalg.inv(np.linalg.cholesky(b[:3 * m, :3 * m].reshape(m, 3, m, 3)[i, :, i]))
    for _ in range(2):  # a <- (L^-1 a)^H, so twice gives L^-1 a L^-H
        a = np.vstack([(linv @ a[:3 * m].reshape(m, 3, -1)).reshape(3 * m, -1),
                       np.diag(b)[3 * m:, None].real ** -0.5 * a[3 * m:]]).conj().T
    return np.linalg.eigvalsh(a)


def gram_pencil_eigvals(M: np.ndarray, tab) -> np.ndarray:
    """Ascending generalized eigenvalues of the Hermitian part of an
    observation Gram M against the terminal energy Gram of the same table,
    floored at 0: the pencil is positive semidefinite, so a negative
    eigenvalue is rounding noise."""
    R = terminal_gram(tab)
    vals = eigh(0.5 * (M + M.conj().T), 0.5 * (R + R.conj().T))
    return np.maximum(vals, 0.0)


def interior_observability_constant(
    p: FluidParams, N: int, T: float, interval: tuple[float, float]
):
    """Smallest generalized eigenvalue of the windowed density observation
    against the terminal energy Gram, over modes |n| <= N in the mean-free
    velocity/stress subspace.  Returns (lambda_min, lambda_max)."""
    lo, hi = interval
    tab = build_branch_table(p, N, "Zm")
    vals = gram_pencil_eigvals(windowed_gram(tab, T, tab.sigma_coeff, lo, hi), tab)
    return float(vals[0]), float(vals[-1])


def boundary_observability_constant(p: FluidParams, N: int, T: float, kind: str):
    """As above with the scalar boundary observation functional.  The
    largest eigenvalue is the numerical admissibility constant: the sup over
    terminal data of int_0^T |B* T*_{T-t} z|^2 dt / ||z||^2."""
    tab = build_branch_table(p, N, "Zmm")
    bv = boundary_observation_vector(tab, kind)
    vals = gram_pencil_eigvals(kernel_gram(tab, T, bv), tab)
    return float(vals[0]), float(vals[-1])


def _bump_profile_coeffs(lo: float, hi: float, M: int = 1 << 14) -> np.ndarray:
    """Fourier coefficients (basis e^{inx}) of exp(-1/(1-s^2)) on (lo, hi)."""
    x = TWO_PI * np.arange(M) / M
    prof = np.zeros(M)
    ins = (x > lo) & (x < hi)
    s = 2.0 * (x[ins] - lo) / (hi - lo) - 1.0
    prof[ins] = np.exp(-1.0 / (1.0 - s**2))
    return np.fft.fft(prof) / M


def _log_pn(ns: np.ndarray, N: int) -> np.ndarray:
    """log |P^N(n)| = log prod_{j=-N}^{N} (n - j) for n > N."""
    return np.array([math.lgamma(n + N + 1.0) - math.lgamma(n - N) for n in ns.tolist()])


def lack_experiment(
    p: FluidParams,
    N_list,
    T: float,
    interval: tuple[float, float],
    band_mult: int = 4,
    support: tuple[float, float] | None = None,
) -> LackResult:
    """Small-time non-controllability scaling of the observation ratio.

    For each N the terminal data is the high-pass polynomial image of a
    compactly supported bump carried by the slowest branch,
    sum_{|n| > N} a_n P^N(n) xi*_{n, l_hat}, with all coefficient scaling in
    log-magnitude space.  The observation energy over (0,T) x O is evaluated
    through its transport-comparison majorant in closed form: the windowed
    energy splits into the transported profile (identically zero off the
    characteristic strip) plus a full-circle Parseval residual of the exact
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
    if abs(bhat) * T >= max(lo, TWO_PI - hi):
        raise HypothesisViolated(
            f"|beta_hat| T = {abs(bhat) * T:.3f} >= max(l1, 2 pi - l2) "
            f"= {max(lo, TWO_PI - hi):.3f}"
        )
    if support is None:
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
    else:
        a0, b0 = support
    # does the swept support strip intersect the observation window?
    sweep_lo = a0 + min(bhat * T, 0.0)
    sweep_hi = b0 + max(bhat * T, 0.0)
    strip_hits = (sweep_lo < hi) and (lo < sweep_hi)

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
        idx = np.concatenate([ns, -ns])
        w2 = np.concatenate([w, w]) ** 2
        tab = spectral_table(p, idx)
        lam_b = np.conj(tab.lambdas[:, l_hat])
        al = tab.xi_star_coeffs[:, l_hat]
        mu_exp = -what - 1j * bhat * idx  # transported-branch exponent
        resid = np.zeros(idx.size)
        for comp in range(3):
            t1 = np.abs(al[:, comp]) ** 2 * np.real(texp(2.0 * lam_b.real, T))
            t2 = np.abs(alinf[comp]) ** 2 * np.real(texp(2.0 * mu_exp.real, T))
            t12 = -2.0 * np.real(
                al[:, comp] * np.conj(alinf[comp]) * texp(lam_b + np.conj(mu_exp), T)
            )
            resid += t1 + t2 + t12
        obs = 2.0 * float(np.sum(w2 * resid))
        if strip_hits:
            hat_en = float(
                np.sum(w2 * np.sum(np.abs(alinf) ** 2) * np.real(texp(2.0 * mu_exp.real, T)))
            )
            obs += 2.0 * hat_en
        den = TWO_PI * float(np.sum(w2 * (np.abs(al) ** 2 @ wz)))
        ratios.append(obs / den)

    if not all(0.0 < r < np.inf for r in ratios):
        raise NumericalFailure(f"observation ratios {ratios} are not all positive and finite")
    slope = float(np.polyfit(np.log(np.asarray(N_list, float)), np.log(ratios), 1)[0])
    return LackResult(N_list=list(N_list), ratios=ratios, slope=slope)
