"""Per-mode spectral machinery: slope cubic, eigenvalues, biorthogonal bases.

For each Fourier mode n != 0 the generator restricts to a 3x3 block whose
characteristic cubic has three simple roots (for valid parameters).  The
three root branches follow -omega_j + i*beta_j*n as |n| grows, where the
beta_j are the real roots of a parameter cubic and the omega_j are positive
offsets.  This module computes those objects, the controllability waiting
time T0 = 2 pi sum 1/|beta_j| they fix, the direct/adjoint eigenvector
coefficient triples with their biorthogonal normalization, the basis-change
matrix between the weighted Fourier frame and the eigenbasis, and the
eigenvalue-multiplicity flags used to reject degenerate parameter sets.
Every per-mode quantity comes from `spectral_table`, batched over an array
of modes; `mode_system` and `gamma_matrix` read one row of it, and
`gamma_inverse` is the one guarded inverse of its Gamma_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import _kernels
from .errors import MultiplicityDetected, NumericalFailure
from .model import FluidParams

TWO_PI = 2.0 * np.pi

# multiplicity flag, normalizer rejection and root-coefficient identity tolerances
TOL_MULT = 1e-8
TOL_PSI = 1e-10
TOL_RC = 1e-8
# largest condition number of a basis change Gamma_n that gamma_inverse
# inverts (not expected for valid parameters)
GAMMA_COND_LIMIT = 1e8


@dataclass(frozen=True)
class CubicRoots:
    """Real slope-cubic roots beta (descending) with their omega offsets."""

    beta: tuple[float, float, float]
    omega: tuple[float, float, float]


@dataclass(frozen=True)
class ModeEigenSystem:
    """Spectral data of one mode: eigenvalues, eigenvector coefficients.

    xi_coeffs[l] holds the components of the l-th direct eigenfunction before
    the e^{inx} factor (normalizer theta included); xi_star_coeffs[l] holds
    the raw adjoint coefficient triple (alpha^1, alpha^2, alpha^3), i.e. the
    adjoint eigenfunction is (1/psi_l) * alpha * e^{inx}.  gamma is the
    basis-change matrix Gamma_n (weighted Fourier coords -> eigen coords).
    """

    n: int
    lambdas: np.ndarray          # (3,) complex, branch-paired
    xi_coeffs: np.ndarray        # (3, 3) complex: row l -> triple of xi_{n,l}
    xi_star_coeffs: np.ndarray   # (3, 3) complex: row l -> (alpha^1..3)
    psi: np.ndarray              # (3,) complex, nonzero for simple modes
    gamma: np.ndarray            # (3, 3) complex


@dataclass(frozen=True)
class SpectralTable:
    """The fields of ModeEigenSystem for many modes, with a leading mode axis,
    plus the normalizers theta and each mode's multiplicity report (min_gap,
    min_q, flag)."""

    ns: np.ndarray               # (m,) int
    lambdas: np.ndarray          # (m, 3)
    xi_coeffs: np.ndarray        # (m, 3, 3)
    theta: np.ndarray            # (m, 3)
    xi_star_coeffs: np.ndarray   # (m, 3, 3)
    psi: np.ndarray              # (m, 3)
    gamma: np.ndarray            # (m, 3, 3)
    min_gap: np.ndarray          # (m,)
    min_q: np.ndarray            # (m,)
    flag: np.ndarray             # (m,) bool

    def mode(self, i: int) -> ModeEigenSystem:
        """Row i as the ModeEigenSystem of mode ns[i]."""
        return ModeEigenSystem(
            n=int(self.ns[i]), lambdas=self.lambdas[i], xi_coeffs=self.xi_coeffs[i],
            xi_star_coeffs=self.xi_star_coeffs[i],
            psi=self.psi[i], gamma=self.gamma[i],
        )

    def require_simple(self) -> "SpectralTable":
        """Raise MultiplicityDetected at the first flagged mode or the first
        with a normalizer |psi| < TOL_PSI; return the table otherwise."""
        _reject(self, self.flag | np.any(np.abs(self.psi) < TOL_PSI, axis=1))
        return self


def _reject(tab: SpectralTable, bad: np.ndarray) -> None:
    """Raise MultiplicityDetected at the first mode of tab where bad holds."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise MultiplicityDetected(int(tab.ns[i]), float(tab.min_gap[i]),
                                   float(tab.min_q[i]))


@dataclass(frozen=True)
class GammaMatrix:
    """Change of basis from weighted-Fourier to eigenbasis coordinates."""

    entries: np.ndarray          # (3, 3) complex
    det_closed_form: complex


def _beta_cubic_coeffs(p: FluidParams):
    b = p.b_eff
    return (
        2.0 * p.u_s,
        p.u_s**2 - b * p.rho_s - p.mu / (p.kappa * p.rho_s),
        -p.mu * p.u_s / (p.kappa * p.rho_s),
    )


def _char_cubic_coeffs(p: FluidParams, ns):
    """Monic characteristic-cubic coefficients (a2, a1, a0) for modes ns."""
    ns = np.asarray(ns, dtype=float)
    b = p.b_eff
    a2 = 1.0 / p.kappa + 2j * ns * p.u_s
    a1 = (b * p.rho_s + p.mu / (p.kappa * p.rho_s) - p.u_s**2) * ns**2 \
        + 2j * p.u_s * ns / p.kappa
    a0 = (b * p.rho_s - p.u_s**2) * ns**2 / p.kappa \
        + 1j * p.mu * p.u_s * ns**3 / (p.kappa * p.rho_s)
    return a2, a1, a0


@lru_cache(maxsize=64)
def solve_beta_cubic(p: FluidParams) -> CubicRoots:
    """Slope cubic roots and omega offsets.

    The omega_j are defined with the sign that makes them the limits of
    -Re(lambda) along each branch; this is cross-validated against an
    eigensolve at |n| = 10^4 (the printed closed form carries the opposite
    sign, which contradicts the negativity of the spectrum's real parts).
    """
    a2, a1, a0 = _beta_cubic_coeffs(p)
    # a real cubic with three real roots: the complex solve's real parts
    beta = -np.sort(-_kernels.char_roots_batch([a2], [a1], [a0])[0].real)
    # the residual against the largest term |a_k beta^k| of the cubic
    res = np.abs(((beta + a2) * beta + a1) * beta + a0)
    terms = np.abs([beta ** 3, a2 * beta ** 2, a1 * beta, np.full(3, a0)])
    if not np.all(res <= 1e-12 * (1.0 + terms.max(axis=0))):
        raise NumericalFailure(f"slope cubic residual too large: {res}")
    gaps = [abs(beta[i] - beta[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) <= 1e-9 * (1.0 + np.max(np.abs(beta))):
        raise NumericalFailure("slope cubic roots not distinct")
    b = p.b_eff
    p_prime = 3.0 * beta**2 + 4.0 * p.u_s * beta + p.u_s**2 - b * p.rho_s \
        - p.mu / (p.kappa * p.rho_s)
    if np.any(np.abs(p_prime) == 0.0):
        raise NumericalFailure("slope cubic has a critical root")
    omega = -(b * p.rho_s - p.u_s**2 - 2.0 * p.u_s * beta - beta**2) / (p.kappa * p_prime)
    roots = CubicRoots(beta=tuple(beta), omega=tuple(omega))

    # sign cross-validation against the true real parts at a far mode
    n_chk = [10_000]
    lam = _kernels.char_roots_batch(*_char_cubic_coeffs(p, n_chk))
    pred = asymptotic_frequencies(roots, n_chk)
    cost = _permutation_costs(lam, pred).min()
    cost_flip = _permutation_costs(lam, pred + 2.0 * omega).min()  # +omega_j
    if cost_flip < cost:
        raise NumericalFailure(
            "omega sign validation failed: eigensolve at |n|=1e4 favors the "
            f"opposite sign (costs {cost:.3e} vs {cost_flip:.3e})"
        )
    return roots


@lru_cache(maxsize=64)
def minimal_time(p: FluidParams) -> float:
    """Controllability waiting time 2*pi*(1/|beta_1| + 1/|beta_2| + 1/|beta_3|)."""
    roots = solve_beta_cubic(p)
    return float(TWO_PI * np.sum(1.0 / np.abs(np.asarray(roots.beta))))


def asymptotic_frequencies(roots: CubicRoots, ns) -> np.ndarray:
    """Predicted eigenvalue triples -omega_j + i*beta_j*n of the modes ns,
    (m, 3), for branch pairing."""
    return -np.asarray(roots.omega)[None, :] + 1j * np.outer(ns, roots.beta)


_PERMS = np.array(list(permutations(range(3))))


def _permutation_costs(lam: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Total distance of lam[:, perm] from pred, (m, 3), for each of the 6
    permutations of the roots: (m, 6)."""
    return np.abs(lam[:, _PERMS] - pred[:, None, :]).sum(axis=2)


def _pair_to_predictions(lam: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Minimal-total-distance assignment of computed roots to predictions.

    lam, pred: (m, 3).  Exhaustive over the 6 permutations, vectorized in m.
    """
    best = _permutation_costs(lam, pred).argmin(axis=1)
    rows = np.arange(lam.shape[0])[:, None]
    return lam[rows, _PERMS[best]]


def _rc_identities_ok(lam, a2, a1, a0) -> bool:
    """Vieta's identities of the cubics (a2, a1, a0) at their roots lam,
    (m, 3), as six real ones, each relative to 1 + |rhs| + its terms'
    magnitudes: several cancel large products down to a small rhs."""
    e1, e2, e3 = lam.real.T
    t1, t2, t3 = lam.imag.T
    items = [  # sum, sum of pairs and product of the roots, Re and Im
        ([e1, e2, e3], -a2.real),
        ([t1, t2, t3], -a2.imag),
        ([e1 * e2, e1 * e3, e2 * e3, -t1 * t2, -t1 * t3, -t2 * t3], a1.real),
        ([e1 * (t2 + t3), e2 * (t1 + t3), e3 * (t1 + t2)], a1.imag),
        ([e1 * e2 * e3, -e1 * t2 * t3, -e2 * t1 * t3, -e3 * t1 * t2], -a0.real),
        ([t1 * t2 * t3, -t1 * e2 * e3, -e1 * t2 * e3, -e1 * e2 * t3], a0.imag),
    ]
    for terms, rhs in items:
        lhs = np.sum(terms, axis=0)
        scale = 1.0 + np.abs(rhs) + np.sum(np.abs(terms), axis=0)
        if not np.all(np.abs(lhs - rhs) <= TOL_RC * scale):
            return False
    return True


def mode_eigenvalues_batch(p: FluidParams, ns) -> np.ndarray:
    """Branch-paired eigenvalue triples for an array of nonzero modes."""
    ns = np.asarray(ns, dtype=int)
    if np.any(ns == 0):
        raise ValueError("modes must be nonzero")
    a2, a1, a0 = _char_cubic_coeffs(p, ns)
    lam = _kernels.char_roots_batch(a2, a1, a0)
    scale = np.maximum.reduce(
        [np.abs(lam) ** 3, np.abs(a2[:, None] * lam**2), np.abs(a1[:, None] * lam),
         np.abs(a0[:, None]) * np.ones_like(lam.real)]
    )
    resid = np.abs(((lam + a2[:, None]) * lam + a1[:, None]) * lam + a0[:, None])
    if not np.all(resid <= 1e-11 * np.maximum(scale, 1.0)):
        raise NumericalFailure("characteristic cubic residual overflow")
    lam = _pair_to_predictions(lam, asymptotic_frequencies(solve_beta_cubic(p), ns))
    if not _rc_identities_ok(lam, a2, a1, a0):
        raise NumericalFailure("root-coefficient identities violated")
    return lam


def nonzero_modes(N: int) -> np.ndarray:
    """Modes -N..-1, 1..N in ascending order."""
    return np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])


def q_degeneracy(p: FluidParams, n, lam) -> np.ndarray:
    """Double-root indicator: lam is a double characteristic root iff q = 0.

    This is also (up to a positive normalizer and conjugation) the adjoint
    normalizer psi, which is why psi doubles as a degeneracy sentinel.
    n broadcasts against lam.
    """
    lam = np.asarray(lam, dtype=complex)
    b = p.b_eff
    inu = 1j * n * p.u_s
    return (
        -b
        + (lam + inu) ** 2 / (p.rho_s * n**2)
        - p.mu * p.kappa * (lam + inu) ** 2 / (p.rho_s**2 * (1.0 + p.kappa * lam) ** 2)
    )


def spectral_table(p: FluidParams, ns) -> SpectralTable:
    """All per-mode spectral data of the nonzero modes ns in one batch.

    Biorthogonality <xi_{n,l}, xi*_{n,p}>_Z = delta_{lp} is built into the
    normalizers theta and psi.  Multiple eigenvalues are flagged, not
    rejected; see SpectralTable.require_simple.
    """
    ns = np.asarray(ns, dtype=int).reshape(-1)
    lam = mode_eigenvalues_batch(p, ns)
    n = ns[:, None]
    b = p.b_eff
    inu = 1j * n * p.u_s
    lam_b = np.conj(lam)

    min_gap = np.abs(lam[:, [0, 0, 1]] - lam[:, [1, 2, 2]]).min(axis=1)
    q = q_degeneracy(p, n, lam)
    min_q = np.abs(q).min(axis=1)
    flag = (min_gap < TOL_MULT * (1.0 + np.abs(lam).max(axis=1))) | (min_q < TOL_MULT)

    d2 = (
        b
        + np.abs(lam + inu) ** 2 / (p.rho_s * n**2)
        + p.kappa * p.mu * np.abs(lam + inu) ** 2
        / (p.rho_s**2 * np.abs(1.0 + p.kappa * lam) ** 2)
    )
    theta = np.sqrt(TWO_PI * d2)
    psi = np.sqrt(TWO_PI) * np.conj(q) / np.sqrt(d2)
    xi = np.stack(
        [
            -np.ones_like(lam),
            (lam + inu) / (1j * n * p.rho_s),
            p.mu * (lam + inu) / (p.rho_s * (1.0 + p.kappa * lam)),
        ],
        axis=2,
    ) / theta[..., None]
    alpha = np.stack(
        [
            np.ones_like(lam),
            (lam_b - inu) / (1j * n * p.rho_s),
            -p.mu * (lam_b - inu) / (p.rho_s * (1.0 + p.kappa * lam_b)),
        ],
        axis=2,
    )
    gamma = np.sqrt(TWO_PI * z_weights(p)) * np.conj(alpha) / np.conj(psi)[..., None]
    return SpectralTable(ns=ns, lambdas=lam, xi_coeffs=xi, theta=theta,
                         xi_star_coeffs=alpha, psi=psi, gamma=gamma,
                         min_gap=min_gap, min_q=min_q, flag=flag)


def mode_system(p: FluidParams, n: int) -> ModeEigenSystem:
    """Eigenvalues, direct and adjoint eigenvector coefficients of mode n
    (one table row); rejects multiple eigenvalues and vanishing normalizers."""
    return spectral_table(p, [n]).require_simple().mode(0)


def z_weights(p: FluidParams) -> np.ndarray:
    """Component weights (b, rho_s, kappa/mu) of the energy inner product."""
    return np.array([p.b_eff, p.rho_s, p.kappa / p.mu])


def biorthogonality_matrix(p: FluidParams, mode) -> np.ndarray:
    """Matrix of <xi_{n,l}, xi*_{n,q}>_Z; identity up to rounding.

    mode is a ModeEigenSystem, or a SpectralTable for one matrix per mode.
    """
    w = z_weights(p)
    star = mode.xi_star_coeffs / mode.psi[..., None]
    return TWO_PI * np.einsum("...lp,p,...qp->...lq", mode.xi_coeffs, w, np.conj(star))


def gamma_inverse(tab: SpectralTable) -> np.ndarray:
    """Inverses of the basis changes Gamma_n of a table, (m, 3, 3), by LU.

    The closed-form inverse from the eigenvector triples is not used: it is
    only as biorthogonal as the triples.  A Gamma_n with condition number
    above GAMMA_COND_LIMIT raises NumericalFailure, so no flow, forcing or
    pencil built on it is silently wrong.
    """
    cond = np.linalg.cond(tab.gamma)
    if np.any(cond > GAMMA_COND_LIMIT):
        i = int(np.argmax(cond))
        raise NumericalFailure(f"basis change of mode n={tab.ns[i]} has condition "
                               f"number {cond[i]:.3e} > {GAMMA_COND_LIMIT:.0e}")
    return np.linalg.inv(tab.gamma)


def gamma_matrix(p: FluidParams, mode: ModeEigenSystem) -> GammaMatrix:
    """Basis-change matrix Gamma_n with its closed-form determinant."""
    l1, l2, l3 = mode.lambdas
    kap, n = p.kappa, mode.n
    pref = TWO_PI * kap * np.sqrt(TWO_PI * p.b_eff * p.rho_s * kap * p.mu) / (
        1j * n * p.rho_s**2 * np.prod(np.conj(mode.psi))
    )
    det_cf = pref * (
        (l1 - l2) * (l1 - l3) * (l2 - l3) * (1.0 - kap * 1j * n * p.u_s)
    ) / ((1.0 + kap * l1) * (1.0 + kap * l2) * (1.0 + kap * l3))
    return GammaMatrix(entries=mode.gamma, det_closed_form=complex(det_cf))


def spectrum_rows(p: FluidParams, N: int) -> tuple[np.ndarray, ...]:
    """Columns (n, branch, re, im, theta, re_psi, im_psi, mult_flag) of the
    rows of 0 < |n| <= N; n, branch and mult_flag are integer arrays.

    Flagged modes are reported with NaN normalizers instead of rejected.
    """
    tab = spectral_table(p, nonzero_modes(N))
    _reject(tab, ~tab.flag & np.any(np.abs(tab.psi) < TOL_PSI, axis=1))
    flag = tab.flag[:, None]
    theta = np.where(flag, np.nan, tab.theta)
    psi = np.where(flag, complex("nan"), tab.psi)
    return (
        np.repeat(tab.ns, 3), np.tile([1, 2, 3], tab.ns.size),
        tab.lambdas.ravel().real, tab.lambdas.ravel().imag, theta.ravel(),
        psi.ravel().real, psi.ravel().imag, np.repeat(tab.flag.astype(int), 3),
    )


def branch_residual_slope(
    p: FluidParams, n_lo: int = 20, n_hi: int = 200
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-log slope of max_j |lambda_n^j - (-omega_j + i beta_j n)| in n."""
    ns = np.arange(n_lo, n_hi + 1)
    lam = mode_eigenvalues_batch(p, ns)
    resid = np.abs(lam - asymptotic_frequencies(solve_beta_cubic(p), ns)).max(axis=1)
    slope = float(np.polyfit(np.log(ns), np.log(resid), 1)[0])
    return slope, ns, resid
