"""Shared closed-form Gram machinery over flattened (mode, branch) indices.

Exact-control synthesis, observability constants, Ingham frame bounds and
the feedback Gramian all reduce to Hermitian forms whose entries combine a
time integral of an exponential pair with a spatial overlap integral; both
have closed forms collected here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import FluidParams
from .spectral import TWO_PI, SpectralTable, nonzero_modes, spectral_table, z_weights


def texp(z, T: float):
    """Closed form of the time integral of e^{z s} over [0, T].

    The z -> 0 limit T replaces the removable singularity.  Those entries
    divide by the placeholder 1j, whose exponential cannot overflow.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-14
    zs = np.where(small, 1j, z)
    return np.where(small, T, (np.exp(zs * T) - 1.0) / zs)


def space_overlap(dn, lo: float, hi: float):
    """Closed form of the integral of e^{i dn x} over (lo, hi), dn integer."""
    dn = np.asarray(dn)
    zero = dn == 0
    dns = np.where(zero, 1, dn)
    return np.where(
        zero, hi - lo, (np.exp(1j * dns * hi) - np.exp(1j * dns * lo)) / (1j * dns)
    )


@dataclass
class BranchTable:
    """Flattened spectral data over modal indices a = (n, l), |n| <= N.

    Rows run over the modes of `modes` (-N..-1, 1..N), three consecutive
    branch rows each.  For the mean-corrected subspace "Zm" a single n = 0
    row is appended (lambda = 0, adjoint direction (1,0,0)/sqrt(2 pi b)); in
    "Zmm" there is no n = 0 row.
    """

    p: FluidParams
    idx_n: np.ndarray       # (K,) int
    idx_l: np.ndarray       # (K,) int, 0-based branch; -1 marks the n=0 row
    lam: np.ndarray         # (K,) complex
    alpha: np.ndarray       # (K, 3) complex adjoint coefficient triples
    psi: np.ndarray         # (K,) complex normalizers
    modes: SpectralTable | None = None  # per-mode data of the n != 0 rows

    @property
    def size(self) -> int:
        return self.lam.size

    @property
    def sigma_coeff(self) -> np.ndarray:
        """Density component of each adjoint eigenfunction (alpha^1/psi)."""
        return self.alpha[:, 0] / self.psi


def build_branch_table(p: FluidParams, N: int, subspace: str = "Zmm") -> BranchTable:
    if subspace not in ("Zm", "Zmm"):
        raise ValidationError("branch table exists for Zm or Zmm only")
    modes = spectral_table(p, nonzero_modes(N)).require_simple()
    idx_n = np.repeat(modes.ns, 3)
    idx_l = np.tile(np.arange(3), modes.ns.size)
    lam = modes.lambdas.ravel()
    alpha = modes.xi_star_coeffs.reshape(-1, 3)
    psi = modes.psi.ravel()
    if subspace == "Zm":
        idx_n = np.append(idx_n, 0)
        idx_l = np.append(idx_l, -1)
        lam = np.append(lam, 0.0 + 0.0j)
        alpha = np.vstack([alpha, [1.0, 0.0, 0.0]])
        psi = np.append(psi, np.sqrt(2.0 * p.b_eff * np.pi))
    return BranchTable(p=p, idx_n=idx_n, idx_l=idx_l, lam=lam, alpha=alpha,
                       psi=psi, modes=modes)


def terminal_gram(tab: BranchTable) -> np.ndarray:
    """Energy-inner-product Gram of the adjoint family {xi*_a}."""
    w = z_weights(tab.p)
    star = tab.alpha / tab.psi[:, None]
    g = TWO_PI * np.einsum("ap,p,cp->ca", star, w, np.conj(star))
    same_n = tab.idx_n[None, :] == tab.idx_n[:, None]
    return np.where(same_n, g, 0.0)


def exponential_gram(lams, T: float) -> np.ndarray:
    """Gram of {e^{conj(lam_a)(T-t)}} in L^2(0, T), closed form."""
    lams = np.asarray(lams, dtype=complex)
    return texp(np.conj(lams)[None, :] + lams[:, None], T)


def exp_pair_integrals(tab: BranchTable, T: float) -> np.ndarray:
    """Matrix of the time integrals of e^{conj(lam_a)(T-t)} e^{lam_c (T-t)}."""
    return exponential_gram(tab.lam, T)


def kernel_gram(tab: BranchTable, T: float, kernel_vals: np.ndarray) -> np.ndarray:
    """Hermitian Gram G[c, a] = conj(k_c) k_a * texp(conj(lam_a)+lam_c, T).

    kernel_vals[a] is the scalar observation of the a-th adjoint eigenmode
    (boundary functional value, or a spatial-overlap-free weight).
    """
    return (
        np.conj(kernel_vals)[:, None]
        * kernel_vals[None, :]
        * exp_pair_integrals(tab, T)
    )


def windowed_gram(
    tab: BranchTable, T: float, weights: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Gram of kernels w_a e^{conj(lam_a)(T-t)} e^{i n_a x} over (0,T)x(lo,hi)."""
    si = space_overlap(tab.idx_n[None, :] - tab.idx_n[:, None], lo, hi)
    return (
        np.conj(weights)[:, None]
        * weights[None, :]
        * exp_pair_integrals(tab, T)
        * si
    )


def eigen_coefficients(tab: BranchTable, state) -> np.ndarray:
    """Direct-eigenbasis coordinates d_a = <z, xi*_a>_Z of a SpectralState."""
    w = z_weights(tab.p)
    c = state.rows(tab.idx_n) / np.sqrt(TWO_PI)
    star = tab.alpha / tab.psi[:, None]
    return TWO_PI * np.sum(w * c * np.conj(star), axis=1)
