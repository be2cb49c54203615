"""Shared closed-form Gram machinery over flattened (mode, branch) indices.

Exact-control synthesis, observability constants, Ingham frame bounds and
the feedback Gramian all reduce to Hermitian forms whose entries combine a
time integral of an exponential pair with a spatial overlap integral; both
have closed forms collected here, with the boundary observation functional
B* xi* that weights the boundary forms.  Each is assembled at the cost of
its structure: the exponential Gram from the K exponentials e^{lam T} and
the spatial overlaps from their distinct mode differences.  There is one
weighted product of that Gram, `kernel_gram`; the windowed form is it times
the spatial overlaps.  The terminal Gram is Gamma Gamma^H on each mode
block, so no program path builds it; `terminal_gram` stays as the oracle of
that identity.  The spectrum of the real system is closed under
conjugation, so `real_form` turns a Hermitian form over a table into a real
symmetric one of the same size by pairing mode n with -n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ObservationVanished, ValidationError
from .model import BOUNDARY_KINDS, FluidParams
from .spectral import (
    TWO_PI,
    SpectralTable,
    nonzero_modes,
    spectral_table,
    z_weights,
)


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
    """Closed form of the integral of e^{i dn x} over (lo, hi), dn integer:
    evaluated once on each integer from dn.min() to dn.max(), then indexed."""
    dn = np.asarray(dn)
    first = dn.min()
    k = np.arange(first, dn.max() + 1)
    zero = k == 0
    ks = np.where(zero, 1, k)
    vals = np.where(
        zero, hi - lo, (np.exp(1j * ks * hi) - np.exp(1j * ks * lo)) / (1j * ks)
    )
    return vals[dn - first]


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
    modes: SpectralTable    # per-mode data of the n != 0 rows

    @property
    def size(self) -> int:
        return self.lam.size

    @property
    def sigma_coeff(self) -> np.ndarray:
        """Density component of each adjoint eigenfunction (alpha^1/psi)."""
        return self.alpha[:, 0] / self.psi


def build_branch_table(p: FluidParams, N: int, subspace: str = "Zmm", *,
                       modes: SpectralTable | None = None) -> BranchTable:
    """The branch rows of the modes 1 <= |n| <= N, plus the n = 0 row for
    Zm.  `modes` is spectral_table(p, nonzero_modes(N)) when the caller has
    solved it already; MultiplicityDetected unless it is simple."""
    if subspace not in ("Zm", "Zmm"):
        raise ValidationError("branch table exists for Zm or Zmm only")
    if modes is None:
        modes = spectral_table(p, nonzero_modes(N))
    modes = modes.require_simple()
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


def boundary_observation_vector(tab: BranchTable, kind: str) -> np.ndarray:
    """B* xi*_a over a branch table (boundary placements; no n=0 rows)."""
    if kind not in BOUNDARY_KINDS:
        raise ValidationError(f"kind must be one of {BOUNDARY_KINDS}, got {kind!r}")
    p, a, psi = tab.p, tab.alpha, tab.psi
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
        raise ObservationVanished(f"boundary observation ({kind}) vanished at "
                                  f"n={tab.idx_n[i]}, branch {tab.idx_l[i] + 1}")
    return vals


def terminal_gram(tab: BranchTable) -> np.ndarray:
    """Energy-inner-product Gram of the adjoint family {xi*_a}: eigenfunctions
    of different modes n are orthogonal, so only the entries of rows with
    equal n are computed.  Each mode block is Gamma_n Gamma_n^H, and the
    Zm n = 0 entry is 1, which is how `observability.eigh` reduces its
    pencils; this explicit form is the oracle of that identity."""
    w = z_weights(tab.p)
    star = tab.alpha / tab.psi[:, None]
    c, a = np.nonzero(tab.idx_n[:, None] == tab.idx_n[None, :])
    g = np.zeros((tab.size, tab.size), dtype=complex)
    g[c, a] = TWO_PI * np.sum(star[a] * w * np.conj(star[c]), axis=1)
    return g


def exponential_gram(lams, T: float) -> np.ndarray:
    """Gram of {e^{conj(lam_a)(T-t)}} in L^2(0, T), closed form, from the K
    exponentials e_a = e^{lam_a T}: (e_c conj(e_a) - 1) / z with
    z = lam_c + conj(lam_a), and T where |z| is below 1e-14.  That
    difference cancels where |z T| is small, so below 1e-3 the entry is
    expm1(z T) / z instead.  NumericalFailure if some Re lam > 0, where e
    could overflow."""
    lams = np.asarray(lams, dtype=complex)
    if np.any(lams.real > 0):
        raise NumericalFailure("exponential Gram of a growing exponential (Re lambda > 0)")
    e = np.exp(lams * T)
    z = np.conj(lams)[None, :] + lams[:, None]
    az = np.abs(z)
    near = az < max(1e-3 / T, 1e-14)
    g = e[:, None] * np.conj(e)[None, :]
    g -= 1.0
    g /= np.where(near, 1.0, z)
    i = np.flatnonzero(near)
    zn, small = z.flat[i], az.flat[i] < 1e-14
    g.flat[i] = np.where(small, T, np.expm1(zn * T) / np.where(small, 1.0, zn))
    return g


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
    return kernel_gram(tab, T, weights) * si


def real_form(h: np.ndarray, tab: BranchTable) -> np.ndarray:
    """The real symmetric Q^H h Q of a Hermitian h over a branch table.

    A real system's spectrum is closed under conjugation: row sigma(p) =
    (-n, l) is the conjugate of row p = (n, l), so h[sigma p, sigma q] =
    conj(h[p, q]).  Q maps each p with n > 0 to u_p = (e_p + e_sigma p)/sqrt 2
    and v_p = i (e_p - e_sigma p)/sqrt 2 and keeps the n = 0 rows Z, so
    with A = h[P, P], B = h[P, sigma P] and c = h[Z, P] the form is
    [[Re(A+B), -Im(A-B), .], [Im(A+B), Re(A-B), .], [sqrt2 Re c, -sqrt2 Im c,
    Re h[Z, Z]]], read from the n >= 0 rows only (Golub & Van Loan 8.1),
    so it is symmetric up to the table's conjugation asymmetry, about 1e-15.
    ValueError unless every row pairs with exactly one partner.
    """
    n, key = tab.idx_n, 4 * tab.idx_n + tab.idx_l     # idx_l is -1..2
    pos, zero = np.flatnonzero(n > 0), np.flatnonzero(n == 0)
    want = key[pos] - 8 * n[pos]                           # (-n, l)
    order = np.argsort(key)
    partner = order[np.searchsorted(key, want, sorter=order) % n.size]
    rows = np.sort(np.concatenate([pos, partner, zero]))
    if not (np.array_equal(key[partner], want) and np.array_equal(rows, np.arange(n.size))):
        raise ValueError("a branch row has no conjugate partner (-n, l)")
    # filled block by block, with A - B in place of A: no full-size
    # complex temporary
    k = pos.size
    s = np.empty(h.shape)
    A, B = h[np.ix_(pos, pos)], h[np.ix_(pos, partner)]
    plus = A + B
    s[:k, :k], s[k:2 * k, :k] = plus.real, plus.imag
    A -= B
    s[:k, k:2 * k], s[k:2 * k, k:2 * k] = -A.imag, A.real
    c = np.sqrt(2.0) * h[np.ix_(zero, pos)]
    s[2 * k:, :k], s[2 * k:, k:2 * k] = c.real, -c.imag
    s[:2 * k, 2 * k:] = s[2 * k:, :2 * k].T
    s[2 * k:, 2 * k:] = h[np.ix_(zero, zero)].real
    return s


def eigen_coefficients(tab: BranchTable, state) -> np.ndarray:
    """Direct-eigenbasis coordinates d_a = <z, xi*_a>_Z of a SpectralState."""
    w = z_weights(tab.p)
    c = state.rows(tab.idx_n) / np.sqrt(TWO_PI)
    star = tab.alpha / tab.psi[:, None]
    return TWO_PI * np.sum(w * c * np.conj(star), axis=1)
