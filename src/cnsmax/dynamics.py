"""Truncated states and exact modal propagation (free, forced, adjoint).

States hold Fourier coefficients of (rho, u, S) in the orthonormal scalar
basis e^{inx}/sqrt(2*pi).  The generator is block diagonal over modes, so
propagation is exact modal exponentiation, done for all modes at once as a
batch of 3x3 blocks; time grids exist only for recording trajectories and for
the variation-of-constants quadrature of forced runs.  A forcing is
array-valued: evolve samples it once per record interval on that interval's
whole composite Gauss-Legendre grid, as an array (2N+1, 3, nodes) over modes
-N..N, and sums the quadrature over modes and nodes in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .errors import GridTooCoarse, ValidationError
from .model import SUBSPACES, FluidParams
from .spectral import (TWO_PI, ModeEigenSystem, mode_matrix, nonzero_modes,
                       spectral_table, z_weights)

# Quadrature panels of one record interval of a forced evolve.  The largest
# case in use needs 27; each panel adds gl_points samples to the forcing
# array (2N+1, 3, nodes) and to its propagated terms.  With the default 8
# nodes a panel, one such array at the bound is about 190 MiB for N = 256.
MAX_PANELS = 1024


@dataclass
class SpectralState:
    """Truncated Fourier representation of (rho, u, S).

    coeffs is a complex array (2N+1, 3) whose row n + N holds the triple of
    mode n = -N..N; None gives the zero state.  Subspace flags: "Zm" forces
    zero-mean u and S (their n = 0 coefficients vanish); "Zmm" forces the
    whole n = 0 coefficient to vanish.
    """

    N: int
    coeffs: np.ndarray | None = None
    subspace: str = "Z"

    def __post_init__(self):
        if self.subspace not in SUBSPACES:
            raise ValidationError(f"unknown subspace {self.subspace!r}")
        shape = (2 * self.N + 1, 3)
        self.coeffs = (np.zeros(shape, dtype=complex) if self.coeffs is None
                       else np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.shape != shape:
            raise ValidationError(
                f"coeffs of truncation N={self.N} must have shape {shape}, "
                f"got {self.coeffs.shape}"
            )
        zero = self.coeffs[self.N]
        if self.subspace == "Zm" and np.any(zero[1:] != 0):
            raise ValidationError("Zm state must have zero-mean u and S")
        if self.subspace == "Zmm" and np.any(zero != 0):
            raise ValidationError("Zmm state must have a zero n=0 coefficient")

    def coeff(self, n: int) -> np.ndarray:
        return self.rows([n])[0]

    def rows(self, ns) -> np.ndarray:
        """The triples of the modes ns, (len(ns), 3); zero beyond N."""
        ns = np.asarray(ns, dtype=int)
        inside = np.abs(ns) <= self.N
        out = np.zeros((ns.size, 3), dtype=complex)
        out[inside] = self.coeffs[ns[inside] + self.N]
        return out


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    energies: np.ndarray            # squared energy norm
    norm_rho: np.ndarray
    norm_u: np.ndarray
    norm_S: np.ndarray
    control: np.ndarray | None = None
    log_energies: np.ndarray | None = None

    def __post_init__(self):
        m = len(self.times)
        for arr in (self.energies, self.norm_rho, self.norm_u, self.norm_S):
            if len(arr) != m:
                raise ValidationError("trajectory arrays must share one length")
        if np.any(np.asarray(self.energies) < 0):
            raise ValidationError("energies must be nonnegative")


def energy_norm(state: SpectralState, p: FluidParams) -> float:
    """Energy norm sqrt(b||rho||^2 + rho_s||u||^2 + (kappa/mu)||S||^2)."""
    return float(np.sqrt(np.sum(z_weights(p) * np.abs(state.coeffs) ** 2)))


def component_norms(state: SpectralState) -> tuple[float, float, float]:
    """Plain L^2 norms of the three components."""
    return tuple(np.sqrt(np.sum(np.abs(state.coeffs) ** 2, axis=0)).tolist())


class _ModePropagator:
    """Flow of a batch of mode blocks in weighted Fourier coordinates.

    Nonzero modes are diagonalized through their basis-change matrices
    Gamma_n.  The n = 0 block is diagonal already (mean density and velocity
    frozen, stress relaxing): Gamma_0 = I with eigenvalues (0, 0, -1/kappa).
    A mode whose Gamma_n is too ill-conditioned (not expected for valid
    parameters, but never silently wrong) is propagated by
    scaling-and-squaring instead.
    """

    COND_LIMIT = 1e8

    def __init__(self, p: FluidParams, ns, lambdas: np.ndarray, gamma: np.ndarray):
        ns = np.asarray(ns, dtype=int)
        self.use_expm = np.linalg.cond(gamma) > self.COND_LIMIT
        diag = ~self.use_expm
        self.lambdas = lambdas[diag]
        self.gamma = gamma[diag]
        self.gamma_inv = np.linalg.inv(self.gamma)
        self.blocks = np.array(
            [mode_matrix(p, n) if n else np.diag(lam)
             for n, lam in zip(ns[self.use_expm], lambdas[self.use_expm])],
            dtype=complex,
        ).reshape(-1, 3, 3)

    @classmethod
    def of_modes(cls, p: FluidParams, ns) -> "_ModePropagator":
        """Propagator of the modes ns (n = 0 allowed) from the spectral table."""
        ns = np.asarray(ns, dtype=int)
        nz = ns != 0
        lam = np.tile(np.array([0.0, 0.0, -1.0 / p.kappa], dtype=complex), (ns.size, 1))
        gamma = np.tile(np.eye(3, dtype=complex), (ns.size, 1, 1))
        tab = spectral_table(p, ns[nz]).require_simple()
        lam[nz] = tab.lambdas
        gamma[nz] = tab.gamma
        return cls(p, ns, lam, gamma)

    def flow(self, g: np.ndarray, taus: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] e^{taus[k] A_n} g[n, :, k] for every mode n.

        g is (modes, 3, len(taus)); the result is (modes, 3).
        """
        out = np.empty(g.shape[:2], dtype=complex)
        diag = ~self.use_expm
        e = np.exp(self.lambdas[:, :, None] * taus) * weights
        d = np.einsum("mij,mjk,mik->mi", self.gamma, g[diag], e)
        out[diag] = np.einsum("mij,mj->mi", self.gamma_inv, d)
        if self.blocks.size:
            flows = expm(taus[None, :, None, None] * self.blocks[:, None])
            out[self.use_expm] = np.einsum(
                "mkij,mjk,k->mi", flows, g[self.use_expm], weights
            )
        return out


def propagate_mode(p: FluidParams, mode: ModeEigenSystem, c, t: float) -> np.ndarray:
    """Flow e^{t A_n} c in the weighted Fourier coordinates of mode n.

    Diagonalization through the basis-change matrix; scaling-and-squaring
    fallback when that matrix is too ill-conditioned.
    """
    prop = _ModePropagator(p, [mode.n], mode.lambdas[None], mode.gamma[None])
    g = np.asarray(c, dtype=complex).reshape(1, 3, 1)
    return prop.flow(g, np.array([float(t)]), np.ones(1))[0]


def evolve(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    forcing=None,
    record_times=None,
    panels_per_unit: int = 64,
    gl_points: int = 8,
):
    """Propagate a state over [0, T], optionally with modal forcing.

    forcing(ts) must return an array (2N+1, 3, len(ts)): row i holds the
    forcing triples of mode i - N, in weighted Fourier coordinates, at the
    times ts.  It is called once per record interval [t0, t1] with dt > 0,
    with that interval's composite Gauss-Legendre nodes
    (ceil(dt * panels_per_unit) panels of gl_points nodes each, at most
    MAX_PANELS), and the variation-of-constants integral is summed over the
    nodes for all modes at once.  Returns (TrajectoryRecord, final
    SpectralState).
    """
    if record_times is None:
        record_times = np.linspace(0.0, T, 65)
    record_times = np.asarray(record_times, dtype=float)
    if record_times[0] != 0.0 or (T > 0 and record_times[-1] != T):
        raise ValidationError("record_times must start at 0 and end at T")
    dts = np.diff(record_times)
    panels = np.ceil(dts.max(initial=0.0) * panels_per_unit)
    if forcing is not None and panels > MAX_PANELS:
        raise ValidationError(f"a record interval of length {dts.max():.3e} needs "
                              f"{panels:.3e} quadrature panels, more than {MAX_PANELS}")

    N = state0.N
    prop = _ModePropagator.of_modes(p, np.arange(-N, N + 1))
    xs, ws = leggauss(gl_points)
    sw = np.sqrt(z_weights(p))
    one = np.ones(1)

    current = state0.coeffs * sw
    power = np.empty((len(record_times), 3))
    power[0] = np.sum(np.abs(current) ** 2, axis=0)
    for k, dt in enumerate(dts, start=1):
        t0, t1 = record_times[k - 1], record_times[k]
        cnew = prop.flow(current[:, :, None], np.array([dt]), one)
        if forcing is not None and dt > 0:
            npan = max(1, int(np.ceil(dt * panels_per_unit)))
            half = dt / (2 * npan)
            mids = t0 + dt * np.arange(npan) / npan + half
            s = (mids[:, None] + half * xs).ravel()
            g = np.asarray(forcing(s), dtype=complex)
            if g.shape != (2 * N + 1, 3, s.size):
                raise ValidationError(
                    f"forcing returned shape {g.shape}, expected "
                    f"{(2 * N + 1, 3, s.size)}"
                )
            cnew += prop.flow(g, t1 - s, np.tile(half * ws, npan))
        current = cnew
        power[k] = np.sum(np.abs(current) ** 2, axis=0)

    final = SpectralState(N=N, coeffs=current / sw)
    return _record(record_times, power, sw**2), final


def _record(times, power, w) -> TrajectoryRecord:
    """Trajectory whose row k of power (len(times), 3) holds the weighted
    squared component norms w |c|^2 summed over modes."""
    norms = np.sqrt(power / w)
    return TrajectoryRecord(
        times=times,
        energies=power.sum(axis=1),
        norm_rho=norms[:, 0],
        norm_u=norms[:, 1],
        norm_S=norms[:, 2],
    )


def adjoint_mode_coefficients(p: FluidParams, state: SpectralState) -> np.ndarray:
    """Expand a state in the adjoint eigenbasis: c_{n,l} = <z, xi_{n,l}>_Z,
    one row per mode n of nonzero_modes(N), (2N, 3)."""
    ns = nonzero_modes(state.N)
    xi = spectral_table(p, ns).require_simple().xi_coeffs
    # state coefficient triple r relates to plain components v by v = r/sqrt(2*pi)
    v = state.rows(ns) / np.sqrt(TWO_PI)
    return TWO_PI * np.einsum("mp,mlp->ml", z_weights(p) * v, np.conj(xi))


def evolve_adjoint(
    p: FluidParams,
    terminal_state: SpectralState,
    T: float,
    record_times=None,
):
    """Backward adjoint flow from terminal data at time T.

    Returns (TrajectoryRecord, states) where states[k] is the adjoint
    solution at record_times[k]; the coefficient of each adjoint eigenmode
    scales by e^{conj(lambda) (T - t)}.
    """
    if record_times is None:
        record_times = np.linspace(0.0, T, 65)
    record_times = np.asarray(record_times, dtype=float)

    N = terminal_state.N
    ns = nonzero_modes(N)
    tab = spectral_table(p, ns).require_simple()
    star = tab.xi_star_coeffs / tab.psi[..., None]
    tau = (T - record_times)[:, None, None]
    fac = adjoint_mode_coefficients(p, terminal_state) * np.exp(np.conj(tab.lambdas) * tau)
    v = np.empty((record_times.size, 2 * N + 1, 3), dtype=complex)
    v[:, ns + N] = np.einsum("tml,mlp->tmp", fac, star) * np.sqrt(TWO_PI)
    # the n = 0 block: mean density and velocity frozen, stress relaxing
    v[:, N] = terminal_state.coeffs[N]
    v[:, N, 2] *= np.exp(-tau[:, 0, 0] / p.kappa)

    w = z_weights(p)
    rec = _record(record_times, np.sum(w * np.abs(v) ** 2, axis=1), w)
    return rec, [SpectralState(N=N, coeffs=c) for c in v]


def synthesize_physical(state: SpectralState, M: int):
    """Sample (rho, u, S) on M uniform grid points by inverse Fourier synthesis."""
    if M < 2 * state.N + 1:
        raise GridTooCoarse(f"grid M={M} cannot carry N={state.N}")
    spec = np.zeros((3, M), dtype=complex)
    spec[:, np.arange(-state.N, state.N + 1) % M] = state.coeffs.T
    fields = np.fft.ifft(spec * M / np.sqrt(TWO_PI), axis=1)
    x = TWO_PI * np.arange(M) / M
    return x, fields


def analyze_physical(fields: np.ndarray, N: int, subspace: str = "Z") -> SpectralState:
    """Project sampled (rho, u, S) onto modes |n| <= N (inverse of synthesis)."""
    fields = np.asarray(fields, dtype=complex)
    M = fields.shape[1]
    if M < 2 * N + 1:
        raise GridTooCoarse(f"grid M={M} cannot carry N={N}")
    spec = np.fft.fft(fields, axis=1) * np.sqrt(TWO_PI) / M
    return SpectralState(N=N, coeffs=spec[:, np.arange(-N, N + 1) % M].T,
                         subspace=subspace)


def random_state(
    p: FluidParams,
    N: int,
    subspace: str = "Zm",
    seed: int = 0,
    real_valued: bool = True,
) -> SpectralState:
    """Seeded random state of unit energy norm in the requested subspace."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((2 * N + 1, 3), dtype=complex)
    for n in range(1, N + 1):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coeffs[N + n] = c
        coeffs[N - n] = np.conj(c) if real_valued else (
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
    if subspace == "Zm":
        coeffs[N, 0] = rng.standard_normal()
    state = SpectralState(N=N, coeffs=coeffs, subspace=subspace)
    state.coeffs /= energy_norm(state, p)
    return state
