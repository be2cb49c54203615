"""Truncated states, exact modal propagation (free and forced), and
synthesis on a physical grid.

States hold Fourier coefficients of (rho, u, S) in the orthonormal scalar
basis e^{inx}/sqrt(2*pi).  The generator is block diagonal over modes, so
propagation is exact modal exponentiation, done for all modes at once by
diagonalizing each 3x3 block through its basis-change matrix Gamma_n; an
ill-conditioned Gamma_n is a NumericalFailure raised by
`spectral.gamma_inverse` (past GAMMA_COND_LIMIT), with no second path.  Time
grids exist only for recording trajectories and for the
variation-of-constants quadrature of forced runs.  A forcing is one
actuator column per mode times a sampled scalar signal per mode: evolve
samples the signal once per record interval on that interval's whole
composite Gauss-Legendre grid, takes the columns to eigen-coordinates once
per interval, and sums the quadrature over modes and nodes in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridTooCoarse, ValidationError
from .model import SUBSPACES, FluidParams
from .spectral import TWO_PI, gamma_inverse, spectral_table, z_weights

# Composite Gauss-Legendre quadrature of a forced evolve: PANELS_PER_UNIT
# panels per unit time, GL_POINTS nodes a panel.  MAX_PANELS bounds the panels
# of one record interval.  The largest case in use needs 27; each panel adds
# GL_POINTS nodes to the signal (2N+1 per node) and to the quadrature kernel
# e^{lambda (t1 - s)} (3 (2N+1) per node), so one forced evolve over an
# interval at the bound peaks at about 320 MiB for N = 256 (tracemalloc).
PANELS_PER_UNIT = 64
GL_POINTS = 8
MAX_PANELS = 1024

PADE13 = [factorial(26 - k) // (factorial(k) * factorial(13 - k)) for k in range(14)]
THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of every matrix of a stack (..., n, n) by scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): the [13/13] Pade
    approximant p(x)/p(-x), p with the coefficients PADE13 and exact in double
    for a 1-norm below THETA13, at a / 2^s, then squared s times."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / THETA13)[1], 0)
    a = a / np.ldexp(1.0, s)[..., None, None]
    b, eye, a2 = PADE13, np.eye(a.shape[-1]), a @ a
    pw = np.stack([a2, a2 @ a2, a2 @ a2 @ a2])  # a^2, a^4, a^6
    u9, u3, v8, v2 = (np.tensordot(b[k:k + 5:2], pw, 1) for k in (9, 3, 8, 2))
    u = a @ (pw[2] @ u9 + u3 + b[1] * eye)
    v = pw[2] @ v8 + v2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


@dataclass
class SpectralState:
    """Truncated Fourier representation of (rho, u, S).

    coeffs is a complex array (2N+1, 3) whose row n + N holds the triple of
    mode n = -N..N.  Subspace flags: "Zm" forces zero-mean u and S (their
    n = 0 coefficients vanish); "Zmm" forces the whole n = 0 coefficient to
    vanish.
    """

    N: int
    coeffs: np.ndarray
    subspace: str = "Z"

    def __post_init__(self):
        if self.subspace not in SUBSPACES:
            raise ValidationError(f"unknown subspace {self.subspace!r}")
        shape = (2 * self.N + 1, 3)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
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


def _modal_basis(p: FluidParams, N: int):
    """Eigenvalues (2N+1, 3), basis changes Gamma_n and their inverses
    (2N+1, 3, 3) of the modes -N..N in weighted Fourier coordinates.

    The n = 0 block is diagonal already (mean density and velocity frozen,
    stress relaxing): Gamma_0 = I with eigenvalues (0, 0, -1/kappa).  The
    other inverses come from `gamma_inverse`, so an ill-conditioned Gamma_n
    raises NumericalFailure and the flow is never silently wrong.
    """
    ns = np.arange(-N, N + 1)
    nz = ns != 0
    lam = np.tile(np.array([0.0, 0.0, -1.0 / p.kappa], dtype=complex), (ns.size, 1))
    gamma = np.tile(np.eye(3, dtype=complex), (ns.size, 1, 1))
    gamma_inv = gamma.copy()
    tab = spectral_table(p, ns[nz]).require_simple()
    lam[nz], gamma[nz], gamma_inv[nz] = tab.lambdas, tab.gamma, gamma_inverse(tab)
    return lam, gamma, gamma_inv


def evolve(
    p: FluidParams,
    state0: SpectralState,
    T: float,
    forcing=None,
    record_times=None,
):
    """Propagate a state over [0, T], optionally with modal forcing.

    The forcing of mode n is a fixed actuator column times a scalar signal.
    forcing(ts) returns the pair (columns, signal): columns (2N+1, 3) holds
    each mode's actuator in weighted Fourier coordinates and signal
    (2N+1, len(ts)) each mode's signal at the times ts, row i for mode
    i - N.  It is called once per record interval [t0, t1] with dt > 0,
    with that interval's composite Gauss-Legendre nodes
    (ceil(dt * PANELS_PER_UNIT) panels of GL_POINTS nodes each, at most
    MAX_PANELS), and the variation-of-constants integral of every mode is
    summed over the nodes in eigen-coordinates.  Returns
    (TrajectoryRecord, final SpectralState).
    """
    if record_times is None:
        record_times = np.linspace(0.0, T, 65)
    record_times = np.asarray(record_times, dtype=float)
    if record_times[0] != 0.0 or (T > 0 and record_times[-1] != T):
        raise ValidationError("record_times must start at 0 and end at T")
    dts = np.diff(record_times)
    panels = np.ceil(dts.max(initial=0.0) * PANELS_PER_UNIT)
    if forcing is not None and panels > MAX_PANELS:
        raise ValidationError(f"a record interval of length {dts.max():.3e} needs "
                              f"{panels:.3e} quadrature panels, more than {MAX_PANELS}")

    N = state0.N
    lam, gamma, gamma_inv = _modal_basis(p, N)
    xs, ws = leggauss(GL_POINTS)
    sw = np.sqrt(z_weights(p))

    current = state0.coeffs * sw
    power = np.empty((len(record_times), 3))
    power[0] = np.sum(np.abs(current) ** 2, axis=0)
    for k, dt in enumerate(dts, start=1):
        t0, t1 = record_times[k - 1], record_times[k]
        d = np.exp(lam * dt) * np.einsum("mij,mj->mi", gamma, current)
        if forcing is not None and dt > 0:
            npan = max(1, int(np.ceil(dt * PANELS_PER_UNIT)))
            half = dt / (2 * npan)
            mids = t0 + dt * np.arange(npan) / npan + half
            s = (mids[:, None] + half * xs).ravel()
            columns, signal = (np.asarray(a, dtype=complex) for a in forcing(s))
            if columns.shape != (2 * N + 1, 3) or signal.shape != (2 * N + 1, s.size):
                raise ValidationError(
                    f"forcing returned shapes {columns.shape} and {signal.shape}, "
                    f"expected {(2 * N + 1, 3)} and {(2 * N + 1, s.size)}"
                )
            e = lam[:, :, None] * (t1 - s)
            np.exp(e, out=e)
            d += (np.einsum("mij,mj->mi", gamma, columns)
                  * np.einsum("mik,mk->mi", e, signal * np.tile(half * ws, npan)))
        current = np.einsum("mij,mj->mi", gamma_inv, d)
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


def synthesize_physical(state: SpectralState, M: int):
    """Sample (rho, u, S) on M uniform grid points by inverse Fourier synthesis."""
    if M < 2 * state.N + 1:
        raise GridTooCoarse(f"grid M={M} cannot carry N={state.N}")
    spec = np.zeros((3, M), dtype=complex)
    spec[:, np.arange(-state.N, state.N + 1) % M] = state.coeffs.T
    fields = np.fft.ifft(spec * M / np.sqrt(TWO_PI), axis=1)
    x = TWO_PI * np.arange(M) / M
    return x, fields


def random_state(
    p: FluidParams,
    N: int,
    subspace: str = "Zm",
    seed: int = 0,
) -> SpectralState:
    """Seeded random real state of unit energy norm in the requested
    subspace: its n = 0 triple is random in Z, a random density mean alone
    in Zm and zero in Zmm."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((2 * N + 1, 3), dtype=complex)
    for n in range(1, N + 1):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coeffs[N + n] = c
        coeffs[N - n] = np.conj(c)
    if subspace == "Zm":
        coeffs[N, 0] = rng.standard_normal()
    elif subspace == "Z":
        coeffs[N] = rng.standard_normal(3)
    state = SpectralState(N=N, coeffs=coeffs, subspace=subspace)
    state.coeffs /= energy_norm(state, p)
    return state
