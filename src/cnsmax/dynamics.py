"""Truncated states and exact modal propagation (free, forced, adjoint).

States hold Fourier coefficients of (rho, u, S) in the orthonormal scalar
basis e^{inx}/sqrt(2*pi).  The generator is block diagonal over modes, so
propagation is exact modal exponentiation; time grids exist only for
recording trajectories and for the variation-of-constants quadrature of
forced runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from .errors import GridTooCoarse, ValidationError
from .model import FluidParams
from .spectral import TWO_PI, ModeEigenSystem, mode_matrix, spectral_table, z_weights

SUBSPACES = ("Z", "Zm", "Zmm")


@dataclass
class SpectralState:
    """Truncated Fourier representation of (rho, u, S).

    coeffs maps n in [-N, N] to a complex triple; missing modes are zero.
    Subspace flags: "Zm" forces zero-mean u and S (their n = 0 coefficients
    vanish); "Zmm" forces the whole n = 0 coefficient to vanish.
    """

    N: int
    coeffs: dict[int, np.ndarray] = field(default_factory=dict)
    subspace: str = "Z"

    def __post_init__(self):
        if self.subspace not in SUBSPACES:
            raise ValidationError(f"unknown subspace {self.subspace!r}")
        clean = {}
        for n, c in self.coeffs.items():
            if abs(n) > self.N:
                raise ValidationError(f"mode {n} outside truncation N={self.N}")
            clean[int(n)] = np.asarray(c, dtype=complex).reshape(3)
        self.coeffs = clean
        zero = self.coeffs.get(0)
        if zero is not None:
            if self.subspace == "Zm" and np.any(zero[1:] != 0):
                raise ValidationError("Zm state must have zero-mean u and S")
            if self.subspace == "Zmm" and np.any(zero != 0):
                raise ValidationError("Zmm state must have a zero n=0 coefficient")

    def coeff(self, n: int) -> np.ndarray:
        return self.coeffs.get(n, np.zeros(3, dtype=complex))

    def copy(self) -> "SpectralState":
        return SpectralState(
            N=self.N,
            coeffs={n: c.copy() for n, c in self.coeffs.items()},
            subspace=self.subspace,
        )


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
    w = z_weights(p)
    total = 0.0
    for c in state.coeffs.values():
        total += float(np.sum(w * np.abs(c) ** 2))
    return float(np.sqrt(total))


def component_norms(state: SpectralState) -> tuple[float, float, float]:
    """Plain L^2 norms of the three components."""
    acc = np.zeros(3)
    for c in state.coeffs.values():
        acc += np.abs(c) ** 2
    return tuple(float(v) for v in np.sqrt(acc))


def _to_weighted(p: FluidParams, c: np.ndarray) -> np.ndarray:
    return np.sqrt(z_weights(p)) * c


def _from_weighted(p: FluidParams, c: np.ndarray) -> np.ndarray:
    return c / np.sqrt(z_weights(p))


class _ModePropagator:
    """Cached eigen-decomposition of one mode's generator block."""

    COND_LIMIT = 1e8

    def __init__(self, p: FluidParams, mode: ModeEigenSystem):
        self.p = p
        self.n = mode.n
        self.lambdas = mode.lambdas
        self.gamma = mode.gamma
        self.cond = float(np.linalg.cond(self.gamma))
        self.use_expm = self.cond > self.COND_LIMIT
        if not self.use_expm:
            self.gamma_inv = np.linalg.inv(self.gamma)

    def apply(self, c: np.ndarray, t: float) -> np.ndarray:
        if self.use_expm:
            return expm(t * mode_matrix(self.p, self.n)) @ c
        d = self.gamma @ c
        d = np.exp(t * self.lambdas) * d
        return self.gamma_inv @ d


def propagate_mode(p: FluidParams, mode: ModeEigenSystem, c, t: float) -> np.ndarray:
    """Flow e^{t A_n} c in the weighted Fourier coordinates of mode n.

    Diagonalization through the basis-change matrix; scaling-and-squaring
    fallback when that matrix is too ill-conditioned (not expected for valid
    parameters, but never silently wrong).
    """
    return _ModePropagator(p, mode).apply(np.asarray(c, dtype=complex), t)


def _zero_mode_flow(p: FluidParams, c0: np.ndarray, t: float) -> np.ndarray:
    """n = 0 block: mean density and velocity frozen, stress relaxes."""
    out = c0.copy()
    out[2] = c0[2] * np.exp(-t / p.kappa)
    return out


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

    forcing(n, t) must return the forcing triple of mode n at time t in
    weighted Fourier coordinates; it is sampled on the composite
    Gauss-Legendre grid.  Returns (TrajectoryRecord, final SpectralState).
    """
    if record_times is None:
        record_times = np.linspace(0.0, T, 65)
    record_times = np.asarray(record_times, dtype=float)
    if record_times[0] != 0.0 or (T > 0 and record_times[-1] != T):
        raise ValidationError("record_times must start at 0 and end at T")

    modes = sorted(state0.coeffs)
    if forcing is not None:
        modes = sorted(set(modes) | set(range(-state0.N, state0.N + 1)))
    nonzero = [n for n in modes if n != 0]
    tab = spectral_table(p, nonzero).require_simple()
    props = {n: _ModePropagator(p, tab.mode(i)) for i, n in enumerate(nonzero)}
    xs, ws = leggauss(gl_points)

    current = {n: _to_weighted(p, state0.coeff(n)) for n in modes}
    w = z_weights(p)

    states = [dict(current)]
    for k in range(1, len(record_times)):
        t0, t1 = record_times[k - 1], record_times[k]
        dt = t1 - t0
        for n in modes:
            c = current[n]
            if n == 0:
                cnew = _zero_mode_flow(p, c, dt)
            else:
                cnew = props[n].apply(c, dt)
            if forcing is not None and dt > 0:
                npan = max(1, int(np.ceil(dt * panels_per_unit)))
                acc = np.zeros(3, dtype=complex)
                for j in range(npan):
                    a = t0 + dt * j / npan
                    half = dt / (2 * npan)
                    mid = a + half
                    for x_, w_ in zip(xs, ws):
                        s = mid + half * x_
                        g = np.asarray(forcing(n, s), dtype=complex)
                        if n == 0:
                            acc += half * w_ * _zero_mode_flow(p, g, t1 - s)
                        else:
                            acc += half * w_ * props[n].apply(g, t1 - s)
                cnew = cnew + acc
            current[n] = cnew
        states.append(dict(current))

    energies, nr, nu, ns = [], [], [], []
    for snap in states:
        e = sum(float(np.sum(np.abs(c) ** 2)) for c in snap.values())
        energies.append(e)
        acc = np.zeros(3)
        for c in snap.values():
            acc += np.abs(c) ** 2 / w
        nr.append(np.sqrt(acc[0]))
        nu.append(np.sqrt(acc[1]))
        ns.append(np.sqrt(acc[2]))

    final = SpectralState(
        N=state0.N,
        coeffs={n: _from_weighted(p, c) for n, c in current.items()},
        subspace="Z",
    )
    rec = TrajectoryRecord(
        times=record_times,
        energies=np.array(energies),
        norm_rho=np.array(nr),
        norm_u=np.array(nu),
        norm_S=np.array(ns),
    )
    return rec, final


def adjoint_mode_coefficients(p: FluidParams, state: SpectralState) -> dict:
    """Expand a state in the adjoint eigenbasis: c_{n,l} = <z, xi_{n,l}>_Z."""
    ns = [n for n in state.coeffs if n != 0]
    xi = spectral_table(p, ns).require_simple().xi_coeffs
    # state coefficient triple r relates to plain components v by v = r/sqrt(2*pi)
    v = np.array([state.coeffs[n] for n in ns]).reshape(-1, 3) / np.sqrt(TWO_PI)
    out = TWO_PI * np.einsum("mp,mlp->ml", z_weights(p) * v, np.conj(xi))
    return dict(zip(ns, out))


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

    dual = adjoint_mode_coefficients(p, terminal_state)
    tab = spectral_table(p, list(dual)).require_simple()
    cl = np.array(list(dual.values())).reshape(-1, 3)
    star = tab.xi_star_coeffs / tab.psi[..., None]
    zero = terminal_state.coeff(0)

    states = []
    for t in record_times:
        fac = cl * np.exp(np.conj(tab.lambdas) * (T - t))
        v = np.einsum("ml,mlp->mp", fac, star) * np.sqrt(TWO_PI)
        coeffs = dict(zip(dual, v))
        if np.any(zero != 0):
            c0 = zero.copy()
            c0[2] = zero[2] * np.exp(-(T - t) / p.kappa)
            coeffs[0] = c0
        states.append(
            SpectralState(N=terminal_state.N, coeffs=coeffs, subspace="Z")
        )

    energies = [energy_norm(s, p) ** 2 for s in states]
    comp = [component_norms(s) for s in states]
    rec = TrajectoryRecord(
        times=record_times,
        energies=np.array(energies),
        norm_rho=np.array([c[0] for c in comp]),
        norm_u=np.array([c[1] for c in comp]),
        norm_S=np.array([c[2] for c in comp]),
    )
    return rec, states


def synthesize_physical(state: SpectralState, M: int):
    """Sample (rho, u, S) on M uniform grid points by inverse Fourier synthesis."""
    if M < 2 * state.N + 1:
        raise GridTooCoarse(f"grid M={M} cannot carry N={state.N}")
    spec = np.zeros((3, M), dtype=complex)
    for n, c in state.coeffs.items():
        spec[:, n % M] += c
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
    coeffs = {}
    for n in range(-N, N + 1):
        c = spec[:, n % M]
        if np.any(c != 0):
            coeffs[n] = c.copy()
    return SpectralState(N=N, coeffs=coeffs, subspace=subspace)


def random_state(
    p: FluidParams,
    N: int,
    subspace: str = "Zm",
    seed: int = 0,
    real_valued: bool = True,
) -> SpectralState:
    """Seeded random state of unit energy norm in the requested subspace."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(1, N + 1):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coeffs[n] = c
        coeffs[-n] = np.conj(c) if real_valued else (
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
    if subspace == "Zm":
        coeffs[0] = np.array([rng.standard_normal(), 0.0, 0.0], dtype=complex)
    state = SpectralState(N=N, coeffs=coeffs, subspace=subspace)
    scale = energy_norm(state, p)
    for c in state.coeffs.values():
        c /= scale
    return state
