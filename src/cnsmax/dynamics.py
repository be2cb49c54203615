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
    (ceil(dt * panels_per_unit) panels of gl_points nodes each), and the
    variation-of-constants integral is summed over the nodes for all modes
    at once.  Returns (TrajectoryRecord, final SpectralState).
    """
    if record_times is None:
        record_times = np.linspace(0.0, T, 65)
    record_times = np.asarray(record_times, dtype=float)
    if record_times[0] != 0.0 or (T > 0 and record_times[-1] != T):
        raise ValidationError("record_times must start at 0 and end at T")

    N = state0.N
    if forcing is None:
        modes = sorted(state0.coeffs)
    else:
        modes = list(range(-N, N + 1))
    prop = _ModePropagator.of_modes(p, modes)
    xs, ws = leggauss(gl_points)
    w = z_weights(p)
    one = np.ones(1)

    current = np.array([state0.coeff(n) for n in modes], dtype=complex).reshape(-1, 3)
    current *= np.sqrt(w)
    power = np.empty((len(record_times), 3))
    power[0] = np.sum(np.abs(current) ** 2, axis=0)
    for k in range(1, len(record_times)):
        t0, t1 = record_times[k - 1], record_times[k]
        dt = t1 - t0
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

    final = SpectralState(
        N=N,
        coeffs=dict(zip(modes, current / np.sqrt(w))),
        subspace="Z",
    )
    norms = np.sqrt(power / w)
    rec = TrajectoryRecord(
        times=record_times,
        energies=power.sum(axis=1),
        norm_rho=norms[:, 0],
        norm_u=norms[:, 1],
        norm_S=norms[:, 2],
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
