import numpy as np
import pytest

from cnsmax import FluidParams


@pytest.fixture(scope="session")
def p1() -> FluidParams:
    """Unit reference parameters used throughout the examples."""
    return FluidParams(rho_s=1.0, u_s=1.0, kappa=1.0, mu=1.0, b=1.0)


@pytest.fixture(scope="session")
def pb() -> FluidParams:
    """A set with b != 1, where a mix-up of b, sqrt(b) and b^2 shows."""
    return FluidParams(rho_s=1.3, u_s=0.7, kappa=0.9, mu=1.7, b=2.1)


def make_params(seed: int) -> FluidParams:
    """Seeded random valid parameter set, moderate dynamic range."""
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=5))
    return FluidParams(
        rho_s=float(vals[0]),
        u_s=float(vals[1]),
        kappa=float(vals[2]),
        mu=float(vals[3]),
        b=float(vals[4]),
    )


def mode_matrix(p: FluidParams, n: int) -> np.ndarray:
    """Generator block of mode n in the weighted orthonormal Fourier frame:
    the dense oracle of the spectral tables and the modal propagator."""
    if n == 0:
        raise ValueError("n must be nonzero")
    b = p.b_eff
    sbr = np.sqrt(b * p.rho_s)
    smr = np.sqrt(p.mu / (p.kappa * p.rho_s))
    i_n = 1j * n
    return np.array(
        [
            [-i_n * p.u_s, -i_n * sbr, 0.0],
            [-i_n * sbr, -i_n * p.u_s, i_n * smr],
            [0.0, i_n * smr, -1.0 / p.kappa],
        ],
        dtype=complex,
    )


def state_of(N: int, modes: dict, subspace: str = "Z"):
    """SpectralState of truncation N from {n: triple}; other modes zero."""
    from cnsmax.dynamics import SpectralState

    coeffs = np.zeros((2 * N + 1, 3), dtype=complex)
    for n, c in modes.items():
        coeffs[n + N] = c
    return SpectralState(N=N, coeffs=coeffs, subspace=subspace)


def complex_state(p: FluidParams, N: int, seed: int):
    """Seeded random Zm state of unit energy norm whose -n coefficients are
    drawn apart from the n ones: it is not conjugate symmetric, so a swap of
    n and -n shows."""
    from cnsmax.dynamics import SpectralState, energy_norm

    rng = np.random.default_rng(seed)
    coeffs = np.zeros((2 * N + 1, 3), dtype=complex)
    for n in range(1, N + 1):
        coeffs[N + n], coeffs[N - n] = (rng.standard_normal(3) + 1j * rng.standard_normal(3)
                                        for _ in range(2))
    coeffs[N, 0] = rng.standard_normal()
    state = SpectralState(N=N, coeffs=coeffs, subspace="Zm")
    state.coeffs /= energy_norm(state, p)
    return state
