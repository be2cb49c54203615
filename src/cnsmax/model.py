"""Physical parameters of the linearized barotropic flow with stress relaxation.

The model is the 1D compressible Navier-Stokes system linearized around the
constant state (rho_s, u_s, 0) on (0, 2*pi), with the Newtonian stress law
replaced by the relaxation law  kappa*dS/dt + S = mu*du/dx.  Everything
downstream is driven by the five constants held in `FluidParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# The truncated state spaces (`dynamics.SpectralState`): all of L^2, "Zm"
# with zero-mean u and S, "Zmm" with a zero n = 0 mode.
SUBSPACES = ("Z", "Zm", "Zmm")
# The traces a single boundary actuator sets (`control`, `stabilize`).
BOUNDARY_KINDS = ("density", "velocity", "stress")


@dataclass(frozen=True)
class FluidParams:
    """Reference state and material constants.

    The effective pressure coefficient b may be given directly, or through a
    power-law pressure p = a*rho^gamma, in which case b = a*gamma*rho_s^(gamma-2).
    Exactly one of the two forms must be supplied.
    """

    rho_s: float
    u_s: float
    kappa: float
    mu: float
    b: float | None = None
    a: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        errs = validate(self)
        if errs:
            raise ValidationError("; ".join(errs))

    @property
    def b_eff(self) -> float:
        return _b_eff(self)


@dataclass(frozen=True)
class DerivedConstants:
    b: float
    big_d: float      # discriminant of the real characteristic-slope cubic
    inv_kappa: float  # trace of the real parts of each mode's spectrum


def validate(p) -> list[str]:
    """Collect invariant violations without raising; empty list means valid.

    Accepts either a FluidParams or anything with the same attributes, so it
    can vet raw config material before constructing the frozen dataclass.
    """
    errs = []
    for name in ("rho_s", "u_s", "kappa", "mu"):
        v = getattr(p, name, None)
        if v is None or not v > 0:
            errs.append(f"{name} must be positive")
    b = getattr(p, "b", None)
    a = getattr(p, "a", None)
    gamma = getattr(p, "gamma", None)
    if b is not None:
        if not b > 0:
            errs.append("b must be positive")
        if a is not None or gamma is not None:
            errs.append("give either b or (a, gamma), not both")
    else:
        if a is None or gamma is None:
            errs.append("pressure spec requires b or both of (a, gamma)")
        else:
            if not a > 0:
                errs.append("a must be positive")
            if not gamma >= 1:
                errs.append("gamma must be >= 1")
    if not errs:
        try:
            finite = all(math.isfinite(v) for v in _derived(p))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            errs.append("b and the derived constants must be finite")
    return errs


def _b_eff(p) -> float:
    if p.b is not None:
        return float(p.b)
    return float(p.a * p.gamma * p.rho_s ** (p.gamma - 2.0))


def _derived(p) -> tuple[float, float, float]:
    """b, the discriminant big_d and 1/kappa; may overflow or divide by 0."""
    b = _b_eff(p)
    rho_s, u_s, kap, mu = p.rho_s, p.u_s, p.kappa, p.mu
    big_d = (
        4.0 * b * rho_s * (b * rho_s - u_s**2) ** 2
        + mu**2 * u_s**2 / (kap**2 * rho_s**2)
        + 20.0 * mu * b * u_s**2 / kap
        + 12.0 * mu * b**2 * rho_s / kap
        + 12.0 * mu**2 * b / (kap**2 * rho_s)
        + 4.0 * mu**3 / (kap**3 * rho_s**3)
    )
    return b, big_d, 1.0 / kap


def derive_constants(p: FluidParams) -> DerivedConstants:
    """Resolve b and evaluate the discriminant of the slope cubic.

    The cubic r^3 + 2*u_s*r^2 + (u_s^2 - b*rho_s - mu/(kappa*rho_s))*r
    - mu*u_s/(kappa*rho_s) governs the asymptotic phase slopes; its
    discriminant expands into six manifestly positive terms, so the three
    slopes are always real and distinct for valid parameters.
    """
    errs = validate(p)
    if errs:
        raise ValidationError("; ".join(errs))
    return DerivedConstants(*_derived(p))
