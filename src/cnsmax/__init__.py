"""Spectral controllability and stabilization toolkit for the 1D linearized
compressible Navier-Stokes system with Maxwell stress relaxation on (0, 2*pi)
with periodic boundary data."""

__version__ = "0.1.0"

from .errors import (
    CnsmaxError,
    DegenerateWindow,
    GridTooCoarse,
    HypothesisViolated,
    IllConditioned,
    MultiplicityDetected,
    NumericalFailure,
    ObservationVanished,
    OmegaTooSmall,
    StepTooLarge,
    ValidationError,
)
from .model import DerivedConstants, FluidParams, derive_constants, validate

# the cubic kernels are NumPy only; the name stays for run provenance records
kernel_backend = "python"

__all__ = [
    "__version__",
    "kernel_backend",
    "FluidParams",
    "DerivedConstants",
    "derive_constants",
    "validate",
    "CnsmaxError",
    "ValidationError",
    "NumericalFailure",
    "MultiplicityDetected",
    "ObservationVanished",
    "IllConditioned",
    "OmegaTooSmall",
    "StepTooLarge",
    "HypothesisViolated",
    "GridTooCoarse",
    "DegenerateWindow",
]
