"""Exception hierarchy shared across the toolkit."""


class CnsmaxError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CnsmaxError):
    """Physical parameters or configuration violate an invariant."""


class NumericalFailure(CnsmaxError):
    """A numerical routine failed its own accuracy guard."""


class MultiplicityDetected(NumericalFailure):
    """A mode carries a (near-)multiple eigenvalue; downstream formulas degenerate."""

    def __init__(self, n, min_gap, min_q):
        self.n = n
        self.min_gap = min_gap
        self.min_q = min_q
        super().__init__(
            f"mode n={n}: eigenvalue multiplicity detected "
            f"(min gap {min_gap:.3e}, min |q_n| {min_q:.3e})"
        )


class ObservationVanished(NumericalFailure):
    """A boundary observation functional evaluated to (numerically) zero."""


class IllConditioned(NumericalFailure):
    """A Gramian or feedback matrix is too ill-conditioned to invert reliably."""

    def __init__(self, what, cond, limit):
        self.what = what
        self.cond = cond
        self.limit = limit
        super().__init__(f"{what}: condition estimate {cond:.3e} exceeds {limit:.1e}")


class OmegaTooSmall(ValidationError):
    """Requested feedback shift does not dominate the reversed-flow growth bound."""


class StepTooLarge(NumericalFailure):
    """Closed-loop time step failed the dt vs dt/2 self-convergence check."""


class HypothesisViolated(ValidationError):
    """Experiment preconditions (support geometry vs horizon) cannot be met."""


class GridTooCoarse(ValidationError):
    """Physical-space grid cannot represent the requested truncation."""


class DegenerateWindow(NumericalFailure):
    """Decay-rate fit window contains too few usable samples."""
