"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its admissible range or does not fit its grid."""


class DegenerateInputError(ValueError):
    """An input makes a required denominator vanish."""


class DivergenceError(ArithmeticError):
    """An iteration produced non-finite values."""


class DeflationSolveError(ArithmeticError):
    """The deflated linear solve failed to reach its tolerance."""


class BranchError(RuntimeError):
    """A solve or a branch continuation did not converge."""


class BlowUpDetected(DivergenceError):
    """Time integration produced non-finite values.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, time: float):
        super().__init__(f"non-finite field detected at t={time:g}")
        self.time = time
