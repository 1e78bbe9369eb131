"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array length does not match the grid it is supposed to live on."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class DegenerateInputError(ValueError):
    """An input makes a required denominator vanish."""


class DivergenceError(ArithmeticError):
    """An iteration produced non-finite values."""


class DeflationSolveError(ArithmeticError):
    """The deflated linear solve failed to reach its tolerance."""


class BracketError(ValueError):
    """A root bracket does not enclose a sign change."""


class BranchError(RuntimeError):
    """Branch continuation could not be started."""


class BlowUpDetected(RuntimeError):
    """Time integration produced non-finite values.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, time: float):
        super().__init__(f"non-finite field detected at t={time:g}")
        self.time = time
