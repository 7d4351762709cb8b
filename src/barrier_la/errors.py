"""Exception types shared across the package.

All validation-style failures derive from ValueError so the CLI can map
them to exit code 1; numerical failures map to exit code 2.
"""


class DegenerateGame(ValueError):
    """A payoff tie makes the equilibrium taxonomy undefined."""


class NotInSimplex(ValueError):
    """A computed mixed-strategy coordinate fell outside [0, 1]."""


class WrongModel(ValueError):
    """Operation called on a game with the wrong feedback model."""


class FeedbackOutOfRange(ValueError):
    """Scalar feedback outside [0, 1]."""


class EmptyTrajectory(ValueError):
    """Trajectory contains no samples."""


class NotCase3(ValueError):
    """Operation requires a game with two pure equilibria and one mixed."""


class StepTooLarge(ArithmeticError):
    """An RK4 stage left the sanity box [-0.1, 1.1]^2 or a state left [0, 1]^2."""
