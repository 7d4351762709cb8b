"""Exception types shared across the package.

Validation failures are ValueError, plain or one of the classes below, and
the CLI maps them to exit code 1; numerical failures map to exit code 2.
"""


class DegenerateGame(ValueError):
    """A payoff tie makes the equilibrium taxonomy undefined."""


class NotInSimplex(ValueError):
    """A computed mixed-strategy coordinate fell outside [0, 1]."""


class NotCase3(ValueError):
    """Operation requires a game with two pure equilibria and one mixed."""


class StepTooLarge(ArithmeticError):
    """An RK4 stage left the sanity box [-0.1, 1.1]^2 or a state left [0, 1]^2."""
