"""Learning automata with artificial non-absorbing barriers on 2x2 games.

The package has four layers: ``game`` (payoff matrices, equilibrium
analysis), ``learner`` (learning rate and barrier of a player),
``dynamics`` (drift field, Jacobian, ODE integration, fixed points) and
``harness`` (the seeded Monte Carlo engine that samples actions and
feedback and applies the barrier update).  ``cli`` exposes everything as
the ``barrier-la`` command and writes its JSON and CSV output.
"""

from .dynamics import (
    DriftValue,
    FixedPoint,
    Stability,
    StepTooLarge,
    Trajectory,
    fixed_points,
    integrate,
    jacobian,
    vector_field,
)
from .game import (
    CaseKind,
    DegenerateGame,
    EquilibriumReport,
    GameSpec,
    JointState,
    Model,
    NotInSimplex,
    PayoffMatrix,
    PRESETS,
    classify,
    equilibrium_report,
    load_game,
    mixed_equilibrium,
    preset,
    pure_equilibria,
)
from .harness import (
    BasinSplit,
    NotCase3,
    SimConfig,
    basin_split,
    error_table,
    run_ensemble,
    run_game,
    terminal_states,
)
from .learner import LearnerConfig

__version__ = "0.1.0"
