"""Learning automata with artificial non-absorbing barriers on 2x2 games.

The package has four layers: ``game`` (payoff matrices, equilibrium
analysis), ``learner`` (learning rate and barrier of a player),
``dynamics`` (drift field, Jacobian, ODE integration, fixed points) and
``harness`` (the seeded Monte Carlo engine that samples actions and
feedback and applies the barrier update).  ``cli`` exposes everything as
the ``barrier-la`` command.
"""

from .dynamics import (
    DriftValue,
    FixedPoint,
    Stability,
    Trajectory,
    TrajectoryKind,
    fixed_points,
    integrate,
    jacobian,
    vector_field,
)
from .errors import (
    DegenerateGame,
    NotCase3,
    NotInSimplex,
    StepTooLarge,
)
from .game import (
    CaseKind,
    EquilibriumReport,
    GameSpec,
    JointState,
    Model,
    PayoffMatrix,
    PRESETS,
    classify,
    dump_game,
    equilibrium_report,
    load_game,
    mixed_equilibrium,
    preset,
    pure_equilibria,
)
from .harness import (
    BasinSplit,
    ErrorTableRow,
    SimConfig,
    basin_split,
    error_table,
    run_ensemble,
    run_game,
    steady_state_error,
    terminal_states,
    write_error_table_csv,
    write_trajectory_csv,
)
from .learner import LearnerConfig

__version__ = "0.1.0"
