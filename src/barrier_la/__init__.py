"""Learning automata with artificial non-absorbing barriers on 2x2 games.

The package has four layers: ``game`` (payoff matrices, feedback,
equilibrium analysis), ``learner`` (barrier-bounded strategy updates),
``dynamics`` (drift field, Jacobian, ODE integration, fixed points) and
``harness`` (seeded Monte Carlo experiments).  ``cli`` exposes everything
as the ``barrier-la`` command.
"""

from .dynamics import (
    BoundaryDrives,
    DriftValue,
    FixedPoint,
    Stability,
    Trajectory,
    TrajectoryKind,
    drives,
    expected_increment_oracle,
    fixed_points,
    integrate,
    jacobian,
    vector_field,
)
from .errors import (
    DegenerateGame,
    EmptyTrajectory,
    FeedbackOutOfRange,
    NotCase3,
    NotInSimplex,
    StepTooLarge,
    WrongModel,
)
from .game import (
    ActionPair,
    CaseKind,
    EquilibriumReport,
    Feedback,
    GameSpec,
    JointState,
    Model,
    PayoffMatrix,
    PRESETS,
    RewardPenalty,
    Scalar,
    classify,
    deterministic_feedback,
    dump_game,
    equilibrium_report,
    load_game,
    mixed_equilibrium,
    preset,
    pure_equilibria,
    sample_feedback,
)
from .harness import (
    BasinSplit,
    ErrorTableRow,
    SimConfig,
    basin_split,
    error_table,
    per_run_seed,
    run_ensemble,
    run_game,
    steady_state_error,
    terminal_states,
    write_error_table_csv,
    write_trajectory_csv,
)
from .learner import LearnerConfig, MixedStrategy, choose_action, lri_update, s_update

__version__ = "0.1.0"
