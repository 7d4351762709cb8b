"""Seeded Monte Carlo engine: single games, ensembles, error tables, basins.

Reproducibility contract
------------------------
Each run owns one numpy PCG64 generator seeded with ``seed XOR run_index``
and consumes a fixed number of uniforms per iteration, in a fixed order:

    u0: player A action draw        u1: player B action draw
    u2: player A feedback draw      u3: player B feedback draw

P-model games consume all four draws per step, S-model games only the two
action draws.  Small batches run as plain per-run Python loops; large
ensembles run in numpy lockstep across runs.  Both paths perform the same
IEEE operations on the same stream, so results are identical bit for bit
regardless of which path executes, and ensembles are reproducible
independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import FixedPoint, Stability, Trajectory, TrajectoryKind, fixed_points
from .errors import EmptyTrajectory, NotCase3
from .game import CaseKind, GameSpec, JointState, Model, classify, pure_equilibria
from .learner import LearnerConfig

# Above this many runs the numpy lockstep path beats per-run Python loops.
_VECTOR_MIN_RUNS = 33
# Uniform-draw buffer budget per chunk, in numbers drawn.  The scalar path
# boxes its draws into a Python list, so it uses a smaller chunk.  Chunk
# boundaries never affect results: each generator's stream is continuous.
_CHUNK_BUDGET = 1 << 21
_CHUNK_BUDGET_SCALAR = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """One simulated game: players, start state, length, seed, recording."""

    spec: GameSpec
    cfg_a: LearnerConfig
    cfg_b: LearnerConfig
    x0: JointState
    steps: int
    seed: int
    record_stride: int = 100

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        for name, v, cfg in (("p1", self.x0.p1, self.cfg_a), ("q1", self.x0.q1, self.cfg_b)):
            if not cfg.p_min <= v <= cfg.p_max:
                raise ValueError(
                    f"x0.{name}={v} outside the barrier interval [{cfg.p_min}, {cfg.p_max}]"
                )


@dataclass(frozen=True)
class ErrorTableRow:
    """One steady-state error measurement for a (p_max, theta) cell."""

    p_max: float
    theta: float
    error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.error <= math.sqrt(2.0) + 1e-12:
            raise ValueError(f"error {self.error} outside [0, sqrt(2)]")


@dataclass(frozen=True)
class BasinSplit:
    """Empirical fraction of runs captured by each stable fixed point."""

    points: tuple[FixedPoint, ...]
    fractions: tuple[float, ...]
    runs: int


def per_run_seed(seed: int, run_index: int) -> int:
    """Seed for one ensemble replica: base seed XOR run index."""
    return seed ^ run_index


def run_game(c: SimConfig) -> Trajectory:
    """Simulate one game and return the recorded (step, state) sequence.

    Per iteration both players choose actions, the environment answers per
    the game's feedback model, and each player applies its update rule.
    The state is recorded at step 0, every record_stride steps, and at the
    final step.  Bit-reproducible for a given SimConfig.
    """
    t, states = _simulate_single(c, c.seed)
    return Trajectory(TrajectoryKind.SIMULATED, t, states)


def run_ensemble(c: SimConfig, runs: int) -> Trajectory:
    """Pointwise mean trajectory over independent replicas.

    Replica k uses seed ``c.seed XOR k``; aggregation is performed in a
    fixed order so the result does not depend on how runs are scheduled.
    With runs=1 the output equals run_game(c) exactly.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    t, mean, _ = _simulate_batch(c, runs)
    return Trajectory(TrajectoryKind.ENSEMBLE_MEAN, t, mean)


def terminal_states(c: SimConfig, runs: int) -> np.ndarray:
    """Final (p1, q1) of each replica, shape (runs, 2)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    _, _, term = _simulate_batch(c, runs)
    return term


def steady_state_error(traj: Trajectory, target: JointState) -> float:
    """Euclidean distance between the late-time mean state and the target.

    The mean is taken over the last 10% of the recorded samples (at least
    one sample).
    """
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    m = _late_mean(traj)
    return float(math.hypot(m[0] - target.p1, m[1] - target.q1))


def _late_mean(traj: Trajectory) -> np.ndarray:
    """Mean state over the last 10% of the samples (at least one)."""
    k = max(1, math.ceil(0.1 * len(traj)))
    return traj.x[-k:].mean(axis=0)


def error_table(
    spec: GameSpec,
    target: Optional[JointState],
    p_max_values: Sequence[float],
    theta_values: Sequence[float],
    steps: int,
    seed: int,
    x0: Optional[JointState] = None,
    record_stride: int = 100,
) -> list[ErrorTableRow]:
    """One single-run steady-state error per (p_max, theta) cell.

    Rows follow the input order, p_max outer and theta inner.  All cells
    share the base seed, so differences between cells reflect the
    parameters rather than the noise stream.  When target is None each
    cell is scored against the pure-equilibrium corner nearest its own
    late-time mean, which reports 0.0 when a run absorbs at a corner.
    """
    if not p_max_values or not theta_values:
        raise ValueError("p_max_values and theta_values must be non-empty")
    if target is None and not pure_equilibria(spec):
        raise ValueError("target is required for a game with no pure equilibria")
    start = x0 if x0 is not None else JointState(0.5, 0.5)
    rows = []
    for p_max in p_max_values:
        for theta in theta_values:
            cfg = LearnerConfig(theta=theta, p_max=p_max)
            c = SimConfig(spec, cfg, cfg, start, steps, seed, record_stride)
            traj = run_game(c)
            tgt = target if target is not None else _nearest_corner(spec, traj)
            rows.append(ErrorTableRow(p_max, theta, steady_state_error(traj, tgt)))
    return rows


def _nearest_corner(spec: GameSpec, traj: Trajectory) -> JointState:
    m = _late_mean(traj)
    corners = pure_equilibria(spec)
    return min(corners, key=lambda c: math.hypot(m[0] - c.p1, m[1] - c.q1))


def basin_split(
    spec: GameSpec,
    cfg: LearnerConfig,
    x0: JointState,
    runs: int,
    steps: int,
    seed: int,
) -> BasinSplit:
    """Fraction of replicas ending nearest each stable fixed point.

    Only meaningful for games with two pure equilibria and one mixed
    equilibrium; anything else raises NotCase3.
    """
    if classify(spec) is not CaseKind.TWO_PURE_ONE_MIXED:
        raise NotCase3("basin_split requires a game with two pure equilibria")
    stable = [fp for fp in fixed_points(spec, cfg.p_max) if fp.stability is Stability.STABLE]
    if not stable:
        raise NotCase3("no stable fixed points found")
    c = SimConfig(spec, cfg, cfg, x0, steps, seed, record_stride=max(1, steps or 1))
    term = terminal_states(c, runs)
    centers = np.array([[fp.x.p1, fp.x.q1] for fp in stable])
    d = np.hypot(
        term[:, 0:1] - centers[None, :, 0], term[:, 1:2] - centers[None, :, 1]
    )
    nearest = np.argmin(d, axis=1)
    counts = np.bincount(nearest, minlength=len(stable))
    fractions = tuple(float(v) / runs for v in counts)
    return BasinSplit(tuple(stable), fractions, runs)


# ----------------------------------------------------------------------
# Engine internals.  The scalar and vector paths below must perform the
# same IEEE-754 operations in the same order on the same uniform stream;
# any edit to one side must be mirrored on the other.
# ----------------------------------------------------------------------


def _game_constants(c: SimConfig):
    """The constants both engine paths read: payoff entries of R and C, the
    P-model flag, the two learning rates and the two players' barrier targets."""
    R, C, a, b = c.spec.R, c.spec.C, c.cfg_a, c.cfg_b
    return (
        (R.r11, R.r12, R.r21, R.r22),
        (C.r11, C.r12, C.r21, C.r22),
        c.spec.model is Model.P,
        (a.theta, b.theta),
        (a.p_max, a.p_min, b.p_max, b.p_min),
    )


def _simulate_single(c: SimConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One run as a plain Python loop.  Returns (steps, states (n, 2))."""
    (r11, r12, r21, r22), (c11, c12, c21, c22), ptype, (th_a, th_b), targets = _game_constants(c)
    pmax_a, pmin_a, pmax_b, pmin_b = targets
    p, q = c.x0.p1, c.x0.q1
    stride, steps = c.record_stride, c.steps
    rec = [(0, p, q)]
    g = np.random.default_rng(seed)
    draws = 4 if ptype else 2
    chunk = max(1, _CHUNK_BUDGET_SCALAR // draws)
    done = 0
    while done < steps:
        k = min(chunk, steps - done)
        u = g.random(draws * k).tolist()
        j = 0
        for i in range(1, k + 1):
            a1 = u[j] < p
            b1 = u[j + 1] < q
            if a1:
                ra = r11 if b1 else r12
                ca = c11 if b1 else c12
                tp = pmax_a
            else:
                ra = r21 if b1 else r22
                ca = c21 if b1 else c22
                tp = pmin_a
            tq = pmax_b if b1 else pmin_b
            if ptype:
                fa = 1.0 if u[j + 2] < ra else 0.0
                fb = 1.0 if u[j + 3] < ca else 0.0
                j += 4
            else:
                fa = ra
                fb = ca
                j += 2
            p = p + th_a * fa * (tp - p)
            q = q + th_b * fb * (tq - q)
            t = done + i
            if t % stride == 0 or t == steps:
                rec.append((t, p, q))
        done += k
    arr = np.array(rec)
    return arr[:, 0].astype(np.int64), arr[:, 1:]


def _simulate_batch(c: SimConfig, runs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All replicas of an ensemble.

    Returns (recorded steps, mean states (n, 2), terminal states (runs, 2)).
    """
    if runs < _VECTOR_MIN_RUNS:
        singles = [_simulate_single(c, per_run_seed(c.seed, k)) for k in range(runs)]
        t = singles[0][0]
        stacked = np.stack([s[1] for s in singles])  # (runs, n, 2)
        # Mean along a contiguous axis, matching the vector path's per-step
        # mean over the (runs,) state vector bit for bit.
        by_sample = np.ascontiguousarray(stacked.transpose(1, 2, 0))  # (n, 2, runs)
        mean = by_sample.mean(axis=-1)
        term = stacked[:, -1, :].copy()
        return t, mean, term
    return _simulate_vector(c, runs)


def _simulate_vector(c: SimConfig, runs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy lockstep over runs; one generator per run, chunked draws."""
    (r11, r12, r21, r22), (c11, c12, c21, c22), ptype, (th_a, th_b), targets = _game_constants(c)
    pmax_a, pmin_a, pmax_b, pmin_b = targets
    steps, stride = c.steps, c.record_stride

    gens = [np.random.default_rng(per_run_seed(c.seed, k)) for k in range(runs)]
    p = np.full(runs, c.x0.p1)
    q = np.full(runs, c.x0.q1)
    # Payoffs and targets are selected with masked fills of the exact
    # constants rather than arithmetic, so every per-run value is bitwise
    # the one the scalar path computes.
    a1 = np.empty(runs, dtype=bool)
    b1 = np.empty(runs, dtype=bool)
    both = np.empty(runs, dtype=bool)
    rew_a = np.empty(runs, dtype=bool)
    rew_b = np.empty(runs, dtype=bool)
    rab = np.empty(runs)
    cab = np.empty(runs)
    fa = np.empty(runs)
    fb = np.empty(runs)
    t1 = np.empty(runs)
    t2 = np.empty(runs)

    rec_t = [0]
    rec_mean = [(p.mean(), q.mean())]
    draws = 4 if ptype else 2
    chunk = max(1, _CHUNK_BUDGET // (draws * runs))
    buf = None
    done = 0
    while done < steps:
        k = min(chunk, steps - done)
        if buf is None or buf.shape[1] != k:
            buf = np.empty((runs, k, draws))
        for i, g in enumerate(gens):
            buf[i] = g.random((k, draws))
        # (step, draw, run) layout makes the per-step slices contiguous.
        U = np.ascontiguousarray(buf.transpose(1, 2, 0))
        for i in range(k):
            u = U[i]
            np.less(u[0], p, out=a1)
            np.less(u[1], q, out=b1)
            np.logical_and(a1, b1, out=both)
            np.copyto(rab, r22)
            np.copyto(rab, r12, where=a1)
            np.copyto(rab, r21, where=b1)
            np.copyto(rab, r11, where=both)
            np.copyto(cab, c22)
            np.copyto(cab, c12, where=a1)
            np.copyto(cab, c21, where=b1)
            np.copyto(cab, c11, where=both)
            if ptype:
                np.less(u[2], rab, out=rew_a)
                np.less(u[3], cab, out=rew_b)
                np.multiply(rew_a, th_a, out=fa)
                np.multiply(rew_b, th_b, out=fb)
            else:
                np.multiply(rab, th_a, out=fa)
                np.multiply(cab, th_b, out=fb)
            # p += (theta*feedback) * (target - p); the product order matches
            # the scalar path's theta * f * (target - p) up to commutativity.
            np.copyto(t1, pmin_a)
            np.copyto(t1, pmax_a, where=a1)
            np.subtract(t1, p, out=t1)
            np.multiply(t1, fa, out=t1)
            np.add(p, t1, out=p)
            np.copyto(t2, pmin_b)
            np.copyto(t2, pmax_b, where=b1)
            np.subtract(t2, q, out=t2)
            np.multiply(t2, fb, out=t2)
            np.add(q, t2, out=q)
            t = done + i + 1
            if t % stride == 0 or t == steps:
                rec_t.append(t)
                rec_mean.append((p.mean(), q.mean()))
        done += k
    term = np.stack([p, q], axis=1)
    return np.array(rec_t, dtype=np.int64), np.array(rec_mean), term


# ----------------------------------------------------------------------
# CSV serialization.  Floats carry 17 significant digits so values
# round-trip exactly.
# ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory as CSV: step,p1,q1 (mean_p1/mean_q1 for ensembles)."""
    if traj.kind is TrajectoryKind.ENSEMBLE_MEAN:
        header = "step,mean_p1,mean_q1"
    elif traj.kind is TrajectoryKind.ODE:
        header = "t,p1,q1"
    else:
        header = "step,p1,q1"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        integer_steps = traj.kind is not TrajectoryKind.ODE
        for t, (p1, q1) in zip(traj.t, traj.x):
            t_s = str(int(t)) if integer_steps else _fmt(t)
            fh.write(f"{t_s},{_fmt(p1)},{_fmt(q1)}\n")


def write_error_table_csv(rows: Sequence[ErrorTableRow], path: str | Path) -> None:
    """Write error-table rows as CSV: p_max,theta,error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_max,theta,error\n")
        for row in rows:
            fh.write(f"{_fmt(row.p_max)},{_fmt(row.theta)},{_fmt(row.error)}\n")
