"""Seeded Monte Carlo engine: single games, ensembles, error tables, basins.

Reproducibility contract
------------------------
Each run owns one numpy PCG64 generator seeded with ``seed XOR run_index``
and consumes a fixed number of uniforms per iteration, in a fixed order:

    u0: player A action draw        u1: player B action draw
    u2: player A feedback draw      u3: player B feedback draw

P-model games consume all four draws per step, S-model games only the two
action draws.  Small batches run as plain per-run Python loops; large
ensembles run in numpy lockstep across runs.  Both paths read the feedback
and barrier-target tables of ``_game_constants``, indexed by the joint
action, so they perform the same IEEE operations on the same stream:
results are identical bit for bit regardless of which path executes, and
ensembles are reproducible independent of execution order.
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

# From this many runs on the numpy lockstep path beats per-run Python loops.
# Median lockstep/per-run throughput ratio over 9 alternated pairs (case1,
# 3000 steps, stride 100, 2-core x86, numpy 2.4) at 26/28/30/32 runs:
# 0.87/0.91/1.02/1.13 with P feedback, 0.88/1.01/1.00/1.09 with S.
_VECTOR_MIN_RUNS = 30
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
# Engine internals.  Both paths index the tables of _game_constants by the
# joint action x = 2*(u0 >= p) + (u1 >= q) and apply p <- p + f*(t - p),
# so each run sees the same IEEE-754 operations on the same uniform stream.
# ----------------------------------------------------------------------


def _game_constants(c: SimConfig):
    """The P-model flag, the two learning rates and, per player, the 4-entry
    tables both engine paths read.

    Each table is indexed by the joint action x = 2*(u0 >= p) + (u1 >= q),
    in the entry order (r11, r12, r21, r22) of PayoffMatrix.entry.  The
    feedback tables hold the payoff entries of R and C under P and
    theta*entry under S; the target tables hold each player's barrier
    target, p_max after its first action and p_min after its second.
    """
    R, C, a, b = c.spec.R, c.spec.C, c.cfg_a, c.cfg_b
    ptype = c.spec.model is Model.P
    feedback = []
    for m, theta in ((R, a.theta), (C, b.theta)):
        entries = (m.r11, m.r12, m.r21, m.r22)
        feedback.append(entries if ptype else tuple(theta * e for e in entries))
    targets = (
        (a.p_max, a.p_max, a.p_min, a.p_min),
        (b.p_max, b.p_min, b.p_max, b.p_min),
    )
    return ptype, (a.theta, b.theta), tuple(feedback), targets


def _simulate_single(c: SimConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One run as a plain Python loop.  Returns (steps, states (n, 2))."""
    ptype, (th_a, th_b), (fa_tab, fb_tab), (ta, tb) = _game_constants(c)
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
            x = (2 if u[j] >= p else 0) + (u[j + 1] >= q)
            if ptype:
                fa = th_a if u[j + 2] < fa_tab[x] else 0.0
                fb = th_b if u[j + 3] < fb_tab[x] else 0.0
            else:
                fa = fa_tab[x]
                fb = fb_tab[x]
            j += draws
            p = p + fa * (ta[x] - p)
            q = q + fb * (tb[x] - q)
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
    """Numpy lockstep over runs; one generator per run, chunked draws.

    Row 0 of each (2, runs) array belongs to player A, row 1 to player B.
    """
    ptype, thetas, feedback, targets = _game_constants(c)
    theta = np.array(thetas)[:, None]
    f_tab = np.array(feedback)
    t_tab = np.array(targets)
    steps, stride = c.steps, c.record_stride

    gens = [np.random.default_rng(per_run_seed(c.seed, k)) for k in range(runs)]
    x = np.empty(runs, dtype=np.intp)
    pq = np.empty((2, runs))
    pq[0], pq[1] = c.x0.p1, c.x0.q1
    second = np.empty((2, runs), dtype=np.intp)  # 1 where a player took its second action
    f = np.empty((2, runs))
    rewarded = np.empty((2, runs), dtype=bool)
    d = np.empty((2, runs))

    rec_t = [0]
    rec_mean = [(pq[0].mean(), pq[1].mean())]
    draws = 4 if ptype else 2
    chunk = max(1, _CHUNK_BUDGET // (draws * runs))
    buf = None
    done = 0
    while done < steps:
        k = min(chunk, steps - done)
        if buf is None or buf.shape[1] != k:
            buf = np.empty((runs, k, draws))
        for i, g in enumerate(gens):
            g.random(out=buf[i])
        # (step, draw, run) layout makes the per-step slices contiguous.
        # x is always in 0..3, so take's mode="clip" changes no index; it
        # only spares the output copy that the default bounds check makes.
        U = np.ascontiguousarray(buf.transpose(1, 2, 0))
        for i in range(k):
            u = U[i]
            np.greater_equal(u[:2], pq, out=second)
            np.add(second[0], second[0], out=x)
            np.add(x, second[1], out=x)
            np.take(f_tab, x, axis=1, out=f, mode="clip")
            if ptype:
                np.less(u[2:], f, out=rewarded)
                np.multiply(rewarded, theta, out=f)
            np.take(t_tab, x, axis=1, out=d, mode="clip")
            np.subtract(d, pq, out=d)
            np.multiply(d, f, out=d)
            np.add(pq, d, out=pq)
            t = done + i + 1
            if t % stride == 0 or t == steps:
                rec_t.append(t)
                rec_mean.append((pq[0].mean(), pq[1].mean()))
        done += k
    return np.array(rec_t, dtype=np.int64), np.array(rec_mean), pq.T.copy()


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
