"""Seeded Monte Carlo engine: single games, ensembles, error tables, basins.

Reproducibility contract
------------------------
Each run owns one PCG64 stream, the one ``numpy.random.default_rng(seed XOR
run_index)`` gives, and consumes a fixed number of uniforms per iteration,
in a fixed order:

    u0: player A action draw        u1: player B action draw
    u2: player A feedback draw      u3: player B feedback draw

P-model games consume all four draws per step, S-model games only the two
action draws.  The results depend on nothing else: not on how the steps
are cut into blocks, nor on the number of threads or the order they run
in.  Simulating requires a C compiler with ``unsigned __int128`` (gcc or
clang); without one, _load_kernel raises OSError.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import FixedPoint, Stability, Trajectory, fixed_points
from .game import (
    CaseKind, GameSpec, JointState, Model, classify, mixed_equilibrium, pure_equilibria,
)
from .kernel import _chunks, _load_kernel
from .learner import LearnerConfig


class NotCase3(ValueError):
    """Operation requires a game with two pure equilibria and one mixed."""


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
        for name, lo, bits in (("steps", 0, 63), ("record_stride", 1, 63), ("seed", 0, 64)):
            _check_count(name, getattr(self, name), lo, bits)
        for name, v, cfg in (("p1", self.x0.p1, self.cfg_a), ("q1", self.x0.q1, self.cfg_b)):
            if not cfg.p_min <= v <= cfg.p_max:
                raise ValueError(
                    f"x0.{name}={v} outside the barrier interval [{cfg.p_min}, {cfg.p_max}]"
                )


def _check_count(name: str, v, lo: int, bits: int = 63) -> None:
    """Raise ValueError naming the field unless v is an integer in [lo, 2**bits)."""
    try:
        ok = lo <= operator.index(v) < 2**bits
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer in [{lo}, 2**{bits}), got {v!r}")


@dataclass(frozen=True)
class BasinSplit:
    """Empirical fraction of runs captured by each stable fixed point."""

    points: tuple[FixedPoint, ...]
    fractions: tuple[float, ...]
    runs: int


def run_game(c: SimConfig) -> Trajectory:
    """Simulate one game and return the recorded (step, state) sequence.

    Per iteration both players choose actions, the environment answers per
    the game's feedback model, and each player applies its update rule.
    The state is recorded at step 0, every record_stride steps, and at the
    final step.  Bit-reproducible for a given SimConfig.
    """
    t = _record_steps(c)
    states = np.concatenate([block[:, :, 0] for block in _run_blocks([c], t, 1)])
    return Trajectory(t, states)


def run_ensemble(c: SimConfig, runs: int) -> Trajectory:
    """Pointwise mean trajectory over independent replicas.

    Replica k uses seed ``c.seed XOR k``; aggregation is performed in a
    fixed order so the result does not depend on how runs are scheduled.
    With runs=1 the output equals run_game(c) exactly.
    """
    t = _record_steps(c)
    mean = np.concatenate([block.mean(axis=-1) for block in _run_blocks([c], t, runs)])
    return Trajectory(t, mean)


def terminal_states(c: SimConfig, runs: int) -> np.ndarray:
    """Final (p1, q1) of each replica, shape (runs, 2).  Records only the
    final step, so c.record_stride does not affect the result."""
    (block,) = _run_blocks([c], np.array([c.steps], np.int64), runs)
    return block[0].T.copy()


def error_table(
    spec: GameSpec, target: Optional[JointState], p_max_values: Sequence[float],
    theta_values: Sequence[float], steps: int, seed: int,
    x0: JointState = JointState(0.5, 0.5), record_stride: int = 100,
) -> np.ndarray:
    """One single-run steady-state error per (p_max, theta) cell.

    Returns a C-contiguous float64 array of shape (3, cells) whose rows are
    p_max, theta and error; the cells follow the input order, p_max outer
    and theta inner.  All cells share the base seed, so differences between
    cells reflect the parameters rather than the noise stream, and so the
    cells run in one pass on that one stream: each step's draws are made
    once and every cell steps on them, and each cell records what
    run_game(cell) records.  A cell's error is the Euclidean distance from
    the mean of its last 10% of records (at least one) to the nearest of its
    candidate targets: target when given, otherwise the game's pure
    equilibria, or its mixed equilibrium when it has none.  A run that
    absorbs at a pure corner therefore reports 0.0.  Every cell's config is
    checked before the pass starts, so an invalid cell raises at once.
    Only the records of the late-time window are made.
    """
    if not p_max_values or not theta_values:
        raise ValueError("p_max_values and theta_values must be non-empty")
    if target is not None:
        targets = [target]
    else:
        targets = pure_equilibria(spec) or [JointState(*mixed_equilibrium(spec))]
    cfgs = [LearnerConfig(theta, p_max) for p_max in p_max_values for theta in theta_values]
    cells = [SimConfig(spec, cfg, cfg, x0, steps, seed, record_stride) for cfg in cfgs]
    t = _record_steps(cells[0])
    late = t[-max(1, math.ceil(0.1 * len(t))) :]
    means = np.concatenate([*_run_blocks(cells, late, 1)]).mean(axis=0)
    errors = [min(math.hypot(p - g.p1, q - g.q1) for g in targets) for p, q in means.T]
    return np.array([[c.p_max for c in cfgs], [c.theta for c in cfgs], errors], np.float64)


def basin_split(
    spec: GameSpec, cfg: LearnerConfig, x0: JointState, runs: int, steps: int, seed: int
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
    term = terminal_states(SimConfig(spec, cfg, cfg, x0, steps, seed), runs)
    centers = np.array([[fp.x.p1, fp.x.q1] for fp in stable])
    d = np.hypot(
        term[:, 0:1] - centers[None, :, 0], term[:, 1:2] - centers[None, :, 1]
    )
    nearest = np.argmin(d, axis=1)
    counts = np.bincount(nearest, minlength=len(stable))
    fractions = tuple(float(v) / runs for v in counts)
    return BasinSplit(tuple(stable), fractions, runs)


# ----------------------------------------------------------------------
# Engine internals.  The C kernel (kernel.py), compiled on first use,
# carries its own port of numpy's SeedSequence and PCG64, and its one entry
# point, advance, states how it seeds, shares and steps streams of lanes.
# _run_blocks states only the shape of a simulation: one lane per config,
# runs streams of them, stream k on seed XOR k.  An ensemble is runs streams
# of its one config; an error table is one stream of its cells, so they
# share their draws as they would share a seed in separate runs.  It steps
# the lanes one (records, 2, width) block at a time, cut by kernel._chunks,
# recording only the steps its caller reads.
# The operations are those of the tests' one-draw-at-a-time reference loop
# on numpy's own generator; -ffp-contract=off (never -ffast-math) keeps C
# from fusing a product into the following sum.  Nothing here chooses a
# thread count or a loop.  The ensemble mean and error scoring stay on the
# calling thread.
# ----------------------------------------------------------------------


def _record_steps(c: SimConfig) -> np.ndarray:
    """Step 0, every record_stride steps, and the final step."""
    t = np.arange(c.steps // c.record_stride + 1, dtype=np.int64) * c.record_stride
    return t if c.steps % c.record_stride == 0 else np.append(t, np.int64(c.steps))


def _table(c: SimConfig) -> np.ndarray:
    """The (5, 4) table of every constant the kernel reads to step c."""
    a, b = c.cfg_a, c.cfg_b
    fa, fb = ((m.r11, m.r12, m.r21, m.r22) for m in (c.spec.R, c.spec.C))
    # S feeds theta * entry back; P draws a reward with the entry's probability
    if c.spec.model is not Model.P:
        fa, fb = [a.theta * e for e in fa], [b.theta * e for e in fb]
    return np.array([fa, fb, (a.p_max, a.p_max, a.p_min, a.p_min),
                     (b.p_max, b.p_min, b.p_max, b.p_min), (0.0, a.theta, 0.0, b.theta)],
                    np.float64)


def _run_blocks(cells: Sequence[SimConfig], t: np.ndarray, runs: int):
    """Step runs streams of one lane per config in cells, stream k seeded
    from cells[0].seed XOR k and every lane from cells[0].x0 under
    cells[0]'s model, lane c of each stream on the (5, 4) table of cells[c],
    recording them only at the steps t (increasing int64): make one kernel
    advance call per _chunks range of records, on up to one thread per
    usable core, and yield each (records, 2, runs * len(cells)) block."""
    _check_count("runs", runs, 1)
    c, width = cells[0], runs * len(cells)
    pq = np.empty((2, width))  # before any per-lane work, so an impossible width fails at once
    pq[0], pq[1] = c.x0.p1, c.x0.q1
    tabs = np.stack([_table(cell) for cell in cells])
    st = np.empty((runs, 4), dtype=np.uint64)  # seeded by the call from step 0
    advance, cores = _load_kernel().advance, _usable_cores()
    for i, j in _chunks(len(t), 2 * width):
        block = np.empty((j - i, 2, width))
        start = int(t[i - 1]) if i else 0
        advance(runs, len(cells), c.seed, st, pq, start, t[i:j], j - i,
                c.spec.model is Model.P, tabs, block, cores)
        yield block


def _usable_cores() -> int:
    """The cores this process may run on; where the platform cannot say
    (no os.sched_getaffinity, as on macOS), the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
