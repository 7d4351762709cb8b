"""Seeded Monte Carlo engine: single games, ensembles, error tables, basins.

Reproducibility contract
------------------------
Each run owns one PCG64 stream, the one ``numpy.random.default_rng(seed XOR
run_index)`` gives, and consumes a fixed number of uniforms per iteration,
in a fixed order:

    u0: player A action draw        u1: player B action draw
    u2: player A feedback draw      u3: player B feedback draw

P-model games consume all four draws per step, S-model games only the two
action draws.  One driver, _simulate, advances every run through one C
kernel, compiled on first use, which carries its own port of numpy's
SeedSequence and PCG64.  Simulating requires a C compiler with ``unsigned
__int128`` (gcc or clang); without one, _load_kernel raises OSError.
_simulate splits the runs of each block into one contiguous slice per
usable core and advances the slices on threads at once.  Since each run
owns its stream and its output slots, results do not depend on the thread
count or on execution order.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import FixedPoint, Stability, Trajectory, TrajectoryKind, fixed_points
from .game import (
    CaseKind, GameSpec, JointState, Model, classify, mixed_equilibrium, pure_equilibria,
)
from .learner import LearnerConfig

# Values per advance call (records x 2 x runs, at most max(_BLOCK_BUDGET,
# 2 * runs) as a block holds one record or more) and rows per CSV write.
# Block boundaries never affect results: run state and stream carry over.
_BLOCK_BUDGET = 1 << 18
# Run-steps below which a block runs on the caller's thread alone: starting a
# thread costs about 0.15 ms, several thousand run-steps of the kernel.
_WORK_FLOOR = 1 << 16


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
        if not 0 <= self.steps < 2**63:
            raise ValueError("steps must be in [0, 2**63)")
        if not 1 <= self.record_stride < 2**63:
            raise ValueError("record_stride must be in [1, 2**63)")
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


def run_game(c: SimConfig) -> Trajectory:
    """Simulate one game and return the recorded (step, state) sequence.

    Per iteration both players choose actions, the environment answers per
    the game's feedback model, and each player applies its update rule.
    The state is recorded at step 0, every record_stride steps, and at the
    final step.  Bit-reproducible for a given SimConfig.
    """
    states = np.concatenate([block[:, :, 0] for block in _simulate(c, 1)])
    return Trajectory(TrajectoryKind.SIMULATED, _record_steps(c), states)


def run_ensemble(c: SimConfig, runs: int) -> Trajectory:
    """Pointwise mean trajectory over independent replicas.

    Replica k uses seed ``c.seed XOR k``; aggregation is performed in a
    fixed order so the result does not depend on how runs are scheduled.
    With runs=1 the output equals run_game(c) exactly.
    """
    mean = np.concatenate([block.mean(axis=-1) for block in _simulate(c, runs)])
    return Trajectory(TrajectoryKind.ENSEMBLE_MEAN, _record_steps(c), mean)


def terminal_states(c: SimConfig, runs: int) -> np.ndarray:
    """Final (p1, q1) of each replica, shape (runs, 2).  Records only step 0
    and the final step, so c.record_stride does not affect the result."""
    for block in _simulate(replace(c, record_stride=max(1, c.steps)), runs):
        pass
    return block[-1].T.copy()


def steady_state_error(traj: Trajectory, target: JointState) -> float:
    """Euclidean distance between the late-time mean state and the target.

    The mean is taken over the last 10% of the recorded samples (at least
    one sample).
    """
    k = max(1, math.ceil(0.1 * len(traj)))
    m = traj.x[-k:].mean(axis=0)
    return float(math.hypot(m[0] - target.p1, m[1] - target.q1))


def error_table(
    spec: GameSpec, target: Optional[JointState], p_max_values: Sequence[float],
    theta_values: Sequence[float], steps: int, seed: int,
    x0: JointState = JointState(0.5, 0.5), record_stride: int = 100,
) -> list[ErrorTableRow]:
    """One single-run steady-state error per (p_max, theta) cell.

    Rows follow the input order, p_max outer and theta inner.  All cells
    share the base seed, so differences between cells reflect the
    parameters rather than the noise stream.  Each cell scores the distance
    from its late-time mean to the nearest of its candidate targets: target
    when given, otherwise the game's pure equilibria, or its mixed
    equilibrium when it has none.  A run that absorbs at a pure corner
    therefore reports 0.0.  Every cell's config is checked before the
    first cell runs, so an invalid cell raises at once.
    """
    if not p_max_values or not theta_values:
        raise ValueError("p_max_values and theta_values must be non-empty")
    if target is not None:
        targets = [target]
    else:
        targets = pure_equilibria(spec) or [JointState(*mixed_equilibrium(spec))]
    cfgs = [LearnerConfig(theta, p_max) for p_max in p_max_values for theta in theta_values]
    cells = [SimConfig(spec, cfg, cfg, x0, steps, seed, record_stride) for cfg in cfgs]
    rows = []
    for c in cells:
        traj = run_game(c)
        error = min(steady_state_error(traj, t) for t in targets)
        rows.append(ErrorTableRow(c.cfg_a.p_max, c.cfg_a.theta, error))
    return rows


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
# Engine internals.  _simulate seeds every run with the C kernel's seed_runs,
# a port of numpy's PCG64(seed ^ k) seeding, and drives them through its
# advance() one (records, 2, runs) block at a time.  advance indexes the rows
# of one (4, 4) table (feedback A, feedback B, target A, target B) by the
# joint action x = 2*(u0 >= p) + (u1 >= q) and applies p <- p + f*(t - p),
# the same IEEE-754 operations as the tests' one-draw-at-a-time reference
# loop on numpy's own generator.  -ffp-contract=off (never -ffast-math)
# keeps C from fusing a product into the following sum.  A P-model reward
# is read from a two-entry table {0, theta} indexed by the comparison
# u < entry.  Near a mixed equilibrium that draw is a coin flip; a ternary
# there compiles to a jump that mispredicts on most steps, the table read to
# no branch at all.  Each block's runs are cut into one contiguous slice per
# usable core, and the slices' advance calls run on threads at once, as
# ctypes releases the GIL.  A call touches only its own runs' state and
# slots, so any thread count gives the same bytes.  Seeding, the ensemble
# mean and the CSV write stay on one thread.
# ----------------------------------------------------------------------


def _record_steps(c: SimConfig) -> np.ndarray:
    """Step 0, every record_stride steps, and the final step."""
    t = np.arange(c.steps // c.record_stride + 1, dtype=np.int64) * c.record_stride
    return t if c.steps % c.record_stride == 0 else np.append(t, np.int64(c.steps))


def _simulate(c: SimConfig, runs: int):
    """Yield the states of all runs of c at _record_steps(c), one block of
    shape (records, 2, runs) at a time.  Run k uses seed c.seed XOR k."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    a, b = c.cfg_a, c.cfg_b
    ptype = c.spec.model is Model.P
    fa, fb = ((m.r11, m.r12, m.r21, m.r22) for m in (c.spec.R, c.spec.C))
    if not ptype:  # S feeds theta * entry back; P draws a reward with the entry's probability
        fa, fb = [a.theta * e for e in fa], [b.theta * e for e in fb]
    tab = np.array(
        [fa, fb, (a.p_max, a.p_max, a.p_min, a.p_min), (b.p_max, b.p_min, b.p_max, b.p_min)],
        dtype=np.float64,
    )
    pq = np.empty((2, runs))  # before any per-run work, so an impossible runs fails at once
    pq[0], pq[1] = c.x0.p1, c.x0.q1
    kernel = _load_kernel()
    st = np.empty((runs, 4), dtype=np.uint64)
    kernel.seed_runs(runs, c.seed, st)
    t = _record_steps(c)
    k = max(1, _BLOCK_BUDGET // (2 * runs))
    cores = min(runs, _usable_cores())
    for i in range(0, len(t), k):
        rec = t[i : i + k]
        t0 = int(t[i - 1]) if i else 0
        block = np.empty((len(rec), 2, runs))

        def advance(r0: int, r1: int) -> None:
            kernel.advance(runs, r0, r1, st, pq, t0, rec, len(rec), ptype, a.theta, b.theta,
                           tab, block)

        n = cores if runs * (int(rec[-1]) - t0) >= _WORK_FLOOR else 1
        _in_slices(advance, [runs * j // n for j in range(n + 1)])
        yield block


def _usable_cores() -> int:
    """The cores this process may run on; where the platform cannot say
    (no os.sched_getaffinity, as on macOS), the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_slices(advance, cuts: list[int]) -> None:
    """Call advance(cuts[j], cuts[j + 1]) for every slice j: slice 0 on this
    thread, each other slice on a thread of its own.  Every worker is joined
    before this returns or raises, and an exception in any slice is raised
    here, so a block is never left part-written."""
    errors: list[BaseException] = []

    def work(r0: int, r1: int) -> None:
        try:
            advance(r0, r1)
        except BaseException as exc:  # raised again on the caller's thread below
            errors.append(exc)

    workers = []
    try:
        for r0, r1 in zip(cuts[1:-1], cuts[2:]):
            worker = threading.Thread(target=work, args=(r0, r1))
            worker.start()
            workers.append(worker)
        advance(cuts[0], cuts[1])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


_KERNEL_C = r"""
#include <stdint.h>

typedef unsigned __int128 u128;
static const u128 MULT = (u128)2549297995355413924u << 64 | 4865540595714422341u;

static uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= 0x931e8875u;
    v *= *h;
    return v ^ v >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t v = 0xca01f9ddu * x - 0x4973f715u * y;
    return v ^ v >> 16;
}

/* Fill st[4r..4r+4) with the state and increment, each as low then high
   64-bit word, of np.random.PCG64(seed ^ r) once seeded: numpy's
   SeedSequence with pool size 4 on the entropy seed ^ r (two 32-bit words;
   numpy omits a zero high word, which hashes as the zero padding does),
   generate_state(4, uint64), then pcg_setseq_128_srandom_r with words 0, 1
   as the state's (high, low) and words 2, 3 as the sequence's. */
void seed_runs(int64_t runs, uint64_t seed, uint64_t *st)
{
    for (int64_t r = 0; r < runs; r++) {
        uint64_t e = seed ^ (uint64_t)r, w[4] = {0};
        uint32_t h = 0x43b0d7e5u, pool[4] = {(uint32_t)e, (uint32_t)(e >> 32), 0, 0};
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix(pool[i], &h);
        for (int i = 0; i < 4; i++)
            for (int j = 0; j < 4; j++)
                if (i != j)
                    pool[j] = mix(pool[j], hashmix(pool[i], &h));
        h = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t v = pool[i % 4] ^ h;
            h *= 0x58f38dedu;
            v *= h;
            w[i / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (i % 2);
        }
        u128 inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
        u128 s = (inc + ((u128)w[0] << 64 | w[1])) * MULT + inc;
        st[4 * r] = (uint64_t)s;
        st[4 * r + 1] = (uint64_t)(s >> 64);
        st[4 * r + 2] = (uint64_t)inc;
        st[4 * r + 3] = (uint64_t)(inc >> 64);
    }
}

/* numpy's PCG64 next_double: one LCG step, the XSL-RR output of the new
   state, its top 53 bits scaled into [0, 1). */
static inline double next_double(u128 *s, u128 inc)
{
    *s = *s * MULT + inc;
    uint64_t x = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    unsigned rot = (unsigned)(*s >> 122);
    x = x >> rot | x << (-rot & 63);
    return (x >> 11) * (1.0 / 9007199254740992.0);
}

/* Advance each run r in [r0, r1) from step t through the steps rec[0..k),
   storing its state after rec[j] steps at out[j][0][r] and out[j][1][r].
   st holds the runs' generators as seed_runs lays them out, pq the (2, runs)
   states; tab the rows feedback A, feedback B, target A and target B, each
   indexed by the joint action.  A call reads and writes only the slots of
   its own runs, so calls on disjoint ranges may run at the same time. */
void advance(int64_t runs, int64_t r0, int64_t r1, uint64_t *st, double *pq, int64_t t,
             const int64_t *rec, int64_t k, int ptype, double th_a, double th_b,
             const double *tab, double *out)
{
    const double *fa = tab, *fb = tab + 4, *ta = tab + 8, *tb = tab + 12;
    /* The P-model reward is looked up by the draw's comparison.  A ternary
       compiles to a jump, and near a mixed equilibrium, where the draw is
       a coin flip, that jump mispredicts on most steps. */
    const double ga[2] = {0.0, th_a}, gb[2] = {0.0, th_b};
    for (int64_t r = r0; r < r1; r++) {
        uint64_t *g = st + 4 * r;
        u128 s = (u128)g[1] << 64 | g[0], inc = (u128)g[3] << 64 | g[2];
        double p = pq[r], q = pq[runs + r];
        int64_t n = t;
        for (int64_t j = 0; j < k; j++) {
            for (; n < rec[j]; n++) {
                double u0 = next_double(&s, inc);
                double u1 = next_double(&s, inc);
                int x = (u0 >= p ? 2 : 0) + (u1 >= q);
                double f = fa[x], h = fb[x];
                if (ptype) {
                    double u2 = next_double(&s, inc);
                    double u3 = next_double(&s, inc);
                    f = ga[u2 < f];
                    h = gb[u3 < h];
                }
                p = p + f * (ta[x] - p);
                q = q + h * (tb[x] - q);
            }
            out[2 * j * runs + r] = p;
            out[(2 * j + 1) * runs + r] = q;
        }
        g[0] = (uint64_t)s;
        g[1] = (uint64_t)(s >> 64);
        pq[r] = p;
        pq[runs + r] = q;
    }
}
"""
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _load_kernel():
    """The kernel library (seed_runs and advance).  Cached as
    $XDG_CACHE_HOME/barrier_la/kernel-<sha256 of compile command and
    source>.so (default ~/.cache); later processes only load it.  Raises
    OSError naming the compile command, the cache path and the cause when
    it can be neither built nor loaded.  Imports are local so commands
    without Monte Carlo skip them."""
    import hashlib
    digest = hashlib.sha256((" ".join(_CC) + _KERNEL_C).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "barrier_la")
    so = cache / f"kernel-{digest}.so"
    try:
        if not so.exists():
            import subprocess
            cache.mkdir(parents=True, exist_ok=True)
            tmp = so.with_name(f"{so.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            try:
                cmd = [*_CC, "-x", "c", "-", "-o", str(tmp)]
                proc = subprocess.run(cmd, input=_KERNEL_C, capture_output=True, errors="replace")
                if proc.returncode:
                    raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()}")
                os.replace(tmp, so)
            finally:
                tmp.unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(so))
    except OSError as exc:
        cc = " ".join(_CC)
        raise OSError(f"cannot build or load the C kernel with {cc} into {so}: {exc}") from exc
    i64, f64, i32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int
    f8, i8, u8 = (
        np.ctypeslib.ndpointer(d, flags="C_CONTIGUOUS") for d in (np.float64, np.int64, np.uint64)
    )
    kernel.seed_runs.argtypes = [i64, ctypes.c_uint64, u8]
    kernel.advance.argtypes = [i64, i64, i64, u8, f8, i64, i8, i64, i32, f64, f64, f8, f8]
    kernel.seed_runs.restype = kernel.advance.restype = None
    return kernel


# ----------------------------------------------------------------------
# CSV serialization.  Floats carry 17 significant digits so values
# round-trip exactly.
# ----------------------------------------------------------------------


def _write_csv(path: str | Path, header: str, *columns: np.ndarray) -> None:
    """Write header, then row i of the columns: integers as such, floats with
    17 significant digits."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _BLOCK_BUDGET):  # bounds the formatted lists
            chunk = (c[i : i + _BLOCK_BUDGET].tolist() for c in columns)
            fh.writelines(row % v for v in zip(*chunk))


_TRAJECTORY_HEADERS = {
    TrajectoryKind.ODE: "t,p1,q1", TrajectoryKind.SIMULATED: "step,p1,q1",
    TrajectoryKind.ENSEMBLE_MEAN: "step,mean_p1,mean_q1",
}


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory as CSV under its kind's header.  The engine's
    steps are int64, so they print as integers; ODE times print as floats."""
    _write_csv(path, _TRAJECTORY_HEADERS[traj.kind], traj.t, traj.x[:, 0], traj.x[:, 1])


def write_error_table_csv(rows: Sequence[ErrorTableRow], path: str | Path) -> None:
    """Write error-table rows as CSV: p_max,theta,error."""
    cols = np.array([(r.p_max, r.theta, r.error) for r in rows], dtype=np.float64).reshape(-1, 3)
    _write_csv(path, "p_max,theta,error", *cols.T)
