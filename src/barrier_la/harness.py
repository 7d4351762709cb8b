"""Seeded Monte Carlo engine: single games, ensembles, error tables, basins.

Reproducibility contract
------------------------
Each run owns one numpy PCG64 generator seeded with ``seed XOR run_index``
and consumes a fixed number of uniforms per iteration, in a fixed order:

    u0: player A action draw        u1: player B action draw
    u2: player A feedback draw      u3: player B feedback draw

P-model games consume all four draws per step, S-model games only the two
action draws.  One driver, _simulate, advances every run through one C
kernel, compiled on first use; without a C compiler its Python twin, with
the same arguments and arithmetic, runs instead after a RuntimeWarning.
Results are identical bit for bit on either, and ensembles are reproducible
independent of execution order.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import FixedPoint, Stability, Trajectory, TrajectoryKind, fixed_points
from .errors import EmptyTrajectory, NotCase3
from .game import (
    CaseKind, GameSpec, JointState, Model, classify, mixed_equilibrium, pure_equilibria,
)
from .learner import LearnerConfig

# Recorded values (records x 2 players x runs) per advance call, and the
# uniforms per draw buffer of the Python twin.  Block boundaries never affect
# results: each run's state and stream carry over.
_BLOCK_BUDGET = 1 << 18


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
    """Final (p1, q1) of each replica, shape (runs, 2)."""
    for block in _simulate(c, runs):
        pass
    return block[-1].T.copy()  # the final step is always recorded


def steady_state_error(traj: Trajectory, target: JointState) -> float:
    """Euclidean distance between the late-time mean state and the target.

    The mean is taken over the last 10% of the recorded samples (at least
    one sample).
    """
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    k = max(1, math.ceil(0.1 * len(traj)))
    m = traj.x[-k:].mean(axis=0)
    return float(math.hypot(m[0] - target.p1, m[1] - target.q1))


def error_table(
    spec: GameSpec, target: Optional[JointState], p_max_values: Sequence[float],
    theta_values: Sequence[float], steps: int, seed: int,
    x0: Optional[JointState] = None, record_stride: int = 100,
) -> list[ErrorTableRow]:
    """One single-run steady-state error per (p_max, theta) cell.

    Rows follow the input order, p_max outer and theta inner.  All cells
    share the base seed, so differences between cells reflect the
    parameters rather than the noise stream.  Each cell scores the distance
    from its late-time mean to the nearest of its candidate targets: target
    when given, otherwise the game's pure equilibria, or its mixed
    equilibrium when it has none.  A run that absorbs at a pure corner
    therefore reports 0.0.
    """
    if not p_max_values or not theta_values:
        raise ValueError("p_max_values and theta_values must be non-empty")
    if target is not None:
        targets = [target]
    else:
        targets = pure_equilibria(spec) or [JointState(*mixed_equilibrium(spec))]
    start = x0 if x0 is not None else JointState(0.5, 0.5)
    rows = []
    for p_max in p_max_values:
        for theta in theta_values:
            cfg = LearnerConfig(theta=theta, p_max=p_max)
            traj = run_game(SimConfig(spec, cfg, cfg, start, steps, seed, record_stride))
            error = min(steady_state_error(traj, t) for t in targets)
            rows.append(ErrorTableRow(p_max, theta, error))
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
# Engine internals.  _simulate drives every run through advance(), which is
# the C kernel or, without a compiler, its Python twin _advance_py: same
# arguments, same loops, the same (records, 2, runs) blocks.  Both index the
# rows of one (4, 4) table (feedback A, feedback B, target A, target B) by
# the joint action x = 2*(u0 >= p) + (u1 >= q) and apply p <- p + f*(t - p),
# so each run sees the same IEEE-754 operations on the same uniform stream.
# -ffp-contract=off (never -ffast-math) keeps C from fusing a product into
# the following sum.
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
    # the kernel gets raw pointers into these; they stay referenced to the last block
    gens = [np.random.PCG64(per_run_seed(c.seed, k)) for k in range(runs)]
    advance = _load_kernel()
    if advance is None:
        advance, handles = _advance_py, [np.random.Generator(g) for g in gens]
    else:
        ptrs = (_capsule_pointer(g.capsule, b"BitGenerator") for g in gens)
        handles = (ctypes.c_void_p * runs)(*ptrs)
    pq = np.empty((2, runs))
    pq[0], pq[1] = c.x0.p1, c.x0.q1
    t = _record_steps(c)
    k = max(1, _BLOCK_BUDGET // (2 * runs))
    for i in range(0, len(t), k):
        rec = t[i : i + k]
        block = np.empty((len(rec), 2, runs))
        advance(runs, handles, pq, int(t[i - 1]) if i else 0, rec, len(rec), ptype, a.theta,
                b.theta, tab, block)
        yield block


def _advance_py(runs, gens, pq, t, rec, k, ptype, th_a, th_b, tab, out) -> None:
    """The C kernel's twin in Python, for gens[r] a numpy Generator on run
    r's PCG64.  Draws up to _BLOCK_BUDGET uniforms per buffer, never past rec[k-1]."""
    fa, fb, ta, tb = tab.tolist()
    draws = 4 if ptype else 2
    chunk = max(1, _BLOCK_BUDGET // draws)
    stops = [*rec[:k].tolist(), -1]  # -1 once every record is stored
    end = stops[k - 1]
    for r in range(runs):
        g = gens[r]
        p, q = pq[:, r].tolist()
        s, i, ps, qs = t, 0, [], []
        if stops[0] == s:  # step 0, recorded before any draw
            i, ps, qs = 1, [p], [q]
        while s < end:
            n = min(chunk, end - s)
            u = g.random(draws * n).tolist()
            for j in range(0, draws * n, draws):
                x = (2 if u[j] >= p else 0) + (u[j + 1] >= q)
                if ptype:
                    f = th_a if u[j + 2] < fa[x] else 0.0
                    h = th_b if u[j + 3] < fb[x] else 0.0
                else:
                    f, h = fa[x], fb[x]
                p = p + f * (ta[x] - p)
                q = q + h * (tb[x] - q)
                s += 1
                if s == stops[i]:
                    ps.append(p)
                    qs.append(q)
                    i += 1
        out[:, 0, r], out[:, 1, r] = ps, qs
        pq[0, r], pq[1, r] = p, q


_KERNEL_C = r"""
#include <stdint.h>

typedef struct {  /* numpy's bitgen_t; the kernel calls only next_double */
    void *state, *next_uint64, *next_uint32;
    double (*next_double)(void *);
    void *next_raw;
} bitgen_t;

/* Advance each run from step t through the steps rec[0..k), storing its
   state after rec[j] steps at out[j][0][run] and out[j][1][run].  pq holds
   the (2, runs) states; tab the rows feedback A, feedback B, target A and
   target B, each indexed by the joint action. */
void advance(int64_t runs, bitgen_t **gen, double *pq, int64_t t,
             const int64_t *rec, int64_t k, int ptype, double th_a, double th_b,
             const double *tab, double *out)
{
    const double *fa = tab, *fb = tab + 4, *ta = tab + 8, *tb = tab + 12;
    for (int64_t r = 0; r < runs; r++) {
        bitgen_t *g = gen[r];
        double p = pq[r], q = pq[runs + r];
        int64_t s = t;
        for (int64_t j = 0; j < k; j++) {
            for (; s < rec[j]; s++) {
                double u0 = g->next_double(g->state);
                double u1 = g->next_double(g->state);
                int x = (u0 >= p ? 2 : 0) + (u1 >= q);
                double f = fa[x], h = fb[x];
                if (ptype) {
                    double u2 = g->next_double(g->state);
                    double u3 = g->next_double(g->state);
                    f = u2 < f ? th_a : 0.0;
                    h = u3 < h ? th_b : 0.0;
                }
                p = p + f * (ta[x] - p);
                q = q + h * (tb[x] - q);
            }
            out[2 * j * runs + r] = p;
            out[(2 * j + 1) * runs + r] = q;
        }
        pq[r] = p;
        pq[runs + r] = q;
    }
}
"""
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


@functools.cache
def _load_kernel():
    """The kernel's advance function, or None after one RuntimeWarning if it
    cannot be built.  Cached as $XDG_CACHE_HOME/barrier_la/kernel-<sha256 of
    compile command and source>.so (default ~/.cache); later processes only
    load it.  Imports are local so commands without Monte Carlo skip them."""
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
        advance = ctypes.CDLL(str(so)).advance
    except OSError as exc:
        warnings.warn(f"C kernel unavailable, using the Python loop: {exc}", RuntimeWarning)
        return None
    i64, f64, i32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int
    f8, i8 = (np.ctypeslib.ndpointer(d, flags="C_CONTIGUOUS") for d in (np.float64, np.int64))
    advance.argtypes = [i64, ctypes.c_void_p, f8, i64, i8, i64, i32, f64, f64, f8, f8]
    advance.restype = None
    return advance


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
        fh.writelines(row % v for v in zip(*(c.tolist() for c in columns)))


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory as CSV: step,p1,q1 (mean_p1/mean_q1 for ensembles)."""
    if traj.kind is TrajectoryKind.ODE:
        _write_csv(path, "t,p1,q1", traj.t, traj.x[:, 0], traj.x[:, 1])
        return
    header = "step,mean_p1,mean_q1" if traj.kind is TrajectoryKind.ENSEMBLE_MEAN else "step,p1,q1"
    _write_csv(path, header, traj.t.astype(np.int64), traj.x[:, 0], traj.x[:, 1])


def write_error_table_csv(rows: Sequence[ErrorTableRow], path: str | Path) -> None:
    """Write error-table rows as CSV: p_max,theta,error."""
    cols = np.array([(r.p_max, r.theta, r.error) for r in rows], dtype=np.float64).reshape(-1, 3)
    _write_csv(path, "p_max,theta,error", *cols.T)
