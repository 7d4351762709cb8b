"""Deterministic analysis of the learning dynamics.

The expected one-step increment of the joint state X = (p1, q1), divided
by the learning rate, defines a drift field W(X).  This module evaluates
W and its analytic Jacobian, integrates the mean ODE dX/dt = W(X) with a
fixed-step RK4 scheme whose loop runs in the C kernel (kernel.rk4, the
drift's operations in _field's order), and locates/classifies the fixed
points of W exactly: w1 is linear in q1, so eliminating q1 leaves a
degree-5 resultant in p1 whose real roots are the only candidates, each
polished by Newton's method.

The same drift serves both feedback models: with Bernoulli feedback the
payoff entries act as reward probabilities, with scalar feedback they act
as step-size weights, and the expected increment is identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import DegenerateGame, GameSpec, JointState
from .kernel import _chunks, _load_kernel
from .learner import _check_p_max

DRIFT_STOP_TOL = 1e-10
NEWTON_DRIFT_TOL = 1e-12
NEWTON_MAX_ITER = 200
DEDUP_TOL = 1e-6
STAGE_BOX = (-0.1, 1.1)
STATE_TOL = 1e-9  # slack of the [0, 1]^2 check on trajectory states
ROOT_SLACK = 1e-6  # imaginary part and box overshoot allowed for resultant roots
COMMON_ROOT_TOL = 1e-6  # |A|, |B| relative to their coefficient sums at a common root
# Why kernel.rk4 stopped, besides taking every step it was asked for
_RK4_DRIFT_BELOW_TOL, _RK4_STAGE_LEFT_BOX, _RK4_STATE_LEFT_SQUARE = 1, 2, 3


class StepTooLarge(ArithmeticError):
    """An RK4 stage left the sanity box [-0.1, 1.1]^2 or a state left [0, 1]^2."""


@dataclass(frozen=True)
class DriftValue:
    """The two components of the drift W(X)."""

    w1: float
    w2: float


class Stability(str, Enum):
    STABLE = "Stable"
    SADDLE = "Saddle"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class FixedPoint:
    """A root of the drift field with its local linearization.

    Stability follows the determinant/trace test of the 2x2 Jacobian:
    Stable iff det > 0 and trace < 0, Saddle iff det < 0, else Unstable.
    """

    x: JointState
    drift_norm: float
    jacobian: np.ndarray
    det: float
    trace: float
    stability: Stability


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples (t, x), n >= 1, of an integrated, simulated or averaged path."""

    t: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        if self.t.ndim != 1 or len(self.t) == 0 or self.x.shape != (len(self.t), 2):
            raise ValueError("trajectory arrays must have shapes (n,) and (n, 2) with n >= 1")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not (self.x.min() >= -STATE_TOL and self.x.max() <= 1.0 + STATE_TOL):
            raise ValueError("trajectory states must lie in [0, 1]^2")

    def __len__(self) -> int:
        return len(self.t)


def _drives(spec: GameSpec, p1: float, q1: float) -> tuple[float, float, float, float]:
    """Expected payoff of each action against the opponent's mixed strategy:
    d1a/d2a are player A's, linear in q1; d1b/d2b are player B's, linear in p1."""
    R, C = spec.R, spec.C
    d1a = q1 * R.r11 + (1.0 - q1) * R.r12
    d2a = q1 * R.r21 + (1.0 - q1) * R.r22
    d1b = p1 * C.r11 + (1.0 - p1) * C.r21
    d2b = p1 * C.r12 + (1.0 - p1) * C.r22
    return d1a, d2a, d1b, d2b


def vector_field(spec: GameSpec, x: JointState, p_max: float) -> DriftValue:
    """Drift W(X): the expected per-step increment divided by the learning rate.

    w1 = p1 (p_max - p1) d1a + (1 - p1)(p_min - p1) d2a, and symmetrically
    for w2 with player B's drives.  For a P-model game this equals
    E[delta X | X] / theta exactly.
    """
    _check_p_max(p_max)
    w1, w2 = _field(spec, x.p1, x.q1, p_max)
    return DriftValue(w1, w2)


def _field(spec: GameSpec, p1: float, q1: float, p_max: float) -> tuple[float, float]:
    p_min = 1.0 - p_max
    d1a, d2a, d1b, d2b = _drives(spec, p1, q1)
    w1 = p1 * (p_max - p1) * d1a + (1.0 - p1) * (p_min - p1) * d2a
    w2 = q1 * (p_max - q1) * d1b + (1.0 - q1) * (p_min - q1) * d2b
    return w1, w2


def jacobian(spec: GameSpec, x: JointState, p_max: float) -> np.ndarray:
    """Analytic 2x2 Jacobian of the drift field at x.

    Exact partial derivatives of vector_field as implemented, so central
    finite differences of the field agree to discretization error.
    """
    _check_p_max(p_max)
    return _jacobian(spec, x.p1, x.q1, p_max)


def _jacobian(spec: GameSpec, p1: float, q1: float, p_max: float) -> np.ndarray:
    p_min = 1.0 - p_max
    R, C = spec.R, spec.C
    d1a, d2a, d1b, d2b = _drives(spec, p1, q1)
    j11 = (p_max - 2.0 * p1) * d1a + (2.0 * p1 - 1.0 - p_min) * d2a
    j12 = p1 * (p_max - p1) * (R.r11 - R.r12) + (1.0 - p1) * (p_min - p1) * (R.r21 - R.r22)
    j21 = q1 * (p_max - q1) * (C.r11 - C.r21) + (1.0 - q1) * (p_min - q1) * (C.r12 - C.r22)
    j22 = (p_max - 2.0 * q1) * d1b + (2.0 * q1 - 1.0 - p_min) * d2b
    return np.array([[j11, j12], [j21, j22]])


def integrate(
    spec: GameSpec,
    x0: JointState,
    p_max: float,
    step: float = 0.01,
    t_max: float = 1e4,
) -> Trajectory:
    """Classical fixed-step RK4 path of dX/dt = W(X) starting at x0.

    Stops early once the drift norm falls below 1e-10.  Raises
    StepTooLarge if any RK stage leaves the sanity box [-0.1, 1.1]^2 or an
    accepted state leaves [0, 1]^2, which indicates the step size is too
    coarse for the field, and ValueError unless step > 0, t_max >= 0 and
    t_max / step are finite and a float64 array can hold the path, before
    the kernel is loaded.  The loop runs in the C kernel (rk4), so
    computing a path needs a C compiler, as simulating does; without one
    this raises OSError.  Each coordinate sees the operations of _field and
    of the vector form k1 + 2 k2 + 2 k3 + k4 in that order, and the state
    after step i is stamped i * step.  The stop test takes the norm with C's
    hypot, which can differ from math.hypot by one ulp, so only a drift norm
    within one ulp of 1e-10 could stop a step earlier or later than it would
    with math.hypot.
    """
    _check_p_max(p_max)
    if not (0.0 < step < math.inf and t_max >= 0.0 and math.isfinite(t_max / step)):
        raise ValueError(
            f"need a finite step > 0 and t_max >= 0 with finite t_max / step, "
            f"got step={step}, t_max={t_max}"
        )
    R, C = spec.R, spec.C
    tab = np.array([R.r11, R.r12, R.r21, R.r22, C.r11, C.r12, C.r21, C.r22,
                    p_max, step, DRIFT_STOP_TOL, *STAGE_BOX, STATE_TOL], np.float64)
    n_steps = int(math.floor(t_max / step + 1e-9))
    if 16 * (n_steps + 1) > sys.maxsize:
        raise ValueError(f"t_max / step = {t_max / step:.3g} steps: no float64 array holds the path")
    rk4 = _load_kernel().rk4
    rows = [np.array([[float(x0.p1), float(x0.q1)]])]
    accepted = np.empty(1, np.int64)
    for i, j in _chunks(n_steps, 2):  # steps i + 1 to j, from the last row
        block = np.empty((j - i + 1, 2))
        block[0] = rows[-1][-1]
        stop = rk4(tab, j - i, block, accepted)
        k = int(accepted[0])
        rows.append(block[1 : k + 1])
        if stop == _RK4_STAGE_LEFT_BOX:
            lo, hi = STAGE_BOX
            p, q = block[k + 1].tolist()
            raise StepTooLarge(f"RK stage ({p}, {q}) left the box [{lo}, {hi}]^2")
        if stop == _RK4_STATE_LEFT_SQUARE:
            p, q = block[k + 1].tolist()
            raise StepTooLarge(f"RK4 state ({p}, {q}) at t = {(i + k + 1) * step} left [0, 1]^2")
        if stop == _RK4_DRIFT_BELOW_TOL:
            break
    x = np.concatenate(rows)
    return Trajectory(np.arange(len(x)) * step, x)


def fixed_points(spec: GameSpec, p_max: float) -> list[FixedPoint]:
    """All fixed points of the drift inside the barrier box, with stability.

    w1 = A(p1) + q1 B(p1) is linear in q1 and w2 = c0(p1) + c1(p1) q1 +
    c2(p1) q1^2 is quadratic in it, so every fixed point with B != 0 has
    q1 = -A/B and p1 a real root of the degree-5 resultant
    c0 B^2 - c1 A B + c2 A^2.  Where A and B vanish together, w1 = 0 on the
    whole line through that p1 and the candidates are the roots of the
    quadratic w2(p1, .).  Candidates in [p_min, p_max] are polished by
    Newton with the analytic Jacobian down to |W| <= NEWTON_DRIFT_TOL, kept
    when they lie in the barrier box, deduplicated at distance DEDUP_TOL,
    labeled by the det/trace test and sorted by p1.  Raises DegenerateGame
    when the resultant vanishes identically.
    """
    if not 0.5 < p_max < 1.0:
        raise ValueError("p_max must be in (0.5, 1) for fixed-point search")
    p_min = 1.0 - p_max

    roots: list[tuple[float, float, float]] = []
    for s in _candidates(spec, p_max):
        res = _newton(spec, s, p_max)
        if res is None:
            continue
        p1, q1, wnorm = res
        if not (p_min - 1e-9 <= p1 <= p_max + 1e-9 and p_min - 1e-9 <= q1 <= p_max + 1e-9):
            continue
        if any(math.hypot(p1 - r[0], q1 - r[1]) < DEDUP_TOL for r in roots):
            continue
        roots.append((p1, q1, wnorm))

    out = []
    for p1, q1, wnorm in sorted(roots):
        jac = _jacobian(spec, p1, q1, p_max)
        det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
        trace = float(jac[0, 0] + jac[1, 1])
        x = JointState(float(min(max(p1, 0.0), 1.0)), float(min(max(q1, 0.0), 1.0)))
        out.append(FixedPoint(x, float(wnorm), jac, det, trace, _stability(det, trace)))
    return out


def _stability(det: float, trace: float) -> Stability:
    """The det/trace test of a 2x2 Jacobian: Stable iff det > 0 and
    trace < 0, Saddle iff det < 0, else Unstable."""
    if det > 0.0 and trace < 0.0:
        return Stability.STABLE
    if det < 0.0:
        return Stability.SADDLE
    return Stability.UNSTABLE


def _candidates(spec: GameSpec, p_max: float) -> list[tuple[float, float]]:
    """Newton starts for fixed_points: one per real root of the resultant in
    the box, plus the quadratic's roots where A and B share that root.

    Coefficient arrays run from the highest power of p1 down, as np.roots
    and np.polyval take them.
    """
    p_min = 1.0 - p_max
    R, C = spec.R, spec.C
    u = np.array([-1.0, p_max, 0.0])  # p1 (p_max - p1)
    v = np.array([1.0, -1.0 - p_min, p_min])  # (1 - p1)(p_min - p1)
    a = R.r12 * u + R.r22 * v
    b = (R.r11 - R.r12) * u + (R.r21 - R.r22) * v
    d1b = np.array([C.r11 - C.r21, C.r21])
    d2b = np.array([C.r12 - C.r22, C.r22])
    c0 = p_min * d2b
    c1 = p_max * d1b - (1.0 + p_min) * d2b
    c2 = d2b - d1b
    resultant = (
        np.convolve(c0, np.convolve(b, b))
        - np.convolve(c1, np.convolve(a, b))
        + np.convolve(c2, np.convolve(a, a))
    )
    if not resultant.any():
        raise DegenerateGame("the fixed-point resultant vanishes identically")
    a_tol = COMMON_ROOT_TOL * float(np.abs(a).sum())
    b_tol = COMMON_ROOT_TOL * float(np.abs(b).sum())
    out = []
    for r in np.roots(resultant):
        p1 = float(r.real)
        if abs(r.imag) > ROOT_SLACK or not p_min - ROOT_SLACK <= p1 <= p_max + ROOT_SLACK:
            continue
        a_p, b_p = float(np.polyval(a, p1)), float(np.polyval(b, p1))
        if b_p != 0.0:
            out.append((p1, -a_p / b_p))
        if abs(a_p) <= a_tol and abs(b_p) <= b_tol:
            quad = [float(np.polyval(c, p1)) for c in (c2, c1, c0)]
            out += [(p1, float(q.real)) for q in np.roots(quad) if abs(q.imag) <= ROOT_SLACK]
    return out


def _newton(
    spec: GameSpec, seed: tuple[float, float], p_max: float
) -> tuple[float, float, float] | None:
    """Newton iteration on W = 0; returns (p1, q1, |W|) or None on failure.

    Once |W| <= NEWTON_DRIFT_TOL it takes one more step and keeps it unless
    |W| grows: where the Jacobian is ill-conditioned, a |W| of 1e-13 can
    still leave the point 1e-9 from the root."""
    p1, q1 = float(seed[0]), float(seed[1])
    for _ in range(NEWTON_MAX_ITER):
        w1, w2 = _field(spec, p1, q1, p_max)
        wnorm = math.hypot(w1, w2)
        j = _jacobian(spec, p1, q1, p_max)
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if det == 0.0 or not math.isfinite(det):
            return (p1, q1, wnorm) if wnorm <= NEWTON_DRIFT_TOL else None
        p_next = p1 - (w1 * j[1, 1] - w2 * j[0, 1]) / det
        q_next = q1 - (w2 * j[0, 0] - w1 * j[1, 0]) / det
        if wnorm <= NEWTON_DRIFT_TOL:
            w_next = math.hypot(*_field(spec, p_next, q_next, p_max))
            return (p_next, q_next, w_next) if w_next <= wnorm else (p1, q1, wnorm)
        p1, q1 = p_next, q_next
        if not (-1.0 <= p1 <= 2.0 and -1.0 <= q1 <= 2.0):
            return None
    return None
