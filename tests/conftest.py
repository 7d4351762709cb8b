import itertools
import math

import numpy as np
import pytest

from barrier_la import (
    CaseKind, DriftValue, GameSpec, JointState, LearnerConfig, Model, PayoffMatrix, SimConfig,
    Stability, fixed_points, preset, vector_field,
)
from barrier_la.harness import _load_kernel


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    _load_kernel.cache_clear()
    yield
    _load_kernel.cache_clear()


@pytest.fixture
def no_compiler(tmp_path, monkeypatch, fresh_loader):
    """No cached kernel and no cc to build one; returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", "")
    return tmp_path / "barrier_la"


@pytest.fixture
def case1() -> GameSpec:
    return preset("case1")


@pytest.fixture
def case2() -> GameSpec:
    return preset("case2")


@pytest.fixture
def case3() -> GameSpec:
    return preset("case3")


@pytest.fixture
def coordination() -> GameSpec:
    return game_of((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0))


def game_of(r, c, model: Model = Model.P) -> GameSpec:
    """The game with entries r = (r11, r12, r21, r22) of R and c of C."""
    return GameSpec(model, PayoffMatrix(*r), PayoffMatrix(*c))


def random_game(rng: np.random.Generator) -> GameSpec:
    return game_of(rng.random(4), rng.random(4))


def sign_case_oracle(spec: GameSpec):
    """The case by the paper's sign conditions on the payoff gaps, or None on a tie.

    A has a dominant action when r11 - r21 and r12 - r22 share a sign, and B
    when c11 - c12 and c21 - c22 do; either gives a single pure equilibrium.
    Otherwise the best responses cycle (MixedOnly) when r11 - r21 and
    c11 - c12 differ in sign, and coordinate (TwoPureOneMixed) when they
    share it.  Signs are compared rather than multiplied, so gaps near 1e-200
    or subnormal keep their case.
    """
    R, C = spec.R, spec.C
    ga, ga_alt = R.r11 - R.r21, R.r12 - R.r22
    gb, gb_alt = C.r11 - C.r12, C.r21 - C.r22
    if 0.0 in (ga, ga_alt, gb, gb_alt):
        return None
    if (ga > 0) == (ga_alt > 0) or (gb > 0) == (gb_alt > 0):
        return CaseKind.SINGLE_PURE
    if (ga > 0) != (gb > 0):
        return CaseKind.MIXED_ONLY
    return CaseKind.TWO_PURE_ONE_MIXED


def sim_config(spec, theta=0.01, p_max=0.99, steps=500, seed=42, stride=100, x0=(0.5, 0.5)):
    """A SimConfig whose two players share one LearnerConfig(theta, p_max)."""
    cfg = LearnerConfig(theta=theta, p_max=p_max)
    return SimConfig(spec, cfg, cfg, JointState(*x0), steps, seed, stride)


def lri_step(p1: float, chosen: int, feedback: float, cfg) -> float:
    """The paper's barrier update of one player's strategy (p1, 1 - p1):

        p_chosen <- p_chosen + theta * f * (p_max - p_chosen)
        p_other  <- p_other  + theta * f * (p_min - p_other)

    with feedback f = 1/0 (reward/penalty) under the P model and the payoff
    entry under the S model.  Returns the new p1: the first line when action
    1 was chosen, else the second line written for p1."""
    target = cfg.p_max if chosen == 1 else cfg.p_min
    return p1 + cfg.theta * feedback * (target - p1)


def steady_state_error(traj, target) -> float:
    """Euclidean distance between the late-time mean state and the target.

    The mean is taken over the last 10% of the recorded samples (at least
    one sample).
    """
    m = traj.x[-max(1, math.ceil(0.1 * len(traj))) :].mean(axis=0)
    return math.hypot(m[0] - target.p1, m[1] - target.q1)


def reference_loop(c) -> list[tuple[int, float, float]]:
    """A run of SimConfig c written one rng.random() call at a time: the
    action draw of A, then of B, then (P model) the reward draw of A, then
    of B; each player applies lri_step.  Records like run_game."""
    rng = np.random.default_rng(c.seed)
    p, q = c.x0.p1, c.x0.q1
    rec = [(0, p, q)]
    for t in range(1, c.steps + 1):
        a = 1 if rng.random() < p else 2
        b = 1 if rng.random() < q else 2
        fa, fb = c.spec.R.entry(a, b), c.spec.C.entry(a, b)
        if c.spec.model is Model.P:
            fa = 1.0 if rng.random() < fa else 0.0
            fb = 1.0 if rng.random() < fb else 0.0
        p = lri_step(p, a, fa, c.cfg_a)
        q = lri_step(q, b, fb, c.cfg_b)
        if t % c.record_stride == 0 or t == c.steps:
            rec.append((t, p, q))
    return rec


def expected_increment_oracle(spec: GameSpec, x, cfg) -> DriftValue:
    """E[X' - X | X] / theta for a P-model game, by brute force: the 4 joint
    actions times each player's reward or penalty (16 branches), each
    weighted by its exact probability and stepped with lri_step."""
    if spec.model is not Model.P:
        raise ValueError("the 16-branch oracle enumerates P-model rewards")
    prob_a, prob_b = (x.p1, 1.0 - x.p1), (x.q1, 1.0 - x.q1)
    e1 = e2 = 0.0
    for a, b, fa, fb in itertools.product((1, 2), (1, 2), (1.0, 0.0), (1.0, 0.0)):
        ra, cb = spec.R.entry(a, b), spec.C.entry(a, b)
        w = prob_a[a - 1] * prob_b[b - 1] * (ra if fa else 1.0 - ra) * (cb if fb else 1.0 - cb)
        e1 += w * (lri_step(x.p1, a, fa, cfg) - x.p1)
        e2 += w * (lri_step(x.q1, b, fb, cfg) - x.q1)
    return DriftValue(e1 / cfg.theta, e2 / cfg.theta)


def bisect_root(gap, lo: float, hi: float, iters: int = 80) -> float:
    f_lo = gap(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f_lo * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = gap(lo)
    return 0.5 * (lo + hi)


def drives_from_entries(spec: GameSpec, p1, q1):
    """The drives (d1a, d2a, d1b, d2b): A's expected payoff of its action 1
    and 2 against B at q1, and B's of its action 1 and 2 against A at p1,
    written out from the payoff entries; takes floats or numpy arrays."""
    R, C = spec.R, spec.C
    return (
        q1 * R.r11 + (1 - q1) * R.r12,
        q1 * R.r21 + (1 - q1) * R.r22,
        p1 * C.r11 + (1 - p1) * C.r21,
        p1 * C.r12 + (1 - p1) * C.r22,
    )


def drift_from_entries(spec: GameSpec, p1, q1, p_max: float):
    """The planar drift (w1, w2) written out from the drives; takes floats
    or numpy arrays."""
    p_min = 1.0 - p_max
    d1a, d2a, d1b, d2b = drives_from_entries(spec, p1, q1)
    w1 = p1 * (p_max - p1) * d1a + (1 - p1) * (p_min - p1) * d2a
    w2 = q1 * (p_max - q1) * d1b + (1 - q1) * (p_min - q1) * d2b
    return w1, w2


def indifference_oracle(spec: GameSpec) -> tuple[float, float]:
    """The interior equilibrium (p_opt, q_opt) from the two indifference
    conditions: p1 where B's drives tie and q1 where A's do, each the first
    sign change of the gap on a 1001-point grid over [0, 1], bisected;
    independent of the closed form in mixed_equilibrium."""
    grid = np.linspace(0.0, 1.0, 1001)

    def root(gap):
        g = gap(grid)
        i = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) <= 0)[0][0]
        return bisect_root(gap, grid[i], grid[i + 1])

    def gaps(x):  # (d1b - d2b at p1 = x, d1a - d2a at q1 = x)
        d1a, d2a, d1b, d2b = drives_from_entries(spec, x, x)
        return d1b - d2b, d1a - d2a

    return root(lambda p1: gaps(p1)[0]), root(lambda q1: gaps(q1)[1])


def fd_jacobian(spec: GameSpec, x, p_max: float, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of vector_field at x."""
    out = np.empty((2, 2))
    for j, (dp, dq) in enumerate(((h, 0.0), (0.0, h))):
        wp = vector_field(spec, JointState(x.p1 + dp, x.q1 + dq), p_max)
        wm = vector_field(spec, JointState(x.p1 - dp, x.q1 - dq), p_max)
        out[0, j] = (wp.w1 - wm.w1) / (2 * h)
        out[1, j] = (wp.w2 - wm.w2) / (2 * h)
    return out


def stable_points(spec: GameSpec, p_max: float):
    return [fp for fp in fixed_points(spec, p_max) if fp.stability is Stability.STABLE]


def planar_root_oracle(
    spec: GameSpec, p_max: float, n: int = 100_001, refine: int = 3
) -> list[tuple[float, float]]:
    """All roots of the planar system W = 0 in the barrier box, sorted by p1;
    independent of the resultant polynomial in fixed_points.

    w1 is linear in q1, so w1 = 0 gives q1 = -a(p1) / b(p1).  Substituting
    that into w2 leaves a function of p1 alone, whose sign changes on a fine
    grid over [p_min, p_max] are bisected.  Brackets across a pole (b changes
    sign) are skipped.  The cells around a pole, and around each cell where
    q1 sweeps more than 0.05 through the box, are scanned again on a grid
    10^4 times finer, up to ``refine`` times, because w1 = 0 is nearly
    vertical there and can cross w2 = 0 twice within one cell (seed
    1303035730 of random_game at p_max = 0.9984406822616054 has such a
    root two cells from its pole).  Each root's q1 is then bisected on
    w2(p1, .) next to -a/b, which near a pole is too steep in p1 to give q1
    to 1e-9.  A root is kept only if its drift is tiny and its own q1 lies
    in the box; the q1 of the grid neighbours may not.

    Games where w1 vanishes on a whole line p1 = const are out of its
    reach.  Where A = 0 (r12 = r22 = 0), q1 = -a/b is 0 for every p1,
    outside the box, so it returns no root at all; where B = 0 (r11 = r12,
    r21 = r22), -a/b is undefined for every p1.  tests/test_dynamics.py
    checks fixed_points on such games against a root bisected on that line
    instead.
    """
    p_min = 1.0 - p_max
    R = spec.R

    def q_of(p1):
        a = p1 * (p_max - p1) * R.r12 + (1 - p1) * (p_min - p1) * R.r22
        b = p1 * (p_max - p1) * (R.r11 - R.r12) + (1 - p1) * (p_min - p1) * (R.r21 - R.r22)
        return -a / b, b

    def w2(p1, q1):
        return drift_from_entries(spec, p1, q1, p_max)[1]

    def reduced(p1):
        return w2(p1, q_of(p1)[0])

    def scan(lo, hi, n, depth):
        grid = np.linspace(lo, hi, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = reduced(grid)
            q, b = q_of(grid)
        for i in np.nonzero((g[:-1] * g[1:] <= 0) & (b[:-1] * b[1:] > 0))[0]:
            yield bisect_root(reduced, grid[i], grid[i + 1])
        if depth:
            q_lo, q_hi = np.fmin(q[:-1], q[1:]), np.fmax(q[:-1], q[1:])
            steep = (q_hi - q_lo > 0.05) & (q_hi >= p_min) & (q_lo <= p_max)
            for i in np.nonzero((b[:-1] * b[1:] <= 0) | steep)[0]:
                yield from scan(grid[max(i - 1, 0)], grid[min(i + 2, n - 1)], 10_001, depth - 1)

    def polish(p1, q1):
        # the root of w2(p1, .) next to q1: near a pole, -a/b moves by more
        # than 1e-9 within one ulp of p1, and w2 at a fixed p1 does not
        for d in 10.0 ** np.arange(-12, -1):
            if w2(p1, q1 - d) * w2(p1, q1 + d) <= 0:
                return bisect_root(lambda q: w2(p1, q), q1 - d, q1 + d)
        return q1

    roots: list[tuple[float, float]] = []
    for p1 in sorted(scan(p_min, p_max, n, refine)):
        q1 = polish(p1, q_of(p1)[0])
        if not p_min <= q1 <= p_max:
            continue
        if math.hypot(*drift_from_entries(spec, p1, q1, p_max)) > 1e-10:
            continue
        if roots and p1 - roots[-1][0] < 1e-9:
            continue  # two brackets share the root: a grid point sat on it, or a refined scan
        roots.append((p1, q1))
    return roots
