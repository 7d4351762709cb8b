import itertools
import math

import numpy as np
import pytest

from barrier_la import CaseKind, DriftValue, GameSpec, Model, PayoffMatrix, preset
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
    m = PayoffMatrix(1.0, 0.0, 0.0, 1.0)
    return GameSpec(Model.P, m, m)


def random_game(rng: np.random.Generator) -> GameSpec:
    r = rng.random(4)
    c = rng.random(4)
    return GameSpec(Model.P, PayoffMatrix(*r), PayoffMatrix(*c))


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


def lri_step(p1: float, chosen: int, feedback: float, cfg) -> float:
    """The paper's barrier update of one player's strategy (p1, 1 - p1):

        p_chosen <- p_chosen + theta * f * (p_max - p_chosen)
        p_other  <- p_other  + theta * f * (p_min - p_other)

    with feedback f = 1/0 (reward/penalty) under the P model and the payoff
    entry under the S model.  Returns the new p1: the first line when action
    1 was chosen, else the second line written for p1."""
    target = cfg.p_max if chosen == 1 else cfg.p_min
    return p1 + cfg.theta * feedback * (target - p1)


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


def drift_from_entries(spec: GameSpec, p1, q1, p_max: float):
    """The planar drift (w1, w2) written out from the payoff entries; takes
    floats or numpy arrays."""
    p_min = 1.0 - p_max
    R, C = spec.R, spec.C
    w1 = p1 * (p_max - p1) * (q1 * R.r11 + (1 - q1) * R.r12) + (1 - p1) * (p_min - p1) * (
        q1 * R.r21 + (1 - q1) * R.r22
    )
    w2 = q1 * (p_max - q1) * (p1 * C.r11 + (1 - p1) * C.r21) + (1 - q1) * (p_min - q1) * (
        p1 * C.r12 + (1 - p1) * C.r22
    )
    return w1, w2


def planar_root_oracle(
    spec: GameSpec, p_max: float, n: int = 100_001, refine: int = 3
) -> list[tuple[float, float]]:
    """All roots of the planar system W = 0 in the barrier box, sorted by p1;
    independent of the resultant polynomial in fixed_points.

    w1 is linear in q1, so w1 = 0 gives q1 = -a(p1) / b(p1).  Substituting
    that into w2 leaves a function of p1 alone, whose sign changes on a fine
    grid over [p_min, p_max] are bisected.  Brackets across a pole (b changes
    sign) are skipped; the cells around a pole are scanned again on a grid
    10^4 times finer, up to ``refine`` times, because w1 = 0 is nearly
    vertical there and can cross w2 = 0 twice within one cell.  A root is
    kept only if its drift is tiny and its own q1 lies in the box; the q1 of
    the grid neighbours may not.
    """
    p_min = 1.0 - p_max
    R = spec.R

    def q_of(p1):
        a = p1 * (p_max - p1) * R.r12 + (1 - p1) * (p_min - p1) * R.r22
        b = p1 * (p_max - p1) * (R.r11 - R.r12) + (1 - p1) * (p_min - p1) * (R.r21 - R.r22)
        return -a / b, b

    def reduced(p1):
        return drift_from_entries(spec, p1, q_of(p1)[0], p_max)[1]

    def scan(lo, hi, n, depth):
        grid = np.linspace(lo, hi, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = reduced(grid)
            b = q_of(grid)[1]
        for i in np.nonzero((g[:-1] * g[1:] <= 0) & (b[:-1] * b[1:] > 0))[0]:
            yield bisect_root(reduced, grid[i], grid[i + 1])
        if depth:
            for i in np.nonzero(b[:-1] * b[1:] <= 0)[0]:
                yield from scan(grid[max(i - 1, 0)], grid[min(i + 2, n - 1)], 10_001, depth - 1)

    roots: list[tuple[float, float]] = []
    for p1 in sorted(scan(p_min, p_max, n, refine)):
        q1 = q_of(p1)[0]
        if not p_min <= q1 <= p_max:
            continue
        if math.hypot(*drift_from_entries(spec, p1, q1, p_max)) > 1e-10:
            continue
        if roots and p1 - roots[-1][0] < 1e-9:
            continue  # two brackets share the root: a grid point sat on it, or a refined scan
        roots.append((p1, q1))
    return roots
