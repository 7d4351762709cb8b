import math

import numpy as np
import pytest

from barrier_la import GameSpec, Model, PayoffMatrix, preset


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
