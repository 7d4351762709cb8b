"""Learner parameters of the barrier reward-inaction scheme.

On feedback f for action i a player moves a theta*f fraction of the way
from its strategy to the target that puts p_max on i and p_min = 1 - p_max
on the other action; a penalty (f = 0) leaves it unchanged.  The barriers
replace the simplex corners, which keeps the scheme ergodic, and p_max = 1
recovers the legacy absorbing rule.  The harness engine applies this rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LearnerConfig:
    """Learning rate theta in (0, 1) and barrier p_max in (0.5, 1].

    p_min is always derived as 1 - p_max and never set independently.
    """

    theta: float
    p_max: float
    p_min: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0,1)")
        _check_p_max(self.p_max)
        object.__setattr__(self, "p_min", 1.0 - self.p_max)


def _check_p_max(p_max: float) -> None:
    if not 0.5 < p_max <= 1.0:
        raise ValueError("p_max must be in (0.5, 1]")
