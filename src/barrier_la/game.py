"""2x2 bimatrix games: payoff data, equilibrium analysis, presets and JSON.

A game is given by two payoff matrices R (row player A) and C (column
player B) whose entries live in [0, 1].  Under the P model an entry is the
probability that the matching player is rewarded for the joint action;
under the S model it is the deterministic scalar feedback itself.  The
harness engine samples the feedback; this module only describes the game.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path


class DegenerateGame(ValueError):
    """A payoff tie makes the equilibrium taxonomy undefined."""


class NotInSimplex(ValueError):
    """A computed mixed-strategy coordinate fell outside [0, 1]."""


class Model(str, Enum):
    """Feedback model: Bernoulli reward/penalty (P) or scalar payoff (S)."""

    P = "P"
    S = "S"


@dataclass(frozen=True)
class PayoffMatrix:
    """2x2 payoff matrix with every entry in [0, 1].

    Entry (i, j) is indexed by the row player's action i and the column
    player's action j, both in {1, 2}.
    """

    r11: float
    r12: float
    r21: float
    r22: float

    def __post_init__(self) -> None:
        for name, v in zip(("11", "12", "21", "22"), (self.r11, self.r12, self.r21, self.r22)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"payoff entry {name}={v} outside [0, 1]")

    def entry(self, a: int, b: int) -> float:
        """Payoff entry for row action a and column action b (1-based)."""
        return (self.r11, self.r12, self.r21, self.r22)[2 * (a - 1) + (b - 1)]

    @classmethod
    def from_rows(cls, rows) -> "PayoffMatrix":
        (r11, r12), (r21, r22) = rows
        for v in (r11, r12, r21, r22):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError(f"payoff entry {v!r} is not a number")
        return cls(float(r11), float(r12), float(r21), float(r22))


@dataclass(frozen=True)
class GameSpec:
    """A bimatrix game: feedback model plus the two payoff matrices."""

    model: Model
    R: PayoffMatrix
    C: PayoffMatrix

    def with_model(self, model: Model) -> "GameSpec":
        return replace(self, model=model)


@dataclass(frozen=True)
class JointState:
    """Pair (p1, q1) of first-action probabilities for players A and B."""

    p1: float
    q1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.q1 <= 1.0):
            raise ValueError(f"state ({self.p1}, {self.q1}) outside [0, 1]^2")


class CaseKind(str, Enum):
    """Equilibrium structure of a non-degenerate 2x2 game."""

    MIXED_ONLY = "MixedOnly"
    SINGLE_PURE = "SinglePure"
    TWO_PURE_ONE_MIXED = "TwoPureOneMixed"


# The case of a tie-free game, indexed by its number of pure equilibria.
_CASE_BY_PURE_COUNT = (CaseKind.MIXED_ONLY, CaseKind.SINGLE_PURE, CaseKind.TWO_PURE_ONE_MIXED)


def classify(spec: GameSpec) -> CaseKind:
    """Classify the game by its number of pure equilibria.

    Without payoff ties a 2x2 game has 0, 1 or 2 pure equilibria, and the
    count fixes the case: 0 leaves only the mixed point, 2 come with an
    unstable mixed point between them.  Raises DegenerateGame on any tie.
    """
    return _CASE_BY_PURE_COUNT[len(pure_equilibria(spec))]


def mixed_equilibrium(spec: GameSpec) -> tuple[float, float]:
    """Interior mixed equilibrium (p_opt, q_opt) from the indifference conditions.

    p_opt = (c22 - c21) / L' makes player B indifferent between its two
    actions, and q_opt = (r22 - r12) / L does the same for player A.  Each
    is computed as d / (c + d) with c, d the two payoff differences that sum
    to the discriminant: when they share a sign, as they do for an interior
    equilibrium, rounding keeps the ratio in [0, 1].
    Raises DegenerateGame when a discriminant vanishes and NotInSimplex
    when a coordinate falls outside [0, 1] (no interior mixed equilibrium).
    """
    a, b = spec.R.r11 - spec.R.r21, spec.R.r22 - spec.R.r12
    c, d = spec.C.r11 - spec.C.r12, spec.C.r22 - spec.C.r21
    if a + b == 0.0 or c + d == 0.0:
        raise DegenerateGame("discriminant L or L' is zero")
    p_opt = d / (c + d)
    q_opt = b / (a + b)
    if not (0.0 <= p_opt <= 1.0 and 0.0 <= q_opt <= 1.0):
        raise NotInSimplex(f"computed mixed strategy ({p_opt}, {q_opt}) not in [0, 1]^2")
    return p_opt, q_opt


def pure_equilibria(spec: GameSpec) -> list[JointState]:
    """Pure equilibria found by strict best-response checks at all 4 corners.

    A corner is returned as a joint state: action 1 maps to probability 1.
    Entries are compared, never multiplied, so tiny gaps cannot underflow
    into a false tie.  A payoff tie at any corner raises DegenerateGame.
    """
    R, C = spec.R, spec.C
    out = []
    for a in (1, 2):
        for b in (1, 2):
            ra, ra_alt = R.entry(a, b), R.entry(3 - a, b)
            cb, cb_alt = C.entry(a, b), C.entry(a, 3 - b)
            if ra == ra_alt or cb == cb_alt:
                raise DegenerateGame(f"payoff tie at corner ({a}, {b})")
            if ra > ra_alt and cb > cb_alt:
                out.append(JointState(float(a == 1), float(b == 1)))
    return out


# Preset games covering the three equilibrium cases.  case1 has a unique
# mixed equilibrium at (0.6667, 0.3333); case2 a single pure equilibrium at
# the corner (1, 0); case3 two pure equilibria (1, 1) / (0, 0) plus an
# unstable mixed point at (0.5, 0.6667).
PRESETS: dict[str, GameSpec] = {
    "case1": GameSpec(
        Model.P,
        PayoffMatrix(0.2, 0.6, 0.4, 0.5),
        PayoffMatrix(0.4, 0.25, 0.3, 0.6),
    ),
    "case2": GameSpec(
        Model.P,
        PayoffMatrix(0.7, 0.9, 0.6, 0.8),
        PayoffMatrix(0.6, 0.8, 0.8, 0.9),
    ),
    "case3": GameSpec(
        Model.P,
        PayoffMatrix(0.3, 0.1, 0.2, 0.3),
        PayoffMatrix(0.3, 0.2, 0.1, 0.2),
    ),
}


def preset(name: str) -> GameSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def from_dict(data: dict) -> GameSpec:
    """Game from its JSON form {"model": "P"|"S", "R": [[..],[..]], "C": [[..],[..]]}."""
    try:
        model = Model(data["model"])
        R = PayoffMatrix.from_rows(data["R"])
        C = PayoffMatrix.from_rows(data["C"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid game spec: {exc}") from exc
    return GameSpec(model, R, C)


def load_game(path: str | Path) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh))
