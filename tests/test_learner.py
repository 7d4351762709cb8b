"""The learner's parameters, the joint state's bounds, and the update rule
and action draw as the engine applies them.

Each rule test runs ``run_game`` on a game chosen so that the effect of
the rule can be read off the recorded states.  The property that any run
is bit-identical to the one-draw-at-a-time reference loop and stays inside
each player's barrier box is in ``test_harness.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrier_la import JointState, LearnerConfig, Model, run_game

from conftest import game_of, sim_config

ALWAYS = (1.0, 1.0, 1.0, 1.0)
NEVER = (0.0, 0.0, 0.0, 0.0)
FIRST_ROW = (1.0, 1.0, 0.0, 0.0)  # R: player A gets feedback 1 only for its action 1
FIRST_COLUMN = (1.0, 0.0, 1.0, 0.0)  # C: player B gets feedback 1 only for its action 1


def draws(seed, n):
    return np.random.default_rng(seed).random(n)


class TestLearnerConfig:
    def test_p_min_is_derived(self):
        cfg = LearnerConfig(theta=0.1, p_max=0.99)
        assert cfg.p_min == pytest.approx(0.01)
        assert cfg.p_min + cfg.p_max == 1.0

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError, match="theta"):
            LearnerConfig(theta=theta, p_max=0.99)

    @pytest.mark.parametrize("p_max", [0.5, 0.4, 1.0001])
    def test_p_max_range(self, p_max):
        with pytest.raises(ValueError, match="p_max"):
            LearnerConfig(theta=0.1, p_max=p_max)

    def test_p_max_one_is_allowed(self):
        assert LearnerConfig(theta=0.1, p_max=1.0).p_min == 0.0


class TestMixedStrategy:
    """JointState: each player's first-action probability."""

    def test_rejects_non_simplex(self):
        # a strategy is stored as its first-action probability, which must
        # lie in [0, 1]
        with pytest.raises(ValueError):
            JointState(1.2, 0.5)
        with pytest.raises(ValueError):
            JointState(0.5, -0.1)


class TestLriUpdate:
    """The barrier update under rewards and penalties, p_max = 1 included."""

    def test_reward_moves_toward_barriers(self):
        x = run_game(sim_config(game_of(ALWAYS, ALWAYS), 0.1, steps=1, seed=3)).x[1]
        u = draws(3, 2)
        assert x[0] == pytest.approx(0.549 if u[0] < 0.5 else 0.451, abs=1e-12)
        assert x[1] == pytest.approx(0.549 if u[1] < 0.5 else 0.451, abs=1e-12)

    def test_penalty_is_inaction(self):
        c = sim_config(game_of(NEVER, NEVER), 0.3, 0.95, steps=200, stride=1, x0=(0.7, 0.3))
        x = run_game(c).x
        assert (x == [0.7, 0.3]).all()

    def test_barrier_corner_is_a_fixed_point(self):
        # action 1 is rewarded toward a target it already sits on; action 2
        # gets feedback 0, so the state never leaves (p_max, p_max)
        spec = game_of(FIRST_ROW, FIRST_COLUMN, Model.S)
        x = run_game(sim_config(spec, 0.2, steps=500, stride=1, x0=(0.99, 0.99))).x
        assert (x == 0.99).all()

    def test_legacy_rule_recovered_at_p_max_one(self):
        # With p_max = 1 a reward moves p_i <- p_i + theta (1 - p_i), the
        # classical absorbing rule.
        for seed in range(4):
            c = sim_config(game_of(ALWAYS, ALWAYS), 0.25, 1.0, steps=1, seed=seed, x0=(0.4, 0.6))
            x = run_game(c).x[1]
            u = draws(seed, 2)
            assert x[0] == pytest.approx(0.4 + 0.25 * 0.6 if u[0] < 0.4 else 0.4 - 0.25 * 0.4)
            assert x[1] == pytest.approx(0.6 + 0.25 * 0.4 if u[1] < 0.6 else 0.6 - 0.25 * 0.6)


class TestSUpdate:
    """The S model: the step is scaled by the payoff entry."""

    def test_zero_feedback_is_inaction(self):
        spec = game_of(NEVER, NEVER, Model.S)
        x = run_game(sim_config(spec, 0.1, steps=200, stride=1, x0=(0.62, 0.38))).x
        assert (x == [0.62, 0.38]).all()

    def test_unit_feedback_matches_rewarded_lri(self):
        c = sim_config(game_of(ALWAYS, ALWAYS), 0.1, steps=1, seed=8)
        s = run_game(dataclasses.replace(c, spec=c.spec.with_model(Model.S))).x[1]
        assert s.tolist() == run_game(c).x[1].tolist()
        assert s[0] == pytest.approx(0.549 if draws(8, 1)[0] < 0.5 else 0.451, abs=1e-12)

    def test_half_feedback(self):
        spec = game_of((0.5,) * 4, (0.5,) * 4, Model.S)
        x = run_game(sim_config(spec, 0.1, steps=1, seed=5)).x[1]
        u = draws(5, 2)
        assert x[0] == pytest.approx(0.5245 if u[0] < 0.5 else 0.4755, abs=1e-12)
        assert x[1] == pytest.approx(0.5245 if u[1] < 0.5 else 0.4755, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(st.sampled_from([0.0, 1.0]), min_size=8, max_size=8),
        start=st.floats(0.0, 1.0),
        theta=st.floats(0.001, 0.999),
        p_max=st.floats(0.501, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_binary_feedback_reduces_to_lri(self, entries, start, theta, p_max, seed):
        # the first step shares its action draws; with 0/1 payoffs the P
        # model's reward draw always agrees with the S model's feedback
        p1 = min(p_max, (1 - p_max) + start * (2 * p_max - 1))
        spec = game_of(entries[:4], entries[4:])
        c = sim_config(spec, theta, p_max, steps=1, seed=seed, x0=(p1, p1))
        s = run_game(dataclasses.replace(c, spec=spec.with_model(Model.S))).x
        assert s.tolist() == run_game(c).x.tolist()


class TestChooseAction:
    """The action draw: one uniform per player and step, below p picks action 1."""

    def test_pure_strategies_are_deterministic(self):
        # A pure strategy draws the same action every step, so with p_max = 1
        # a run that reaches a corner of the coordination game stays there.
        spec = game_of((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0))
        x = run_game(sim_config(spec, 0.9, 1.0, steps=2000, seed=0, stride=1)).x
        at_corner = np.flatnonzero(np.isin(x, (0.0, 1.0)).all(axis=1))
        assert at_corner.size
        assert (x[at_corner[0]:] == x[at_corner[0]]).all()

    def test_consumes_exactly_one_draw(self):
        # each player moves iff it chose action 1, and chooses it iff its own
        # uniform is below its probability: two draws per S-model step
        spec = game_of(FIRST_ROW, FIRST_COLUMN, Model.S)
        x = run_game(sim_config(spec, 0.1, steps=50, seed=11, stride=1, x0=(0.3, 0.7))).x
        u = draws(11, 100).reshape(50, 2)
        moved = x[1:] != x[:-1]
        assert (moved == (u < x[:-1])).all()

    def test_empirical_frequency(self):
        # A never moves (no feedback), B gets feedback 1 iff A chose action 1,
        # so B's moves count A's action-1 choices at p1 = 0.6667
        n = 200_000
        spec = game_of(NEVER, (1.0, 1.0, 0.0, 0.0), Model.S)
        x = run_game(sim_config(spec, 0.001, steps=n, seed=0, stride=1, x0=(0.6667, 0.5))).x
        assert (x[:, 0] == 0.6667).all()
        freq = np.count_nonzero(x[1:, 1] != x[:-1, 1]) / n
        assert freq == pytest.approx(0.6667, abs=3 * np.sqrt(0.6667 * 0.3333 / n))  # 3 sigma
