import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrier_la import (
    CaseKind,
    DegenerateGame,
    GameSpec,
    JointState,
    LearnerConfig,
    Model,
    NotInSimplex,
    PayoffMatrix,
    SimConfig,
    classify,
    equilibrium_report,
    mixed_equilibrium,
    preset,
    pure_equilibria,
    run_ensemble,
    run_game,
    terminal_states,
)
from barrier_la import harness
from barrier_la.game import discriminants, dump_game, from_dict, load_game, to_dict

from conftest import random_game, sign_case_oracle

# A valid interior game whose mixed point sits one ulp from the p = 1 edge.
NEAR_TIE_R = (0.7200111192047169, 0.13290601045995287, 0.28897610525044326, 0.4831693166218948)
NEAR_TIE_C = (0.24372164064158708, 0.24372164064158705, 0.3464797884927627, 0.9570840322522522)

# Entries whose gaps are subnormal or near 1e-200, mixed with plain ones: the
# products of two such gaps underflow to 0.
TINY_AND_PLAIN = (0.0, 5e-324, 1e-323, 1e-300, 1e-200, 2e-200, 1e-160, 0.25, 0.5, 0.75, 1.0)


def _drive_gap_a(spec: GameSpec, q1: float) -> float:
    R = spec.R
    d1 = q1 * R.r11 + (1 - q1) * R.r12
    d2 = q1 * R.r21 + (1 - q1) * R.r22
    return d1 - d2


def _drive_gap_b(spec: GameSpec, p1: float) -> float:
    C = spec.C
    d1 = p1 * C.r11 + (1 - p1) * C.r21
    d2 = p1 * C.r12 + (1 - p1) * C.r22
    return d1 - d2


def _bisect_indifference(gap, lo=0.0, hi=1.0, iters=100):
    """Grid-bracketing plus bisection on a linear indifference gap."""
    grid = np.linspace(lo, hi, 1001)
    vals = [gap(g) for g in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return grid[i]
        if vals[i] * vals[i + 1] < 0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            for _ in range(iters):
                m = 0.5 * (a + b)
                fm = gap(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
    return None


class TestPayoffMatrix:
    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PayoffMatrix(1.2, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PayoffMatrix(0.5, -0.1, 0.0, 0.0)

    def test_entry_lookup(self):
        m = PayoffMatrix(0.1, 0.2, 0.3, 0.4)
        assert m.entry(1, 1) == 0.1
        assert m.entry(1, 2) == 0.2
        assert m.entry(2, 1) == 0.3
        assert m.entry(2, 2) == 0.4


class TestClassify:
    def test_case1_preset_is_mixed_only(self, case1):
        assert classify(case1) is CaseKind.MIXED_ONLY

    def test_case2_preset_is_single_pure(self, case2):
        assert classify(case2) is CaseKind.SINGLE_PURE

    def test_coordination_game_is_two_pure_one_mixed(self, coordination):
        assert classify(coordination) is CaseKind.TWO_PURE_ONE_MIXED

    def test_case3_preset_is_two_pure_one_mixed(self, case3):
        assert classify(case3) is CaseKind.TWO_PURE_ONE_MIXED

    def test_tied_row_payoffs_are_degenerate(self):
        spec = GameSpec(
            Model.P,
            PayoffMatrix(0.4, 0.6, 0.4, 0.5),  # r11 == r21
            PayoffMatrix(0.4, 0.25, 0.3, 0.6),
        )
        with pytest.raises(DegenerateGame):
            classify(spec)

    def test_agrees_with_pure_equilibrium_count(self):
        # classify counts pure equilibria; the oracle applies the paper's sign
        # conditions.  Each random game is also checked scaled to gaps near
        # 1e-200, next to a game drawn from TINY_AND_PLAIN.
        rng = np.random.default_rng(2718)
        for _ in range(500):
            spec = random_game(rng)
            r, c = spec.R.as_array().ravel(), spec.C.as_array().ravel()
            t = rng.choice(TINY_AND_PLAIN, 8)
            for game in (
                spec,
                GameSpec(Model.P, PayoffMatrix(*r * 1e-200), PayoffMatrix(*c * 1e-200)),
                GameSpec(Model.P, PayoffMatrix(*t[:4]), PayoffMatrix(*t[4:])),
            ):
                want = sign_case_oracle(game)
                if want is None:
                    with pytest.raises(DegenerateGame):
                        classify(game)
                else:
                    assert classify(game) is want


class TestMixedEquilibrium:
    def test_case1_preset_values(self, case1):
        p_opt, q_opt = mixed_equilibrium(case1)
        assert p_opt == pytest.approx(0.6667, abs=5e-5)
        assert q_opt == pytest.approx(0.3333, abs=5e-5)
        assert p_opt == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert q_opt == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_coordination_game_is_uniform(self, coordination):
        assert mixed_equilibrium(coordination) == (0.5, 0.5)

    def test_case3_preset_values(self, case3):
        # Independent check: solve both indifference conditions directly.
        p_opt, q_opt = mixed_equilibrium(case3)
        p_oracle = _bisect_indifference(lambda p: _drive_gap_b(case3, p))
        q_oracle = _bisect_indifference(lambda q: _drive_gap_a(case3, q))
        assert p_opt == pytest.approx(p_oracle, abs=1e-9)
        assert q_opt == pytest.approx(q_oracle, abs=1e-9)
        assert (p_opt, q_opt) == pytest.approx((0.5, 2.0 / 3.0), abs=1e-12)

    def test_single_pure_preset_has_no_interior_equilibrium(self, case2):
        # L = 0 for this game, so the formula degenerates.
        with pytest.raises((NotInSimplex, DegenerateGame)):
            mixed_equilibrium(case2)

    def test_near_tie_game_stays_in_the_simplex(self):
        # c11 and c12 differ by one ulp; dividing by L' rounded p_opt to
        # 1.0000000000000002
        spec = GameSpec(Model.P, PayoffMatrix(*NEAR_TIE_R), PayoffMatrix(*NEAR_TIE_C))
        assert classify(spec) is CaseKind.TWO_PURE_ONE_MIXED
        p_opt, q_opt = mixed_equilibrium(spec)
        assert 0.0 <= p_opt <= 1.0 and 0.0 <= q_opt <= 1.0
        assert q_opt == pytest.approx(0.4483093040694639, abs=1e-15)

    def test_indifference_property_on_random_games(self):
        rng = np.random.default_rng(31415)
        checked = 0
        while checked < 300:
            spec = random_game(rng)
            try:
                kind = classify(spec)
            except DegenerateGame:
                continue
            if kind is CaseKind.SINGLE_PURE:
                continue
            p_opt, q_opt = mixed_equilibrium(spec)
            assert abs(_drive_gap_a(spec, q_opt)) < 1e-12
            assert abs(_drive_gap_b(spec, p_opt)) < 1e-12
            assert 0.0 < p_opt < 1.0 and 0.0 < q_opt < 1.0
            checked += 1


class TestPureEquilibria:
    def test_case2_preset_single_corner(self, case2):
        assert pure_equilibria(case2) == [JointState(1.0, 0.0)]

    def test_case1_preset_has_none(self, case1):
        assert pure_equilibria(case1) == []

    def test_case3_preset_both_diagonal_corners(self, case3):
        assert pure_equilibria(case3) == [JointState(1.0, 1.0), JointState(0.0, 0.0)]

    def test_tie_raises(self):
        spec = GameSpec(
            Model.P,
            PayoffMatrix(0.4, 0.6, 0.4, 0.5),
            PayoffMatrix(0.4, 0.25, 0.3, 0.6),
        )
        with pytest.raises(DegenerateGame):
            pure_equilibria(spec)


class TestEquilibriumReport:
    def test_case_shapes(self, case1, case2, case3):
        r1 = equilibrium_report(case1)
        assert r1.case_kind is CaseKind.MIXED_ONLY and r1.pure == () and r1.mixed
        r2 = equilibrium_report(case2)
        assert r2.case_kind is CaseKind.SINGLE_PURE and len(r2.pure) == 1 and r2.mixed is None
        r3 = equilibrium_report(case3)
        assert r3.case_kind is CaseKind.TWO_PURE_ONE_MIXED and len(r3.pure) == 2 and r3.mixed

    def test_discriminants_of_case1(self, case1):
        L, L_prime = discriminants(case1)
        assert L == pytest.approx(-0.3)
        assert L_prime == pytest.approx(0.45)


def simulate(spec, steps, seed=0, theta=0.01):
    """Recorded states (steps + 1, 2) of one run from (0.5, 0.5) at p_max = 0.99, stride 1."""
    cfg = LearnerConfig(theta=theta, p_max=0.99)
    return run_game(SimConfig(spec, cfg, cfg, JointState(0.5, 0.5), steps, seed, 1)).x


def constant_game(model, r, c):
    return GameSpec(model, PayoffMatrix(r, r, r, r), PayoffMatrix(c, c, c, c))


class TestSampleFeedback:
    """P-model feedback as the engine samples it: a reward moves a player."""

    def test_certain_reward_and_certain_penalty(self):
        x = simulate(constant_game(Model.P, 1.0, 0.0), 200)
        assert (x[1:, 0] != x[:-1, 0]).all()
        assert (x[:, 1] == 0.5).all()

    def test_empirical_reward_rate(self):
        n = 200_000
        x = simulate(constant_game(Model.P, 0.6, 0.3), n, seed=20240601, theta=0.001)
        rates = np.count_nonzero(x[1:] != x[:-1], axis=0) / n
        assert rates[0] == pytest.approx(0.6, abs=3 * np.sqrt(0.6 * 0.4 / n))  # 3 sigma
        assert rates[1] == pytest.approx(0.3, abs=3 * np.sqrt(0.3 * 0.7 / n))

    def test_fixed_seed_is_reproducible(self, case1, monkeypatch):
        # the draws are one continuous stream per seed, whatever the blocking
        want = simulate(case1, 500, seed=97)
        monkeypatch.setattr(harness, "_BLOCK_BUDGET", 2)  # one record per kernel call
        assert simulate(case1, 500, seed=97).tolist() == want.tolist()

    def test_block_boundaries_never_change_an_ensemble(self, case1, monkeypatch):
        cfg = LearnerConfig(theta=0.01, p_max=0.99)
        c = SimConfig(case1, cfg, cfg, JointState(0.5, 0.5), 500, 97, 7)
        want = run_ensemble(c, 40).x, terminal_states(c, 40)
        monkeypatch.setattr(harness, "_BLOCK_BUDGET", 2 * 40 * 5)  # 5 of the 73 records per call
        assert np.array_equal(run_ensemble(c, 40).x, want[0])
        assert np.array_equal(terminal_states(c, 40), want[1])

    def test_draw_order_is_a_then_b(self):
        # per step: action draws u0, u1, then reward draws u2 for A, u3 for B
        x = simulate(constant_game(Model.P, 0.6, 0.3), 50, seed=5, theta=0.1)
        u = np.random.default_rng(5).random(200).reshape(50, 4)
        assert ((x[1:] != x[:-1]) == (u[:, 2:] < [0.6, 0.3])).all()


class TestDeterministicFeedback:
    """S-model feedback: each player's step is scaled by its payoff entry."""

    @staticmethod
    def first_step(spec, seed):
        a, b = np.where(np.random.default_rng(seed).random(2) < 0.5, 1, 2)
        p, q = simulate(spec, 1, seed=seed, theta=0.1)[1]
        assert p == pytest.approx(0.5 + 0.1 * spec.R.entry(a, b) * (0.49 if a == 1 else -0.49))
        assert q == pytest.approx(0.5 + 0.1 * spec.C.entry(a, b) * (0.49 if b == 1 else -0.49))
        return a, b

    def test_joint_action_indexes_both_matrices(self, case1):
        seen = {self.first_step(case1.with_model(Model.S), seed) for seed in range(16)}
        assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_diagonal_actions(self, case3):
        seen = {self.first_step(case3.with_model(Model.S), seed) for seed in range(16)}
        assert {(1, 1), (2, 2)} <= seen


class TestJsonInterface:
    def test_round_trip(self, tmp_path, case1):
        path = tmp_path / "game.json"
        dump_game(case1, path)
        assert load_game(path) == case1

    def test_dict_format(self, case2):
        d = to_dict(case2)
        assert d == {
            "model": "P",
            "R": [[0.7, 0.9], [0.6, 0.8]],
            "C": [[0.6, 0.8], [0.8, 0.9]],
        }
        assert from_dict(json.loads(json.dumps(d))) == case2

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"model": "P", "R": [[0.1, 0.2]], "C": [[0.1, 0.2], [0.3, 0.4]]})
        with pytest.raises(ValueError):
            from_dict({"model": "X", "R": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]]})

    def test_presets_are_p_model(self):
        for name in ("case1", "case2", "case3"):
            assert preset(name).model is Model.P


@settings(max_examples=200, deadline=None)
@given(
    r=st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=4),
    c=st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=4),
)
@example(r=list(NEAR_TIE_R), c=list(NEAR_TIE_C))
@example(r=[1e-200, 0.0, 0.0, 1e-200], c=[1e-200, 0.0, 0.0, 1e-200])  # gap products underflow
def test_report_invariants_on_arbitrary_games(r, c):
    spec = GameSpec(Model.P, PayoffMatrix(*r), PayoffMatrix(*c))
    want = sign_case_oracle(spec)
    if want is None:
        with pytest.raises(DegenerateGame):
            equilibrium_report(spec)
        return
    report = equilibrium_report(spec)
    assert report.case_kind is want
    if report.case_kind is CaseKind.MIXED_ONLY:
        assert report.pure == () and report.mixed is not None
    elif report.case_kind is CaseKind.SINGLE_PURE:
        assert len(report.pure) == 1 and report.mixed is None
    else:
        assert len(report.pure) == 2 and report.mixed is not None
