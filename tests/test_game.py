import json

import numpy as np
import pytest

from barrier_la import (
    CaseKind,
    DegenerateGame,
    JointState,
    Model,
    NotInSimplex,
    PayoffMatrix,
    classify,
    mixed_equilibrium,
    preset,
    pure_equilibria,
    run_ensemble,
    run_game,
    terminal_states,
)
from barrier_la import kernel
from barrier_la.game import from_dict, load_game

from conftest import (
    NEAR_TIE_C, NEAR_TIE_R, drives_from_entries, game_of, indifference_oracle, random_game,
    sign_case_oracle, sim_config,
)

# Entries whose gaps are subnormal or near 1e-200, mixed with plain ones: the
# products of two such gaps underflow to 0.
TINY_AND_PLAIN = (0.0, 5e-324, 1e-323, 1e-300, 1e-200, 2e-200, 1e-160, 0.25, 0.5, 0.75, 1.0)


class TestPayoffMatrix:
    def test_rejects_entries_outside_unit_interval(self):
        bad = [(u, 0.5, 0.5, 0.5) for u in (-0.1, 1.1, 1.2, 2.0)] + [(0.5, -0.1, 0.0, 0.0)]
        for entries in bad:
            with pytest.raises(ValueError):
                PayoffMatrix(*entries)

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
        spec = game_of((0.4, 0.6, 0.4, 0.5), (0.4, 0.25, 0.3, 0.6))  # r11 == r21
        with pytest.raises(DegenerateGame):
            classify(spec)

    def test_agrees_with_pure_equilibrium_count(self):
        # classify counts pure equilibria; the oracle applies the paper's sign
        # conditions.  Each random game is also checked scaled to gaps near
        # 1e-200, next to a game drawn from TINY_AND_PLAIN.
        rng = np.random.default_rng(2718)
        for _ in range(500):
            spec = random_game(rng)
            r, c = (np.array([m.r11, m.r12, m.r21, m.r22]) for m in (spec.R, spec.C))
            t = rng.choice(TINY_AND_PLAIN, 8)
            for game in (
                spec,
                game_of(r * 1e-200, c * 1e-200),
                game_of(t[:4], t[4:]),
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
        p_oracle, q_oracle = indifference_oracle(case3)
        assert p_opt == pytest.approx(p_oracle, abs=1e-9)
        assert q_opt == pytest.approx(q_oracle, abs=1e-9)
        assert (p_opt, q_opt) == pytest.approx((0.5, 2.0 / 3.0), abs=1e-12)

    def test_single_pure_preset_has_no_interior_equilibrium(self, case2):
        # L = 0 for this game, so the formula degenerates.
        with pytest.raises((NotInSimplex, DegenerateGame)):
            mixed_equilibrium(case2)

    def test_single_pure_game_has_no_mixed_point_in_the_simplex(self):
        # L and L' are nonzero, so the formulas give a point: q_opt = -4
        spec = game_of((0.8, 0.6, 0.3, 0.2), (0.7, 0.4, 0.5, 0.1))
        assert classify(spec) is CaseKind.SINGLE_PURE
        with pytest.raises(NotInSimplex, match="not in"):
            mixed_equilibrium(spec)

    def test_near_tie_game_stays_in_the_simplex(self):
        # c11 and c12 differ by one ulp; dividing by L' rounded p_opt to
        # 1.0000000000000002
        spec = game_of(NEAR_TIE_R, NEAR_TIE_C)
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
            d1a, d2a, d1b, d2b = drives_from_entries(spec, p_opt, q_opt)
            assert abs(d1a - d2a) < 1e-12
            assert abs(d1b - d2b) < 1e-12
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
        spec = game_of((0.4, 0.6, 0.4, 0.5), (0.4, 0.25, 0.3, 0.6))
        with pytest.raises(DegenerateGame):
            pure_equilibria(spec)


def constant_game(model, r, c):
    return game_of((r,) * 4, (c,) * 4, model)


class TestSampleFeedback:
    """P-model feedback as the engine samples it: a reward moves a player."""

    def test_certain_reward_and_certain_penalty(self):
        x = run_game(sim_config(constant_game(Model.P, 1.0, 0.0), steps=200, stride=1)).x
        assert (x[1:, 0] != x[:-1, 0]).all()
        assert (x[:, 1] == 0.5).all()

    def test_empirical_reward_rate(self):
        n = 200_000
        c = sim_config(constant_game(Model.P, 0.6, 0.3), 0.001, steps=n, seed=20240601, stride=1)
        x = run_game(c).x
        rates = np.count_nonzero(x[1:] != x[:-1], axis=0) / n
        assert rates[0] == pytest.approx(0.6, abs=3 * np.sqrt(0.6 * 0.4 / n))  # 3 sigma
        assert rates[1] == pytest.approx(0.3, abs=3 * np.sqrt(0.3 * 0.7 / n))

    def test_fixed_seed_is_reproducible(self, case1, monkeypatch):
        # the draws are one continuous stream per seed, whatever the blocking
        c = sim_config(case1, steps=500, seed=97, stride=1)
        want = run_game(c).x
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 2)  # one record per kernel call
        assert run_game(c).x.tolist() == want.tolist()

    def test_block_boundaries_never_change_an_ensemble(self, case1, monkeypatch):
        c = sim_config(case1, steps=500, seed=97, stride=7)
        want = run_ensemble(c, 40).x, terminal_states(c, 40)
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 2 * 40 * 5)  # 5 of the 73 records per call
        assert np.array_equal(run_ensemble(c, 40).x, want[0])
        assert np.array_equal(terminal_states(c, 40), want[1])

    def test_draw_order_is_a_then_b(self):
        # per step: action draws u0, u1, then reward draws u2 for A, u3 for B
        c = sim_config(constant_game(Model.P, 0.6, 0.3), 0.1, steps=50, seed=5, stride=1)
        x = run_game(c).x
        u = np.random.default_rng(5).random(200).reshape(50, 4)
        assert ((x[1:] != x[:-1]) == (u[:, 2:] < [0.6, 0.3])).all()


class TestDeterministicFeedback:
    """S-model feedback: each player's step is scaled by its payoff entry."""

    @staticmethod
    def first_step(spec, seed):
        a, b = np.where(np.random.default_rng(seed).random(2) < 0.5, 1, 2)
        p, q = run_game(sim_config(spec, 0.1, steps=1, seed=seed)).x[1]
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
    # The documented game format, written out by hand as a user would.
    CASE1 = {"model": "P", "R": [[0.2, 0.6], [0.4, 0.5]], "C": [[0.4, 0.25], [0.3, 0.6]]}
    CASE2 = {"model": "P", "R": [[0.7, 0.9], [0.6, 0.8]], "C": [[0.6, 0.8], [0.8, 0.9]]}

    def test_round_trip(self, tmp_path, case1):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(self.CASE1, indent=2) + "\n")
        assert load_game(path) == case1

    def test_dict_format(self):
        assert from_dict(json.loads(json.dumps(self.CASE2))) == preset("case2")

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"model": "P", "R": [[0.1, 0.2]], "C": [[0.1, 0.2], [0.3, 0.4]]})
        with pytest.raises(ValueError):
            from_dict({"model": "X", "R": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]]})
        # a payoff entry is a JSON number a float holds: no boolean, no string
        for entry in (True, "0.2", 10**400):
            with pytest.raises(ValueError, match="invalid game spec"):
                from_dict({"model": "P", "R": [[entry, 0.6], [0.4, 0.5]], "C": self.CASE1["C"]})

    def test_unknown_preset_names_the_choices(self):
        with pytest.raises(ValueError, match=r"'nope'; choose from \['case1', 'case2', 'case3'\]"):
            preset("nope")

    def test_presets_are_p_model(self):
        for name in ("case1", "case2", "case3"):
            assert preset(name).model is Model.P
