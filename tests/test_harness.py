import csv
import math

import numpy as np
import pytest

from barrier_la import (
    ActionPair,
    EmptyTrajectory,
    JointState,
    LearnerConfig,
    MixedStrategy,
    Model,
    NotCase3,
    SimConfig,
    Trajectory,
    TrajectoryKind,
    basin_split,
    choose_action,
    deterministic_feedback,
    error_table,
    lri_update,
    per_run_seed,
    run_ensemble,
    run_game,
    s_update,
    sample_feedback,
    steady_state_error,
    terminal_states,
    write_error_table_csv,
    write_trajectory_csv,
)
from barrier_la.harness import _simulate_batch, _simulate_vector


def make_config(spec, theta=0.01, p_max=0.99, steps=500, seed=42, stride=100, x0=(0.5, 0.5)):
    cfg = LearnerConfig(theta=theta, p_max=p_max)
    return SimConfig(spec, cfg, cfg, JointState(*x0), steps, seed, stride)


def reference_loop(c: SimConfig) -> list[tuple[int, float, float]]:
    """Game loop composed from the public learner/game operations.

    Consumes the same generator stream as the engine: action draw for A,
    action draw for B, then (P model) feedback draw for A then B.
    """
    rng = np.random.default_rng(c.seed)
    a = MixedStrategy.of_first(c.x0.p1)
    b = MixedStrategy.of_first(c.x0.q1)
    rec = [(0, a.p1, b.p1)]
    for t in range(1, c.steps + 1):
        act = ActionPair(choose_action(a, rng), choose_action(b, rng))
        if c.spec.model is Model.P:
            fa, fb = sample_feedback(c.spec, act, rng)
            a = lri_update(a, act.a, fa, c.cfg_a)
            b = lri_update(b, act.b, fb, c.cfg_b)
        else:
            fa, fb = deterministic_feedback(c.spec, act)
            a = s_update(a, act.a, fa.u, c.cfg_a)
            b = s_update(b, act.b, fb.u, c.cfg_b)
        if t % c.record_stride == 0 or t == c.steps:
            rec.append((t, a.p1, b.p1))
    return rec


class TestRunGame:
    def test_zero_steps_returns_initial_state(self, case1):
        traj = run_game(make_config(case1, steps=0))
        assert len(traj) == 1
        assert traj.t[0] == 0
        assert traj.x[0] == pytest.approx([0.5, 0.5])

    def test_identical_config_identical_bits(self, case1):
        a = run_game(make_config(case1, steps=2000))
        b = run_game(make_config(case1, steps=2000))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)

    def test_recording_grid_includes_final_step(self, case1):
        traj = run_game(make_config(case1, steps=250, stride=100))
        assert traj.t.tolist() == [0, 100, 200, 250]

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    def test_engine_matches_composed_learner_loop(self, case1, model):
        """The engine must be bit-identical to the loop built from
        choose_action / sample_feedback / lri_update / s_update."""
        c = make_config(case1.with_model(model), steps=400, stride=7, theta=0.05)
        traj = run_game(c)
        ref = reference_loop(c)
        assert traj.t.tolist() == [r[0] for r in ref]
        assert traj.x[:, 0].tolist() == [r[1] for r in ref]
        assert traj.x[:, 1].tolist() == [r[2] for r in ref]

    def test_states_stay_inside_barrier_box(self, case3):
        c = make_config(case3, theta=0.2, p_max=0.93, steps=5000, stride=1)
        traj = run_game(c)
        cfg = c.cfg_a
        assert traj.x.min() >= cfg.p_min - 1e-12
        assert traj.x.max() <= cfg.p_max + 1e-12

    def test_x0_outside_barriers_rejected(self, case1):
        cfg = LearnerConfig(theta=0.1, p_max=0.9)
        with pytest.raises(ValueError, match="barrier"):
            SimConfig(case1, cfg, cfg, JointState(0.95, 0.5), 10, 1)


class TestRunEnsemble:
    def test_single_run_equals_run_game(self, case1):
        c = make_config(case1, steps=800)
        solo = run_game(c)
        ens = run_ensemble(c, runs=1)
        assert ens.kind is TrajectoryKind.ENSEMBLE_MEAN
        assert np.array_equal(ens.x, solo.x)

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    def test_scalar_and_vector_paths_agree_bitwise(self, case1, model):
        c = make_config(case1.with_model(model), steps=300, stride=50)
        runs = 8
        t_s, mean_s, term_s = _simulate_batch(c, runs)
        t_v, mean_v, term_v = _simulate_vector(c, runs)
        assert np.array_equal(t_s, t_v)
        assert np.array_equal(mean_s, mean_v)
        assert np.array_equal(term_s, term_v)

    def test_mean_is_average_of_per_run_games(self, case1):
        c = make_config(case1, steps=200, stride=100)
        runs = 5
        ens = run_ensemble(c, runs)
        per_run = []
        for k in range(runs):
            ck = make_config(case1, steps=200, stride=100, seed=per_run_seed(c.seed, k))
            per_run.append(run_game(ck).x)
        assert ens.x == pytest.approx(np.mean(per_run, axis=0), abs=1e-15)

    def test_terminal_mean_stable_across_base_seeds(self, case1):
        c1 = make_config(case1, theta=0.01, steps=20_000, seed=42, stride=20_000)
        c2 = make_config(case1, theta=0.01, steps=20_000, seed=777, stride=20_000)
        m1 = run_ensemble(c1, 1000).x[-1]
        m2 = run_ensemble(c2, 1000).x[-1]
        assert np.abs(m1 - m2).max() < 0.02
        # and the spiral has settled in the mixed-equilibrium neighborhood
        assert math.hypot(m1[0] - 0.6667, m1[1] - 0.3333) < 0.05

    def test_per_run_seed_is_xor(self):
        assert per_run_seed(42, 0) == 42
        assert per_run_seed(42, 3) == 42 ^ 3
        assert per_run_seed(2**40, 1) == 2**40 + 1

    def test_case2_mean_settles_just_inside_the_barriers(self, case2):
        # With a dominant strategy the ensemble parks next to the barrier
        # pair (p_max, p_min) rather than absorbing at the corner (1, 0).
        c = make_config(case2, theta=0.01, p_max=0.999, steps=30_000, stride=30_000)
        m = run_ensemble(c, 1000).x[-1]
        assert math.hypot(m[0] - 0.999, m[1] - 0.001) < 0.05


class TestSteadyStateError:
    def test_constant_trajectory_at_target(self):
        traj = Trajectory(
            TrajectoryKind.SIMULATED,
            np.arange(10),
            np.tile([0.3, 0.7], (10, 1)),
        )
        assert steady_state_error(traj, JointState(0.3, 0.7)) == 0.0

    def test_offset_is_euclidean(self):
        traj = Trajectory(
            TrajectoryKind.SIMULATED, np.arange(5), np.tile([0.8, 0.9], (5, 1))
        )
        assert steady_state_error(traj, JointState(0.5, 0.5)) == pytest.approx(0.5)

    def test_uses_last_ten_percent_of_samples(self):
        x = np.tile([0.1, 0.1], (100, 1))
        x[-10:] = [0.6, 0.6]
        traj = Trajectory(TrajectoryKind.SIMULATED, np.arange(100), x)
        assert steady_state_error(traj, JointState(0.6, 0.6)) == pytest.approx(0.0)

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(TrajectoryKind.SIMULATED, np.array([]), np.empty((0, 2)))
        with pytest.raises(EmptyTrajectory):
            steady_state_error(traj, JointState(0.5, 0.5))


class TestErrorTable:
    def test_rows_follow_input_order_and_match_run_game(self, case1):
        p_max_values = [0.99, 0.95]
        theta_values = [0.05, 0.01]
        rows = error_table(
            case1, JointState(0.6667, 0.3333), p_max_values, theta_values,
            steps=2000, seed=9, record_stride=50,
        )
        assert [(r.p_max, r.theta) for r in rows] == [
            (0.99, 0.05), (0.99, 0.01), (0.95, 0.05), (0.95, 0.01)
        ]
        for row in rows:
            cfg = LearnerConfig(theta=row.theta, p_max=row.p_max)
            c = SimConfig(case1, cfg, cfg, JointState(0.5, 0.5), 2000, 9, 50)
            expected = steady_state_error(run_game(c), JointState(0.6667, 0.3333))
            assert row.error == expected

    def test_default_target_requires_pure_equilibria(self, case1):
        with pytest.raises(ValueError, match="target"):
            error_table(case1, None, [0.99], [0.01], steps=10, seed=1)

    def test_nearest_corner_target_for_two_equilibria(self, case3):
        rows = error_table(case3, None, [0.99], [0.2], steps=4000, seed=3, record_stride=50)
        assert len(rows) == 1
        # a large theta drives the run into one corner; the error is small
        # against the nearest corner even though the other is far away
        assert rows[0].error < 0.2

    def test_empty_parameter_lists_rejected(self, case1):
        with pytest.raises(ValueError):
            error_table(case1, JointState(0.5, 0.5), [], [0.1], steps=10, seed=1)

    def test_error_shrinks_with_the_learning_rate(self, case1):
        """Steady-state error at p_max = 0.998 improves (or at worst matches,
        up to noise) when theta drops an order of magnitude.  The smaller
        theta needs a longer run: its mixing time scales like 1/theta."""
        target = JointState(0.6667, 0.3333)
        errs = {}
        for theta, steps in ((0.001, 5_000_000), (0.0001, 20_000_000)):
            cfg = LearnerConfig(theta=theta, p_max=0.998)
            c = SimConfig(case1, cfg, cfg, JointState(0.5, 0.5), steps, 42, 100)
            errs[theta] = steady_state_error(run_game(c), target)
        assert errs[0.0001] < 1.5 * errs[0.001]


class TestBasinSplit:
    def test_requires_two_pure_case(self, case1):
        cfg = LearnerConfig(theta=0.01, p_max=0.99)
        with pytest.raises(NotCase3):
            basin_split(case1, cfg, JointState(0.5, 0.5), runs=2, steps=10, seed=1)

    def test_single_run_is_all_or_nothing(self, case3):
        cfg = LearnerConfig(theta=0.1, p_max=0.99)
        split = basin_split(case3, cfg, JointState(0.9, 0.9), runs=1, steps=3000, seed=5)
        assert sorted(split.fractions) == [0.0, 1.0]
        assert split.runs == 1

    def test_fractions_sum_to_one_and_follow_the_start_corner(self, case3):
        cfg = LearnerConfig(theta=0.05, p_max=0.99)
        split = basin_split(case3, cfg, JointState(0.9, 0.9), runs=64, steps=4000, seed=11)
        assert math.fsum(split.fractions) == pytest.approx(1.0)
        upper = max(range(len(split.points)), key=lambda i: split.points[i].x.p1)
        assert split.fractions[upper] > 0.9


class TestCsvOutput:
    def test_trajectory_round_trip(self, tmp_path, case1):
        traj = run_game(make_config(case1, steps=300))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "p1", "q1"]
        got_t = [int(r[0]) for r in rows[1:]]
        got_x = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        assert got_t == traj.t.tolist()
        assert np.array_equal(got_x, traj.x)  # 17 digits round-trip exactly

    def test_ensemble_header(self, tmp_path, case1):
        traj = run_ensemble(make_config(case1, steps=100), runs=2)
        path = tmp_path / "ens.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            assert fh.readline().strip() == "step,mean_p1,mean_q1"

    def test_error_table_round_trip(self, tmp_path, case1):
        rows = error_table(
            case1, JointState(0.6667, 0.3333), [0.99], [0.05], steps=500, seed=2,
        )
        path = tmp_path / "table.csv"
        write_error_table_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 1
        assert float(parsed[0]["error"]) == rows[0].error
        assert float(parsed[0]["p_max"]) == 0.99
