import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrier_la import (
    DegenerateGame,
    JointState,
    LearnerConfig,
    Model,
    Stability,
    StepTooLarge,
    Trajectory,
    fixed_points,
    integrate,
    jacobian,
    mixed_equilibrium,
    vector_field,
)

from barrier_la import dynamics, kernel
from barrier_la.dynamics import STAGE_BOX, _drives, _stability
from conftest import (
    bisect_root,
    drift_from_entries,
    expected_increment_oracle,
    fd_jacobian,
    game_of,
    planar_root_oracle,
    random_game,
    stable_points,
)


def array_integrate_oracle(spec, x0, p_max, step, t_max):
    """RK4 on 2-element numpy arrays, one array per stage: the integrator as
    first written.  integrate, whose loop runs in the C kernel, must
    reproduce it bit for bit; its accepted states outside [0, 1]^2 surface
    as the ValueError of Trajectory."""
    lo, hi = STAGE_BOX
    x = np.array([x0.p1, x0.q1])
    ts = [0.0]
    xs = [x.copy()]
    n_steps = int(math.floor(t_max / step + 1e-9))

    def f(y):
        return np.array(drift_from_entries(spec, y[0], y[1], p_max))

    def check(y):
        if not (lo <= y[0] <= hi and lo <= y[1] <= hi):
            raise StepTooLarge(f"RK stage {y} left the box")
        return y

    for i in range(1, n_steps + 1):
        w = f(x)
        if math.hypot(w[0], w[1]) < 1e-10:
            break
        k1 = w
        k2 = f(check(x + 0.5 * step * k1))
        k3 = f(check(x + 0.5 * step * k2))
        k4 = f(check(x + step * k3))
        x = check(x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        ts.append(i * step)
        xs.append(x.copy())
    return Trajectory(np.array(ts), np.array(xs))


def fixed_points_on_a_w1_line(spec, p_max):
    """fixed_points of a game whose w1 vanishes, for every q1 in the box, on
    the line through the one p1 where w1(., 0.5) changes sign.  Checks that
    each point lies on that bisected line and that there are as many as
    sign changes of w2 along it; planar_root_oracle cannot see such games."""
    p_min = 1.0 - p_max
    p_star = bisect_root(lambda p: drift_from_entries(spec, p, 0.5, p_max)[0], p_min, p_max)
    grid = np.linspace(p_min, p_max, 10_001)
    w2 = drift_from_entries(spec, p_star, grid, p_max)[1]
    sign_changes = int(np.count_nonzero(w2[:-1] * w2[1:] < 0))
    pts = fixed_points(spec, p_max)
    assert sign_changes >= 1
    assert len(pts) == sign_changes
    for fp in pts:
        assert fp.x.p1 == pytest.approx(p_star, abs=1e-9)
        assert fp.drift_norm <= 1e-12
    return pts


def oracle_label(spec, p1, q1, p_max):
    jac = jacobian(spec, JointState(p1, q1), p_max)
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det > 0 and jac[0, 0] + jac[1, 1] < 0:
        return Stability.STABLE
    return Stability.SADDLE if det < 0 else Stability.UNSTABLE


class TestDrives:
    def test_case1_at_center(self, case1):
        d1a, d2a, _, _ = _drives(case1, 0.5, 0.5)
        assert d1a == pytest.approx(0.4, abs=1e-15)
        assert d2a == pytest.approx(0.45, abs=1e-15)

    def test_endpoints_pick_matrix_columns(self, case3):
        assert _drives(case3, 0.3, 1.0)[:2] == (case3.R.r11, case3.R.r21)
        assert _drives(case3, 0.0, 0.2)[2:] == (case3.C.r21, case3.C.r22)


class TestVectorField:
    def test_zero_at_mixed_equilibrium_without_barrier(self, case1):
        x = JointState(*mixed_equilibrium(case1))
        w = vector_field(case1, x, p_max=1.0)
        assert math.hypot(w.w1, w.w2) < 1e-9

    def test_case2_reported_attractor_is_nearly_stationary(self, case2):
        w = vector_field(case2, JointState(0.917, 0.040), p_max=0.99)
        assert math.hypot(w.w1, w.w2) < 1e-3

    def test_case1_center_value(self, case1):
        w = vector_field(case1, JointState(0.5, 0.5), p_max=0.99)
        assert w.w1 == pytest.approx(-0.01225, abs=1e-12)
        assert w.w2 == pytest.approx(-0.018375, abs=1e-12)

    def test_p_max_validated(self, case1):
        with pytest.raises(ValueError):
            vector_field(case1, JointState(0.5, 0.5), p_max=0.3)


class TestExpectedIncrementOracle:
    def test_requires_p_model(self, case1):
        cfg = LearnerConfig(theta=0.1, p_max=0.99)
        with pytest.raises(ValueError):
            expected_increment_oracle(case1.with_model(Model.S), JointState(0.5, 0.5), cfg)

    @pytest.mark.parametrize("preset_name", ["case1", "case2", "case3"])
    @pytest.mark.parametrize("p_max", [0.99, 0.999, 1.0])
    def test_matches_vector_field_on_grid(self, preset_name, p_max, request):
        spec = request.getfixturevalue(preset_name)
        cfg = LearnerConfig(theta=0.1, p_max=p_max)
        worst = 0.0
        for p1 in np.linspace(0.0, 1.0, 11):
            for q1 in np.linspace(0.0, 1.0, 11):
                x = JointState(p1, q1)
                w = vector_field(spec, x, p_max)
                o = expected_increment_oracle(spec, x, cfg)
                worst = max(worst, abs(w.w1 - o.w1), abs(w.w2 - o.w2))
        assert worst < 1e-12

    def test_theta_cancels(self, case1):
        x = JointState(0.37, 0.81)
        a = expected_increment_oracle(case1, x, LearnerConfig(theta=0.5, p_max=0.99))
        b = expected_increment_oracle(case1, x, LearnerConfig(theta=0.001, p_max=0.99))
        assert a.w1 == pytest.approx(b.w1, abs=1e-13)
        assert a.w2 == pytest.approx(b.w2, abs=1e-13)


class TestJacobian:
    @pytest.mark.parametrize("preset_name", ["case1", "case2", "case3"])
    def test_matches_finite_differences(self, preset_name, request):
        spec = request.getfixturevalue(preset_name)
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = JointState(rng.random(), rng.random())
            jac = jacobian(spec, x, 0.99)
            ref = fd_jacobian(spec, x, 0.99)
            rel = np.linalg.norm(ref - jac) / max(np.linalg.norm(jac), 1e-12)
            assert rel < 1e-6

    def test_case1_mixed_point_is_negative_definite(self, case1):
        x = JointState(*mixed_equilibrium(case1))
        jac = jacobian(case1, x, p_max=0.999)
        det = np.linalg.det(jac)
        tr = np.trace(jac)
        assert det > 0 and tr < 0

    def test_case3_mixed_point_is_a_saddle(self, case3):
        x = JointState(*mixed_equilibrium(case3))
        jac = jacobian(case3, x, p_max=0.99)
        assert np.linalg.det(jac) < 0

    def test_random_games_match_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            spec = random_game(rng)
            x = JointState(rng.random(), rng.random())
            jac = jacobian(spec, x, 0.995)
            ref = fd_jacobian(spec, x, 0.995)
            rel = np.linalg.norm(ref - jac) / max(np.linalg.norm(jac), 1e-12)
            assert rel < 1e-6


class TestIntegrate:
    def test_fixed_point_start_is_constant(self, case1):
        fp = stable_points(case1, 0.99)[0]
        traj = integrate(case1, fp.x, 0.99)
        assert len(traj) == 1
        assert traj.x[0] == pytest.approx([fp.x.p1, fp.x.q1])

    def test_case1_flow_reaches_the_stable_point(self, case1):
        fp = stable_points(case1, 0.99)[0]
        traj = integrate(case1, JointState(0.5, 0.5), 0.99, step=0.01, t_max=1e4)
        assert traj.x[-1, 0] == pytest.approx(fp.x.p1, abs=1e-6)
        assert traj.x[-1, 1] == pytest.approx(fp.x.q1, abs=1e-6)

    def test_case3_upper_start_reaches_upper_equilibrium(self, case3):
        upper = max(stable_points(case3, 0.99), key=lambda fp: fp.x.p1)
        traj = integrate(case3, JointState(0.9, 0.9), 0.99, step=0.01, t_max=1e4)
        assert traj.x[-1, 0] == pytest.approx(upper.x.p1, abs=1e-6)
        assert traj.x[-1, 1] == pytest.approx(upper.x.q1, abs=1e-6)

    def test_case3_drift_at_center_points_into_lower_basin(self, case3):
        # d1a = 0.2 < d2a = 0.25 and d1b = d2b = 0.2 at (0.5, 0.5)
        w = vector_field(case3, JointState(0.5, 0.5), 0.99)
        assert w.w1 == pytest.approx(-0.01225, abs=1e-15)
        assert w.w2 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("d, upper", [(0.59, False), (0.61, True)])
    def test_case3_separatrix_crosses_diagonal_near_0600(self, case3, d, upper):
        low, high = stable_points(case3, 0.99)
        target = high if upper else low
        traj = integrate(case3, JointState(d, d), 0.99, step=0.01, t_max=1e4)
        assert traj.x[-1, 0] == pytest.approx(target.x.p1, abs=1e-6)
        assert traj.x[-1, 1] == pytest.approx(target.x.q1, abs=1e-6)

    def test_step_count_forgives_the_rounding_of_t_max_over_step(self, case2):
        """0.3 / 0.1 is 2.9999999999999996 in float64, so the path's step
        count must not floor that quotient bare: it takes the third step."""
        traj = integrate(case2, JointState(0.3, 0.8), 0.99, step=0.1, t_max=0.3)
        assert traj.t.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]

    def test_huge_step_raises(self, case1):
        with pytest.raises(StepTooLarge):
            integrate(case1, JointState(0.5, 0.5), 0.99, step=1e4, t_max=1e5)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p0=st.floats(0.0, 1.0),
        q0=st.floats(0.0, 1.0),
        p_max=st.floats(0.9, 1.0),
        step=st.floats(1e-3, 20.0),
        n=st.integers(1, 300),
    )
    def test_matches_array_oracle_bit_for_bit(self, seed, p0, q0, p_max, step, n):
        spec = random_game(np.random.default_rng(seed))
        x0 = JointState(p0, q0)
        try:
            want = array_integrate_oracle(spec, x0, p_max, step, n * step)
        except (StepTooLarge, ValueError):
            with pytest.raises(StepTooLarge):
                integrate(spec, x0, p_max, step, n * step)
            return
        got = integrate(spec, x0, p_max, step, n * step)
        assert got.t.tobytes() == want.t.tobytes()
        assert got.x.tobytes() == want.x.tobytes()

    def test_a_long_t_max_stops_where_a_short_one_does(self, case1):
        # the path stops at drift 1e-10 after 178k steps; nothing is sized
        # by the 1e11 steps that t_max allows
        want = integrate(case1, JointState(0.5, 0.5), 0.99, step=0.01, t_max=1e4)
        got = integrate(case1, JointState(0.5, 0.5), 0.99, step=0.01, t_max=1e9)
        assert len(want) < 1e6 + 1
        assert got.t.tobytes() == want.t.tobytes()
        assert got.x.tobytes() == want.x.tobytes()

    @pytest.mark.parametrize(
        "preset_name, x0, step, t_max",
        [
            ("case2", (0.3, 0.8), 0.05, 200.0),  # a whole path
            ("case1", (0.5, 0.5), 0.5, 1e4),  # stops on the drift norm at step 3563
            ("case1", (0.5, 0.5), 1e5, 1e6),  # a stage leaves the box
            ("case2", (0.27899524521331553, 0.0593345829787469),
             15.821770123928726, 316.43540247857453),  # step 12 leaves [0, 1]^2
        ],
    )
    # 1, 2, 3, 4, 1000 or 1001 steps per call
    @pytest.mark.parametrize("budget", [3, 4, 6, 8, 2 * 1000, 2 * 1001])
    def test_block_boundaries_do_not_change_the_path(
        self, monkeypatch, request, preset_name, x0, step, t_max, budget
    ):
        spec = request.getfixturevalue(preset_name)

        def path():
            try:
                traj = integrate(spec, JointState(*x0), 0.99, step, t_max)
            except StepTooLarge as exc:
                return str(exc)
            return traj.t.tobytes(), traj.x.tobytes()

        want = path()
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", budget)
        assert path() == want

    def test_times_strictly_increase_and_states_stay_in_box(self, case2):
        traj = integrate(case2, JointState(0.3, 0.8), 0.99, step=0.05, t_max=200)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.x.min() >= 0.0 and traj.x.max() <= 1.0

    def test_a_path_no_array_can_hold_raises_before_the_kernel_loads(self, case1, no_compiler):
        """ode-trajectory --ode-step 1e-300 --t-max 1 asks for 1e300 steps.
        integrate raises ValueError at once, with no compiler to load the
        kernel, where the path's 16 * (steps + 1) bytes exceed sys.maxsize;
        a step count just below that bound gets as far as loading the
        kernel.  Nothing is allocated for the path."""
        x0, bound = JointState(0.5, 0.5), (sys.maxsize + 1) // 16
        for step, t_max in ((1e-300, 1.0), (1.0, float(bound))):
            with pytest.raises(ValueError, match="no float64 array holds the path"):
                integrate(case1, x0, 0.99, step, t_max)
        with pytest.raises(OSError, match="cannot build or load"):
            integrate(case1, x0, 0.99, 1.0, float(bound - 64))


class TestFixedPoints:
    @pytest.mark.xfail(strict=True, reason=(
        "D24: just past a saddle-node the resultant's complex pair 0.0703 +- 1e-6i lies "
        "within ROOT_SLACK, and Newton stops at |W| = 2.5e-13, so a ghost Stable point "
        "at (0.0703, 0.9226) is reported beside the real one"))
    def test_no_ghost_point_just_past_a_saddle_node(self):
        rng = np.random.default_rng(12345)
        spec = [random_game(rng) for _ in range(35)][34]
        (fp,) = fixed_points(spec, 0.9924164086456235)
        assert fp.stability is Stability.STABLE
        assert fp.x.p1 == pytest.approx(0.991, abs=1e-3)
        assert fp.x.q1 == pytest.approx(0.0217, abs=1e-4)

    def test_case1_single_stable_interior_point(self, case1):
        pts = fixed_points(case1, 0.99)
        assert len(pts) == 1
        fp = pts[0]
        assert fp.stability is Stability.STABLE
        assert fp.drift_norm < 1e-12
        assert fp.x.p1 == pytest.approx(0.65195774, abs=1e-7)
        assert fp.x.q1 == pytest.approx(0.31178326, abs=1e-7)

    def test_a_newton_start_that_leaves_the_box_is_dropped(self, case1, monkeypatch):
        """Newton from (50, 50) leaves [-1, 2]^2 and fails; fixed_points skips
        that start and reports what the other starts give."""
        assert dynamics._newton(case1, (50.0, 50.0), 0.99) is None

        def found():
            return [(fp.x, fp.drift_norm, fp.jacobian.tolist(), fp.det, fp.trace, fp.stability)
                    for fp in fixed_points(case1, 0.99)]

        want = found()
        starts = dynamics._candidates
        monkeypatch.setattr(dynamics, "_candidates", lambda *a: [(50.0, 50.0), *starts(*a)])
        assert found() == want

    def test_case1_point_approaches_mixed_equilibrium_monotonically(self, case1):
        x_opt = np.array(mixed_equilibrium(case1))
        dists = []
        for p_min in (0.01, 0.005, 0.002, 0.001):
            pts = stable_points(case1, 1.0 - p_min)
            assert len(pts) == 1
            dists.append(np.linalg.norm([pts[0].x.p1, pts[0].x.q1] - x_opt))
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_case2_single_stable_point_near_corner(self, case2):
        pts = fixed_points(case2, 0.99)
        assert len(pts) == 1
        assert pts[0].stability is Stability.STABLE
        assert pts[0].x.p1 == pytest.approx(0.917, abs=2e-3)
        assert pts[0].x.q1 == pytest.approx(0.040, abs=2e-3)

    def test_case3_structure_and_frozen_locations(self, case3):
        """Two stable roots plus a saddle; locations are regression anchors
        verified independently by the drift norm and the integrator tests."""
        pts = fixed_points(case3, 0.999)
        labels = tuple(fp.stability for fp in pts)
        assert labels == (Stability.STABLE, Stability.SADDLE, Stability.STABLE)
        low, saddle, high = pts
        assert (low.x.p1, low.x.q1) == pytest.approx(
            (0.0015027598, 0.0020040090), abs=1e-8
        )
        assert (high.x.p1, high.x.q1) == pytest.approx(
            (0.9969848787, 0.9969939332), abs=1e-8
        )
        assert (saddle.x.p1, saddle.x.q1) == pytest.approx(
            (0.5015046195, 0.6666760476), abs=1e-8
        )
        assert saddle.det < 0
        for fp in pts:
            assert fp.drift_norm < 1e-12

    def test_roots_sorted_by_p1(self, case3):
        pts = fixed_points(case3, 0.99)
        assert [fp.x.p1 for fp in pts] == sorted(fp.x.p1 for fp in pts)

    def test_stability_labels_consistent_with_det_trace(self, case3):
        for fp in fixed_points(case3, 0.995):
            if fp.stability is Stability.STABLE:
                assert fp.det > 0 and fp.trace < 0
            elif fp.stability is Stability.SADDLE:
                assert fp.det < 0

    def test_p_max_one_rejected(self, case1):
        with pytest.raises(ValueError):
            fixed_points(case1, 1.0)

    @pytest.mark.parametrize("preset_name", ["case1", "case2", "case3"])
    def test_no_warning_at_any_benchmark_p_max(self, preset_name, request):
        spec = request.getfixturevalue(preset_name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p_max in np.round(np.arange(0.990, 0.9995, 0.001), 3):
                assert fixed_points(spec, float(p_max))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p_max=st.floats(0.99, 0.999))
    # j22 = -5.1e-4 there: Newton met |W| <= 1e-12 with q1 still 1e-9 off
    @example(seed=1989116676, p_max=0.9911923449366027)
    def test_matches_planar_root_oracle(self, seed, p_max):
        spec = random_game(np.random.default_rng(seed))
        pts = fixed_points(spec, p_max)
        roots = planar_root_oracle(spec, p_max)
        assert len(pts) == len(roots)
        for fp, (p1, q1) in zip(pts, roots):
            assert abs(fp.x.p1 - p1) <= 1e-9 and abs(fp.x.q1 - q1) <= 1e-9
            assert fp.stability is oracle_label(spec, p1, q1, p_max)

    def test_w1_independent_of_q1(self):
        # r11 = r12 and r21 = r22: w1 = A(p1) alone, so the resultant is
        # c2 A^2 and every fixed point sits on the line A(p1) = 0, where
        # w1 vanishes for every q1 and w2(p1, .) is a quadratic
        spec = game_of((0.6, 0.6, 0.3, 0.3), (0.2, 0.7, 0.5, 0.4))
        for fp in fixed_points_on_a_w1_line(spec, 0.99):
            assert fp.jacobian[0, 1] == 0.0

    def test_w1_proportional_to_q1(self):
        # r12 = r22 = 0: A = 0, so w1 = q1 B(p1) and the resultant is c0 B^2.
        # In the box every fixed point sits on the line B(p1) = 0, a common
        # root of A and B with |A| exactly 0 there, which only the
        # quadratic branch of _candidates finds
        spec = game_of((0.25, 0.0, 0.75, 0.0), (0.75, 0.75, 1.0, 0.0))
        (fp,) = fixed_points_on_a_w1_line(spec, 0.99)
        assert fp.stability is Stability.STABLE
        assert (fp.x.p1, fp.x.q1) == pytest.approx((0.014924, 0.989888), abs=1e-6)

    def test_vanishing_resultant_is_degenerate(self):
        # a zero R makes w1 vanish everywhere: a whole curve of fixed points
        spec = game_of((0.0, 0.0, 0.0, 0.0), (0.2, 0.7, 0.5, 0.4))
        with pytest.raises(DegenerateGame):
            fixed_points(spec, 0.99)


class TestStability:
    @pytest.mark.parametrize(
        "det, trace, label",
        [
            (1.0, -1.0, Stability.STABLE),
            (1.0, 1.0, Stability.UNSTABLE),
            (1.0, 0.0, Stability.UNSTABLE),
            (-1.0, -1.0, Stability.SADDLE),
            (-1.0, 1.0, Stability.SADDLE),
            (-1.0, 0.0, Stability.SADDLE),
            (0.0, -1.0, Stability.UNSTABLE),
            (0.0, 1.0, Stability.UNSTABLE),
            (0.0, 0.0, Stability.UNSTABLE),
        ],
    )
    def test_every_sign_case(self, det, trace, label):
        assert _stability(det, trace) is label


class TestBarrierContainment:
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        c=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        q1=st.floats(0.0, 1.0),
        p_max=st.floats(0.9, 0.999),
    )
    def test_flow_points_inward_at_the_barriers(self, r, c, q1, p_max):
        spec = game_of(r, c)
        p_min = 1.0 - p_max
        w_lo = vector_field(spec, JointState(p_min, q1), p_max)
        w_hi = vector_field(spec, JointState(p_max, q1), p_max)
        assert w_lo.w1 > 0.0
        assert w_hi.w1 < 0.0

    def test_unit_square_corner_value(self, case1):
        # At p1 = 0 the drift reduces to p_min * d2a.
        p_max = 0.99
        d2a = _drives(case1, 0.0, 0.0)[1]
        w = vector_field(case1, JointState(0.0, 0.0), p_max)
        assert w.w1 == pytest.approx((1.0 - p_max) * d2a, abs=1e-15)


class TestTrajectoryType:
    def test_rejects_decreasing_times(self):
        for t in ([0.0, 1.0, 0.5], [0.0, 1.0, 1.0]):  # a repeated time too
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(np.array(t), np.full((3, 2), 0.5))

    def test_order_check_allocates_about_one_byte_per_record(self):
        n = 1_000_000
        t, x = np.arange(n), np.full((n, 2), 0.5)
        tracemalloc.start()
        try:
            Trajectory(t, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n

    def test_rejects_states_outside_unit_square(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([[0.5, 0.5], [1.2, 0.5]]))
