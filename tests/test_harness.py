import contextlib
import dataclasses
import math
import os
import re
import subprocess
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barrier_la import (
    JointState,
    LearnerConfig,
    Model,
    NotCase3,
    SimConfig,
    Stability,
    Trajectory,
    basin_split,
    error_table,
    integrate,
    mixed_equilibrium,
    preset,
    pure_equilibria,
    run_ensemble,
    run_game,
    terminal_states,
)
from barrier_la import cli, dynamics, harness, kernel
from barrier_la.harness import _load_kernel, _record_steps, _simulate

from conftest import game_of, reference_loop, sim_config, steady_state_error


@st.composite
def sim_configs(draw, model):
    """A random game under model, two learner configs (p_max = 1 drawn
    often), a start state inside the barrier box, steps 0-300, strides 1-40
    and a 64-bit seed."""
    entries = draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    cfg_a, cfg_b = (
        LearnerConfig(
            theta=draw(st.floats(1e-3, 0.999)),
            p_max=draw(st.just(1.0) | st.floats(0.5, 1.0, exclude_min=True)),
        )
        for _ in range(2)
    )
    assume(cfg_a != cfg_b)
    x0 = JointState(*(draw(st.floats(g.p_min, g.p_max)) for g in (cfg_a, cfg_b)))
    spec = game_of(entries[:4], entries[4:], model)
    steps = draw(st.integers(0, 300))
    stride = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**64 - 1))
    return SimConfig(spec, cfg_a, cfg_b, x0, steps, seed, stride)


@contextlib.contextmanager
def usable_cores(n):
    """_run_blocks sees n usable cores, so advance shares every block between
    min(n, its units) threads: groups of eight one-lane streams, or streams
    of several lanes."""
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(n))):
        yield


class TestRunGame:
    def test_zero_steps_returns_initial_state(self, case1):
        traj = run_game(sim_config(case1, steps=0))
        assert len(traj) == 1
        assert traj.t[0] == 0
        assert traj.x[0] == pytest.approx([0.5, 0.5])

    def test_identical_config_identical_bits(self, case1):
        a = run_game(sim_config(case1, steps=2000))
        b = run_game(sim_config(case1, steps=2000))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)

    def test_recording_grid_includes_final_step(self, case1):
        traj = run_game(sim_config(case1, steps=250, stride=100))
        assert traj.t.tolist() == [0, 100, 200, 250]

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_engine_matches_composed_learner_loop(self, model, data):
        """On any game, learning rates, barriers (p_max = 1 included), start
        state and stride, the engine is bit-identical to reference_loop,
        which applies the paper's update one uniform draw at a time, and
        each player's states stay inside its own [p_min, p_max]."""
        c = data.draw(sim_configs(model))
        traj = run_game(c)
        ref = reference_loop(c)
        assert traj.t.tolist() == [r[0] for r in ref]
        assert traj.x.tolist() == [[r[1], r[2]] for r in ref]
        for x, cfg in zip(traj.x.T, (c.cfg_a, c.cfg_b)):
            assert cfg.p_min - 1e-12 <= x.min() and x.max() <= cfg.p_max + 1e-12

    def test_integer_payoff_entries(self):
        # the kernel reads its tables as doubles, whatever type the entries have
        c = sim_config(game_of((1, 0, 0, 1), (1, 0, 0, 1)), theta=0.1, steps=300, stride=1, seed=3)
        assert run_game(c).x.tolist() == [[r[1], r[2]] for r in reference_loop(c)]

    @pytest.mark.parametrize("game", ["case1", "zero_one"])
    def test_reward_select_matches_reference_loop(self, game, case1):
        """The kernel's P-model reward select, bit for bit against
        reference_loop over 20 000 steps at stride 1.  case1 starts at its
        mixed equilibrium, where each reward draw is near a coin flip; the
        other game's entries are 0.0 (never rewarded) and 1.0 (always,
        since u < 1).  The two players' learning rates differ, so swapped
        reward tables would show."""
        if game == "case1":
            spec, x0 = case1, JointState(*mixed_equilibrium(case1))
        else:
            spec = game_of((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0))
            x0 = JointState(0.5, 0.5)
        cfg_a, cfg_b = LearnerConfig(theta=0.01, p_max=0.99), LearnerConfig(theta=0.02, p_max=0.99)
        c = SimConfig(spec, cfg_a, cfg_b, x0, 20_000, 11, 1)
        assert run_game(c).x.tolist() == [[r[1], r[2]] for r in reference_loop(c)]

    def test_p_entries_zero_and_one_never_and_always_reward(self):
        # A's entries are all 1.0, so p moves on every step; B's are all 0.0,
        # so q never leaves its start
        spec = game_of((1.0,) * 4, (0.0,) * 4)
        x = run_game(sim_config(spec, steps=1000, stride=1, x0=(0.5, 0.3))).x
        assert np.all(np.diff(x[:, 0]) != 0.0)
        assert np.all(x[:, 1] == 0.3)

    @pytest.mark.parametrize("above, moves", [(False, False), (True, True)])
    def test_reward_needs_a_draw_strictly_below_the_entry(self, above, moves):
        """Every entry of A is set to A's first reward draw u2, and of B to
        u3 (or to the next double above them): a draw equal to its entry
        earns no reward, so the first step leaves the state in place."""
        u = np.random.default_rng(5).random(4)
        if above:
            u = np.nextafter(u, 1.0)
        spec = game_of([u[2]] * 4, [u[3]] * 4)
        x = run_game(sim_config(spec, steps=1, stride=1, seed=5)).x
        assert (x[1] != x[0]).tolist() == [moves, moves]

    def test_states_stay_inside_barrier_box(self, case3):
        c = sim_config(case3, theta=0.2, p_max=0.93, steps=5000, stride=1)
        traj = run_game(c)
        cfg = c.cfg_a
        assert traj.x.min() >= cfg.p_min - 1e-12
        assert traj.x.max() <= cfg.p_max + 1e-12

    def test_x0_outside_barriers_rejected(self, case1):
        with pytest.raises(ValueError, match="barrier"):
            sim_config(case1, 0.1, 0.9, steps=10, seed=1, x0=(0.95, 0.5))

    @pytest.mark.parametrize("field, value", [
        ("steps", 100.5), ("steps", "100"), ("record_stride", 7.5), ("seed", 3.7),
        ("seed", np.float64(3.0)), ("runs", 2.5),
    ], ids=["steps", "steps-str", "record_stride", "seed", "seed-np-float", "runs"])
    def test_counts_that_are_not_integers_rejected_before_any_run(
        self, case1, monkeypatch, field, value
    ):
        """A count must be an integer: a ValueError names the field before
        the kernel is loaded, so nothing runs and no other exception leaks."""
        def no_kernel():
            raise AssertionError("the kernel was loaded")

        monkeypatch.setattr(harness, "_load_kernel", no_kernel)
        kwargs = {"stride" if field == "record_stride" else field: value}
        runs = kwargs.pop("runs", 2)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_ensemble(sim_config(case1, **kwargs), runs)

    def test_numpy_integer_counts_run_as_ints(self, case1):
        want = run_ensemble(sim_config(case1, steps=300, seed=2**64 - 1, stride=7), 3)
        c = sim_config(case1, steps=np.int64(300), seed=np.uint64(2**64 - 1), stride=np.int32(7))
        got = run_ensemble(c, np.int64(3))
        assert got.t.tolist() == want.t.tolist() and got.x.tobytes() == want.x.tobytes()


class TestRunEnsemble:
    def test_single_run_equals_run_game(self, case1):
        c = sim_config(case1, steps=800)
        solo = run_game(c)
        ens = run_ensemble(c, runs=1)
        assert np.array_equal(ens.x, solo.x)

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), runs=st.integers(1, 24), budget=st.integers(2, 400))
    def test_blocks_match_reference_loop_at_any_thread_count(self, model, data, runs, budget):
        """On any config, any _BLOCK_BUDGET (so across block boundaries) and
        1, 2, 3 or 7 usable cores (7 threads are more than the at most three
        groups of eight runs), _simulate yields blocks of at most the
        budget's records, byte-equal to those of one thread, and lane k of
        their concatenation is reference_loop at seed c.seed XOR k, bit for
        bit.  Up to 24 runs, so that up to three threads each fill
        advance's eight vector lanes."""
        c = data.draw(sim_configs(model))
        by_cores = {}
        for cores in (1, 2, 3, 7):
            with usable_cores(cores), mock.patch.object(kernel, "_BLOCK_BUDGET", budget):
                by_cores[cores] = list(_simulate(c, _record_steps(c), runs))
        blocks = by_cores[1]
        assert all(len(b) <= max(1, budget // (2 * runs)) for b in blocks)
        for other in by_cores.values():
            assert [b.tobytes() for b in other] == [b.tobytes() for b in blocks]
        x = np.concatenate(blocks)
        for k in range(runs):
            ref = reference_loop(dataclasses.replace(c, seed=c.seed ^ k))
            assert x[:, :, k].tolist() == [[r[1], r[2]] for r in ref]

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    @pytest.mark.parametrize("runs", [1, 7, 8, 9, 16, 17, 40])
    def test_vector_lanes_and_tails_match_run_game(self, model, runs):
        """advance steps each group of eight runs in AVX-512 lanes where the
        CPU has them, and the last runs that do not fill a group one at a
        time.  Over run counts below, at and past multiples of eight, shared
        by 1, 2, 3 or 8 threads (more than the five groups of 40 runs), with
        blocks of 40 records or fewer (so every run stops mid-way at least
        once), lane k of _simulate is run_game at seed XOR k, which runs
        alone and so on lockstep, bit for bit."""
        spec = game_of((1.0, 0.0, 0.25, 1.0), (0.0, 1.0, 0.6, 0.0), model)
        cfg_a, cfg_b = LearnerConfig(theta=0.05, p_max=1.0), LearnerConfig(theta=0.2, p_max=0.95)
        c = SimConfig(spec, cfg_a, cfg_b, JointState(0.5, 0.3), 300, 0x9E3779B97F4A7C15, 7)
        lanes = [run_game(dataclasses.replace(c, seed=c.seed ^ k)).x for k in range(runs)]
        want = np.stack(lanes, axis=-1)
        for cores in (1, 2, 3, 8):
            with usable_cores(cores), mock.patch.object(kernel, "_BLOCK_BUDGET", 80):
                blocks = list(_simulate(c, _record_steps(c), runs))
            assert len(blocks) > 1
            assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_mean_is_average_of_per_run_games(self, case1):
        c = sim_config(case1, steps=200, stride=100)
        runs = 5
        ens = run_ensemble(c, runs)
        per_run = []
        for k in range(runs):
            ck = sim_config(case1, steps=200, stride=100, seed=c.seed ^ k)
            per_run.append(run_game(ck).x)
        assert ens.x == pytest.approx(np.mean(per_run, axis=0), abs=1e-15)

    def test_terminal_mean_stable_across_base_seeds(self, case1):
        c1 = sim_config(case1, theta=0.01, steps=20_000, seed=42, stride=20_000)
        c2 = sim_config(case1, theta=0.01, steps=20_000, seed=777, stride=20_000)
        m1 = run_ensemble(c1, 1000).x[-1]
        m2 = run_ensemble(c2, 1000).x[-1]
        assert np.abs(m1 - m2).max() < 0.02
        # and the spiral has settled in the mixed-equilibrium neighborhood
        assert math.hypot(m1[0] - 0.6667, m1[1] - 0.3333) < 0.05

    def test_terminal_states_record_only_the_final_step(self, case1, monkeypatch):
        """terminal_states records only step c.steps, whatever the config's
        stride, so strides 1, 7 and steps give the same bytes, also at a
        budget below one record a kernel call."""
        seen = []

        def spy(c, t, runs):
            seen.append(t.tolist())
            return _simulate(c, t, runs)

        monkeypatch.setattr(harness, "_simulate", spy)
        got = [terminal_states(sim_config(case1, steps=500, stride=s), 9).tobytes()
               for s in (1, 7, 500)]
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 2)  # one record per kernel call
        got.append(terminal_states(sim_config(case1, steps=500, stride=1), 9).tobytes())
        assert got == [got[0]] * 4
        assert seen == [[500]] * 4

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32, 2**64 - 1,
        0x9E3779B97F4A7C15, 0x00000001DEADBEEF, 0xC2B2AE3D27D4EB4F,
    ])
    def test_kernel_seeds_each_run_as_numpy_pcg64(self, seed):
        """An advance call from step 0 that takes no step leaves stream k in
        the (state, inc) of np.random.PCG64(seed ^ k), the kernel's port of
        SeedSequence and PCG64 seeding, with seed ^ k as one 32-bit word (0
        included) or two, whatever st held before and however many lanes a
        stream has, on two threads."""
        streams, tabs, none = 70, np.zeros((3, 5, 4)), np.empty(0, np.int64)
        want = [np.random.PCG64(seed ^ k).state["state"] for k in range(streams)]
        for lanes in (1, 3):
            st = np.full((streams, 4), 0xA5A5A5A5A5A5A5A5, dtype=np.uint64)
            pq = np.full((2, streams * lanes), 0.5)
            _load_kernel().advance(streams, lanes, seed, st, pq, 0, none, 0, 1, tabs, np.empty(0), 2)
            got = [(s0 | s1 << 64, i0 | i1 << 64) for s0, s1, i0, i1 in st.tolist()]
            assert got == [(w["state"], w["inc"]) for w in want]
            assert (pq == 0.5).all()

    def test_case2_mean_settles_just_inside_the_barriers(self, case2):
        # With a dominant strategy the ensemble parks next to the barrier
        # pair (p_max, p_min) rather than absorbing at the corner (1, 0).
        c = sim_config(case2, theta=0.01, p_max=0.999, steps=30_000, stride=30_000)
        m = run_ensemble(c, 1000).x[-1]
        assert math.hypot(m[0] - 0.999, m[1] - 0.001) < 0.05


class ThreadKernel:
    """The C kernel, with advance wrapped: it records the thread count each
    call is given and the /proc/self/task entries before, during (polled on
    a Python thread, as ctypes releases the lock) and after it."""

    TASKS = "/proc/self/task"

    def __init__(self):
        self.threads, self.tasks = [], []  # per call: (before, most seen, after)

    def advance(self, *args):
        self.threads.append(args[-1])
        if not os.path.isdir(self.TASKS):
            _load_kernel().advance(*args)
            return
        seen, stop = [], threading.Event()

        def poll():
            while not stop.is_set():
                seen.append(len(os.listdir(self.TASKS)))
                time.sleep(1e-4)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            before = len(os.listdir(self.TASKS))
            _load_kernel().advance(*args)
            # a joined thread may stay listed for the few microseconds its
            # exit takes, far less than one of its groups of runs
            for _ in range(10):
                after = len(os.listdir(self.TASKS))
                if after == before:
                    break
                time.sleep(1e-4)
        finally:
            stop.set()
            poller.join(timeout=10)
        assert not poller.is_alive()
        self.tasks.append((before, max(seen, default=before), after))


class TestKernelThreads:
    """advance shares each block's runs, eight at a time, between the
    caller's thread and one kernel thread per further usable core, and joins
    every thread before it returns."""

    def test_no_worker_outlives_a_block(self, case1):
        """Each call runs at most min(cores, groups of eight runs) - 1 kernel
        threads beside the caller's, so three for 64 cores and four groups,
        and the /proc/self/task count after it is the count before it."""
        if not os.path.isdir(ThreadKernel.TASKS):
            pytest.skip("no /proc/self/task to count threads in")
        spy = ThreadKernel()
        # 32 runs are four groups, and a group's 100 000 steps a block take
        # milliseconds, so the poller can see the threads while they work
        c, t = sim_config(case1, steps=200_000), np.array([100_000, 200_000], np.int64)
        want = np.concatenate(list(_simulate(c, t, 32))).tobytes()
        for cores in (2, 64):
            with usable_cores(cores), mock.patch.object(harness, "_load_kernel", lambda: spy), \
                    mock.patch.object(kernel, "_BLOCK_BUDGET", 64):  # one record per block
                assert np.concatenate(list(_simulate(c, t, 32))).tobytes() == want
        assert spy.threads == [2, 2, 64, 64]
        assert all(after == before for before, _, after in spy.tasks)
        # how many workers the poller sees at one time is up to the
        # scheduler: on a busy machine one can start after the caller has
        # taken every group, and exit unseen
        workers = [seen - before for before, seen, _ in spy.tasks]
        assert all(n <= most for n, most in zip(workers, [1, 1, 3, 3])) and max(workers) >= 1

    def test_without_sched_getaffinity_threads_by_cpu_count(self, case1, monkeypatch):
        """Where os has no sched_getaffinity (macOS), _simulate gives advance
        os.cpu_count() threads, or one when that is None, and the ensemble
        is the same bytes."""
        c = sim_config(case1, steps=300, stride=7)
        t = _record_steps(c)
        want = [b.tobytes() for b in _simulate(c, t, 9)]
        monkeypatch.delattr(os, "sched_getaffinity")
        threads = {}
        for count in (3, None):
            spy = ThreadKernel()
            with mock.patch.object(os, "cpu_count", return_value=count), \
                    mock.patch.object(harness, "_load_kernel", lambda: spy):
                assert [b.tobytes() for b in _simulate(c, t, 9)] == want
            threads[count] = set(spy.threads)
        assert threads == {3: {3}, None: {1}}
        assert [b.tobytes() for b in _simulate(c, t, 9)] == want  # this machine's cpu_count


class TestSteadyStateError:
    def test_constant_trajectory_at_target(self):
        traj = Trajectory(np.arange(10), np.tile([0.3, 0.7], (10, 1)))
        assert steady_state_error(traj, JointState(0.3, 0.7)) == 0.0

    def test_offset_is_euclidean(self):
        traj = Trajectory(np.arange(5), np.tile([0.8, 0.9], (5, 1)))
        assert steady_state_error(traj, JointState(0.5, 0.5)) == pytest.approx(0.5)

    def test_uses_last_ten_percent_of_samples(self):
        x = np.tile([0.1, 0.1], (100, 1))
        x[-10:] = [0.6, 0.6]
        traj = Trajectory(np.arange(100), x)
        assert steady_state_error(traj, JointState(0.6, 0.6)) == pytest.approx(0.0)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            Trajectory(np.array([]), np.empty((0, 2)))


class TestErrorTable:
    def test_rows_follow_input_order_and_match_run_game(self, case1):
        p_max_values = [0.99, 0.95]
        theta_values = [0.05, 0.01]
        table = error_table(
            case1, JointState(0.6667, 0.3333), p_max_values, theta_values,
            steps=2000, seed=9, record_stride=50,
        )
        assert table.dtype == np.float64 and table.shape == (3, 4)
        assert table.flags.c_contiguous
        assert table[:2].T.tolist() == [[0.99, 0.05], [0.99, 0.01], [0.95, 0.05], [0.95, 0.01]]
        for p_max, theta, error in table.T:
            c = sim_config(case1, theta, p_max, steps=2000, seed=9, stride=50)
            assert error == steady_state_error(run_game(c), JointState(0.6667, 0.3333))
        assert np.array_equal(table, error_table(
            case1, JointState(0.6667, 0.3333), p_max_values, theta_values,
            steps=2000, seed=9, x0=JointState(0.5, 0.5), record_stride=50,
        ))

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    @pytest.mark.parametrize("n_pmax, n_theta", [(1, 1), (1, 2), (3, 3), (5, 4)],
                             ids=["1-cell", "2-cells", "9-cells", "20-cells"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_one_pass_scores_each_cell_as_its_own_run(self, model, n_pmax, n_theta, data):
        """error_table steps every cell on the one stream in one pass, and
        each error equals, bit for bit, steady_state_error of the cell's own
        run_game against the nearest of its targets: a given target on any
        preset, case2's or case3's pure corners, or case1's mixed point.
        The cells differ in theta and p_max; from 9 cells on, the first
        p_max is 1 and the last repeats the second, so cells repeat.  The
        budget cuts the records into kernel calls of 1 to 3 records, so
        every cell stops mid-run, and the late window of 5 records or more
        spans several calls."""
        rule = data.draw(st.sampled_from(["given", "corners", "mixed"]))
        name = {"given": data.draw(st.sampled_from(["case1", "case2", "case3"])),
                "corners": data.draw(st.sampled_from(["case2", "case3"])), "mixed": "case1"}[rule]
        spec = dataclasses.replace(preset(name), model=model)
        target = None
        if rule == "given":
            target = JointState(data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)))
            targets = [target]
        elif rule == "corners":
            targets = pure_equilibria(spec)
        else:
            targets = [JointState(*mixed_equilibrium(spec))]
        p_max_values = data.draw(st.lists(
            st.just(1.0) | st.floats(0.5, 1.0, exclude_min=True), min_size=n_pmax, max_size=n_pmax
        ))
        if n_pmax >= 3:
            p_max_values[0], p_max_values[-1] = 1.0, p_max_values[1]
        theta_values = data.draw(st.lists(
            st.floats(1e-3, 0.999), min_size=n_theta, max_size=n_theta, unique=True
        ))
        lo, hi = 1.0 - min(p_max_values), min(p_max_values)
        x0 = JointState(data.draw(st.floats(lo, hi)), data.draw(st.floats(lo, hi)))
        steps, stride = data.draw(st.integers(200, 400)), data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**64 - 1))
        cells = n_pmax * n_theta
        budget = 2 * cells * data.draw(st.integers(1, 3)) + data.draw(st.integers(0, 2 * cells - 1))
        with mock.patch.object(kernel, "_BLOCK_BUDGET", budget):
            table = error_table(spec, target, p_max_values, theta_values, steps, seed, x0, stride)
        assert table.shape == (3, cells)
        for p_max, theta, error in table.T:
            cfg = LearnerConfig(theta, p_max)
            run = run_game(SimConfig(spec, cfg, cfg, x0, steps, seed, stride))
            assert error == min(steady_state_error(run, t) for t in targets)

    @pytest.mark.parametrize("model", [Model.P, Model.S])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_advance_cells_steps_each_cell_as_a_one_run_advance(self, model, lanes):
        """Kernel level, the shape of a replicated error table: for 1 to 3
        streams of these lanes, on one thread or three, each lane's full
        (records, 2) path from advance, and the state its stream leaves,
        equal bit for bit a one-lane advance on its stream's seed and its
        lane's table.  The lanes differ in theta, p_max (1 among them) and
        so in their tables, and every call stops mid-run."""
        real = _load_kernel()
        spec = game_of((1.0, 0.0, 0.25, 1.0), (0.0, 1.0, 0.6, 0.0), model)
        cfgs = [LearnerConfig(0.05, 1.0), LearnerConfig(0.2, 0.95), LearnerConfig(0.01, 0.9)]
        runs = [SimConfig(spec, cfg, cfg, JointState(0.5, 0.3), 300, 0x9E3779B97F4A7C15, 7)
                for cfg in cfgs[:lanes]]
        t = _record_steps(runs[0])

        def path(c, streams, tabs, cores=1):
            states = []

            class Spy:
                def advance(self, *args):
                    states.append(args[3])
                    real.advance(*args)

            with usable_cores(cores), mock.patch.object(harness, "_load_kernel", Spy), \
                    mock.patch.object(kernel, "_BLOCK_BUDGET", 2 * streams * len(tabs) * 5):
                blocks = list(harness._run_blocks(c, t, streams, tabs))
            assert len(blocks) > 1
            return np.concatenate(blocks), states[-1]

        tabs = np.stack([harness._table(c) for c in runs])
        for streams in (1, 2, 3):
            x, st = path(runs[0], streams, tabs)
            x3, st3 = path(runs[0], streams, tabs, cores=3)
            assert x3.tobytes() == x.tobytes() and st3.tobytes() == st.tobytes()
            for s in range(streams):
                for c, run in enumerate(runs):
                    one, one_st = path(dataclasses.replace(run, seed=run.seed ^ s), 1,
                                       harness._table(run)[None])
                    lane = np.ascontiguousarray(x[:, :, s * lanes + c])
                    assert lane.tobytes() == one[:, :, 0].tobytes()
                    assert st[s].tobytes() == one_st.tobytes()

    def test_default_target_of_a_mixed_only_game_is_its_mixed_equilibrium(self, case1):
        args = ([0.99, 0.95], [0.05], 2000, 9)
        mixed = JointState(*mixed_equilibrium(case1))
        assert np.array_equal(error_table(case1, None, *args), error_table(case1, mixed, *args))

    def test_nearest_corner_target_for_two_equilibria(self, case3):
        table = error_table(case3, None, [0.99], [0.2], steps=4000, seed=3, record_stride=50)
        assert table.shape == (3, 1)
        # a large theta drives the run into one corner; the error is small
        # against the nearest corner even though the other is far away
        assert table[2, 0] < 0.2

    def test_each_cell_runs_once_whatever_its_targets(self, case3, monkeypatch):
        """case3 scores each cell against its two corners from one pass: the
        kernel steps the table's 1000 steps once, both cells in each call,
        over calls that each start where the last one stopped, and records
        only the late window, 3 of the 21 steps at stride 50."""
        real, calls = _load_kernel(), []

        class Spy:
            def advance(self, streams, lanes, seed, st, pq, t, rec, k, *rest):
                calls.append(((streams, lanes), t, rec[:k].tolist()))
                real.advance(streams, lanes, seed, st, pq, t, rec, k, *rest)

        monkeypatch.setattr(harness, "_load_kernel", Spy)
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 4)  # one record a call
        error_table(case3, None, [0.99, 0.95], [0.2], steps=1000, seed=3, record_stride=50)
        assert {shape for shape, _, _ in calls} == {(1, 2)}  # one stream of two lanes
        recorded = [step for _, _, rec in calls for step in rec]
        assert recorded == [900, 950, 1000]
        assert [t for _, t, _ in calls] == [0, *(rec[-1] for _, _, rec in calls[:-1])]

    def test_empty_parameter_lists_rejected(self, case1):
        with pytest.raises(ValueError):
            error_table(case1, JointState(0.5, 0.5), [], [0.1], steps=10, seed=1)

    @pytest.mark.parametrize(
        "p_max_values, x0, message",
        [
            ([0.99, 0.4], (0.5, 0.5), "p_max must be in"),
            ([0.999, 0.99], (0.995, 0.5), "outside the barrier interval"),
        ],
        ids=["p_max", "x0"],
    )
    def test_an_invalid_last_cell_raises_before_any_run(
        self, case1, monkeypatch, p_max_values, x0, message
    ):
        def no_kernel():
            raise AssertionError("the kernel was loaded")

        monkeypatch.setattr(harness, "_load_kernel", no_kernel)
        with pytest.raises(ValueError, match=message):
            error_table(
                case1, JointState(0.6667, 0.3333), p_max_values, [0.01], steps=1000, seed=1,
                x0=JointState(*x0),
            )

    def test_error_shrinks_with_the_learning_rate(self, case1):
        """Steady-state error at p_max = 0.998 improves (or at worst matches,
        up to noise) when theta drops an order of magnitude.  The smaller
        theta needs a longer run: its mixing time scales like 1/theta."""
        target = JointState(0.6667, 0.3333)
        errs = {}
        for theta, steps in ((0.001, 5_000_000), (0.0001, 20_000_000)):
            c = sim_config(case1, theta, 0.998, steps=steps)
            errs[theta] = steady_state_error(run_game(c), target)
        assert errs[0.0001] < 1.5 * errs[0.001]


class TestBasinSplit:
    def test_requires_two_pure_case(self, case1):
        cfg = LearnerConfig(theta=0.01, p_max=0.99)
        with pytest.raises(NotCase3):
            basin_split(case1, cfg, JointState(0.5, 0.5), runs=2, steps=10, seed=1)

    def test_no_stable_fixed_point_raises(self, case3, monkeypatch):
        cfg = LearnerConfig(theta=0.01, p_max=0.99)
        found = harness.fixed_points(case3, 0.99)
        unstable = [fp for fp in found if fp.stability is not Stability.STABLE]
        assert unstable  # the mixed point between the basins
        monkeypatch.setattr(harness, "fixed_points", lambda spec, p_max: unstable)
        with pytest.raises(NotCase3, match="no stable fixed points"):
            basin_split(case3, cfg, JointState(0.5, 0.5), runs=2, steps=10, seed=1)

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
    def test_engine_steps_are_int64(self, case1):
        # the CLI writes these steps as float64 "%.17g", which equals "%d" below 2^53
        c = sim_config(case1, steps=250)
        assert run_game(c).t.dtype == np.int64
        assert run_ensemble(c, runs=2).t.dtype == np.int64


class TestBlockBudget:
    """kernel._BLOCK_BUDGET, read through kernel._chunks alone, bounds every
    kernel call of the package."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 60), width=st.integers(1, 30), budget=st.integers(1, 100))
    def test_chunks_tile_the_range_within_the_rule(self, n, width, budget):
        with mock.patch.object(kernel, "_BLOCK_BUDGET", budget):
            chunks = list(kernel._chunks(n, width))
        k = max(1, budget // width)
        starts = [0, *(j for _, j in chunks)]
        assert [i for i, _ in chunks] == starts[:-1] and starts[-1] == n  # n = 0 yields none
        assert all(0 < j - i <= k for i, j in chunks)
        assert all(j - i == k for i, j in chunks[:-1])

    def test_one_budget_bounds_every_kernel_call(self, case1, tmp_path):
        """Patched at 2 and 3 (below one record of advance, one RK4 step and
        one CSV row) and at 50, the budget bounds the values of each call of
        advance (through _simulate, 9 streams of one lane, and through
        error_table, one stream of 4), rk4 (through integrate) and
        format_rows (through cli._write_csv) by max(budget, width), one
        item's values, plus rk4's start row, and every output is the
        unpatched one, byte for byte."""
        real, calls = _load_kernel(), []  # (function, values, item width)

        class Spy:
            def advance(self, streams, lanes, *args):
                calls.append((f"advance {streams}x{lanes}", args[-2].size, 2 * streams * lanes))
                real.advance(streams, lanes, *args)

            def rk4(self, tab, n, x, k):
                calls.append(("rk4", x.size - 2, 2))
                return real.rk4(tab, n, x, k)

            def format_rows(self, n, ncols, cols, buf, cap):
                calls.append(("format_rows", cols.size, ncols))
                return real.format_rows(n, ncols, cols, buf, cap)

        def outputs():
            c = sim_config(case1, steps=300, stride=7)
            table = error_table(case1, None, [0.99, 0.95], [0.05, 0.01], 300, 4, record_stride=3)
            path = integrate(case1, JointState(0.9, 0.1), 0.99, step=0.01, t_max=3.0)
            cli._write_csv(str(tmp_path / "x.csv"), "t,p1,q1", path.t, *path.x.T)
            return (run_ensemble(c, 9).x.tobytes(), terminal_states(c, 9).tobytes(),
                    table.tobytes(), path.t.tobytes(), path.x.tobytes(),
                    (tmp_path / "x.csv").read_bytes())

        want = outputs()
        with mock.patch.object(harness, "_load_kernel", Spy), \
                mock.patch.object(dynamics, "_load_kernel", Spy), \
                mock.patch.object(cli, "_load_kernel", Spy):
            for budget in (2, 3, 50):
                calls.clear()
                with mock.patch.object(kernel, "_BLOCK_BUDGET", budget):
                    assert outputs() == want
                assert {name for name, _, _ in calls} == {
                    "advance 9x1", "advance 1x4", "rk4", "format_rows"}
                assert all(size <= max(budget, width) for _, size, width in calls)
                names = [name for name, _, _ in calls]
                assert all(names.count(name) > 1 for name in names)  # every output is cut


class TestKernelCache:
    def test_compiles_once_per_source_hash(self, case1, tmp_path, monkeypatch, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "barrier_la"
        cache.mkdir()
        (cache / f"kernel-{'0' * 64}.so").write_bytes(b"built from another source")
        compiles = []
        real_run = subprocess.run
        monkeypatch.setattr(
            subprocess, "run", lambda *a, **k: compiles.append(a) or real_run(*a, **k)
        )
        assert _load_kernel() is not None  # the stale file is never loaded
        assert len(compiles) == 1
        assert len(list(cache.iterdir())) == 2  # the stale file and the new kernel, no temp file

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached kernel was compiled again")

        _load_kernel.cache_clear()
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _load_kernel() is not None
        c = sim_config(case1, steps=300, stride=7)
        assert run_game(c).x.tolist() == [[r[1], r[2]] for r in reference_loop(c)]

    def test_a_failing_compiler_raises_with_its_exit_code_and_stderr(
        self, tmp_path, monkeypatch, fresh_loader
    ):
        """A cc that prints to stderr and exits 1 makes loading raise OSError
        naming both, and leaves neither a kernel nor a temporary file."""
        bin_dir, cache = tmp_path / "bin", tmp_path / "cache"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\ncat > /dev/null\necho 'no such target' >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        with pytest.raises(OSError, match="cc exited 1: no such target"):
            _load_kernel()
        assert list((cache / "barrier_la").iterdir()) == []

    def test_relative_xdg_cache_home_is_ignored(self, tmp_path, monkeypatch, fresh_loader):
        """A relative XDG_CACHE_HOME is not a base directory: the kernel goes
        to $HOME/.cache/barrier_la and nothing appears in the working
        directory."""
        home, work = tmp_path / "home", tmp_path / "work"
        work.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.chdir(work)
        assert _load_kernel() is not None
        assert len(list((home / ".cache" / "barrier_la").glob("kernel-*.so"))) == 1
        assert list(work.iterdir()) == []

    @staticmethod
    def lint(source):
        # the loader compiles without warning flags; lint the same source
        # with its own command
        cmd = [*kernel._CC, "-Wall", "-Wextra", "-Werror", "-x", "c", "-", "-o", os.devnull]
        proc = subprocess.run(cmd, input=source, text=True, capture_output=True)
        assert proc.returncode == 0, proc.stderr

    def test_kernel_source_compiles_without_warnings(self):
        self.lint(kernel._KERNEL_C)

    def test_portable_kernel_source_compiles_without_warnings(self):
        """The source other architectures compile: no AVX-512 lanes, every
        run stepped by lockstep."""
        self.lint(kernel._KERNEL_C.replace("defined(__x86_64__)", "0"))

    def test_no_entry_point_is_called_inside_the_library(self):
        """The library's exported functions are only defined in its source,
        never called: a call from inside the library may bind to another
        library's symbol of the same name, as glibc exports advance(3)."""
        code = re.sub(r"/\*.*?\*/", "", kernel._KERNEL_C, flags=re.S)
        exported = re.findall(r"^(?!static)[a-z_0-9]+ \**(\w+)\(", code, flags=re.M)
        assert sorted(exported) == ["advance", "format_rows", "rk4"]
        for name in exported:
            assert len(re.findall(rf"\b{name}\s*\(", code)) == 1, name

    def test_without_a_compiler_loading_raises_naming_the_command(self, no_compiler):
        with pytest.raises(OSError) as exc:  # and no warning: warnings fail the suite
            _load_kernel()
        assert "cc -O2" in str(exc.value) and str(no_compiler) in str(exc.value)
