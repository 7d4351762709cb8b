"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import io
import contextlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, p", [(10, None), (19, None), (20, 50.0), (40, 75.0), (199, 90.0), (200, 95.0),
                                  (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p is not None:
        values = list(range(n))
        tail = run.nearest_rank(values, p)
        assert sum(v > tail for v in values) >= run.MIN_BEYOND


def test_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.nearest_rank(values, 50.0) == 50.0
    assert run.nearest_rank(values, 95.0) == 95.0
    assert run.nearest_rank(values, 99.9) == 100.0
    assert run.nearest_rank([7.0], 50.0) == 7.0


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([], 0.0, 10.0) == 0.0
    assert spans.union_length([(1, 3), (2, 5), (8, 12), (-4, -1)], 0.0, 10.0) == 6.0
    assert spans.union_length([(1, 9), (2, 3), (4, 5)], 0.0, 10.0) == 8.0


def test_self_time_subtracts_covered_part_only():
    assert spans.self_time(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == 4.0
    assert spans.self_time(0.0, 10.0, []) == 10.0


def test_layer_metrics_arithmetic():
    # name, start, end, parent, op
    s = [
        ["cli.main", 0.0, 10.0, None, 7],
        ["game.preset", 0.5, 1.0, 0, 7],
        ["harness.basin_split", 1.0, 9.0, 0, 7],
        ["game.classify", 1.0, 1.5, 2, 7],
        ["dynamics.fixed_points", 1.5, 3.5, 2, 7],
        ["game.mixed_equilibrium", 2.0, 2.5, 4, 7],
        ["harness.terminal_states", 4.0, 8.0, 2, 7],
    ]
    counts = {"harness.terminal_states.lanes": 1000.0, "dynamics.fixed_points.failed_seeds": 3.0,
              "dynamics.fixed_points.seeds": 12.0}
    m = spans.layer_metrics(s, spans.defaultdict(float, counts), [(7, 0.0, 12.0)])
    assert m["cli.main.self_s"] == 10.0 - 0.5 - 8.0
    assert m["harness.basin_split.self_s"] == 8.0 - 0.5 - 2.0 - 4.0
    assert m["dynamics.fixed_points.busy_s"] == 2.0
    assert m["dynamics.fixed_points.seed_fail_frac"] == 0.25
    assert m["game.busy_s"] == 0.5 + 0.5 + 0.5
    assert m["harness.terminal_states.lanes"] == 1000.0
    assert m["trace.span_cover_frac"] == 10.0 / 12.0
    shares = sum(m[f"{layer}.self_frac"] for layer in spans.LAYERS)
    assert shares == pytest.approx(10.0 / 12.0)


def test_layer_metrics_counts_nested_same_name_once():
    s = [["game.classify", 0.0, 4.0, None, 0], ["game.classify", 1.0, 2.0, 0, 0]]
    m = spans.layer_metrics(s, spans.defaultdict(float), [(0, 0.0, 4.0)])
    assert m["game.busy_s"] == 4.0


def test_golden_check_catches_one_byte():
    op = workloads.Op("x", "simulate", {"--pmax": 0.99})
    csv = b"step,p1,q1\n0,0.5,0.5\n100,0.50000000000000011,0.5\n"
    golden = workloads.golden_of(op, "", csv)
    assert workloads.golden_mismatch(workloads.golden_of(op, "", csv), golden) is None
    for i in range(len(csv)):
        flipped = csv[:i] + bytes([csv[i] ^ 1]) + csv[i + 1:]
        assert workloads.golden_mismatch(workloads.golden_of(op, "", flipped), golden) is not None


def test_fixed_point_golden_is_a_tolerance():
    op = workloads.Op("x", "fixed-points", {"--pmax": 0.99})
    report = '{"points": [{"x": [0.25, 0.75], "stability": "Stable"}]}'
    golden = workloads.golden_of(op, report, None)
    near = report.replace("0.25", "0.2500000000001")
    far = report.replace("0.25", "0.250001")
    relabelled = report.replace("Stable", "Saddle")
    assert workloads.golden_mismatch(workloads.golden_of(op, near, None), golden) is None
    assert workloads.golden_mismatch(workloads.golden_of(op, far, None), golden) is not None
    assert workloads.golden_mismatch(workloads.golden_of(op, relabelled, None), golden) is not None


def test_ops_are_a_function_of_the_seed(tmp_path):
    for w in workloads.WORKLOADS:
        a = [op.argv for op in workloads.make_ops(w, 5, tmp_path)]
        assert a == [op.argv for op in workloads.make_ops(w, 5, tmp_path)]
        assert a != [op.argv for op in workloads.make_ops(w, 6, tmp_path)]


def test_tracer_records_layers_and_restores_the_package():
    from barrier_la import cli, dynamics, harness

    originals = (cli.main, harness.fixed_points, dynamics.fixed_points, harness.run_game)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["basin-split", "--preset", "case3", "--steps", "20", "--runs", "3"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (cli.main, harness.fixed_points, dynamics.fixed_points, harness.run_game) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] is None
    by_name = {s[0]: s for s in tracer.spans}
    basin = names.index("harness.basin_split")
    assert by_name["dynamics.fixed_points"][3] == basin
    assert by_name["harness.terminal_states"][3] == basin
    assert all(s[4] == 0 for s in tracer.spans)
    assert tracer.counts["harness.terminal_states.lanes"] == 3
    # 11 x 11 lattice plus the analytic mixed equilibrium.
    assert tracer.counts["dynamics.fixed_points.seeds"] == 122
    assert tracer.counts["dynamics.fixed_points.failed_seeds"] > 0
