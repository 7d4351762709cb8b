import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from barrier_la import (
    JointState, dump_game, dynamics, harness, mixed_equilibrium, preset, vector_field,
)
from barrier_la.cli import _build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestClassifyCommand:
    def test_case1_report(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "--preset", "case1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["case"] == "MixedOnly"
        assert payload["pure"] == []
        assert payload["mixed"] == pytest.approx([0.6667, 0.3333], abs=5e-5)
        assert payload["L"] == pytest.approx(-0.3)

    def test_case2_report(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "--preset", "case2")
        payload = json.loads(out)
        assert rc == 0
        assert payload["case"] == "SinglePure"
        assert payload["pure"] == [[1.0, 0.0]]
        assert payload["mixed"] is None

    def test_game_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        dump_game(preset("case3"), path)
        rc, out, _ = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 0
        assert json.loads(out)["case"] == "TwoPureOneMixed"
        assert out == run_cli(capsys, "classify", "--preset", "case3")[1]

    def test_degenerate_game_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"model": "P", "R": [[0.5, 0.5], [0.5, 0.5]], "C": [[0.1, 0.2], [0.3, 0.4]]})
        )
        rc, _, err = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 1
        assert "tie" in err or "degenerate" in err.lower()

    def test_tiny_payoff_gaps_are_not_a_tie(self, capsys, tmp_path):
        # A's first action is strictly dominant by 1e-200; a product of two
        # such gaps underflows to 0, a comparison of entries does not
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(
            {"model": "P", "R": [[1e-200, 1e-200], [0, 0]], "C": [[0.4, 0.25], [0.3, 0.6]]}
        ))
        rc, out, _ = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["case"] == "SinglePure"
        assert payload["pure"] == [[1.0, 1.0]]

    def test_coordination_game_with_tiny_gaps(self, capsys, tmp_path):
        path = tmp_path / "tiny_coordination.json"
        tiny = [[1e-200, 0], [0, 1e-200]]
        path.write_text(json.dumps({"model": "P", "R": tiny, "C": tiny}))
        rc, out, _ = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["case"] == "TwoPureOneMixed"
        assert payload["pure"] == [[1.0, 1.0], [0.0, 0.0]]
        assert payload["mixed"] == [0.5, 0.5]

    def test_near_tie_interior_game_reports_its_mixed_point(self, capsys, tmp_path):
        path = tmp_path / "near_tie.json"
        path.write_text(json.dumps({
            "model": "P",
            "R": [[0.7200111192047169, 0.13290601045995287],
                  [0.28897610525044326, 0.4831693166218948]],
            "C": [[0.24372164064158708, 0.24372164064158705],
                  [0.3464797884927627, 0.9570840322522522]],
        }))
        rc, out, _ = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 0
        p_opt, q_opt = json.loads(out)["mixed"]
        assert 0.0 <= p_opt <= 1.0 and 0.0 <= q_opt <= 1.0


def test_documented_commands_match_the_parser():
    root = Path(__file__).resolve().parents[1]
    docs = "".join((root / f).read_text() for f in ("README.md", "docs/reproduce.md"))
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(re.findall(r"barrier-la ([a-z][a-z-]*)", docs)) == set(subparsers.choices)


class TestValidation:
    def test_theta_zero_rejected_with_exit_1(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "simulate", "--preset", "case1", "--theta", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert "theta must be in (0,1)" in err

    @pytest.mark.parametrize("flag", ["--steps", "--stride"])
    def test_counts_beyond_int64_rejected_with_exit_1(self, capsys, tmp_path, flag):
        # the kernel takes steps as int64; 2**63 would wrap to -2**63
        rc, _, err = run_cli(
            capsys, "simulate", "--preset", "case1", flag, str(2**63),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert "2**63" in err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys, "simulate", "--preset", "case1", "--frobnicate", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("basin-split", "--preset", "case3", "--stride", "10"),
            ("classify", "--preset", "case1", "--model", "s"),
            ("fixed-points", "--preset", "case1", "--model", "s"),
            ("ode-field", "--preset", "case1", "--model", "s", "--out", "x.csv"),
            ("ode-trajectory", "--preset", "case1", "--model", "s", "--out", "x.csv"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[3]}",
    )
    def test_flags_a_command_would_ignore_are_usage_errors(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # basin_split reads only the final states; equilibria and the drift
        # do not depend on the feedback model
        monkeypatch.chdir(tmp_path)
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert "unrecognized arguments" in err
        assert not (tmp_path / "x.csv").exists()

    def test_parser_is_built_once_and_keeps_no_state_between_calls(self, capsys):
        assert _build_parser() is _build_parser()
        first = run_cli(capsys, "classify", "--preset", "case3")
        assert run_cli(capsys, "classify", "--preset", "case3", "--frobnicate")[0] == 2
        assert run_cli(capsys, "classify", "--preset", "case3") == first

    def test_out_of_memory_is_validation_error(self, capsys, tmp_path, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 65.5 TiB")

        monkeypatch.setattr(dynamics, "_field", no_memory)
        out = tmp_path / "f.csv"
        rc, _, err = run_cli(
            capsys, "ode-field", "--preset", "case1", "--grid-n", "3", "--out", str(out)
        )
        assert rc == 1
        assert err == "error: Unable to allocate 65.5 TiB\n"
        assert not out.exists()

    def test_impossible_run_count_fails_before_any_per_run_work(self, capsys, tmp_path):
        # 2**45 lanes need a 512 TiB state array, beyond the address space,
        # so the first allocation fails and nothing is allocated
        harness._load_kernel()  # built, so only that allocation can fail
        out = tmp_path / "e.csv"
        rc, _, err = run_cli(
            capsys, "ensemble", "--preset", "case1", "--steps", "10", "--runs", str(2**45),
            "--out", str(out),
        )
        assert rc == 1
        assert err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_without_a_compiler_simulate_exits_1_naming_it(self, capsys, tmp_path, no_compiler):
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(
            capsys, "simulate", "--preset", "case1", "--steps", "10", "--out", str(out)
        )
        assert rc == 1
        assert "cc -O2" in err and str(no_compiler) in err
        assert not out.exists()

    def test_unknown_preset_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "classify", "--preset", "case9")
        assert rc == 2

    def test_missing_subcommand(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 2


class TestSimulateCommands:
    def test_simulate_writes_reproducible_csv(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc, _, _ = run_cli(
                capsys, "simulate", "--preset", "case1", "--theta", "0.01",
                "--pmax", "0.99", "--steps", "1000", "--seed", "7",
                "--stride", "100", "--out", str(out),
            )
            assert rc == 0
        assert out1.read_text() == out2.read_text()
        rows = out1.read_text().splitlines()
        assert rows[0] == "step,p1,q1"
        assert len(rows) == 12  # header + steps 0,100,...,1000

    def test_model_override_changes_the_run(self, capsys, tmp_path):
        a, b = tmp_path / "p.csv", tmp_path / "s.csv"
        for out, model in ((a, "p"), (b, "s")):
            rc, _, _ = run_cli(
                capsys, "simulate", "--preset", "case1", "--model", model,
                "--steps", "500", "--out", str(out),
            )
            assert rc == 0
        assert a.read_text() != b.read_text()

    def test_ensemble_header(self, capsys, tmp_path):
        out = tmp_path / "e.csv"
        rc, _, _ = run_cli(
            capsys, "ensemble", "--preset", "case1", "--steps", "200",
            "--runs", "3", "--out", str(out),
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == "step,mean_p1,mean_q1"

    def test_error_table_csv(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        rc, _, _ = run_cli(
            capsys, "error-table", "--preset", "case1",
            "--pmax-list", "0.99,0.95", "--theta-list", "0.05",
            "--steps", "1000", "--out", str(out),
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["p_max"]) for r in rows] == [0.99, 0.95]
        assert all(0.0 <= float(r["error"]) <= 1.5 for r in rows)

    def test_error_table_default_target_is_the_mixed_point(self, capsys, tmp_path, case1):
        p_opt, q_opt = mixed_equilibrium(case1)
        base = ("error-table", "--preset", "case1", "--pmax-list", "0.99,0.95",
                "--theta-list", "0.05", "--steps", "1000")
        untargeted, targeted = tmp_path / "u.csv", tmp_path / "t.csv"
        assert run_cli(capsys, *base, "--out", str(untargeted))[0] == 0
        rc, _, _ = run_cli(
            capsys, *base, "--target-p", repr(p_opt), "--target-q", repr(q_opt),
            "--out", str(targeted),
        )
        assert rc == 0
        assert untargeted.read_bytes() == targeted.read_bytes()

    def test_error_table_on_a_degenerate_game_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"model": "P", "R": [[0.5, 0.5], [0.5, 0.5]], "C": [[0.1, 0.2], [0.3, 0.4]]})
        )
        out = tmp_path / "t.csv"
        rc, _, err = run_cli(
            capsys, "error-table", "--game", str(path), "--pmax-list", "0.99",
            "--theta-list", "0.05", "--steps", "100", "--out", str(out),
        )
        assert rc == 1
        assert "tie" in err
        assert not out.exists()

    def test_basin_split_requires_case3(self, capsys):
        rc, _, err = run_cli(
            capsys, "basin-split", "--preset", "case1", "--steps", "100", "--runs", "2"
        )
        assert rc == 1
        assert "two pure equilibria" in err


class TestOdeCommands:
    def test_field_grid_two_by_two(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        rc, _, _ = run_cli(
            capsys, "ode-field", "--preset", "case1", "--pmax", "0.99",
            "--grid-n", "2", "--out", str(out),
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p1", "q1", "w1", "w2"]
        corners = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert corners == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_field_value_at_center(self, capsys, tmp_path, case1):
        out = tmp_path / "f3.csv"
        rc, _, _ = run_cli(
            capsys, "ode-field", "--preset", "case1", "--pmax", "0.99",
            "--grid-n", "3", "--out", str(out),
        )
        assert rc == 0
        with open(out) as fh:
            rows = {(float(r[0]), float(r[1])): (float(r[2]), float(r[3]))
                    for r in list(csv.reader(fh))[1:]}
        w1, w2 = rows[(0.5, 0.5)]
        assert w1 == pytest.approx(-0.01225, abs=1e-12)
        ref = vector_field(case1, JointState(0.5, 0.5), 0.99)
        assert (w1, w2) == (ref.w1, ref.w2)

    def test_field_rows_equal_pointwise_vector_field(self, capsys, tmp_path, case3):
        out = tmp_path / "f11.csv"
        rc, _, _ = run_cli(
            capsys, "ode-field", "--preset", "case3", "--pmax", "0.993",
            "--grid-n", "11", "--out", str(out),
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        want = []
        for p1 in np.linspace(0.0, 1.0, 11):
            for q1 in np.linspace(0.0, 1.0, 11):
                w = vector_field(case3, JointState(p1, q1), 0.993)
                want.append(",".join(format(v, ".17g") for v in (p1, q1, w.w1, w.w2)))
        assert rows == want

    def test_trajectory_csv(self, capsys, tmp_path):
        out = tmp_path / "ode.csv"
        rc, _, _ = run_cli(
            capsys, "ode-trajectory", "--preset", "case1", "--pmax", "0.99",
            "--p0", "0.5", "--q0", "0.5", "--t-max", "50", "--out", str(out),
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,p1,q1"
        assert len(rows) == 5002  # header + 5001 RK4 samples

    def test_oversized_ode_step_is_numerical_error(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "ode-trajectory", "--preset", "case1", "--pmax", "0.99",
            "--ode-step", "100000", "--t-max", "1000000",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "numerical error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--t-max", "inf"),
            ("--t-max", "nan"),
            ("--t-max", "-5"),
            ("--ode-step", "inf"),
            ("--t-max", "1e300", "--ode-step", "1e-300"),
        ],
        ids=["t_max-inf", "t_max-nan", "t_max-negative", "step-inf", "steps-overflow"],
    )
    def test_non_finite_or_negative_rk4_inputs_are_validation_errors(
        self, capsys, tmp_path, flags
    ):
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(
            capsys, "ode-trajectory", "--preset", "case1", *flags, "--out", str(out)
        )
        assert rc == 1
        assert "t_max" in err
        assert not out.exists()

    def test_rk4_state_outside_unit_square_is_numerical_error(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "ode-trajectory", "--preset", "case2",
            "--p0", "0.27899524521331553", "--q0", "0.0593345829787469",
            "--ode-step", "15.821770123928726", "--t-max", "316.43540247857453",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "numerical error" in err

    def test_fixed_points_json(self, capsys):
        rc, out, _ = run_cli(
            capsys, "fixed-points", "--preset", "case3", "--pmax", "0.999"
        )
        assert rc == 0
        payload = json.loads(out)
        stable = [p for p in payload["points"] if p["stability"] == "Stable"]
        saddle = [p for p in payload["points"] if p["stability"] == "Saddle"]
        assert len(stable) == 2 and len(saddle) == 1
        high = max(stable, key=lambda p: p["x"][0])
        assert high["x"][0] == pytest.approx(0.99698488, abs=1e-6)
        assert saddle[0]["det"] < 0

    def test_fixed_points_case2(self, capsys):
        rc, out, _ = run_cli(capsys, "fixed-points", "--preset", "case2", "--pmax", "0.99")
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        assert payload["points"][0]["x"] == pytest.approx([0.917, 0.040], abs=2e-3)
