import csv
import json

import numpy as np
import pytest

from barrier_la import JointState, dump_game, preset, vector_field
from barrier_la.cli import main


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
        rc, out, _ = run_cli(capsys, "equilibria", "--game", str(path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["case"] == "TwoPureOneMixed"
        # the echoed game reloads identically
        path2 = tmp_path / "g2.json"
        path2.write_text(json.dumps(payload["game"]))
        rc2, out2, _ = run_cli(capsys, "equilibria", "--game", str(path2))
        assert rc2 == 0
        assert json.loads(out2)["game"] == payload["game"]

    def test_degenerate_game_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"model": "P", "R": [[0.5, 0.5], [0.5, 0.5]], "C": [[0.1, 0.2], [0.3, 0.4]]})
        )
        rc, _, err = run_cli(capsys, "classify", "--game", str(path))
        assert rc == 1
        assert "tie" in err or "degenerate" in err.lower()


class TestValidation:
    def test_theta_zero_rejected_with_exit_1(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "simulate", "--preset", "case1", "--theta", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert "theta must be in (0,1)" in err

    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys, "simulate", "--preset", "case1", "--frobnicate", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

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
