import argparse
import csv
import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrier_la import (
    CaseKind, DegenerateGame, JointState, cli, dynamics, error_table, harness, integrate, kernel,
    mixed_equilibrium, run_game, vector_field,
)
from barrier_la.cli import _build_parser, main
from barrier_la.kernel import _CSV_VALUE_BYTES, _load_kernel

from conftest import NEAR_TIE_C, NEAR_TIE_R, game_of, sign_case_oracle, sim_config


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def python_rows(*columns: np.ndarray) -> bytes:
    """The CSV rows as Python's own formatting gives them: "%.17g" % float(v)
    for every value of every column."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return "".join(row % tuple(map(float, v)) for v in zip(*(c.tolist() for c in columns))).encode()


def kernel_rows(*columns: np.ndarray) -> bytes:
    """The same rows from one call of the kernel's format_rows."""
    block = np.array(columns, dtype=np.float64)
    buf = np.empty(block.size * _CSV_VALUE_BYTES, dtype=np.uint8)
    size = _load_kernel().format_rows(block.shape[1], len(columns), block, buf, buf.size)
    return buf[:size].tobytes()


INT64 = st.integers(-(2**63), 2**63 - 1)
# every float64 bit pattern, and hypothesis's own float edge cases
FLOAT64 = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]
)


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
        path.write_text(
            json.dumps({"model": "P", "R": [[0.3, 0.1], [0.2, 0.3]], "C": [[0.3, 0.2], [0.1, 0.2]]})
        )
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

    def test_boolean_payoff_is_validation_error(self, capsys, tmp_path):
        # JSON true is not the number 1
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"model": "P", "R": [[True, 0.6], [0.4, 0.5]], "C": [[0.4, 0.25], [0.3, 0.6]]}
        ))
        rc, out, err = run_cli(capsys, "classify", "--game", str(path))
        assert (rc, out) == (1, "")
        assert err == "error: invalid game spec: payoff entry True is not a number\n"

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


class TestEquilibriumReport:
    """classify's report as _cmd_classify builds it from the game's analysis."""

    def test_case_shapes(self, case1, case2, case3):
        r1 = cli._cmd_classify(None, case1)
        assert r1["case"] == CaseKind.MIXED_ONLY and r1["pure"] == [] and r1["mixed"]
        r2 = cli._cmd_classify(None, case2)
        assert r2["case"] == CaseKind.SINGLE_PURE and len(r2["pure"]) == 1 and r2["mixed"] is None
        r3 = cli._cmd_classify(None, case3)
        assert r3["case"] == CaseKind.TWO_PURE_ONE_MIXED and len(r3["pure"]) == 2 and r3["mixed"]

    def test_discriminants_of_case1(self, case1):
        report = cli._cmd_classify(None, case1)
        assert report["L"] == pytest.approx(-0.3)
        assert report["L_prime"] == pytest.approx(0.45)


@settings(max_examples=200, deadline=None)
@given(
    r=st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=4),
    c=st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=4),
)
@example(r=list(NEAR_TIE_R), c=list(NEAR_TIE_C))
@example(r=[1e-200, 0.0, 0.0, 1e-200], c=[1e-200, 0.0, 0.0, 1e-200])  # gap products underflow
def test_report_invariants_on_arbitrary_games(r, c):
    spec = game_of(r, c)
    want = sign_case_oracle(spec)
    if want is None:
        with pytest.raises(DegenerateGame):
            cli._cmd_classify(None, spec)
        return
    report = cli._cmd_classify(None, spec)
    assert report["case"] == want
    if want is CaseKind.MIXED_ONLY:
        assert report["pure"] == [] and report["mixed"] is not None
    elif want is CaseKind.SINGLE_PURE:
        assert len(report["pure"]) == 1 and report["mixed"] is None
    else:
        assert len(report["pure"]) == 2 and report["mixed"] is not None


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_documented_commands_match_the_parser():
    root = Path(__file__).resolve().parents[1]
    docs = "".join((root / f).read_text() for f in ("README.md", "docs/reproduce.md"))
    assert set(re.findall(r"barrier-la ([a-z][a-z-]*)", docs)) == set(subcommands())
    # every command line of the bash blocks, its continuations joined and
    # docs/reproduce.md's loop variables given sample values, parses
    shell = {"i": "1", "p0": "0.2", "q0": "0.8"}
    lines = [
        line.strip()
        for block in re.findall(r"```bash\n(.*?)```", docs, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("barrier-la ")
    ]
    assert {line.split()[1] for line in lines} == set(subcommands())
    for line in lines:
        argv = shlex.split(re.sub(r"\$(\w+)", lambda m: shell[m[1]], line), comments=True)
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"documented command does not parse: {line}")


# each command's minimal argv, and the namespace it parses to: every flag the
# command takes, with its default (func by name)
PARSED = {
    "classify": ((), {"func": "_cmd_classify", "csv": ""}),
    "simulate": (("--out", "x.csv"), {
        "func": "_cmd_simulate", "csv": "step,p1,q1", "out": "x.csv", "model": None,
        "theta": 0.01, "pmax": 0.99, "steps": 100_000, "seed": 42, "p0": 0.5, "q0": 0.5,
        "stride": 100,
    }),
    "ensemble": (("--out", "x.csv"), {
        "func": "_cmd_ensemble", "csv": "step,mean_p1,mean_q1", "out": "x.csv", "model": None,
        "theta": 0.01, "pmax": 0.99, "steps": 100_000, "seed": 42, "p0": 0.5, "q0": 0.5,
        "stride": 100, "runs": 1000,
    }),
    "error-table": (("--pmax-list", "0.99", "--theta-list", "0.01", "--out", "x.csv"), {
        "func": "_cmd_error_table", "csv": "p_max,theta,error", "out": "x.csv", "model": None,
        "steps": 5_000_000, "seed": 42, "p0": 0.5, "q0": 0.5, "stride": 100,
        "pmax_list": "0.99", "theta_list": "0.01", "target_p": None, "target_q": None,
    }),
    "basin-split": ((), {
        "func": "_cmd_basin_split", "csv": "", "model": None, "theta": 0.01, "pmax": 0.99,
        "steps": 100_000, "seed": 42, "p0": 0.5, "q0": 0.5, "runs": 1000,
    }),
    "ode-field": (("--out", "x.csv"), {
        "func": "_cmd_ode_field", "csv": "p1,q1,w1,w2", "out": "x.csv", "pmax": 0.99,
        "grid_n": 21,
    }),
    "ode-trajectory": (("--out", "x.csv"), {
        "func": "_cmd_ode_trajectory", "csv": "t,p1,q1", "out": "x.csv", "pmax": 0.99,
        "p0": 0.5, "q0": 0.5, "ode_step": 0.01, "t_max": 1e4,
    }),
    "fixed-points": ((), {"func": "_cmd_fixed_points", "csv": "", "pmax": 0.99}),
}


@pytest.mark.parametrize("command", PARSED)
def test_every_flag_and_default_is_pinned(command):
    extra, flags = PARSED[command]
    args = vars(_build_parser().parse_args([command, "--preset", "case1", *extra]))
    args["func"] = args["func"].__name__
    want = {"command": command, "preset": "case1", "game": None, **flags}
    assert args == want
    assert {k: type(v) for k, v in args.items()} == {k: type(v) for k, v in want.items()}


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "CaseKind.MIXED_ONLY" in out and "Stability.STABLE" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--preset", "case1"),
        ("fixed-points", "--preset", "case3"),
        ("basin-split", "--preset", "case3", "--theta", "0.2", "--steps", "200", "--runs", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_reports_are_indented_two_spaces_with_one_newline(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("error-table", "--pmax-list", "0.99,x", "--theta-list", "0.01"),
             "--pmax-list must be comma-separated numbers"),
            (("error-table", "--pmax-list", "0.99", "--theta-list", ","),
             "--theta-list must be non-empty"),
            (("error-table", "--pmax-list", "0.99", "--theta-list", "0.01", "--target-p", "0.5"),
             "provide both --target-p and --target-q or neither"),
            (("ode-field", "--grid-n", "1"), "grid-n must be >= 2"),
        ],
        ids=["pmax-list", "theta-list", "target-p-alone", "grid-n"],
    )
    def test_bad_command_input_is_validation_error(self, capsys, tmp_path, argv, message):
        out = tmp_path / "x.csv"
        rc, stdout, err = run_cli(capsys, *argv, "--preset", "case1", "--out", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

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

    def test_without_a_compiler_ode_trajectory_exits_1_and_the_rest_run(
        self, capsys, tmp_path, no_compiler
    ):
        """The CSV commands need the kernel, ode-field's writer too, and
        leave no file; the JSON commands classify and fixed-points run."""
        out = tmp_path / "x.csv"
        for argv in (
            ("ode-trajectory", "--preset", "case1", "--t-max", "1"),
            ("ode-field", "--preset", "case1", "--grid-n", "3"),
        ):
            rc, _, err = run_cli(capsys, *argv, "--out", str(out))
            assert rc == 1
            assert "cc -O2" in err and str(no_compiler) in err
            assert not out.exists()
        assert run_cli(capsys, "classify", "--preset", "case1")[0] == 0
        assert run_cli(capsys, "fixed-points", "--preset", "case1")[0] == 0

    def test_unwritable_out_path_is_validation_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        rc, stdout, err = run_cli(
            capsys, "simulate", "--preset", "case1", "--steps", "10", "--out", str(out)
        )
        assert (rc, stdout) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_an_unplanned_arithmetic_error_is_not_a_numerical_exit(self, monkeypatch):
        # only the errors the program raises on purpose map to exit 2; a bug
        # keeps its traceback
        def bug(spec, p_max):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(dynamics, "fixed_points", bug)
        with pytest.raises(ZeroDivisionError):
            main(["fixed-points", "--preset", "case1"])

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
        assert err == (
            "numerical error: RK stage (-611.9999999999999, -918.2500000000001) "
            "left the box [-0.1, 1.1]^2\n"
        )

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
        assert err == (
            "numerical error: RK4 state (0.9191347306746679, -0.00029944893546260116) "
            "at t = 189.8612414871447 left [0, 1]^2\n"
        )

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

    def test_no_fixed_points_is_numerical_error(self, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "fixed_points", lambda spec, p_max: [])
        rc, out, err = run_cli(capsys, "fixed-points", "--preset", "case1", "--pmax", "0.99")
        assert (rc, out, err) == (2, "", "numerical error: no fixed points found\n")

    def test_fixed_points_case2(self, capsys):
        rc, out, _ = run_cli(capsys, "fixed-points", "--preset", "case2", "--pmax", "0.99")
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        assert payload["points"][0]["x"] == pytest.approx([0.917, 0.040], abs=2e-3)


class TestCsvOutput:
    @pytest.mark.parametrize(
        "argv, header, shape",
        [
            (("simulate", "--steps", "1000"), "step,p1,q1", (11, 3)),
            (("ensemble", "--steps", "200", "--runs", "3"), "step,mean_p1,mean_q1", (3, 3)),
            (
                ("error-table", "--pmax-list", "0.99,0.95", "--theta-list", "0.05,0.1",
                 "--steps", "200"),
                "p_max,theta,error", (4, 3),
            ),
            (("ode-field", "--grid-n", "3"), "p1,q1,w1,w2", (9, 4)),
            (("ode-trajectory", "--ode-step", "0.1", "--t-max", "1"), "t,p1,q1", (11, 3)),
        ],
        ids=["simulate", "ensemble", "error-table", "ode-field", "ode-trajectory"],
    )
    def test_header_and_shape(self, capsys, tmp_path, argv, header, shape):
        out = tmp_path / "out.csv"
        assert run_cli(capsys, *argv, "--preset", "case1", "--out", str(out)) == (0, "", "")
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert np.loadtxt(lines[1:], delimiter=",", ndmin=2).shape == shape
        assert header in subcommands()[argv[0]].format_help()

    def test_trajectory_round_trip(self, capsys, tmp_path, case1, monkeypatch):
        path = tmp_path / "traj.csv"
        argv = ("simulate", "--preset", "case1", "--steps", "300")
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        traj = run_game(sim_config(case1, steps=300))
        got_t = [int(r[0]) for r in rows[1:]]
        got_x = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        assert got_t == traj.t.tolist()
        assert np.array_equal(got_x, traj.x)  # 17 digits round-trip exactly
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 9)  # 3 rows of 3 columns; 4 rows: 3 + 1
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "chunked.csv"))[0] == 0
        assert (tmp_path / "chunked.csv").read_bytes() == path.read_bytes()

    def test_ode_path_round_trip(self, capsys, tmp_path, case1, monkeypatch):
        path = tmp_path / "ode.csv"
        argv = ("ode-trajectory", "--preset", "case1", "--p0", "0.9", "--q0", "0.1",
                "--ode-step", "0.1", "--t-max", "1.0")
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        traj = integrate(case1, JointState(0.9, 0.1), 0.99, step=0.1, t_max=1.0)
        got = np.array(rows[1:], dtype=np.float64)
        assert np.array_equal(got, np.column_stack([traj.t, traj.x]))  # floats round-trip
        monkeypatch.setattr(kernel, "_BLOCK_BUDGET", 9)  # 3 rows of 3 columns; 11 rows: 3+3+3+2
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "chunked.csv"))[0] == 0
        assert (tmp_path / "chunked.csv").read_bytes() == path.read_bytes()

    def test_error_table_round_trip(self, capsys, tmp_path, case1):
        path = tmp_path / "table.csv"
        rc, _, _ = run_cli(
            capsys, "error-table", "--preset", "case1", "--pmax-list", "0.99",
            "--theta-list", "0.05", "--steps", "500", "--seed", "2",
            "--target-p", "0.6667", "--target-q", "0.3333", "--out", str(path),
        )
        assert rc == 0
        _, _, errors = error_table(
            case1, JointState(0.6667, 0.3333), [0.99], [0.05], steps=500, seed=2
        )
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 1
        assert float(parsed[0]["error"]) == errors[0]
        assert float(parsed[0]["p_max"]) == 0.99

    @pytest.mark.parametrize("with_int", [False, True], ids=["float", "int+float"])
    def test_write_csv_equals_python_rows_in_any_chunking(self, tmp_path, monkeypatch, with_int):
        """The bytes do not depend on the chunking, and no format_rows call
        reads more than max(_BLOCK_BUDGET, ncols) values."""
        calls = []  # the values each format_rows call reads

        class SpyKernel:
            def format_rows(self, n, ncols, *args):
                calls.append(n * ncols)
                return _load_kernel().format_rows(n, ncols, *args)

        spy = SpyKernel()
        monkeypatch.setattr(cli, "_load_kernel", lambda: spy)
        rng = np.random.default_rng(3)
        for ncols in (3, 4):
            table = rng.standard_normal((7, ncols)) * 10.0 ** rng.integers(-9, 20, (7, ncols))
            columns = list(table.T)  # strided, as a trajectory's columns are
            if with_int:
                columns[0] = rng.integers(-(2**63), 2**63 - 1, 7)
            header = ",".join("abcd"[:ncols])
            want = f"{header}\n".encode() + python_rows(*columns)
            # 7 rows in one chunk; 3 + 3 + 1 rows (9 values: 3 rows of 3
            # columns, 12 values: 3 rows of 4); a budget below one row
            for budget, chunks in ((1 << 18, [7]), (3 * ncols, [3, 3, 1]), (2, [1] * 7)):
                calls.clear()
                monkeypatch.setattr(kernel, "_BLOCK_BUDGET", budget)
                cli._write_csv(str(tmp_path / "x.csv"), header, *columns)
                assert (tmp_path / "x.csv").read_bytes() == want
                assert calls == [rows * ncols for rows in chunks]
                assert max(calls) <= max(budget, ncols)
        if with_int:  # all integers: np.stack alone would keep them int64
            cli._write_csv(str(tmp_path / "x.csv"), "a", columns[0])
            assert (tmp_path / "x.csv").read_bytes() == b"a\n" + python_rows(columns[0])

    def test_a_failed_format_rows_raises(self, tmp_path, monkeypatch):
        """format_rows returns -1 only on a buffer this program sized wrong;
        _write_csv raises instead of writing the stale buffer."""

        class SpyKernel:
            def format_rows(self, *args):
                return -1

        monkeypatch.setattr(cli, "_load_kernel", SpyKernel)
        with pytest.raises(RuntimeError, match="format_rows failed on 6 values in 150 bytes"):
            cli._write_csv(str(tmp_path / "x.csv"), "a,b", np.zeros(3), np.ones(3))


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Where a 17-digit formatter can go wrong: exact ties of the last digit
# (n + 0.25, n + 0.5 near 10^15), each power of ten and its neighbours (a
# digit-count boundary), the edges of the integer path (1e-4 and 2^53,
# where "%.17g" starts to write an exponent) and the values outside it
# (1e-6, zeros, subnormals, infinities, NaN).
ADVERSARIAL = np.array([
    *(1e15 + n + f for n in range(50) for f in (0.25, 0.5, 0.75)),
    *(x for k in range(-323, 309) for x in _neighbours(float(f"1e{k}"))),
    *_neighbours(1e-4), *_neighbours(1e-6), *_neighbours(2.0**53 - 1), *_neighbours(2.0**53),
    0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan,
])


class TestFormatRows:
    """The kernel's format_rows equals Python's "%.17g" of each value's
    float64 byte for byte, so an integer column below 2^53 prints as "%d"."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(INT64, FLOAT64, FLOAT64), min_size=1, max_size=40))
    def test_random_values(self, rows):
        t, p, q = (np.array(c) for c in zip(*rows))
        t = t.astype(np.int64)
        assert kernel_rows(t, p, q) == python_rows(t, p, q)

    def test_adversarial_values_and_their_negatives(self):
        x = np.concatenate([ADVERSARIAL, -ADVERSARIAL])
        assert np.signbit(x[np.isnan(x)]).any()  # a NaN with its sign bit set, as "nan"
        assert kernel_rows(x) == python_rows(x)

    def test_int64_extremes(self):
        t = np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max])
        want = b"-9.2233720368547758e+18\n-1\n0\n1\n9.2233720368547758e+18\n"
        assert kernel_rows(t) == python_rows(t) == want

    def test_step_counts_print_as_integers(self):
        t = np.array([0, 1, 100, 30_000_000, 10**15, 2**53 - 1, 2**53])
        assert kernel_rows(t) == "".join("%d\n" % v for v in t.tolist()).encode()

    def test_never_writes_past_the_capacity(self):
        x = np.array([-1.2345678901234567e-308, 1.0])  # the widest value, 24 bytes
        want = python_rows(x)
        block = x.reshape(1, 2)
        buf = np.full(64, 7, dtype=np.uint8)
        format_rows = _load_kernel().format_rows
        assert format_rows(2, 1, block, buf, 2 * _CSV_VALUE_BYTES - 1) == -1
        assert (buf == 7).all()
        assert format_rows(2, 1, block, buf, 2 * _CSV_VALUE_BYTES) == len(want)
        assert buf[: len(want)].tobytes() == want and (buf[len(want) :] == 7).all()
