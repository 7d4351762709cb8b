"""The benchmark's workloads and the checks on their outputs.

Each workload is the list of scaled-down ``docs/reproduce.md`` commands
that one part of the engine does the work for:

* ``ensemble``: 1000-lane commands, run by the lockstep vector engine;
* ``error-table``: single-run commands, run by the per-run scalar loop;
* ``analysis``: fixed points, RK4 paths and drift fields, with no Monte
  Carlo at all.

The workload seed draws the per-op seeds, the start states and the picks
from the reproduce.md grids; the program only sees the resulting argv.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("ensemble", "error-table", "analysis")
DEFAULT_SEED = 0

ENSEMBLE_RUNS = 1000
ENSEMBLE_STEPS = 1000
ERROR_TABLE_STEPS = 25_000
SIMULATE_STEPS = 50_000
ODE_T_MAX = 6.0
GRID_N = 21
TABLE_PMAX = (0.990, 0.991, 0.992, 0.993, 0.994, 0.995, 0.996, 0.997, 0.998)
TABLE3_PMAX = TABLE_PMAX + (0.999,)
PRESETS = ("case1", "case2", "case3")
# Sorted stability labels of the fixed points each preset has at every
# p_max in TABLE3_PMAX.
EXPECTED_STABILITY = {
    "case1": ["Stable"],
    "case2": ["Stable"],
    "case3": ["Saddle", "Stable", "Stable"],
}
BOX_TOL = 1e-12
DRIFT_TOL = 1e-12
POINT_TOL = 1e-9


@dataclass
class Op:
    """One CLI command: ``argv`` is ``[command] + flags``."""

    name: str
    command: str
    flags: dict
    csv: Path | None = None
    # Lane-steps (Monte Carlo) or RK4 steps; RK4 counts come from the output.
    work: int = 0

    @property
    def argv(self) -> list[str]:
        args = [self.command]
        for flag, value in self.flags.items():
            args += [flag, str(value)]
        if self.csv is not None:
            args += ["--out", str(self.csv)]
        return args

    @property
    def box(self) -> tuple[float, float]:
        p_max = float(self.flags["--pmax"])
        return 1.0 - p_max, p_max


def make_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = {"ensemble": _ensemble, "error-table": _error_table, "analysis": _analysis}[workload](rng)
    for op in ops:
        if op.command not in ("basin-split", "fixed-points"):
            op.csv = out_dir / f"{op.name}.csv"
    return ops


def _start(rng: random.Random) -> tuple[float, float]:
    # Inside the barrier box of every p_max the workloads use (>= 0.99).
    return round(rng.uniform(0.05, 0.95), 4), round(rng.uniform(0.05, 0.95), 4)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _ensemble(rng):
    ops = []
    for name, preset, model, p_max, stride in (
        ("fig2-p", "case1", None, 0.99, 100),
        ("fig2-s", "case1", "s", 0.99, 100),
        ("fig7", "case2", None, 0.99, 10),
        ("fig9", "case2", None, 0.999, 10),
    ):
        p0, q0 = _start(rng)
        flags = {"--preset": preset, **({"--model": model} if model else {}),
                 "--theta": 0.01, "--pmax": p_max, "--steps": ENSEMBLE_STEPS,
                 "--runs": ENSEMBLE_RUNS, "--stride": stride, "--seed": _seed(rng),
                 "--p0": p0, "--q0": q0}
        ops.append(Op(name, "ensemble", flags, work=ENSEMBLE_STEPS * ENSEMBLE_RUNS))
    p0, q0 = _start(rng)
    flags = {"--preset": "case3", "--theta": 0.0001, "--pmax": 0.99, "--steps": ENSEMBLE_STEPS,
             "--runs": ENSEMBLE_RUNS, "--seed": _seed(rng), "--p0": p0, "--q0": q0}
    ops.append(Op("basin", "basin-split", flags, work=ENSEMBLE_STEPS * ENSEMBLE_RUNS))
    return ops


def _error_table(rng):
    ops = []
    for name, preset, model, grid, thetas, target in (
        ("table1", "case1", None, TABLE_PMAX, (0.001, 0.0001), (0.6667, 0.3333)),
        ("table2", "case2", "s", TABLE_PMAX, (0.0001, 0.00001), None),
        ("table3", "case3", None, TABLE3_PMAX, (0.0001, 0.00001), None),
    ):
        pmax_list = sorted(rng.sample(grid, 2))
        flags = {"--preset": preset, **({"--model": model} if model else {}),
                 "--pmax-list": ",".join(map(str, pmax_list)),
                 "--theta-list": str(rng.choice(thetas)),
                 "--steps": ERROR_TABLE_STEPS, "--seed": _seed(rng)}
        if target:
            flags["--target-p"], flags["--target-q"] = target
        ops.append(Op(name, "error-table", flags, work=ERROR_TABLE_STEPS * len(pmax_list)))
    for name, preset, model, theta, stride in (
        ("fig10", "case3", None, 0.0001, 100),
        ("fig3-4", "case1", None, 0.00001, 1000),
        ("s-model", rng.choice(PRESETS), "s", 0.0001, 100),
    ):
        p0, q0 = _start(rng)
        flags = {"--preset": preset, **({"--model": model} if model else {}),
                 "--theta": theta, "--pmax": 0.99, "--steps": SIMULATE_STEPS,
                 "--stride": stride, "--seed": _seed(rng), "--p0": p0, "--q0": q0}
        ops.append(Op(name, "simulate", flags, work=SIMULATE_STEPS))
    return ops


def _analysis(rng):
    ops = []
    for preset in PRESETS:
        for i, p_max in enumerate(sorted(rng.sample(TABLE3_PMAX, 2))):
            ops.append(Op(f"fixed-points-{preset}-{i}", "fixed-points",
                          {"--preset": preset, "--pmax": p_max}))
    starts = [(0.9, 0.9)] + [_start(rng) for _ in range(3)]
    for i, (p0, q0) in enumerate(starts):
        ops.append(Op(f"fig5-traj-{i}", "ode-trajectory",
                      {"--preset": "case1", "--pmax": 0.99, "--p0": p0, "--q0": q0,
                       "--t-max": ODE_T_MAX}))
    for name, preset, p_max in (("fig5-field", "case1", 0.99), ("fig6-field", "case2", 0.99),
                                ("fig8-field", "case2", 0.999), ("fig11-field", "case3", 0.99)):
        ops.append(Op(name, "ode-field", {"--preset": preset, "--pmax": p_max, "--grid-n": GRID_N}))
    return ops


# ----------------------------------------------------------------------
# Output checks.  ``check_output`` and ``replay_lanes`` test one op's output
# against seed-independent invariants and return an error string or None;
# ``golden_of`` reduces an output to what goldens.json pins at the default
# seed, and ``golden_mismatch`` compares two such reductions.
# ----------------------------------------------------------------------


def _rows(csv_bytes: bytes) -> tuple[str, list[list[float]]]:
    lines = csv_bytes.decode("utf-8").splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def _in_box(values, box) -> bool:
    lo, hi = box
    return all(lo - BOX_TOL <= v <= hi + BOX_TOL for v in values)


def _drift_norm(pkg, preset: str, p1: float, q1: float, p_max: float) -> float:
    w = pkg.vector_field(pkg.preset(preset), pkg.JointState(p1, q1), p_max)
    return math.hypot(w.w1, w.w2)


def check_output(op: Op, stdout: str, csv_bytes: bytes | None, pkg) -> str | None:
    """Seed-independent checks of one op's output.

    ``pkg`` supplies ``vector_field``, ``preset`` and ``JointState`` from
    the package, used to recompute the drift at reported fixed points.
    """
    if op.command in ("ensemble", "simulate"):
        header, rows = _rows(csv_bytes)
        expected = "step,mean_p1,mean_q1" if op.command == "ensemble" else "step,p1,q1"
        steps, stride = int(op.flags["--steps"]), int(op.flags["--stride"])
        recorded = [int(r[0]) for r in rows]
        want = sorted(set(range(0, steps + 1, stride)) | {steps})
        if header != expected or recorded != want:
            return f"{op.name}: header or recorded steps do not match the request"
        if not _in_box([v for r in rows for v in r[1:]], op.box):
            return f"{op.name}: a state left the barrier box {op.box}"
    elif op.command == "error-table":
        header, rows = _rows(csv_bytes)
        cells = [[float(p), float(op.flags["--theta-list"])] for p in op.flags["--pmax-list"].split(",")]
        if header != "p_max,theta,error" or [r[:2] for r in rows] != cells:
            return f"{op.name}: rows do not match the requested cells"
        if not all(0.0 <= r[2] <= math.sqrt(2.0) for r in rows):
            return f"{op.name}: error outside [0, sqrt(2)]"
    elif op.command == "ode-trajectory":
        header, rows = _rows(csv_bytes)
        t = [r[0] for r in rows]
        if header != "t,p1,q1" or len(rows) < 2 or t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
            return f"{op.name}: bad header or times"
        if not _in_box([v for r in rows for v in r[1:]], op.box):
            return f"{op.name}: a state left the barrier box {op.box}"
        op.work = len(rows) - 1
    elif op.command == "ode-field":
        header, rows = _rows(csv_bytes)
        if header != "p1,q1,w1,w2" or len(rows) != GRID_N**2:
            return f"{op.name}: bad header or row count"
        if not all(math.isfinite(v) for r in rows for v in r):
            return f"{op.name}: non-finite drift"
    elif op.command == "fixed-points":
        report = json.loads(stdout)
        preset, p_max = op.flags["--preset"], float(op.flags["--pmax"])
        points = report["points"]
        if report["p_max"] != p_max:
            return f"{op.name}: p_max {report['p_max']} != {p_max}"
        if sorted(p["stability"] for p in points) != EXPECTED_STABILITY[preset]:
            return f"{op.name}: stabilities {[p['stability'] for p in points]}"
        for p in points:
            p1, q1 = p["x"]
            if p["drift_norm"] > DRIFT_TOL or _drift_norm(pkg, preset, p1, q1, p_max) > DRIFT_TOL:
                return f"{op.name}: drift at {p['x']} above {DRIFT_TOL}"
            if not _in_box((p1, q1), op.box):
                return f"{op.name}: point {p['x']} outside the barrier box"
    elif op.command == "basin-split":
        report = json.loads(stdout)
        runs, p_max = int(op.flags["--runs"]), float(op.flags["--pmax"])
        fractions = report["fractions"]
        if report["runs"] != runs or len(report["stable_points"]) != 2 or len(fractions) != 2:
            return f"{op.name}: expected {runs} runs over two stable points"
        if any(abs(f * runs - round(f * runs)) > 1e-9 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-12:
            return f"{op.name}: fractions {fractions} are not a split of {runs} runs"
        for p1, q1 in report["stable_points"]:
            if _drift_norm(pkg, op.flags["--preset"], p1, q1, p_max) > DRIFT_TOL:
                return f"{op.name}: stable point ({p1}, {q1}) is not a drift root"
    return None


def golden_of(op: Op, stdout: str, csv_bytes: bytes | None) -> dict:
    """What the golden file pins for one op.

    CSVs are pinned byte for byte.  Fixed-point coordinates are pinned to
    POINT_TOL rather than by hash, so a more exact root finder still passes.
    """
    if csv_bytes is not None:
        return {"sha256": hashlib.sha256(csv_bytes).hexdigest()}
    report = json.loads(stdout)
    if op.command == "fixed-points":
        return {"points": [[*p["x"], p["stability"]] for p in report["points"]]}
    return {"points": report["stable_points"], "fractions": report["fractions"]}


def golden_mismatch(got: dict, want: dict) -> str | None:
    if got.keys() != want.keys():
        return f"golden keys {sorted(got)} != {sorted(want)}"
    if "sha256" in want and got["sha256"] != want["sha256"]:
        return f"sha256 {got['sha256']} != golden {want['sha256']}"
    if "fractions" in want and got["fractions"] != want["fractions"]:
        return f"fractions {got['fractions']} != golden {want['fractions']}"
    if "points" in want:
        if len(got["points"]) != len(want["points"]):
            return f"{len(got['points'])} points != golden {len(want['points'])}"
        for g, w in zip(got["points"], want["points"]):
            if g[2:] != w[2:] or any(abs(a - b) > POINT_TOL for a, b in zip(g[:2], w[:2])):
                return f"point {g} != golden {w}"
    return None


def replay_lanes(op: Op, csv_bytes: bytes | None, pkg, lanes) -> str | None:
    """Replay lanes of a 1000-lane op one at a time and compare bit for bit.

    Lane k of ``terminal_states`` must equal the last state of
    ``run_game`` seeded with ``seed XOR k``, every lane must end inside the
    barrier box, and an ensemble CSV's last row must be the lane mean.
    """
    import numpy as np

    f = op.flags
    spec = pkg.preset(f["--preset"])
    if "--model" in f:
        spec = spec.with_model(pkg.Model(f["--model"].upper()))
    cfg = pkg.LearnerConfig(theta=float(f["--theta"]), p_max=float(f["--pmax"]))
    seed = int(f["--seed"])
    c = pkg.SimConfig(spec, cfg, cfg, pkg.JointState(float(f["--p0"]), float(f["--q0"])),
                      int(f["--steps"]), seed, int(f.get("--stride", 100)))
    term = pkg.terminal_states(c, int(f["--runs"]))
    if not _in_box(term.ravel().tolist(), op.box):
        return f"{op.name}: a lane ended outside the barrier box {op.box}"
    for k in lanes:
        last = pkg.run_game(replace(c, seed=seed ^ k)).x[-1]
        if last.tobytes() != term[k].tobytes():
            return f"{op.name}: lane {k} replayed alone ends at {last.tolist()}, not {term[k].tolist()}"
    if csv_bytes is not None:
        _, rows = _rows(csv_bytes)
        mean = [float(np.ascontiguousarray(term[:, j]).mean()) for j in (0, 1)]
        if rows[-1][1:] != mean:
            return f"{op.name}: last CSV row {rows[-1][1:]} is not the lane mean {mean}"
    return None
