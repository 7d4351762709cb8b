"""Benchmark of the barrier-la CLI on scaled-down docs/reproduce.md commands.

Run from the root of a checkout:

    python3 bench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0

The ops of a workload (see workloads.py) run in this one process through
``barrier_la.cli.main(argv)``.  One pass over the op list is a round.  A
first round checks every output (and, at the default seed, compares it
with bench/goldens.json); later rounds must reproduce it byte for byte.
Rounds repeat until ``--seconds`` have passed and at least the workload's
minimum number of rounds ran.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced rounds with rounds traced by spans.py and reports the per-layer
metrics and the tracing overhead.  Both print a manifest line, a readable
table, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload ensemble --record-goldens

rewrites that workload's goldens at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Rounds every run makes at least.  op_tail_s reads the percentile that the
# rule above gives for MIN_ROUNDS x ops per round, so each workload keeps
# one percentile however fast the machine is: p90 for ensemble, p95 for
# error-table and analysis.  A 30 s run gets about twice that sample.
MIN_ROUNDS = {"ensemble": 20, "error-table": 100, "analysis": 15}
TRACED_MIN_ROUNDS = 3
MAX_MEASURE_S = 120.0
# Set-up probes per run, spread evenly over the measured seconds.
SETUP_PROBES = 15
# The first command a fresh process runs for each workload, at a size that
# leaves only the import and first-call costs.
SETUP_ARGV = {
    "ensemble": ["ensemble", "--preset", "case1", "--steps", "10", "--runs", "40", "--out", "setup.csv"],
    "error-table": ["simulate", "--preset", "case1", "--steps", "10", "--out", "setup.csv"],
    "analysis": ["fixed-points", "--preset", "case1"],
}
REPLAY_OPS = ("fig2-p", "fig2-s", "basin")
# Keep numpy's BLAS from starting worker threads: the benchmark is one
# process with one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def nearest_rank(values, p: float) -> float:
    """The p-th percentile of values by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


class Run:
    """State of one benchmark invocation: ops, fingerprints and failures."""

    def __init__(self, workload: str, seed: int, work_dir: Path, pkg):
        self.workload = workload
        self.seed = seed
        self.pkg = pkg
        self.ops = workloads.make_ops(workload, seed, work_dir)
        self.fingerprints: dict[str, tuple | None] = {}
        self.attempted = 0
        self.failed = 0
        self._next_op_id = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"FAIL {msg}", file=sys.stderr)

    def execute(self, op, tracer=None):
        """Run one op through cli.main; returns (op id, start, end, exit code, stdout, stderr)."""
        argv = op.argv
        op_id = self._next_op_id
        self._next_op_id += 1
        if tracer is not None:
            tracer.op = op_id
        if op.csv is not None:
            op.csv.unlink(missing_ok=True)  # so a stale file never passes for output
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.pkg.cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        self.attempted += 1
        return op_id, t0, t1, rc, out.getvalue(), err.getvalue()

    def first_round(self, goldens: dict | None) -> None:
        """Run every op once and check its output in full."""
        for op in self.ops:
            _, _, _, rc, stdout, stderr = self.execute(op)
            self.fingerprints[op.name] = None
            if rc != 0:
                self.fail(f"{op.name}: exit code {rc}\n{stderr}")
                continue
            try:
                msg = self._check(op, stdout, goldens)
            except Exception:
                msg = f"{op.name}: output check raised\n{traceback.format_exc()}"
            if msg is None:
                self.fingerprints[op.name] = self._fingerprint(op, stdout)
            else:
                self.fail(msg)

    def _check(self, op, stdout: str, goldens: dict | None) -> str | None:
        csv_bytes = op.csv.read_bytes() if op.csv else None
        msg = workloads.check_output(op, stdout, csv_bytes, self.pkg)
        if msg is None and goldens is not None:
            mismatch = workloads.golden_mismatch(workloads.golden_of(op, stdout, csv_bytes), goldens[op.name])
            msg = mismatch and f"{op.name}: {mismatch}"
        if msg is None and op.name in REPLAY_OPS:
            runs = int(op.flags["--runs"])
            msg = workloads.replay_lanes(op, csv_bytes, self.pkg, (0, 1, runs - 1, self.seed % runs))
        return msg

    def round(self, tracer=None):
        """One pass over the ops; returns (op, id, start, end) per op."""
        timed = []
        for op in self.ops:
            op_id, t0, t1, rc, stdout, stderr = self.execute(op, tracer)
            timed.append((op, op_id, t0, t1))
            if rc != 0:
                self.fail(f"{op.name}: exit code {rc}\n{stderr}")
            elif self.fingerprints[op.name] is None or self._fingerprint(op, stdout) != self.fingerprints[op.name]:
                self.fail(f"{op.name}: output differs from the checked first round")
        return timed

    @staticmethod
    def _fingerprint(op, stdout: str) -> tuple | None:
        try:
            digest = hashlib.sha256(op.csv.read_bytes()).hexdigest() if op.csv else None
        except OSError:
            return None
        return stdout, digest


def setup_probe(workload: str, work_dir: Path) -> float:
    """Fresh-process time to import barrier_la and finish a first tiny command."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from barrier_la import cli; "
            f"sys.exit(cli.main({SETUP_ARGV[workload]!r}))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=work_dir, timeout=60,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.decode()}")
    return dt


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "barrier_la").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(run: Run, trace: bool, tail_p: float | None) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": run.workload,
        "seed": run.seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ops_per_round": {w: len(workloads.make_ops(w, run.seed, Path("."))) for w in workloads.WORKLOADS},
        "min_rounds": MIN_ROUNDS[run.workload],
        "op_tail_percentile": tail_p,
        "ops": {op.name: " ".join(op.argv) for op in run.ops},
    }


def _wall(timed) -> float:
    return sum(t1 - t0 for _, _, t0, t1 in timed)


def measure(run: Run, seconds: float, work_dir: Path):
    """Untraced rounds, with set-up probes spread over the same seconds."""
    setup_probe(run.workload, work_dir)  # unmeasured: writes the bytecode cache
    rounds, setup = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(run.workload, work_dir))
            continue
        if elapsed >= MAX_MEASURE_S or (
                elapsed >= seconds and len(rounds) >= MIN_ROUNDS[run.workload] and len(setup) == SETUP_PROBES):
            return rounds, setup
        rounds.append(run.round())


def end_to_end(run: Run, rounds, setup: list[float], tail_p: float) -> tuple[dict, list[str]]:
    """Metrics over all measured rounds.

    Other tenants of a shared machine slow it by up to half for seconds to
    minutes at a time.  Totals over a run (wall_s as a mean, throughputs as
    work over time) follow the share of slow time smoothly, where a median
    of rounds jumps between the fast and the slow level.
    """
    def rate(select, num):
        chosen = [(op, t1 - t0) for timed in rounds for op, _, t0, t1 in timed if select(op)]
        return sum(num(op) for op, _ in chosen) / sum(dt for _, dt in chosen)

    durations = [t1 - t0 for timed in rounds for _, _, t0, t1 in timed]
    m = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(_wall(timed) for timed in rounds),
        "steps_per_s": rate(lambda op: op.work > 0, lambda op: op.work),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": nearest_rank(durations, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = len(durations) - _rank(tail_p, len(durations))
    notes = [f"op_tail_s is p{tail_p:g} of {len(durations)} ops ({beyond} beyond it), "
             f"{len(rounds)} rounds of {len(run.ops)} ops"]
    if run.workload == "analysis":
        notes.append(f"rk4_steps_per_s {m['steps_per_s']:.6g} steps/s (= steps_per_s)")
        fp = rate(lambda op: op.command == "fixed-points", lambda op: 1)
        notes.append(f"fixed_points_per_s {fp:.6g} 1/s")
    else:
        notes.append(f"run_steps_per_s {m['steps_per_s']:.6g} steps/s (= steps_per_s)")
    notes.append(f"ops_failed_frac {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted})")
    return m, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced rounds; medians of per-round layer metrics."""
    tracer = spans.Tracer()
    plain, traced, layer = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(traced) < TRACED_MIN_ROUNDS) \
            and time.perf_counter() - start < MAX_MEASURE_S:
        plain.append(_wall(run.round()))
        tracer.clear()
        tracer.install()
        try:
            timed = run.round(tracer)
        finally:
            tracer.uninstall()
        traced.append(_wall(timed))
        layer.append(spans.layer_metrics(tracer.spans, tracer.counts, [(i, t0, t1) for _, i, t0, t1 in timed]))
    m = {k: statistics.median(r[k] for r in layer) for k in layer[0]}
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    notes = [f"{len(traced)} traced and {len(plain)} untraced rounds of {len(run.ops)} ops; "
             f"values are medians per round"]
    return m, notes


def record_goldens(run: Run) -> int:
    run.first_round(None)
    if run.failed:
        return 1
    data = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    data[run.workload] = {}
    for op in run.ops:
        _, _, _, _, stdout, _ = run.execute(op)
        data[run.workload][op.name] = workloads.golden_of(op, stdout, op.csv.read_bytes() if op.csv else None)
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(run.ops)} goldens for {run.workload} to {GOLDENS}")
    return 0


def _load_package():
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import barrier_la
    from barrier_la import cli, dynamics, game, harness, learner

    if Path(barrier_la.__file__).resolve().parent != (SRC / "barrier_la").resolve():
        raise RuntimeError(f"imported barrier_la from {barrier_la.__file__}, not from {SRC}")
    # Bound before any tracing, so checks never call a traced function.
    return argparse.Namespace(
        cli=cli, vector_field=dynamics.vector_field, preset=game.preset, Model=game.Model,
        JointState=game.JointState, LearnerConfig=learner.LearnerConfig, SimConfig=harness.SimConfig,
        terminal_states=harness.terminal_states, run_game=harness.run_game,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "barrier_la" / "__init__.py").is_file():
        print(f"error: no barrier_la package under {SRC}", file=sys.stderr)
        return 2
    pkg = _load_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work_dir, pkg)
        if args.record_goldens:
            return record_goldens(run)
        goldens = None
        if args.seed == workloads.DEFAULT_SEED:
            goldens = json.loads(GOLDENS.read_text())[args.workload]
        run.first_round(goldens)
        tail_p = tail_percentile(MIN_ROUNDS[args.workload] * len(run.ops))
        if args.trace:
            metrics, notes = per_layer(run, args.seconds)
        else:
            rounds, setup = measure(run, args.seconds, work_dir)
            metrics, notes = end_to_end(run, rounds, setup, tail_p)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    missing = units.keys() - metrics.keys()
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    print("manifest " + json.dumps(manifest(run, bool(args.trace), tail_p), sort_keys=True))
    for name in units:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
