"""Command-line surface: equilibrium reports, simulations, ODE analysis.

Structured reports (classify, fixed-points, basin-split) go to stdout as
JSON; anything plottable (simulate, ensemble, error-table, ode-field,
ode-trajectory) goes to the --out path as CSV under the header named in
the command's help.  A CSV row is its values joined by commas and ended by
a line feed, each value exactly Python's "%.17g" of its float64 (so floats
round-trip); integer columns are converted first, so a step count below
2^53 prints as "%d" would.  The C kernel's format_rows writes the rows, so
every CSV command needs the C compiler.  A trajectory's columns are its
times t, then the columns of its states x.

classify prints case (MixedOnly, SinglePure or TwoPureOneMixed), pure (the
pure equilibria as corners [p1, q1], [1.0, 1.0] when both play action 1),
mixed (the interior [p_opt, q_opt], null for SinglePure), and L and L_prime,
the payoff discriminants (r11+r22)-(r12+r21) and (c11+c22)-(c12+c21).

Exit codes: 0 success; 1 validation error, that is any ValueError
(DegenerateGame, NotInSimplex and NotCase3 among them), OSError (an
unreadable file, a C kernel that cannot be built) or MemoryError (a size
too large to allocate); 2 numerical failure (StepTooLarge from RK4,
NoFixedPoints when fixed-points finds no root) or an argparse usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dynamics, game, harness
from .dynamics import StepTooLarge, Trajectory
from .game import CaseKind, GameSpec, JointState, Model
from .kernel import _CSV_VALUE_BYTES, _chunks, _load_kernel
from .learner import LearnerConfig, _check_p_max


class NoFixedPoints(ArithmeticError):
    """fixed-points found no root of the drift."""


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code else 0
    try:
        out = args.func(args, _load_spec(args))
        if isinstance(out, Trajectory):
            out = out.t, *out.x.T
        if args.csv:
            _write_csv(args.out, args.csv, *out)
        else:
            print(json.dumps(out, indent=2))
        return 0
    except (StepTooLarge, NoFixedPoints) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# Every flag but --preset, --game and --out, with its argparse settings.  Each
# command names its flags below; error-table sets its own --steps default.
_FLAGS = {
    "model": dict(choices=["p", "s"], help="override the feedback model"),
    "theta": dict(type=float, default=0.01),
    "pmax": dict(type=float, default=0.99),
    "steps": dict(type=int, default=100_000),
    "seed": dict(type=int, default=42),
    "p0": dict(type=float, default=0.5),
    "q0": dict(type=float, default=0.5),
    "stride": dict(type=int, default=100),
    "runs": dict(type=int, default=1000),
    "pmax-list": dict(required=True, help="comma-separated p_max values"),
    "theta-list": dict(required=True, help="comma-separated theta values"),
    "target-p": dict(type=float, help="target p1 (default: game equilibrium)"),
    "target-q": dict(type=float, help="target q1 (default: game equilibrium)"),
    "grid-n": dict(type=int, default=21),
    "ode-step": dict(type=float, default=0.01),
    "t-max": dict(type=float, default=1e4),
}
# the flags that simulate, ensemble and basin-split share
_SIM = ("model", "theta", "pmax", "steps", "seed", "p0", "q0")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrier-la",
        description="Barrier learning automata on 2x2 bimatrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func, flags: tuple, *, csv: str = ""):
        """A subcommand with the named _FLAGS; func returns the Trajectory or
        columns that --out receives under header csv, else a JSON payload."""
        help_ = f"{help_}, CSV {csv}" if csv else help_
        p = sub.add_parser(name, help=help_, description=help_)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=sorted(game.PRESETS), help="built-in game")
        src.add_argument("--game", metavar="PATH", help="game spec JSON file")
        if csv:
            p.add_argument("--out", required=True, metavar="PATH", help="CSV output path")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func, csv=csv)
        return p

    add("classify", "case classification plus equilibria as JSON", _cmd_classify, ())
    add("simulate", "single seeded run", _cmd_simulate, (*_SIM, "stride"), csv="step,p1,q1")
    add("ensemble", "mean over replicas", _cmd_ensemble, (*_SIM, "stride", "runs"),
        csv="step,mean_p1,mean_q1")
    add("error-table", "steady-state error per (p_max, theta) cell", _cmd_error_table,
        ("model", "steps", "seed", "p0", "q0", "stride", "pmax-list", "theta-list",
         "target-p", "target-q"), csv="p_max,theta,error").set_defaults(steps=5_000_000)
    # basin-split reads only the final state of each run, so it takes no --stride
    add("basin-split", "fraction of runs per stable fixed point, JSON", _cmd_basin_split,
        (*_SIM, "runs"))
    add("ode-field", "drift field on a lattice", _cmd_ode_field, ("pmax", "grid-n"),
        csv="p1,q1,w1,w2")
    add("ode-trajectory", "RK4 path of the mean ODE", _cmd_ode_trajectory,
        ("pmax", "p0", "q0", "ode-step", "t-max"), csv="t,p1,q1")
    add("fixed-points", "roots of the drift with stability, JSON", _cmd_fixed_points, ("pmax",))
    return parser


def _load_spec(args) -> GameSpec:
    spec = game.preset(args.preset) if args.preset else game.load_game(args.game)
    if getattr(args, "model", None):
        spec = spec.with_model(Model(args.model.upper()))
    return spec


def _sim_config(args, spec: GameSpec) -> harness.SimConfig:
    cfg = LearnerConfig(theta=args.theta, p_max=args.pmax)
    x0 = JointState(args.p0, args.q0)
    return harness.SimConfig(spec, cfg, cfg, x0, args.steps, args.seed, args.stride)


def _write_csv(path: str, header: str, *columns: np.ndarray) -> None:
    """Write header, then row i of the columns, formatted by the kernel's
    format_rows one float64 (columns, rows) chunk per call.  A call that
    fails is a fault in this program and raises RuntimeError."""
    format_rows = _load_kernel().format_rows  # before open: without it, no file
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for i, j in _chunks(len(columns[0]), len(columns)):
            block = np.stack([c[i:j] for c in columns], dtype=np.float64)
            buf = np.empty(block.size * _CSV_VALUE_BYTES, np.uint8)
            size = format_rows(j - i, len(columns), block, buf, buf.size)
            if size < 0:
                raise RuntimeError(f"format_rows failed on {block.size} values in {buf.size} bytes")
            fh.write(buf[:size])


def _cmd_classify(args, spec: GameSpec) -> dict:
    kind = game.classify(spec)
    R, C = spec.R, spec.C
    return {
        "case": kind.value,
        "pure": [[s.p1, s.q1] for s in game.pure_equilibria(spec)],
        "mixed": None if kind is CaseKind.SINGLE_PURE else list(game.mixed_equilibrium(spec)),
        "L": (R.r11 + R.r22) - (R.r12 + R.r21),
        "L_prime": (C.r11 + C.r22) - (C.r12 + C.r21),
    }


def _cmd_simulate(args, spec: GameSpec) -> Trajectory:
    return harness.run_game(_sim_config(args, spec))


def _cmd_ensemble(args, spec: GameSpec) -> Trajectory:
    return harness.run_ensemble(_sim_config(args, spec), args.runs)


def _cmd_error_table(args, spec: GameSpec):
    p_max_values = _parse_floats(args.pmax_list, "pmax-list")
    theta_values = _parse_floats(args.theta_list, "theta-list")
    if (args.target_p is None) != (args.target_q is None):
        raise ValueError("provide both --target-p and --target-q or neither")
    target = None if args.target_p is None else JointState(args.target_p, args.target_q)
    return harness.error_table(
        spec, target, p_max_values, theta_values, steps=args.steps, seed=args.seed,
        x0=JointState(args.p0, args.q0), record_stride=args.stride,
    )


def _cmd_basin_split(args, spec: GameSpec) -> dict:
    cfg = LearnerConfig(theta=args.theta, p_max=args.pmax)
    x0 = JointState(args.p0, args.q0)
    split = harness.basin_split(spec, cfg, x0, runs=args.runs, steps=args.steps, seed=args.seed)
    return {
        "runs": split.runs,
        "stable_points": [[fp.x.p1, fp.x.q1] for fp in split.points],
        "fractions": list(split.fractions),
    }


def _cmd_ode_field(args, spec: GameSpec):
    if args.grid_n < 2:
        raise ValueError("grid-n must be >= 2")
    _check_p_max(args.pmax)
    grid = np.linspace(0.0, 1.0, args.grid_n)
    p1, q1 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    return p1, q1, *dynamics._field(spec, p1, q1, args.pmax)


def _cmd_ode_trajectory(args, spec: GameSpec) -> Trajectory:
    x0 = JointState(args.p0, args.q0)
    return dynamics.integrate(spec, x0, args.pmax, step=args.ode_step, t_max=args.t_max)


def _cmd_fixed_points(args, spec: GameSpec) -> dict:
    points = dynamics.fixed_points(spec, args.pmax)
    if not points:
        raise NoFixedPoints("no fixed points found")
    return {
        "p_max": args.pmax,
        "points": [
            {
                "x": [fp.x.p1, fp.x.q1],
                "drift_norm": fp.drift_norm,
                "jacobian": fp.jacobian.tolist(),
                "det": fp.det,
                "trace": fp.trace,
                "stability": fp.stability.value,
            }
            for fp in points
        ],
    }


def _parse_floats(raw: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated numbers") from None
    if not values:
        raise ValueError(f"--{flag} must be non-empty")
    return values


if __name__ == "__main__":
    sys.exit(main())
