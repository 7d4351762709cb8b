"""Command-line surface: equilibrium reports, simulations, ODE analysis.

Structured reports (classify, fixed-points, basin-split) go to stdout as
JSON; anything plottable (simulate, ensemble, error-table, ode-field,
ode-trajectory) goes to the --out path as CSV.  Exit codes: 0 success,
1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dynamics, game, harness
from .errors import StepTooLarge
from .game import GameSpec, JointState, Model
from .learner import LearnerConfig, _check_p_max


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, _load_spec(args))
    except StepTooLarge as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrier-la",
        description="Barrier learning automata on 2x2 bimatrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func, *, out: bool = False):
        p = sub.add_parser(name, help=help_)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=sorted(game.PRESETS), help="built-in game")
        src.add_argument("--game", metavar="PATH", help="game spec JSON file")
        if out:
            p.add_argument("--out", required=True, metavar="PATH", help="CSV output path")
        p.set_defaults(func=func)
        return p

    add("classify", "case classification plus equilibria as JSON", _cmd_classify)

    p = add("simulate", "single seeded run, CSV step,p1,q1", _cmd_simulate, out=True)
    _sim_flags(p)

    p = add("ensemble", "mean over replicas, CSV step,mean_p1,mean_q1", _cmd_ensemble, out=True)
    _sim_flags(p)
    p.add_argument("--runs", type=int, default=1000)

    p = add("error-table", "steady-state error per (p_max, theta) cell", _cmd_error_table, out=True)
    _sim_flags(p, learner=False, steps=5_000_000)
    p.add_argument("--pmax-list", required=True, help="comma-separated p_max values")
    p.add_argument("--theta-list", required=True, help="comma-separated theta values")
    p.add_argument("--target-p", type=float, help="target p1 (default: game equilibrium)")
    p.add_argument("--target-q", type=float, help="target q1 (default: game equilibrium)")

    p = add("basin-split", "fraction of runs per stable fixed point, JSON", _cmd_basin_split)
    _sim_flags(p, stride=False)  # only the final state of each run is used
    p.add_argument("--runs", type=int, default=1000)

    p = add("ode-field", "drift field on a lattice, CSV p1,q1,w1,w2", _cmd_ode_field, out=True)
    p.add_argument("--pmax", type=float, default=0.99)
    p.add_argument("--grid-n", type=int, default=21)

    p = add("ode-trajectory", "RK4 path of the mean ODE, CSV t,p1,q1", _cmd_ode_trajectory, out=True)
    p.add_argument("--pmax", type=float, default=0.99)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--q0", type=float, default=0.5)
    p.add_argument("--ode-step", type=float, default=0.01)
    p.add_argument("--t-max", type=float, default=1e4)

    p = add("fixed-points", "roots of the drift with stability, JSON", _cmd_fixed_points)
    p.add_argument("--pmax", type=float, default=0.99)

    return parser


def _sim_flags(p, *, learner: bool = True, steps: int = 100_000, stride: bool = True) -> None:
    """The flags of the commands that simulate; only these depend on the
    feedback model."""
    p.add_argument("--model", choices=["p", "s"], help="override the feedback model")
    if learner:
        p.add_argument("--theta", type=float, default=0.01)
        p.add_argument("--pmax", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--q0", type=float, default=0.5)
    if stride:
        p.add_argument("--stride", type=int, default=100)


def _load_spec(args) -> GameSpec:
    spec = game.preset(args.preset) if args.preset else game.load_game(args.game)
    if getattr(args, "model", None):
        spec = spec.with_model(Model(args.model.upper()))
    return spec


def _sim_config(args, spec: GameSpec) -> harness.SimConfig:
    cfg = LearnerConfig(theta=args.theta, p_max=args.pmax)
    x0 = JointState(args.p0, args.q0)
    return harness.SimConfig(spec, cfg, cfg, x0, args.steps, args.seed, args.stride)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_classify(args, spec: GameSpec) -> int:
    report = game.equilibrium_report(spec)
    _print_json(
        {
            "case": report.case_kind.value,
            "pure": [[s.p1, s.q1] for s in report.pure],
            "mixed": list(report.mixed) if report.mixed else None,
            "L": report.L,
            "L_prime": report.L_prime,
        }
    )
    return 0


def _cmd_simulate(args, spec: GameSpec) -> int:
    traj = harness.run_game(_sim_config(args, spec))
    harness.write_trajectory_csv(traj, args.out)
    return 0


def _cmd_ensemble(args, spec: GameSpec) -> int:
    traj = harness.run_ensemble(_sim_config(args, spec), args.runs)
    harness.write_trajectory_csv(traj, args.out)
    return 0


def _cmd_error_table(args, spec: GameSpec) -> int:
    p_max_values = _parse_floats(args.pmax_list, "pmax-list")
    theta_values = _parse_floats(args.theta_list, "theta-list")
    if (args.target_p is None) != (args.target_q is None):
        raise ValueError("provide both --target-p and --target-q or neither")
    target = None if args.target_p is None else JointState(args.target_p, args.target_q)
    rows = harness.error_table(
        spec, target, p_max_values, theta_values, steps=args.steps, seed=args.seed,
        x0=JointState(args.p0, args.q0), record_stride=args.stride,
    )
    harness.write_error_table_csv(rows, args.out)
    return 0


def _cmd_basin_split(args, spec: GameSpec) -> int:
    cfg = LearnerConfig(theta=args.theta, p_max=args.pmax)
    x0 = JointState(args.p0, args.q0)
    split = harness.basin_split(spec, cfg, x0, runs=args.runs, steps=args.steps, seed=args.seed)
    _print_json(
        {
            "runs": split.runs,
            "stable_points": [[fp.x.p1, fp.x.q1] for fp in split.points],
            "fractions": list(split.fractions),
        }
    )
    return 0


def _cmd_ode_field(args, spec: GameSpec) -> int:
    if args.grid_n < 2:
        raise ValueError("grid-n must be >= 2")
    _check_p_max(args.pmax)
    grid = np.linspace(0.0, 1.0, args.grid_n)
    p1, q1 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    w1, w2 = dynamics._field(spec, p1, q1, args.pmax)
    harness._write_csv(args.out, "p1,q1,w1,w2", p1, q1, w1, w2)
    return 0


def _cmd_ode_trajectory(args, spec: GameSpec) -> int:
    x0 = JointState(args.p0, args.q0)
    traj = dynamics.integrate(spec, x0, args.pmax, step=args.ode_step, t_max=args.t_max)
    harness.write_trajectory_csv(traj, args.out)
    return 0


def _cmd_fixed_points(args, spec: GameSpec) -> int:
    points = dynamics.fixed_points(spec, args.pmax)
    if not points:
        print("numerical error: no fixed points found", file=sys.stderr)
        return 2
    _print_json(
        {
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
    )
    return 0


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
