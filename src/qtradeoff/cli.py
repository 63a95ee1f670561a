"""Command line surface: tradeoff curves and points, oracle verification, simulation.

Emits CSV or JSON for plotting and CI. Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .instruments import povm
from .oracle import verify_closed_form
from .qubit import symmetric_pair
from .simulate import RNG_ALGORITHM, SimulationConfig, run
from .tradeoff import (
    normalized,
    optimal_instrument,
    tradeoff_identity_residual,
    tradeoff_point,
)

CURVE_COLUMNS = ("alpha", "t", "P", "D", "beta_t", "info", "dist", "identity_residual")


def _fmt(x) -> str:
    """Decimal rendering with 10 significant digits; blank for missing values."""
    return "" if x is None else f"{float(x):.10g}"


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m, dtype=complex)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="half-angle of the state pair, radians")
    group.add_argument("--fsq", type=float, help="squared fidelity |<psi1|psi2>|^2 in [0, 1]")
    p.add_argument("--degrees", action="store_true", help="interpret --alpha in degrees")


def _resolve_alpha(parser: argparse.ArgumentParser, args) -> float:
    if args.fsq is not None:
        if not 0.0 <= args.fsq <= 1.0:
            parser.error(f"--fsq must lie in [0, 1], got {args.fsq}")
        return 0.5 * math.asin(math.sqrt(args.fsq))
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    if not 0.0 <= alpha <= math.pi / 2:
        parser.error(f"--alpha must lie in [0, pi/2] radians, got {alpha}")
    if alpha > math.pi / 4:
        folded = math.pi / 2 - alpha
        print(f"warning: alpha {alpha:.6g} folded to the equivalent {folded:.6g} "
              "(the pair is symmetric under alpha -> pi/2 - alpha)", file=sys.stderr)
        alpha = folded
    return alpha


def _is_degenerate(alpha: float) -> bool:
    return alpha == 0.0 or alpha == math.pi / 4


def _normalized_or_none(alpha: float, p: float, d: float):
    if _is_degenerate(alpha):
        return None, None, None
    point = normalized(alpha, p, d)
    return point.info, point.dist, tradeoff_identity_residual(alpha, point.info, point.dist)


def cmd_curve(parser: argparse.ArgumentParser, args) -> int:
    alpha = _resolve_alpha(parser, args)
    if args.points < 2:
        parser.error("--points must be >= 2")
    if _is_degenerate(alpha):
        print("warning: normalization is undefined at alpha in {0, pi/4}; "
              "info/dist/identity_residual columns are left blank", file=sys.stderr)
    if args.by_probability:
        if alpha == math.pi / 4:
            parser.error("--by-probability is unusable at alpha = pi/4 (P is constant)")
        p_opt = float(np.cos(alpha) ** 2)
        p_values = np.linspace(0.5, p_opt, args.points)
        t_values = np.clip((2.0 * p_values - 1.0) / math.cos(2.0 * alpha), 0.0, 1.0)
    else:
        t_values = np.linspace(0.0, 1.0, args.points)
    rows = []
    for t in t_values:
        pt = tradeoff_point(alpha, float(t))
        info, dist, resid = _normalized_or_none(alpha, pt.P, pt.D)
        rows.append((pt.alpha, pt.t, pt.P, pt.D, pt.beta_t, info, dist, resid))
    if args.format == "csv":
        lines = [",".join(CURVE_COLUMNS)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "library": "qtradeoff",
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "alpha": alpha,
            "points": [dict(zip(CURVE_COLUMNS, row)) for row in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_point(parser: argparse.ArgumentParser, args) -> int:
    alpha = _resolve_alpha(parser, args)
    if not 0.0 <= args.t <= 1.0:
        parser.error(f"--t must lie in [0, 1], got {args.t}")
    pt = tradeoff_point(alpha, args.t)
    info, dist, resid = _normalized_or_none(alpha, pt.P, pt.D)
    inst = optimal_instrument(alpha, args.t)
    payload = {
        "library": "qtradeoff",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "alpha": pt.alpha,
        "t": pt.t,
        "P": pt.P,
        "D": pt.D,
        "beta_t": pt.beta_t,
        "gamma": pt.gamma,
        "info": info,
        "dist": dist,
        "identity_residual": resid,
        "kraus": [_matrix_json(ops[0]) for ops in inst.outcomes],
        "povm": [_matrix_json(el) for el in povm(inst)],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    alpha = _resolve_alpha(parser, args)
    if _is_degenerate(alpha):
        parser.error("verify requires alpha strictly inside (0, pi/4)")
    if args.points < 1:
        parser.error("--points must be >= 1")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error(f"--tol must be finite and positive, got {args.tol}")
    t_grid = np.linspace(0.0, 1.0, args.points) if args.points > 1 else [1.0]
    report = verify_closed_form(symmetric_pair(alpha), t_grid, tol=args.tol)
    payload = {
        "library": "qtradeoff",
        "version": __version__,
        "rng": RNG_ALGORITHM,
    }
    payload.update(report.as_dict())
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.all_passed else 1


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    alpha = _resolve_alpha(parser, args)
    if not 0.0 <= args.t <= 1.0:
        parser.error(f"--t must lie in [0, 1], got {args.t}")
    try:
        cfg = SimulationConfig(shots=args.shots, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    pt = tradeoff_point(alpha, args.t)
    result = run(optimal_instrument(alpha, args.t), symmetric_pair(alpha), cfg)

    def zscore(emp, closed, stderr):
        if stderr == 0.0:
            return 0.0 if emp == closed else None
        return (emp - closed) / stderr

    payload = {
        "library": "qtradeoff",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "alpha": alpha,
        "t": args.t,
        "shots": result.shots,
        "seed": result.seed,
        "closed_P": pt.P,
        "closed_D": pt.D,
        "empirical_P": result.empirical_P,
        "empirical_D": result.empirical_D,
        "stderr_P": result.stderr_P,
        "stderr_D": result.stderr_D,
        "z_P": zscore(result.empirical_P, pt.P, result.stderr_P),
        "z_D": zscore(result.empirical_D, pt.D, result.stderr_D),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Optimal information-disturbance tradeoff for two-state qubit discrimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # Each command reports usage errors through its own parser.
        p = sub.add_parser(name, help=summary)
        _add_input_arguments(p)
        p.set_defaults(func=lambda args: func(p, args))
        return p

    p_curve = command("curve", cmd_curve, "emit the optimal tradeoff curve")
    p_curve.add_argument("--points", type=int, default=101, help="number of samples (default 101)")
    p_curve.add_argument("--by-probability", action="store_true",
                         help="sample uniformly in P instead of t")
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--out", default=None, help="output path (default stdout)")

    p_point = command("point", cmd_point, "one tradeoff point with Kraus operators and POVM")
    p_point.add_argument("--t", type=float, required=True, help="control parameter in [0, 1]")
    p_point.add_argument("--out", default=None)

    p_verify = command("verify", cmd_verify, "compare the optimization oracle with the closed form")
    p_verify.add_argument("--points", type=int, default=5,
                          help="uniform t grid size on [0, 1] (default 5)")
    p_verify.add_argument("--tol", type=float, default=1e-4,
                          help="pass threshold on |D_oracle - D_closed| (default 1e-4)")
    p_verify.add_argument("--out", default=None)

    p_sim = command("simulate", cmd_simulate, "Monte Carlo run of the optimal instrument")
    p_sim.add_argument("--t", type=float, required=True)
    p_sim.add_argument("--shots", type=int, default=1000000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
