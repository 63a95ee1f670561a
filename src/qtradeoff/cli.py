"""Command line surface: tradeoff curves and points, oracle verification, simulation.

Emits CSV or JSON for plotting and CI. Exit codes: 0 success, 1 verification
failure, 2 usage error. Each cmd_* maps parsed arguments to (text, exit code);
the library validates the domain, and one runner per subcommand reports its
ValueError as a usage error and writes the text to stdout or --out.
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
    TradeoffPoint,
    helstrom_min_disturbance,
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


def _json(**fields) -> str:
    """JSON text of fields after the metadata triple, keys in the order given."""
    payload = {"library": "qtradeoff", "version": __version__, "rng": RNG_ALGORITHM, **fields}
    return json.dumps(payload, indent=2) + "\n"


def _add_input_arguments(p: argparse.ArgumentParser) -> list[argparse.Action]:
    group = p.add_mutually_exclusive_group(required=True)
    return [
        group.add_argument("--alpha", type=float, help="half-angle of the state pair, radians"),
        group.add_argument("--fsq", type=float, help="squared fidelity |<psi1|psi2>|^2 in [0, 1]"),
        p.add_argument("--degrees", action="store_true", help="interpret --alpha in degrees"),
    ]


def _resolve_alpha(args) -> float:
    if args.fsq is not None:
        if args.degrees:
            raise ValueError("--degrees converts --alpha only; it cannot be combined with --fsq")
        if not 0.0 <= args.fsq <= 1.0:
            raise ValueError(f"--fsq must lie in [0, 1], got {args.fsq}")
        return 0.5 * math.asin(math.sqrt(args.fsq))
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"--alpha must lie in [0, pi/2] radians, got {alpha}")
    if alpha > math.pi / 4:
        folded = math.pi / 2 - alpha
        print(f"warning: alpha {alpha:.6g} folded to the equivalent {folded:.6g} "
              "(the pair is symmetric under alpha -> pi/2 - alpha)", file=sys.stderr)
        alpha = folded
    return alpha


def _is_degenerate(alpha: float) -> bool:
    return alpha == 0.0 or alpha == math.pi / 4


def _normalized_or_none(alpha: float, pt: TradeoffPoint):
    # On the curve info = t exactly; (P - 1/2)/(P_opt - 1/2) cancels as a -> pi/4.
    if _is_degenerate(alpha):
        return None, None, None
    dist = pt.D / helstrom_min_disturbance(alpha)
    return pt.t, dist, tradeoff_identity_residual(alpha, pt.t, dist)


def cmd_curve(args) -> tuple[str, int]:
    alpha = _resolve_alpha(args)
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if _is_degenerate(alpha):
        print("warning: normalization is undefined at alpha in {0, pi/4}; "
              "info/dist/identity_residual columns are left blank", file=sys.stderr)
    rows = []
    for t in np.linspace(0.0, 1.0, args.points):
        pt = tradeoff_point(alpha, float(t))
        info, dist, resid = _normalized_or_none(alpha, pt)
        rows.append((pt.alpha, pt.t, pt.P, pt.D, pt.beta_t, info, dist, resid))
    if args.format == "json":
        return _json(alpha=alpha, points=[dict(zip(CURVE_COLUMNS, row)) for row in rows]), 0
    lines = [",".join(CURVE_COLUMNS)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n", 0


def cmd_point(args) -> tuple[str, int]:
    alpha = _resolve_alpha(args)
    pt = tradeoff_point(alpha, args.t)
    info, dist, resid = _normalized_or_none(alpha, pt)
    inst = optimal_instrument(alpha, args.t)
    return _json(
        alpha=pt.alpha,
        t=pt.t,
        P=pt.P,
        D=pt.D,
        beta_t=pt.beta_t,
        gamma=pt.gamma,
        info=info,
        dist=dist,
        identity_residual=resid,
        kraus=[_matrix_json(ops[0]) for ops in inst.outcomes],
        povm=[_matrix_json(el) for el in povm(inst)],
    ), 0


def cmd_verify(args) -> tuple[str, int]:
    alpha = _resolve_alpha(args)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    t_grid = [1.0] if args.points == 1 else np.linspace(0.0, 1.0, args.points)
    report = verify_closed_form(symmetric_pair(alpha), t_grid, tol=args.tol)
    return _json(**report.as_dict()), 0 if report.all_passed else 1


def cmd_simulate(args) -> tuple[str, int]:
    alpha = _resolve_alpha(args)
    cfg = SimulationConfig(shots=args.shots, seed=args.seed)
    pt = tradeoff_point(alpha, args.t)
    result = run(optimal_instrument(alpha, args.t), symmetric_pair(alpha), cfg)

    def zscore(emp, closed, stderr):
        if stderr == 0.0:
            return 0.0 if emp == closed else None
        return (emp - closed) / stderr

    # The per-cell disturbances carry the Kraus entries' rounding, up to
    # 2 eps (sqrt(D) + eps), which outgrows the statistical stderr at small t.
    eps = sys.float_info.epsilon
    rounding_D = 2.0 * eps * (math.sqrt(pt.D) + eps)
    return _json(
        alpha=alpha,
        t=args.t,
        shots=result.shots,
        seed=result.seed,
        closed_P=pt.P,
        closed_D=pt.D,
        empirical_P=result.empirical_P,
        empirical_D=result.empirical_D,
        stderr_P=result.stderr_P,
        stderr_D=result.stderr_D,
        z_P=zscore(result.empirical_P, pt.P, result.stderr_P),
        z_D=zscore(result.empirical_D, pt.D, math.hypot(result.stderr_D, rounding_D)),
    ), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Optimal information-disturbance tradeoff for two-state qubit discrimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *arguments):
        # The runner: the library validates the domain, and its ValueError is
        # reported as a usage error of this subcommand (exit 2, its own usage).
        # A message whose first word is the dest of an option given here, such
        # as "t must lie in [0, 1]", names its flag as argparse does.
        p = sub.add_parser(name, help=summary)
        declared = _add_input_arguments(p) + [p.add_argument(flag, **options) for flag, options in arguments]
        flags = {action.dest: action.option_strings[0] for action in declared}
        # Declared last, so --out ends every usage line.
        p.add_argument("--out", default=None, help="output path (default stdout)")

        def runner(args) -> int:
            try:
                text, code = func(args)
            except ValueError as exc:
                message = str(exc)
                dest = message.partition(" ")[0]
                if dest in flags and getattr(args, dest) is not None:
                    message = f"argument {flags[dest]}: {message}"
                p.error(message)
            if args.out is None:
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return code

        p.set_defaults(func=runner)

    command("curve", cmd_curve, "emit the optimal tradeoff curve",
            ("--points", dict(type=int, default=101, help="number of samples (default 101)")),
            ("--format", dict(choices=("csv", "json"), default="csv")))
    command("point", cmd_point, "one tradeoff point with Kraus operators and POVM",
            ("--t", dict(type=float, required=True, help="control parameter in [0, 1]")))
    command("verify", cmd_verify, "compare the optimization oracle with the closed form",
            ("--points", dict(type=int, default=5, help="uniform t grid size on [0, 1] (default 5)")),
            ("--tol", dict(type=float, default=1e-4,
                           help="pass threshold on |D_oracle - D_closed| (default 1e-4)")))
    command("simulate", cmd_simulate, "Monte Carlo run of the optimal instrument",
            ("--t", dict(type=float, required=True, help="control parameter in [0, 1]")),
            ("--shots", dict(type=int, default=1000000,
                             help="number of rounds, an integer in [1, 2^63 - 1] (default 1000000)")),
            ("--seed", dict(type=int, default=0,
                            help="PCG64 seed, an integer in [0, 2^64) (default 0)")))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
