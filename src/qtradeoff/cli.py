"""Command line surface: tradeoff curves and points, oracle verification, simulation.

Emits CSV or JSON for plotting and CI. Exit codes: 0 success, 1 verification
failure, 2 usage error. Each cmd_* validates its arguments, then returns (text
chunks, exit code); the library validates the domain, and one runner per
subcommand reports its ValueError as a usage error and writes the chunks to
stdout or --out. cmd_curve returns a lazy iterator of chunks, each a block of
rows, so the curve is computed as it is written, in constant memory. Only
verify and simulate import numpy, and only point, verify and simulate import
json (the curve's JSON rows come from a template), inside the functions that
need them.
"""
from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import islice

from . import __version__
from .tradeoff import (
    TradeoffPoint,
    curve_dist,
    kraus_entries,
    optimal_instrument,
    tradeoff_identity_residual,
    tradeoff_point,
)

CURVE_COLUMNS = ("alpha", "t", "P", "D", "beta_t", "info", "dist", "identity_residual")
# Largest --points accepted, so that the worst accepted call ends in under
# about 30 s and 1 GiB. On a 2-core VM, curve --format json at the cap took
# 4.3 s and 16 MiB peak RSS (its rows are streamed, so memory no longer sets
# this cap; time does), and verify at the cap 28 s and 0.5 GiB.
MAX_CURVE_POINTS = 250_000
MAX_VERIFY_POINTS = 200_000
# Rows joined into one write: each write is a system call on unbuffered stdout.
_BLOCK_ROWS = 1000
# The curve's JSON row, as json.dumps(..., indent=2) writes a dict in the points list.
_JSON_ROW = "    {{\n" + ",\n".join(f'      "{name}": {{}}' for name in CURVE_COLUMNS) + "\n    }}"
# json's spelling of the values whose float repr is not valid JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(x) -> str:
    """Decimal rendering with 10 significant digits; blank for missing values."""
    return "" if x is None else f"{float(x):.10g}"


def _matrix_json(m) -> list:
    """A real matrix as rows of [re, im] pairs."""
    return [[[x, 0.0] for x in row] for row in m]


def _json_value(x) -> str:
    """A float or None as json.dumps writes it."""
    if x is None:
        return "null"
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _chunks(head: str, rows: Iterable[str], sep: str, tail: str) -> Iterator[str]:
    """head + sep.join(rows) + tail, as chunks of at most _BLOCK_ROWS rows each."""
    rows = iter(rows)
    chunk = head + sep.join(islice(rows, _BLOCK_ROWS))
    while block := sep.join(islice(rows, _BLOCK_ROWS)):
        yield chunk
        chunk = sep + block
    yield chunk + tail


def _curve_text(alpha: float, rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """The curve's CSV, or the JSON text that _json(alpha=alpha, points=...) would give, in chunks."""
    if fmt == "json":
        head = (f'{{\n  "library": "qtradeoff",\n  "version": "{__version__}",\n'
                f'  "alpha": {_json_value(alpha)},\n  "points": [\n')
        lines = (_JSON_ROW.format(*map(_json_value, row)) for row in rows)
        return _chunks(head, lines, ",\n", "\n  ]\n}\n")
    lines = (",".join(map(_fmt, row)) for row in rows)
    return _chunks(",".join(CURVE_COLUMNS) + "\n", lines, "\n", "\n")


def _t_grid(n: int) -> Iterator[float]:
    """n >= 2 uniform samples of [0, 1], the last exactly 1, as np.linspace(0, 1, n), lazily."""
    step = 1.0 / (n - 1)
    for i in range(n - 1):
        yield i * step
    yield 1.0


def _check_points(points: int, low: int, high: int) -> None:
    if points < low:
        raise ValueError(f"--points must be >= {low}")
    if points > high:
        raise ValueError(f"--points must be <= {high}")


def _json(**fields) -> tuple[str]:
    """JSON text of library and version, then fields, keys in the order given, as one chunk."""
    import json

    payload = {"library": "qtradeoff", "version": __version__, **fields}
    return (json.dumps(payload, indent=2) + "\n",)


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
        # atan2 keeps every digit near fsq = 1, where asin's argument rounds to 1.
        return 0.5 * math.atan2(math.sqrt(args.fsq), math.sqrt(1.0 - args.fsq))
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
    dist = curve_dist(alpha, pt.t)
    return pt.t, dist, tradeoff_identity_residual(alpha, pt.t, dist)


def _curve_row(alpha: float, t: float) -> tuple:
    pt = tradeoff_point(alpha, t)
    return (pt.alpha, pt.t, pt.P, pt.D, pt.beta_t, *_normalized_or_none(alpha, pt))


def cmd_curve(args) -> tuple[Iterator[str], int]:
    alpha = _resolve_alpha(args)
    _check_points(args.points, 2, MAX_CURVE_POINTS)
    if _is_degenerate(alpha):
        print("warning: normalization is undefined at alpha in {0, pi/4}; "
              "info/dist/identity_residual columns are left blank", file=sys.stderr)
    rows = (_curve_row(alpha, t) for t in _t_grid(args.points))
    return _curve_text(alpha, rows, args.format), 0


def cmd_point(args) -> tuple[tuple[str], int]:
    alpha = _resolve_alpha(args)
    pt = tradeoff_point(alpha, args.t)
    info, dist, resid = _normalized_or_none(alpha, pt)
    kraus = kraus_entries(pt.t, pt.beta_t)
    # The feedback rotation cancels in E^T E, so the POVM is exactly diagonal at every alpha.
    hi, lo = (1.0 + pt.t) / 2.0, (1.0 - pt.t) / 2.0
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
        kraus=[_matrix_json(e) for e in kraus],
        povm=[_matrix_json(((hi, 0.0), (0.0, lo))), _matrix_json(((lo, 0.0), (0.0, hi)))],
    ), 0


def cmd_verify(args) -> tuple[tuple[str], int]:
    from .oracle import verify_closed_form
    from .qubit import symmetric_pair

    alpha = _resolve_alpha(args)
    _check_points(args.points, 1, MAX_VERIFY_POINTS)
    t_grid = [1.0] if args.points == 1 else _t_grid(args.points)
    report = verify_closed_form(symmetric_pair(alpha), t_grid, tol=args.tol)
    return _json(**report.as_dict()), 0 if report.all_passed else 1


def cmd_simulate(args) -> tuple[tuple[str], int]:
    from .qubit import symmetric_pair
    from .simulate import RNG_ALGORITHM, SimulationConfig, run

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
        rng=RNG_ALGORITHM,
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
                chunks, code = func(args)
            except ValueError as exc:
                message = str(exc)
                dest = message.partition(" ")[0]
                if dest in flags and getattr(args, dest) is not None:
                    message = f"argument {flags[dest]}: {message}"
                p.error(message)
            # sys.stdout is read here, not bound earlier, so that redirect_stdout applies.
            if args.out is None:
                sys.stdout.writelines(chunks)
            else:
                with open(args.out, "w") as fh:
                    fh.writelines(chunks)
            return code

        p.set_defaults(func=runner)

    command("curve", cmd_curve, "emit the optimal tradeoff curve",
            ("--points", dict(type=int, default=101,
                              help=f"number of samples, 2 to {MAX_CURVE_POINTS} (default 101)")),
            ("--format", dict(choices=("csv", "json"), default="csv")))
    command("point", cmd_point, "one tradeoff point with Kraus operators and POVM",
            ("--t", dict(type=float, required=True, help="control parameter in [0, 1]")))
    command("verify", cmd_verify, "compare the optimization oracle with the closed form",
            ("--points", dict(type=int, default=5,
                              help=f"uniform t grid size on [0, 1], 1 to {MAX_VERIFY_POINTS} (default 5)")),
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
