#!/usr/bin/env python3
"""Benchmark of the qtradeoff package: four workloads, end-to-end and per-layer metrics.

One workload, one run (run from the repository root):

    python3 perfbench/run.py --workload oracle-verify --seed 1 --seconds 18 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Every workload, untraced and traced, as a report with the baseline table:

    python3 perfbench/run.py --all [--seed 1] [--seconds 18] [--out BENCH_1.json]

Check that the exact counts of a traced run repeat for the same seed:

    python3 perfbench/run.py --self-test
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import harness

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("cli", "oracle", "simulate", "tradeoff", "instruments", "choi", "qubit")

PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.qtradeoff_self_s": "s",
    "cli.interpreter_s": "s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.curve_s": "s",
    "cli.point_s": "s",
    "cli.simulate_s": "s",
    "cli.verify_s": "s",
    "cli.output_bytes": "bytes",
    "oracle.calls": "count",
    "oracle.busy_s": "s",
    "oracle.interior_calls": "count",
    "oracle.face_calls": "count",
    "oracle.iterations": "count",
    "oracle.restarts": "count",
    "oracle.converged_ratio": "ratio",
    "oracle.max_gap": "1",
    "oracle.max_residual": "1",
    "simulate.calls": "count",
    "simulate.busy_s": "s",
    "simulate.shots": "count",
    "simulate.bytes_computed": "bytes",
    "simulate.max_abs_z": "1",
    "tradeoff.calls": "count",
    "tradeoff.busy_s": "s",
    "instruments.calls": "count",
    "instruments.busy_s": "s",
    "choi.calls": "count",
    "choi.busy_s": "s",
    "qubit.calls": "count",
    "qubit.busy_s": "s",
    "bench.self_s": "s",
    "trace.overhead": "ratio",
}

# Failures printed in full per run; the rest are only counted.
_SHOWN_FAILURES = 5


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


class Runner:
    """Runs ops one at a time, counting attempts and failures without stopping."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # a failed op is counted and the run goes on
            self.failed += 1
            if self.failed <= _SHOWN_FAILURES:
                print(f"op failed in {self.workload.name}:\n{traceback.format_exc()}",
                      file=sys.stderr)

    def warm_up(self, call) -> None:
        if self.workload.in_process:
            self.attempt(self.workload.run_op, self.workload.ops(0)[0], call, harness.Tally())

    def cycle(self, k: int, call, tally) -> list[tuple[float, float, float]]:
        """Every op of cycle k once: (wall seconds, CPU seconds, speed scale) per op.

        The reference kernel runs between ops, outside their timings.
        """
        records = []
        speed = harness.SpeedScale()
        for op in self.workload.ops(k):
            cpu0 = harness.cpu_seconds()
            t0 = time.perf_counter()
            self.attempt(self.workload.run_op, op, call, tally)
            wall = time.perf_counter() - t0
            records.append((wall, harness.cpu_seconds() - cpu0, speed.next()))
        return records


def _op_stats(cycles: list[list[tuple[float, float, float]]], scaled: bool) -> dict:
    """Per-op and per-cycle statistics over whole cycles, scaled or as measured."""
    def adjust(value, scale):
        return value * scale if scaled else value

    op_times = [adjust(wall, scale) for records in cycles for wall, _, scale in records]
    tail_value, tail_percentile = harness.tail(op_times)
    return {
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_percentile,
        "op_samples": len(op_times),
        "ops_per_s": statistics.median(
            len(records) / sum(adjust(wall, scale) for wall, _, scale in records)
            for records in cycles),
        "op_cpu_s": statistics.median(
            sum(adjust(cpu, scale) for _, cpu, scale in records) / len(records)
            for records in cycles),
    }


def planned_cycles(workload, seconds: float) -> int:
    """Cycles of a run: about `seconds` of work at the reference speed.

    Fixed by the arguments alone, so every run of a workload has the same mix
    of ops and its tail percentile falls at the same rank.
    """
    return max(1, round(seconds / workload.nominal_cycle_s))


def timed_run(workload, seconds: float) -> tuple[dict, dict, Runner]:
    """Untraced run of the planned cycles, cut short after 1.25 x `seconds` of wall time."""
    harness.compile_bytecode()
    setup, setup_as_measured = harness.setup_seconds()
    runner = Runner(workload)
    call = harness.Calls()
    runner.warm_up(call)
    tally = harness.Tally()
    cycles = []
    start = time.perf_counter()
    for k in range(planned_cycles(workload, seconds)):
        cycles.append(runner.cycle(k, call, tally))
        if time.perf_counter() - start >= 1.25 * seconds:
            break
    elapsed = time.perf_counter() - start
    runner.attempt(workload.finish, call)

    scaled = _op_stats(cycles, scaled=True)
    metrics = {
        "setup_s": setup,
        **{name: scaled[name] for name in ("op_p50_s", "op_tail_s", "ops_per_s", "op_cpu_s")},
        "peak_rss_mb": harness.peak_rss_mb(children=not workload.in_process),
    }
    per_op = zip(workload.labels, zip(*cycles))
    detail = {
        "error_rate": runner.failed / runner.attempted,
        "cycles": len(cycles),
        "measured_s": elapsed,
        "op_tail_percentile": scaled["op_tail_percentile"],
        "op_samples": scaled["op_samples"],
        "speed_scale_median": statistics.median(s for records in cycles for _, _, s in records),
        "as_measured": {"setup_s": setup_as_measured, **_op_stats(cycles, scaled=False)},
        "per_op_median_s": {label: statistics.median(wall for wall, _, _ in records)
                            for label, records in per_op},
    }
    return metrics, detail, runner


def traced_run(workload, seconds: float) -> tuple[dict, dict, Runner]:
    """Traced run: untraced and traced cycles alternate, then the layer probes."""
    harness.compile_bytecode()
    probes = harness.import_split()
    probes["cli.interpreter_s"] = harness.interpreter_seconds()
    runner = Runner(workload)
    plain, traced = harness.Calls(), harness.TracedCalls()
    runner.warm_up(plain)
    tally, discard = harness.Tally(), harness.Tally()
    walls = {plain: 0.0, traced: 0.0}  # as measured
    scaled = {plain: 0.0, traced: 0.0}
    n = planned_cycles(workload, seconds / 2)  # fixed, so exact counts repeat for a seed
    for k in range(n):
        for call in ((plain, traced) if k % 2 == 0 else (traced, plain)):
            for wall, _, scale in runner.cycle(k, call, tally if call is traced else discard):
                walls[call] += wall
                scaled[call] += wall * scale
    runner.attempt(lambda: probes.update(workload.probes()))
    runner.attempt(workload.finish, plain)

    metrics = dict.fromkeys(PER_LAYER, 0.0)  # layers a workload never calls read 0
    metrics.update(probes)
    for layer in LAYERS:
        metrics[f"{layer}.calls"], metrics[f"{layer}.busy_s"] = traced.layer_totals(layer)
    converged = tally.values.pop("oracle.converged", 0)
    metrics.update(tally.values)
    if metrics["oracle.calls"]:
        metrics["oracle.converged_ratio"] = converged / metrics["oracle.calls"]
    metrics["bench.self_s"] = walls[traced] - traced.busy_total()
    metrics["trace.overhead"] = 1.0 - scaled[plain] / scaled[traced]
    detail = {
        "error_rate": runner.failed / runner.attempted,
        "cycles_each": n,
        "untraced_s": walls[plain],
        "traced_s": walls[traced],
        "functions": {f"{layer}.{fn}": stats for (layer, fn), stats in sorted(traced.stats.items())},
    }
    return {name: metrics[name] for name in PER_LAYER}, detail, runner


def run_one(args, registry: dict, loadavg) -> int:
    workload = registry[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    metrics, detail, runner = run(workload, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    header = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": harness.environment(loadavg),
              "inputs": workload.inputs()}
    print("# run " + json.dumps(header))
    print("# detail " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{name} = {_fmt(value)} {units[name]}")
    print(f"error_rate = {detail['error_rate']:.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops failed)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _child_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [harness.PYTHON, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    for line in lines:
        for key in ("run", "detail"):
            if line.startswith(f"# {key} "):
                record[key] = json.loads(line[len(key) + 3:])
    return record


def baseline_table(results: dict) -> list[str]:
    """The per-layer baseline table kept in ROADMAP.md, from one --all run."""
    sweep = results["closed-form-sweep"]["trace"]["detail"]["functions"]
    oracle = results["oracle-verify"]["trace"]["metrics"]
    sim = results["monte-carlo"]["trace"]["metrics"]
    cli_e2e = results["cli-startup"]["untraced"]
    cli_ops = cli_e2e["detail"]["per_op_median_s"]
    imports = results["cli-startup"]["trace"]["metrics"]

    def per_call_us(fn: str) -> float:
        calls, busy = sweep[fn]
        return 1e6 * busy / calls

    def value(record: dict, name: str) -> float:
        return record[name]["value"]

    interior = value(oracle, "oracle.interior_calls")
    return [
        "| Layer | Time |",
        "| --- | --- |",
        f"| `tradeoff_point` | {per_call_us('tradeoff.tradeoff_point'):.1f} µs/pt |",
        f"| `optimal_instrument` | {per_call_us('tradeoff.optimal_instrument'):.1f} µs |",
        "| Kraus `success_probability` + `disturbance` | "
        f"{per_call_us('instruments.success_probability') + per_call_us('instruments.disturbance'):.1f} µs |",
        f"| `maximize`, default config, mean per interior `t` point "
        f"({value(oracle, 'oracle.iterations') / interior:.0f} L-BFGS iterations) | "
        f"{1e3 * value(oracle, 'oracle.busy_s') / interior:.0f} ms |",
        f"| `run`, 10^6 shots | "
        f"{1e9 * value(sim, 'simulate.busy_s') / value(sim, 'simulate.shots'):.1f} ms |",
        f"| `import qtradeoff` | {cli_e2e['detail']['as_measured']['setup_s']:.2f} s "
        f"({value(imports, 'import.scipy_s'):.2f} s of it is scipy) |",
        f"| CLI `curve` / `point` / `simulate`, end to end | {cli_ops['curve-csv']:.2f} / "
        f"{cli_ops['point']:.2f} / {cli_ops['simulate']:.2f} s |",
        f"| CLI `verify`, 1 point (the t = 1 face), end to end | {cli_ops['verify']:.2f} s |",
        f"| numpy's share of `import qtradeoff` | {value(imports, 'import.numpy_s'):.2f} s |",
    ]


def run_all(args, registry: dict, loadavg) -> int:
    results = {}
    for name in registry:
        results[name] = {
            "untraced": _child_run(name, args.seed, args.seconds, 0),
            "trace": _child_run(name, args.seed, args.seconds, 1),
        }
    for name, result in results.items():
        print(f"\n== {name} (seed {args.seed}, {args.seconds} s) ==")
        untraced = result["untraced"]
        for metric, record in untraced["metrics"].items():
            print(f"  {metric:<26} {_fmt(record['value'])} {record['unit']}")
        print(f"  {'error_rate':<26} {untraced['detail']['error_rate']:.6g} ratio "
              f"({untraced['failed']} of {untraced['attempted']} ops failed)")
        print(f"  op_tail_s is the p{untraced['detail']['op_tail_percentile']:.0f} "
              f"of {untraced['detail']['op_samples']} samples")
        print("  per layer, traced run:")
        for metric, record in result["trace"]["metrics"].items():
            print(f"    {metric:<30} {_fmt(record['value'])} {record['unit']}")
    table = baseline_table(results)
    print("\nBaseline table:\n")
    print("\n".join(table))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": harness.environment(loadavg), "seed": args.seed,
                       "seconds": args.seconds, "workloads": results,
                       "baseline_table": table}, fh, indent=2)
            fh.write("\n")
    correct = all(r[k]["correct"] for r in results.values() for k in ("untraced", "trace"))
    return 0 if correct else 1


def self_test(registry: dict) -> int:
    """Exact counts of two traced runs with one seed must be equal."""
    exact = [name for name, unit in PER_LAYER.items() if unit == "count"]
    ok = True
    for cls in registry.values():
        runs = [traced_run(cls(seed=1), seconds=1) for _ in range(2)]
        counts = [{name: metrics[name] for name in exact} for metrics, _, _ in runs]
        passed = counts[0] == counts[1] and all(r.failed == 0 for _, _, r in runs)
        ok = ok and passed
        nonzero = {k: v for k, v in counts[0].items() if v}
        print(f"[{'PASS' if passed else 'FAIL'}] {cls.name}: {nonzero}")
    return 0 if ok else 1


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    harness.pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, then report")
    mode.add_argument("--self-test", action="store_true", help="check that exact counts repeat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    harness.require_source()
    import workloads  # imports the package, which needs src/ on the path first
    registry = workloads.WORKLOADS
    if args.workload is not None and args.workload not in registry:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(registry)}")
    if args.self_test:
        return self_test(registry)
    if args.all:
        return run_all(args, registry, loadavg)
    return run_one(args, registry, loadavg)


if __name__ == "__main__":
    sys.exit(main())
