"""The four workloads: inputs drawn from a seed, one op at a time, every output checked.

A workload runs in cycles. Every cycle has the same ops in the same order
(`labels`); the in-process workloads draw fresh jitter and random seeds for
each cycle from (seed, cycle number), so that a run averages over many draws
instead of depending on one. An op calls the package only through
`call(layer, fn, *args)`, which the traced run times per layer.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import qtradeoff as qt
from qtradeoff import cli

import harness

# Acceptance tolerances: criterion 4 (oracle), criteria 3, 5 and 6 (closed forms).
ORACLE_GAP_TOL = 1e-4
ORACLE_RESIDUAL_TOL = 1e-6
IDENTITY_TOL = 1e-9
POVM_TOL = 1e-12
REPRESENTATION_TOL = 1e-10
# |z| beyond 6 has probability 2e-9 per estimate for a correct sampler, so a
# seeded run practically never fails by chance.
Z_LIMIT = 6.0
CURVE_HEADER = "alpha,t,P,D,beta_t,info,dist,identity_residual"


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got, want, rel: float = 1e-12, atol: float = 1e-15) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=atol)


def _povm_targets(t: float) -> tuple[np.ndarray, np.ndarray]:
    """The optimal POVM is t times the projective one plus (1 - t) times 1/2."""
    return (t * np.diag([1.0, 0.0]) + (1 - t) / 2 * np.eye(2),
            t * np.diag([0.0, 1.0]) + (1 - t) / 2 * np.eye(2))


def _povm_deviation(elements, targets) -> float:
    return max(float(np.max(np.abs(np.asarray(e) - tgt))) for e, tgt in zip(elements, targets))


class Workload:
    name: str
    # Time of one cycle at the reference speed; a run of `seconds` plans
    # seconds / nominal_cycle_s cycles.
    nominal_cycle_s: float
    # In-process workloads get one untimed warm-up op and are measured in this
    # process; otherwise every op is a child process, which stays cold as it
    # does for a user, and CPU and peak memory are the children's.
    in_process = True
    # One name per op position of a cycle.
    labels: list[str]

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2 ** 64, cycle])

    def ops(self, cycle: int) -> list:
        raise NotImplementedError

    def run_op(self, op, call, tally: harness.Tally) -> None:
        raise NotImplementedError

    def finish(self, call) -> None:
        """Checks made once per run, after the timed ops."""

    def probes(self) -> dict[str, float]:
        """Per-layer numbers measured outside the op loop, in traced runs only."""
        return {}

    def inputs(self) -> dict:
        return {"cycle_0": [repr(op) for op in self.ops(0)]}


class CliStartup(Workload):
    """Sequential `qtradeoff` invocations; start-up and imports dominate.

    The argument lists are the same in every cycle, so every repeat must
    reproduce the first output byte for byte.
    """

    name = "cli-startup"
    nominal_cycle_s = 2.8
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng(0)
        self.alpha = float(np.pi / 8 + rng.uniform(-0.05, 0.05))
        self.t = float(rng.uniform(0.3, 0.7))
        a, t = repr(self.alpha), repr(self.t)
        self.argv = [
            ("curve-csv", ["curve", "--alpha", a, "--points", "101"]),
            ("curve-json", ["curve", "--alpha", a, "--points", "101", "--format", "json"]),
            ("point", ["point", "--alpha", a, "--t", t]),
            ("simulate", ["simulate", "--alpha", a, "--t", t, "--shots", "1000",
                          "--seed", str(int(rng.integers(2 ** 31)))]),
            ("verify", ["verify", "--alpha", a, "--points", "1"]),
        ]
        self.labels = [label for label, _ in self.argv]
        self.first_stdout: dict[str, bytes] = {}

    def ops(self, cycle: int) -> list:
        return self.argv

    def run_op(self, op, call, tally: harness.Tally) -> None:
        label, argv = op
        proc = call("cli", harness.run_cli, argv)
        expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: "
                                     f"{proc.stderr.decode(errors='replace')[-500:]}")
        first = self.first_stdout.setdefault(label, proc.stdout)
        expect(proc.stdout == first, f"{label}: output differs from the first identical run")
        getattr(self, "_check_" + label.replace("-", "_"))(proc.stdout.decode(), call)

    def finish(self, call) -> None:
        label, argv = self.argv[3]
        proc = call("cli", harness.run_cli, argv)
        expect(proc.returncode == 0 and proc.stdout == self.first_stdout.get(label, proc.stdout),
               f"{label}: a repeated identical invocation gave different output")

    def _point(self, call, t: float):
        return call("tradeoff", qt.tradeoff_point, self.alpha, t)

    def _check_curve_csv(self, text: str, call) -> None:
        lines = text.splitlines()
        expect(lines[0] == CURVE_HEADER, f"curve-csv: header {lines[0]!r}")
        expect(len(lines) == 102, f"curve-csv: {len(lines) - 1} rows, expected 101")
        for t, line in zip(np.linspace(0.0, 1.0, 101), lines[1:]):
            fields = line.split(",")
            pt = self._point(call, float(t))
            # CSV carries 10 significant digits.
            expect(all(close(got, want, rel=1e-9, atol=1e-12) for got, want in
                       zip(fields[:4], (pt.alpha, pt.t, pt.P, pt.D))), f"curve-csv: row {line!r}")
            expect(abs(float(fields[7])) <= IDENTITY_TOL, f"curve-csv: residual in {line!r}")

    def _check_curve_json(self, text: str, call) -> None:
        points = json.loads(text)["points"]
        expect(len(points) == 101, f"curve-json: {len(points)} points, expected 101")
        for t, row in zip(np.linspace(0.0, 1.0, 101), points):
            pt = self._point(call, float(t))
            expect(all(close(row[k], getattr(pt, k)) for k in ("alpha", "t", "P", "D", "beta_t")),
                   f"curve-json: row {row!r}")
            expect(abs(row["identity_residual"]) <= IDENTITY_TOL, f"curve-json: row {row!r}")

    def _check_point(self, text: str, call) -> None:
        payload = json.loads(text)
        pt = self._point(call, self.t)
        expect(all(close(payload[k], getattr(pt, k)) for k in ("P", "D", "beta_t")),
               f"point: P, D, beta_t {payload['P']}, {payload['D']}, {payload['beta_t']}")
        povm = [np.array([[re + 1j * im for re, im in row] for row in el]) for el in payload["povm"]]
        expect(_povm_deviation(povm, _povm_targets(self.t)) <= POVM_TOL,
               "point: POVM is not the expected mixture")

    def _check_simulate(self, text: str, call) -> None:
        payload = json.loads(text)
        pt = self._point(call, self.t)
        expect(close(payload["closed_P"], pt.P) and close(payload["closed_D"], pt.D),
               "simulate: closed-form values differ from tradeoff_point")
        for key in ("z_P", "z_D"):
            expect(payload[key] is not None and abs(payload[key]) <= Z_LIMIT,
                   f"simulate: {key} = {payload[key]}")

    def _check_verify(self, text: str, call) -> None:
        payload = json.loads(text)
        expect(payload["all_passed"] and payload["max_gap"] <= ORACLE_GAP_TOL,
               f"verify: all_passed={payload['all_passed']} max_gap={payload['max_gap']}")
        expect(close(payload["points"][0]["closed_D"], self._point(call, 1.0).D),
               "verify: closed_D differs from tradeoff_point")

    def probes(self) -> dict[str, float]:
        """In-process `cli.main` per command, separating command time from start-up."""
        times = defaultdict(list)
        out_bytes = 0
        for label, argv in self.argv:
            for _ in range(3):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    times[label.split("-")[0]].append(time.perf_counter() - t0)
                expect(code == 0 and stdout.getvalue().encode() == self.first_stdout[label],
                       f"{label}: in-process output differs from the command's")
            out_bytes += len(self.first_stdout[label])
        probes = {f"cli.{command}_s": statistics.median(v) for command, v in times.items()}
        probes["cli.output_bytes"] = out_bytes
        return probes


def _oracle_config(seed: int):
    # The restart seed exists only while the oracle is a heuristic solver.
    if "seed" in {f.name for f in dataclasses.fields(qt.OracleConfig)}:
        return qt.OracleConfig(seed=seed)
    return qt.OracleConfig()


class OracleVerify(Workload):
    """Oracle solves with the default configuration over both alpha edges and the t = 1 face."""

    name = "oracle-verify"
    nominal_cycle_s = 2.4
    ALPHAS = (0.02, 0.39, 0.77)
    TS = (0.5, 0.99, 0.999, 1.0)
    # Each run of three consecutive ops covers every alpha once.
    GRID = [(i, (i + j) % 4) for j in range(4) for i in range(3)]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.labels = [f"alpha~{self.ALPHAS[i]},t~{self.TS[j]}" for i, j in self.GRID]

    def ops(self, cycle: int) -> list:
        rng = self.rng(cycle)
        alphas = [a + rng.uniform(-1e-3, 1e-3) for a in self.ALPHAS]
        ts = [0.5 + rng.uniform(-0.01, 0.01), 0.99 + rng.uniform(-5e-4, 5e-4),
              0.999 + rng.uniform(-5e-5, 5e-5), 1.0]
        cfg = _oracle_config(int(rng.integers(2 ** 32)))
        return [(float(alphas[i]), float(ts[j]), cfg) for i, j in self.GRID]

    def run_op(self, op, call, tally: harness.Tally) -> None:
        alpha, t, cfg = op
        pair = call("qubit", qt.symmetric_pair, alpha)
        result = call("oracle", qt.maximize, pair, t, cfg)
        closed = call("tradeoff", qt.tradeoff_point, alpha, t).D
        gap = abs(result.achieved_D - closed)
        residual = max(abs(r) for r in result.constraint_residuals)
        # Restart summaries and the converged flag belong to the heuristic solver.
        summaries = getattr(result, "objective_history_summary", ())
        tally.add("oracle.face_calls" if t == 1.0 else "oracle.interior_calls")
        tally.add("oracle.iterations", sum(s.iterations for s in summaries))
        tally.add("oracle.restarts", len(summaries) if t < 1.0 else 0)
        tally.add("oracle.converged", bool(getattr(result, "converged", True)))
        tally.peak("oracle.max_gap", gap)
        tally.peak("oracle.max_residual", residual)
        expect(gap <= ORACLE_GAP_TOL and residual <= ORACLE_RESIDUAL_TOL,
               f"oracle at alpha={alpha!r}, t={t!r}: gap {gap:.3g}, residual {residual:.3g}")


class MonteCarlo(Workload):
    """Simulator runs of the optimal instrument at 10^7 shots, t = 0 and t = 1 included."""

    name = "monte-carlo"
    nominal_cycle_s = 1.5
    SHOTS = 10 ** 7
    POINTS = ((np.pi / 8, 0.0), (np.pi / 8, 1.0), (0.3, 0.5), (0.6, 0.85))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.labels = [f"alpha~{a:.3f},t~{t}" for a, t in self.POINTS]

    def ops(self, cycle: int) -> list:
        rng = self.rng(cycle)
        return [(float(a + rng.uniform(-0.02, 0.02)),
                 t if t in (0.0, 1.0) else float(t + rng.uniform(-0.05, 0.05)),
                 int(rng.integers(2 ** 63)))
                for a, t in self.POINTS]

    def run_op(self, op, call, tally: harness.Tally) -> None:
        alpha, t, seed = op
        pair = call("qubit", qt.symmetric_pair, alpha)
        inst = call("tradeoff", qt.optimal_instrument, alpha, t)
        pt = call("tradeoff", qt.tradeoff_point, alpha, t)
        cfg = qt.SimulationConfig(shots=self.SHOTS, seed=seed)
        if call.traced:
            tracemalloc.start()
        try:
            result = call("simulate", qt.run, inst, pair, cfg)
        finally:
            if call.traced:
                tally.peak("simulate.bytes_computed", tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        tally.add("simulate.shots", result.shots)
        for name, emp, closed, stderr in (("P", result.empirical_P, pt.P, result.stderr_P),
                                          ("D", result.empirical_D, pt.D, result.stderr_D)):
            if stderr == 0.0:  # a constant per-shot value: z is undefined
                expect(close(emp, closed, atol=1e-12),
                       f"simulate at alpha={alpha!r}, t={t!r}: {name} = {emp} with zero stderr, "
                       f"closed form {closed}")
                continue
            z = (emp - closed) / stderr
            tally.peak("simulate.max_abs_z", abs(z))
            expect(abs(z) <= Z_LIMIT, f"simulate at alpha={alpha!r}, t={t!r}: z_{name} = {z:.2f}")


class ClosedFormSweep(Workload):
    """Dense alpha x t grid through closed forms, Kraus functionals and Choi cross-checks.

    One op is one alpha row over every t of the grid.
    """

    name = "closed-form-sweep"
    nominal_cycle_s = 0.25
    N_ALPHA = 24
    N_T = 41
    CHOI_EVERY = 4  # Choi cross-check on every 4th t of a row

    def __init__(self, seed: int):
        super().__init__(seed)
        self.step = (np.pi / 4) / self.N_ALPHA
        self.labels = [f"alpha~{(k + 0.5) * self.step:.4f}" for k in range(self.N_ALPHA)]

    def ops(self, cycle: int) -> list:
        rng = self.rng(cycle)
        # One alpha per cell of a uniform grid on (0, pi/4), kept away from both ends.
        alphas = (np.arange(self.N_ALPHA) + 0.5 + rng.uniform(-0.3, 0.3, self.N_ALPHA)) * self.step
        ts = np.linspace(0.0, 1.0, self.N_T)
        ts[1:-1] += rng.uniform(-0.3, 0.3, self.N_T - 2) / (self.N_T - 1)
        row = [(float(t), _povm_targets(float(t))) for t in ts]
        return [(float(a), row) for a in alphas]

    def inputs(self) -> dict:
        ops = self.ops(0)
        return {"cycle_0": {"alpha": [alpha for alpha, _ in ops], "t": [t for t, _ in ops[0][1]]}}

    def run_op(self, op, call, tally: harness.Tally) -> None:
        alpha, row = op
        pair = call("qubit", qt.symmetric_pair, alpha)
        ens = call("instruments", qt.Ensemble.equal_pair, pair)
        for j, (t, targets) in enumerate(row):
            where = f"alpha={alpha!r}, t={t!r}"
            pt = call("tradeoff", qt.tradeoff_point, alpha, t)
            norm = call("tradeoff", qt.normalized, alpha, pt.P, pt.D)
            residual = call("tradeoff", qt.tradeoff_identity_residual, alpha, norm.info, norm.dist)
            expect(abs(residual) <= IDENTITY_TOL, f"identity residual {residual:.3g} at {where}")
            inst = call("tradeoff", qt.optimal_instrument, alpha, t)
            elements = call("instruments", qt.povm, inst)
            p = call("instruments", qt.success_probability, inst, ens)
            d = call("instruments", qt.disturbance, inst, ens)
            expect(_povm_deviation(elements, targets) <= POVM_TOL, f"POVM mixture at {where}")
            expect(abs(p - pt.P) <= REPRESENTATION_TOL and abs(d - pt.D) <= REPRESENTATION_TOL,
                   f"Kraus P, D = {p}, {d} against closed form {pt.P}, {pt.D} at {where}")
            if j % self.CHOI_EVERY == 0:
                r1 = call("choi", qt.kraus_to_choi, inst.outcomes[0])
                r2 = call("choi", qt.kraus_to_choi, inst.outcomes[1])
                p_choi, d_choi = call("choi", qt.choi_functionals, r1, r2, pair)
                expect(abs(p_choi - p) <= REPRESENTATION_TOL and abs(d_choi - d) <= REPRESENTATION_TOL,
                       f"Choi P, D = {p_choi}, {d_choi} against Kraus {p}, {d} at {where}")


WORKLOADS = {w.name: w for w in (CliStartup, OracleVerify, MonteCarlo, ClosedFormSweep)}
