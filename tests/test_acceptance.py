"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
even when everything passes.
"""
import json
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    SimulationConfig,
    disturbance,
    helstrom_min_disturbance,
    helstrom_probability,
    no_feedback_instrument,
    normalized,
    optimal_instrument,
    povm,
    run,
    success_probability,
    symmetric_pair,
    tilt_t,
    tradeoff_identity_residual,
    tradeoff_point,
    verify_closed_form,
)
from qtradeoff.cli import main

PI8 = math.pi / 8


def _record(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_helstrom_endpoint():
    p_err = abs(helstrom_probability(PI8) - (0.5 + math.sqrt(2) / 4))
    d_err = abs(helstrom_min_disturbance(PI8) - (2 - math.sqrt(3)) / 4)
    _record("criterion 1 (Helstrom endpoint at pi/8)",
            p_err <= 1e-12 and d_err <= 1e-12,
            f"|P - 0.8535534| = {p_err:.2e}, |D - 0.0669873| = {d_err:.2e} (tol 1e-12)")


def test_criterion_02_tilt_consistency():
    grid = np.linspace(0.0, math.pi / 4, 102)[1:-1]
    # The paper's minimum-disturbance tilt: tan 2b = tan 2a / cos 2a, 2b in [0, pi/2].
    worst = max(abs(tilt_t(a, 1.0) - 0.5 * math.atan(math.tan(2 * a) / math.cos(2 * a)))
                for a in grid)
    _record("criterion 2 (tilt at t=1 equals minimum-disturbance tilt)",
            worst <= 1e-12, f"max deviation over 100 angles = {worst:.2e} (tol 1e-12)")


def test_criterion_03_tradeoff_identity_on_grid():
    alphas = np.linspace(0.0, math.pi / 4, 52)[1:-1]
    ts = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for alpha in alphas:
        for t in ts:
            pt = tradeoff_point(alpha, t)
            norm = normalized(alpha, pt.P, pt.D)
            worst = max(worst, abs(tradeoff_identity_residual(alpha, norm.info, norm.dist)))
    _record("criterion 3 (normalized identity holds on the optimal curve)",
            worst <= 1e-9, f"max |residual| over 50x50 grid = {worst:.2e} (tol 1e-9)")


def test_criterion_04_oracle_equivalence():
    worst_gap = 0.0
    worst_res = 0.0
    for alpha in (math.pi / 16, PI8, 3 * math.pi / 16):
        report = verify_closed_form(symmetric_pair(alpha), [0.0, 0.25, 0.5, 0.75, 1.0])
        worst_gap = max(worst_gap, report.max_gap)
        worst_res = max(worst_res, max(p.max_residual for p in report.points))
    _record("criterion 4 (oracle reproduces the closed-form curve)",
            worst_gap <= 1e-4 and worst_res <= 1e-6,
            f"max |D_oracle - D_closed| = {worst_gap:.2e} (tol 1e-4), "
            f"max feasibility residual = {worst_res:.2e} (tol 1e-6)")


def test_criterion_05_povm_mixture():
    worst = 0.0
    for alpha in np.linspace(0.0, math.pi / 4, 20):
        for t in np.linspace(0.0, 1.0, 20):
            elements = povm(optimal_instrument(alpha, t))
            for i in range(2):
                target = t * np.diag([1 - i, i]) + (1 - t) / 2 * np.eye(2)
                worst = max(worst, float(np.max(np.abs(elements[i] - target))))
    _record("criterion 5 (POVM is the projective/random convex mixture)",
            worst <= 1e-12, f"max entrywise deviation over 20x20 grid = {worst:.2e} (tol 1e-12)")


def test_criterion_06_cross_representation():
    from qtradeoff import choi_functionals, kraus_to_choi
    from conftest import random_instrument

    rng = np.random.default_rng(616)
    pair = symmetric_pair(0.33)
    ens = Ensemble.equal_pair(pair)
    worst = 0.0
    for k in range(50):
        counts = (1 + k % 3, 1 + (k // 3) % 2)
        inst = random_instrument(rng, kraus_counts=counts)
        p_choi, d_choi = choi_functionals(*(kraus_to_choi(ops) for ops in inst.outcomes), pair)
        worst = max(worst,
                    abs(p_choi - success_probability(inst, ens)),
                    abs(d_choi - disturbance(inst, ens)))
    _record("criterion 6 (Choi-level functionals equal Kraus-level functionals)",
            worst <= 1e-10, f"max deviation over 50 random instruments = {worst:.2e} (tol 1e-10)")


def test_criterion_07_maximal_disturbance_location():
    step = 1e-4
    grid = np.arange(0.0, math.pi / 4, step)
    values = [helstrom_min_disturbance(a) for a in grid]
    best = grid[int(np.argmax(values))]
    _record("criterion 7 (worst-case pair sits at pi/8)",
            abs(best - PI8) <= step,
            f"argmax = {best:.6f}, pi/8 = {PI8:.6f}, grid step {step}")


def test_criterion_08_monte_carlo(capsys):
    shots = 1000000
    worst_z = 0.0
    for t in (0.5, 1.0):
        pair = symmetric_pair(PI8)
        result = run(optimal_instrument(PI8, t), pair, SimulationConfig(shots=shots, seed=2024))
        pt = tradeoff_point(PI8, t)
        worst_z = max(worst_z,
                      abs(result.empirical_P - pt.P) / result.stderr_P,
                      abs(result.empirical_D - pt.D) / result.stderr_D)
    argv = ["simulate", "--fsq", "0.5", "--t", "1", "--shots", str(shots), "--seed", "2024"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    _record("criterion 8 (Monte Carlo matches closed forms; seeded output is byte-identical)",
            worst_z <= 4.0 and first == second and len(first) > 0,
            f"max |z| = {worst_z:.2f} (limit 4), identical bytes = {first == second}")


def test_criterion_09_curve_reproduction(capsys):
    ok = True
    details = []
    for fsq in (0.75, 0.5, 0.25):
        main(["curve", "--fsq", str(fsq), "--points", "201", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        rows = payload["points"]
        alpha = payload["alpha"]
        ps = [r["P"] for r in rows]
        ds = [r["D"] for r in rows]
        monotone = all(b >= a - 1e-15 for a, b in zip(ps, ps[1:])) and \
            all(b >= a - 1e-12 for a, b in zip(ds, ds[1:]))
        starts = abs(ps[0] - 0.5) <= 1e-10 and abs(ds[0]) <= 1e-10
        end_err = max(abs(ps[-1] - math.cos(alpha) ** 2),
                      abs(ds[-1] - helstrom_min_disturbance(alpha)))
        ok = ok and monotone and starts and end_err <= 1e-10
        details.append(f"f^2={fsq}: end deviation {end_err:.2e}")
    _record("criterion 9 (emitted curves start at (0.5, 0) and end on the Helstrom locus)",
            ok, "; ".join(details) + " (tol 1e-10)")


def test_criterion_10_suboptimal_witness():
    pair = symmetric_pair(PI8)
    ens = Ensemble.equal_pair(pair)
    witness = no_feedback_instrument(PI8, 0.5)
    p = success_probability(witness, ens)
    d = disturbance(witness, ens)
    norm = normalized(PI8, p, d)
    residual = tradeoff_identity_residual(PI8, norm.info, norm.dist)
    # at small t the optimal D ~ t^4 sin^2(4a)/64 is far below 1 - fidelity's
    # round-off, so only a cancellation-free disturbance can resolve the excess
    small_t = {t: (disturbance(no_feedback_instrument(PI8, t), ens), tradeoff_point(PI8, t).D)
               for t in (1e-3, 1e-5, 1e-8)}
    _record("criterion 10 (removing the feedback rotation is strictly suboptimal)",
            residual > 1e-6 and all(w > opt for w, opt in small_t.values()),
            f"identity residual = {residual:.3e} (must exceed 1e-6); witness D vs optimal D: "
            + ", ".join(f"t={t:g}: {w:.3e} > {opt:.3e}" for t, (w, opt) in small_t.items()))
