"""Monte Carlo estimator: determinism, exact zero-disturbance cases, statistics."""
import math
import tracemalloc

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    Instrument,
    SimulationConfig,
    SimulationResult,
    disturbance,
    optimal_instrument,
    run,
    success_probability,
    symmetric_pair,
    tradeoff_point,
)
from qtradeoff.simulate import MAX_SHOTS, _cell_tables, _draw_counts

PI8 = math.pi / 8
IDENTITY = Instrument(outcomes=((np.eye(2, dtype=complex) / math.sqrt(2),),
                                (np.eye(2, dtype=complex) / math.sqrt(2),)))

# chi-squared 99.9% critical value, 3 degrees of freedom
CHI2_999_DF3 = 16.266


class TestConfig:
    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationConfig(shots=0, seed=1)

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**20, 1.5, 1e6, "10", True])
    def test_shots_must_be_an_int64_count(self, shots):
        with pytest.raises(ValueError):
            SimulationConfig(shots=shots, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.7, 1.0, "1", True, False])
    def test_seed_must_fit_in_uint64(self, seed):
        with pytest.raises(ValueError):
            SimulationConfig(shots=10, seed=seed)

    def test_single_shot_allowed(self):
        result = run(IDENTITY, symmetric_pair(0.3), SimulationConfig(shots=1, seed=5))
        assert result.shots == 1
        assert result.stderr_P == 0.0


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.7)
        cfg = SimulationConfig(shots=50000, seed=424242)
        assert run(inst, pair, cfg) == run(inst, pair, cfg)

    def test_different_seeds_differ(self):
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.7)
        a = run(inst, pair, SimulationConfig(shots=50000, seed=1))
        b = run(inst, pair, SimulationConfig(shots=50000, seed=2))
        assert a != b


class TestExactCases:
    def test_identity_instrument_never_disturbs(self):
        result = run(IDENTITY, symmetric_pair(0.37), SimulationConfig(shots=20000, seed=11))
        assert result.empirical_D == 0.0
        assert result.stderr_D == 0.0
        assert abs(result.empirical_P - 0.5) <= 4 * result.stderr_P

    def test_t_zero_never_disturbs(self):
        result = run(optimal_instrument(PI8, 0.0), symmetric_pair(PI8),
                     SimulationConfig(shots=20000, seed=3))
        assert result.empirical_D == 0.0


class TestStatistics:
    @pytest.mark.parametrize("t,shots", [(1.0, 1000000), (0.5, 1000000)])
    def test_matches_closed_form_within_four_sigma(self, t, shots):
        pair = symmetric_pair(PI8)
        result = run(optimal_instrument(PI8, t), pair, SimulationConfig(shots=shots, seed=2718))
        pt = tradeoff_point(PI8, t)
        assert abs(result.empirical_P - pt.P) <= 4 * result.stderr_P
        assert abs(result.empirical_D - pt.D) <= 4 * result.stderr_D

    def test_unbiased_over_seeds(self):
        # mean over independent seeds stays within 3 pooled standard errors
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.8)
        pt = tradeoff_point(PI8, 0.8)
        results = [run(inst, pair, SimulationConfig(shots=10000, seed=s)) for s in range(50)]
        mean_p = np.mean([r.empirical_P for r in results])
        pooled = math.sqrt(np.mean([r.stderr_P**2 for r in results]) / len(results))
        assert abs(mean_p - pt.P) <= 3 * pooled

    def test_outcome_frequencies_match_povm(self):
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.6)
        cfg = SimulationConfig(shots=1000000, seed=909)
        counts = _draw_counts(_cell_tables(inst, pair)[0], pair.priors, cfg)
        assert counts.sum() == cfg.shots
        from qtradeoff import povm
        elements = povm(inst)
        stat = 0.0
        for i, psi in enumerate(pair.states):
            for j in range(2):
                expected = cfg.shots * 0.5 * float(np.real(psi.conj() @ elements[j] @ psi))
                stat += (counts[i, j] - expected) ** 2 / expected
        assert stat < CHI2_999_DF3

    # The sent state is drawn by its prior: the estimates agree with the
    # prior-weighted Kraus functionals.
    @pytest.mark.parametrize("priors", [(0.3, 0.7), (0.9, 0.1)])
    def test_unequal_priors_match_the_functionals(self, priors):
        ens = Ensemble(priors=priors, states=symmetric_pair(0.3).states)
        inst = optimal_instrument(0.3, 0.6)
        result = run(inst, ens, SimulationConfig(shots=10**6, seed=31))
        assert abs(result.empirical_P - success_probability(inst, ens)) <= 6 * result.stderr_P
        assert abs(result.empirical_D - disturbance(inst, ens)) <= 6 * result.stderr_D

    def test_stderr_is_sample_std_over_sqrt_shots(self):
        result = run(optimal_instrument(PI8, 1.0), symmetric_pair(PI8),
                     SimulationConfig(shots=40000, seed=77))
        # success indicator is Bernoulli: reconstruct its sample std
        p_hat = result.empirical_P
        n = result.shots
        expected = math.sqrt(p_hat * (1 - p_hat) * n / (n - 1)) / math.sqrt(n)
        assert result.stderr_P == pytest.approx(expected, rel=1e-9)


class TestCountSampler:
    def test_cost_does_not_grow_with_shots(self):
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.5)
        run(inst, pair, SimulationConfig(shots=10, seed=1))  # finish lazy imports
        tracemalloc.start()
        try:
            result = run(inst, pair, SimulationConfig(shots=10**15, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert result.shots == 10**15
        assert abs(result.empirical_P - tradeoff_point(PI8, 0.5).P) <= 4 * result.stderr_P

    def test_largest_shot_count_runs(self):
        result = run(optimal_instrument(PI8, 1.0), symmetric_pair(PI8),
                     SimulationConfig(shots=MAX_SHOTS, seed=3))
        assert result.shots == MAX_SHOTS
        assert 0.0 < result.stderr_P < 1e-9

    def test_success_rate_is_diagonal_count_share(self):
        pair = symmetric_pair(PI8)
        inst = optimal_instrument(PI8, 0.6)
        cfg = SimulationConfig(shots=123457, seed=5)
        counts = _draw_counts(_cell_tables(inst, pair)[0], pair.priors, cfg)
        assert run(inst, pair, cfg).empirical_P == (counts[0, 0] + counts[1, 1]) / cfg.shots

    def test_estimators_match_per_shot_arrays(self):
        pair = symmetric_pair(0.3)
        inst = optimal_instrument(0.3, 0.7)
        cfg = SimulationConfig(shots=1000, seed=8)
        counts = _draw_counts(_cell_tables(inst, pair)[0], pair.priors, cfg).ravel()
        _, dist = _cell_tables(inst, pair)
        success = np.repeat(np.eye(2).ravel(), counts)
        per_shot_d = np.repeat(dist.ravel(), counts)
        result = run(inst, pair, cfg)
        n = cfg.shots
        assert result.empirical_P == pytest.approx(success.mean(), rel=1e-12)
        assert result.empirical_D == pytest.approx(per_shot_d.mean(), rel=1e-12)
        assert result.stderr_P == pytest.approx(success.std(ddof=1) / math.sqrt(n), rel=1e-12)
        assert result.stderr_D == pytest.approx(per_shot_d.std(ddof=1) / math.sqrt(n), rel=1e-12)

    def test_rounded_negative_cell_probability_is_clipped(self):
        # psi1 is sent to outcome 1 with certainty; its outcome-0 probability
        # is the square of an amplitude that rounds to about 1e-17
        pair = symmetric_pair(0.6)
        phi = np.array([-math.sin(0.6), math.cos(0.6)], dtype=complex)
        inst = Instrument(outcomes=((np.outer(phi, phi.conj()),),
                                    (np.outer(pair.states[0], pair.states[0].conj()),)))
        probs, _ = _cell_tables(inst, pair)
        assert 0.0 <= probs[0, 0] <= 1e-30
        cfg = SimulationConfig(shots=10000, seed=4)
        assert _draw_counts(_cell_tables(inst, pair)[0], pair.priors, cfg)[0, 0] == 0
        assert 0.0 < run(inst, pair, cfg).empirical_P < 1.0

    def test_cells_summing_above_one_are_renormalized(self):
        # completeness holds to 4e-11, inside Instrument's tolerance; psi2
        # always gives outcome 0, so the four cells sum to about 1 + 2e-11
        pair = symmetric_pair(0.6)
        perp = np.array([-math.cos(0.6), math.sin(0.6)], dtype=complex)
        inst = Instrument(outcomes=(
            (math.sqrt(1 + 4e-11) * np.outer(pair.states[1], pair.states[1].conj()),),
            (np.outer(perp, perp.conj()),)))
        counts = _draw_counts(_cell_tables(inst, pair)[0], pair.priors, SimulationConfig(shots=10000, seed=4))
        assert counts.sum() == 10000
        assert counts[1, 1] == 0


class TestValidation:
    def test_requires_two_outcomes(self):
        third = Instrument(outcomes=(
            (np.eye(2, dtype=complex) / math.sqrt(3),),
            (np.eye(2, dtype=complex) / math.sqrt(3),),
            (np.eye(2, dtype=complex) / math.sqrt(3),),
        ))
        with pytest.raises(ValueError):
            run(third, symmetric_pair(0.3), SimulationConfig(shots=10, seed=0))

    def test_result_is_plain_record(self):
        result = run(IDENTITY, symmetric_pair(0.3), SimulationConfig(shots=10, seed=0))
        assert isinstance(result, SimulationResult)
        assert result.seed == 0
        assert 0.0 <= result.empirical_P <= 1.0
        assert 0.0 <= result.empirical_D <= 1.0
