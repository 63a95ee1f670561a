"""Instrument algebra: outcome maps, POVMs, information and disturbance."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    ID2,
    Instrument,
    apply_outcome,
    choi_functionals,
    disturbance,
    kraus_to_choi,
    min_eigenvalue_hermitian,
    optimal_instrument,
    optimal_tilt,
    povm,
    projector,
    success_probability,
    symmetric_pair,
)
from qtradeoff.instruments import cell_tables
from qtradeoff.simulate import _cell_tables

from conftest import (
    curve_disturbance_reference,
    random_density,
    random_instrument,
    random_unitary,
)

EPS = float(np.finfo(float).eps)
HALF = 1.0 / math.sqrt(2)
COS2_PI8 = math.cos(math.pi / 8) ** 2  # 0.8535533905932737


def identity_instrument():
    return Instrument(outcomes=((HALF * ID2,), (HALF * ID2,)))


def von_neumann():
    return Instrument(outcomes=((np.diag([1, 0]).astype(complex),),
                                (np.diag([0, 1]).astype(complex),)))


class TestConstruction:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            Instrument(outcomes=((ID2,), (ID2,)))

    def test_empty_outcome_rejected(self):
        with pytest.raises(ValueError):
            Instrument(outcomes=((), (ID2,)))

    def test_purity_flag(self, rng):
        assert identity_instrument().is_pure
        assert not random_instrument(rng, kraus_counts=(2, 1)).is_pure

    def test_random_instruments_complete(self, rng):
        for counts in ((1, 1), (2, 2), (3, 1)):
            inst = random_instrument(rng, kraus_counts=counts)
            total = sum(e.conj().T @ e for ops in inst.outcomes for e in ops)
            np.testing.assert_allclose(total, ID2, atol=1e-10)


class TestEnsemble:
    def test_equal_pair(self):
        ens = Ensemble.equal_pair(symmetric_pair(0.3))
        assert ens.priors == (0.5, 0.5)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Ensemble(priors=(0.6, 0.6), states=([1, 0], [0, 1]))

    def test_negative_prior_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(priors=(-0.5, 1.5), states=([1, 0], [0, 1]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Ensemble(priors=(1.0,), states=([1, 0], [0, 1]))


class TestApplyOutcome:
    def test_identity_instrument_halves(self, rng):
        inst = identity_instrument()
        for _ in range(5):
            rho = random_density(rng)
            out, p = apply_outcome(inst, 0, rho)
            assert p == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(out, rho / 2, atol=1e-12)

    def test_projective_probability(self):
        pair = symmetric_pair(math.pi / 8)
        _, p = apply_outcome(von_neumann(), 0, projector(pair.psi1))
        assert p == pytest.approx(COS2_PI8, abs=1e-12)

    def test_feedback_posterior_at_full_strength(self):
        # first outcome prepares the tilted state: posterior is the rotated basis ket
        pair = symmetric_pair(math.pi / 8)
        inst = optimal_instrument(math.pi / 8, 1.0)
        out, p = apply_outcome(inst, 0, projector(pair.psi1))
        assert p == pytest.approx(COS2_PI8, abs=1e-12)
        beta = optimal_tilt(math.pi / 8)
        expected = projector(np.array([math.cos(beta), math.sin(beta)], dtype=complex))
        np.testing.assert_allclose(out / p, expected, atol=1e-12)

    def test_zero_probability_outcome(self):
        out, p = apply_outcome(von_neumann(), 0, projector(np.array([0, 1], dtype=complex)))
        assert p == 0.0
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_outcome_index_checked(self):
        with pytest.raises(IndexError):
            apply_outcome(identity_instrument(), 2, np.eye(2) / 2)

    def test_probabilities_sum_to_one(self, rng):
        for counts in ((1, 1), (2, 3)):
            inst = random_instrument(rng, kraus_counts=counts)
            rho = random_density(rng)
            total = sum(apply_outcome(inst, i, rho)[1] for i in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestPovm:
    def test_projective_for_full_strength(self):
        elements = povm(optimal_instrument(0.3, 1.0))
        np.testing.assert_allclose(elements[0], np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(elements[1], np.diag([0, 1]), atol=1e-12)

    def test_mixture_at_half_strength(self):
        elements = povm(optimal_instrument(math.pi / 8, 0.5))
        np.testing.assert_allclose(elements[0], np.diag([0.75, 0.25]), atol=1e-12)

    def test_elements_positive_and_complete(self, rng):
        for counts in ((1, 1), (2, 2)):
            inst = random_instrument(rng, kraus_counts=counts)
            elements = povm(inst)
            np.testing.assert_allclose(sum(elements), ID2, atol=1e-10)
            for el in elements:
                assert min_eigenvalue_hermitian(el) >= -1e-10


class TestSuccessProbability:
    def test_uninformative(self):
        ens = Ensemble.equal_pair(symmetric_pair(0.2))
        assert success_probability(identity_instrument(), ens) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, math.pi / 8, 0.6])
    def test_minimum_error_value(self, alpha):
        ens = Ensemble.equal_pair(symmetric_pair(alpha))
        p = success_probability(optimal_instrument(alpha, 1.0), ens)
        assert p == pytest.approx(math.cos(alpha) ** 2, abs=1e-12)

    def test_half_strength_value(self):
        # 0.5 * cos^2(pi/8) + 0.25
        ens = Ensemble.equal_pair(symmetric_pair(math.pi / 8))
        p = success_probability(optimal_instrument(math.pi / 8, 0.5), ens)
        assert p == pytest.approx(0.6767766952966369, abs=1e-12)

    def test_depends_only_on_povm(self, rng):
        # left-rotating every Kraus operator leaves the POVM unchanged
        ens = Ensemble.equal_pair(symmetric_pair(0.35))
        inst = random_instrument(rng, kraus_counts=(2, 2))
        p0 = success_probability(inst, ens)
        rotated = Instrument(outcomes=tuple(
            tuple(random_unitary(rng) @ e for e in ops) for ops in inst.outcomes
        ))
        assert success_probability(rotated, ens) == pytest.approx(p0, abs=1e-12)

    def test_size_mismatch(self):
        ens = Ensemble(priors=(1.0,), states=([1, 0],))
        with pytest.raises(ValueError):
            success_probability(identity_instrument(), ens)


class TestDisturbance:
    def test_identity_channel_is_undisturbing(self):
        ens = Ensemble.equal_pair(symmetric_pair(0.4))
        assert disturbance(identity_instrument(), ens) == pytest.approx(0.0, abs=1e-12)

    def test_full_strength_value(self):
        ens = Ensemble.equal_pair(symmetric_pair(math.pi / 8))
        d = disturbance(optimal_instrument(math.pi / 8, 1.0), ens)
        assert d == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-12)

    def test_half_strength_value(self):
        # frozen from a direct evaluation of the tilt and disturbance closed
        # forms at (pi/8, 1/2)
        ens = Ensemble.equal_pair(symmetric_pair(math.pi / 8))
        d = disturbance(optimal_instrument(math.pi / 8, 0.5), ens)
        assert d == pytest.approx(0.0011230858487688566, abs=1e-12)

    def test_pure_instrument_overlap_form(self):
        # single-Kraus instruments: D = 1 - (1/2) sum_{ij} |<psi_i|E_j|psi_i>|^2,
        # checked on the measure-and-prepare form E_j = |tilted_j><j|
        alpha = 0.3
        pair = symmetric_pair(alpha)
        beta = optimal_tilt(alpha)
        t1 = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
        t2 = np.array([math.sin(beta), math.cos(beta)], dtype=complex)
        e1 = np.outer(t1, [1, 0])
        e2 = np.outer(t2, [0, 1])
        inst = Instrument(outcomes=((e1,), (e2,)))
        expected = 1.0 - 0.5 * sum(
            abs(np.vdot(psi, e @ psi)) ** 2
            for psi in (pair.psi1, pair.psi2) for e in (e1, e2)
        )
        ens = Ensemble.equal_pair(pair)
        assert disturbance(inst, ens) == pytest.approx(expected, abs=1e-12)
        # at the optimal tilt this is exactly the minimum-error instrument
        from qtradeoff import helstrom_min_disturbance
        assert disturbance(inst, ens) == pytest.approx(helstrom_min_disturbance(alpha), abs=1e-12)

    def test_multi_kraus_channel_normalization(self, rng):
        # outcome-averaged channel of any instrument preserves trace, so the
        # disturbance stays in [0, 1]
        ens = Ensemble.equal_pair(symmetric_pair(0.25))
        for counts in ((2, 2), (3, 2)):
            d = disturbance(random_instrument(rng, kraus_counts=counts), ens)
            assert 0.0 <= d <= 1.0

    def test_size_mismatch(self):
        ens = Ensemble(priors=(1.0,), states=([1, 0],))
        with pytest.raises(ValueError):
            disturbance(identity_instrument(), ens)


class TestCellTables:
    def test_scalar_kraus_operators_leak_exactly_nothing(self):
        # the identity instrument, and the optimal one at t = 0
        for alpha in (0.0, 0.3, math.pi / 4):
            ens = Ensemble.equal_pair(symmetric_pair(alpha))
            for inst in (identity_instrument(), optimal_instrument(alpha, 0.0)):
                probs, leaks = cell_tables(inst, ens)
                np.testing.assert_allclose(probs, 0.5, atol=1e-15)
                assert np.all(leaks == 0.0)
                assert disturbance(inst, ens) == 0.0

    def test_leaks_sum_to_disturbance(self, rng):
        ens = Ensemble.equal_pair(symmetric_pair(0.25))
        inst = random_instrument(rng, kraus_counts=(2, 3))
        probs, leaks = cell_tables(inst, ens)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(leaks <= probs + 1e-15)
        assert disturbance(inst, ens) == pytest.approx(0.5 * leaks.sum(), abs=1e-15)


class TestDisturbanceAccuracy:
    """Kraus, simulator and Choi routes against a 60-digit reference of the curve.

    The Kraus amplitudes carry rounding of order eps, so the Kraus and
    simulator routes are held to 2 eps (sqrt(D) + eps); the Choi route works
    with R itself and is held to 2 eps absolute.
    """

    @pytest.mark.parametrize("alpha", [1e-8, 1e-5, 1e-3, 0.1, math.pi / 8, 0.7,
                                       math.pi / 4 - 1e-6, math.pi / 4 - 1e-9])
    def test_routes_against_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        pair = symmetric_pair(alpha)
        ens = Ensemble.equal_pair(pair)
        for t in (0.0, 1e-8, 1e-5, 1e-3, 0.5, 0.99, 1.0 - 1e-12, 1.0):
            inst = optimal_instrument(alpha, t)
            reference = curve_disturbance_reference(mpmath, alpha, t)
            bound = 2 * EPS * (float(mpmath.sqrt(reference)) + EPS)
            probs, dist = _cell_tables(inst, pair)
            for d in (disturbance(inst, ens), 0.5 * float(np.sum(probs * dist))):
                assert d >= 0.0, t
                assert abs(mpmath.mpf(d) - reference) <= bound, t
            _, d_choi = choi_functionals(*(kraus_to_choi(ops) for ops in inst.outcomes), pair)
            assert abs(mpmath.mpf(d_choi) - reference) <= 2 * EPS, t
