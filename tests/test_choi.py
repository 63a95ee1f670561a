"""Choi representation: Kraus to Choi, the output partial trace, symmetrization, functionals."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    ID2,
    Instrument,
    SIGMA_XX,
    choi_functionals,
    disturbance,
    kraus_to_choi,
    optimal_instrument,
    partial_trace_first,
    projector,
    success_probability,
    symmetric_pair,
    symmetrize,
)
from qtradeoff.choi import OMEGA
from qtradeoff.qubit import OPERATOR_ATOL

from conftest import random_instrument

OMEGA_PROJ = np.outer(OMEGA, OMEGA.conj())


UNEQUAL_PRIORS = [(0.3, 0.7), (0.9, 0.1)]


def _check_kraus_functionals(rng, priors):
    """choi_functionals within 1e-10 of the Kraus functionals on random instruments."""
    ens = Ensemble(priors=priors, states=symmetric_pair(0.42).states)
    for _ in range(20):
        inst = random_instrument(rng, kraus_counts=(2, 2))
        p, d = choi_functionals(*instrument_chois(inst), ens)
        assert p == pytest.approx(success_probability(inst, ens), abs=1e-10)
        assert d == pytest.approx(disturbance(inst, ens), abs=1e-10)


def _check_trace_form(rng, priors):
    """choi_functionals within 4 eps of the prior-weighted trace forms."""
    eps = np.finfo(float).eps
    for k in range(50):
        inst = random_instrument(rng, kraus_counts=(1 + k % 2, 1 + k // 2 % 2))
        r1, r2 = instrument_chois(inst)
        ens = Ensemble(priors=priors, states=symmetric_pair(rng.uniform(0.0, math.pi / 4)).states)
        p_ref = d_ref = 0.0
        for prior, psi, r in zip(priors, ens.states, (r1, r2)):
            proj = projector(psi).conj()
            perp = projector(np.array([-psi[1].conj(), psi[0].conj()]))
            p_ref += prior * np.trace(np.kron(ID2, proj) @ r).real
            d_ref += prior * np.trace(np.kron(perp, proj) @ (r1 + r2)).real
        p, d = choi_functionals(r1, r2, ens)
        assert abs(p - p_ref) <= 4 * eps
        assert abs(d - d_ref) <= 4 * eps


def instrument_chois(inst):
    return tuple(kraus_to_choi(ops) for ops in inst.outcomes)


class TestKrausToChoi:
    def test_identity_map(self):
        r = kraus_to_choi([ID2])
        np.testing.assert_allclose(r, OMEGA_PROJ, atol=1e-15)
        assert np.trace(r).real == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.matrix_rank(r) == 1

    def test_rank_one_projector(self):
        r = kraus_to_choi([np.diag([1, 0]).astype(complex)])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(r, expected)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 1.0])
    def test_total_map_trace_preserving(self, t):
        r1, r2 = instrument_chois(optimal_instrument(0.5, t))
        np.testing.assert_allclose(partial_trace_first(r1 + r2), ID2, atol=1e-12)

    def test_psd_by_construction(self, rng):
        inst = random_instrument(rng, kraus_counts=(2, 2))
        for r in instrument_chois(inst):
            assert np.linalg.eigvalsh(r)[0] >= -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            kraus_to_choi([])


class TestPartialTraces:
    def test_omega_marginals(self):
        np.testing.assert_allclose(partial_trace_first(OMEGA_PROJ), ID2, atol=1e-15)

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0])
    def test_first_outcome_marginal_is_transposed_povm(self, t):
        r1, _ = instrument_chois(optimal_instrument(math.pi / 8, t))
        np.testing.assert_allclose(partial_trace_first(r1),
                                   np.diag([(1 + t) / 2, (1 - t) / 2]), atol=1e-12)

    def test_swap_conjugation_restores_completeness(self):
        r1, _ = instrument_chois(optimal_instrument(0.4, 0.7))
        total = r1 + SIGMA_XX @ r1 @ SIGMA_XX
        np.testing.assert_allclose(partial_trace_first(total), ID2, atol=1e-12)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            partial_trace_first(ID2)


class TestSymmetrize:
    def test_symmetric_pair_is_fixed_point(self):
        r1, r2 = instrument_chois(optimal_instrument(0.3, 0.6))
        s1, s2 = symmetrize(r1, r2)
        np.testing.assert_allclose(s1, r1, atol=1e-12)
        np.testing.assert_allclose(s2, r2, atol=1e-12)

    def test_output_satisfies_swap_symmetry(self, rng):
        inst = random_instrument(rng, kraus_counts=(2, 2))
        s1, s2 = symmetrize(*instrument_chois(inst))
        np.testing.assert_allclose(s2, SIGMA_XX @ s1 @ SIGMA_XX, atol=1e-12)

    def test_preserves_functionals(self, rng):
        pair = symmetric_pair(0.35)
        for _ in range(10):
            inst = random_instrument(rng, kraus_counts=(2, 1))
            r1, r2 = instrument_chois(inst)
            before = choi_functionals(r1, r2, pair)
            after = choi_functionals(*symmetrize(r1, r2), pair)
            np.testing.assert_allclose(after, before, atol=1e-10)

    def test_zero_map_averages_with_channel(self):
        r = kraus_to_choi([ID2])
        zero = np.zeros((4, 4), dtype=complex)
        s1, s2 = symmetrize(zero, r)
        np.testing.assert_allclose(s1, 0.5 * SIGMA_XX @ r @ SIGMA_XX, atol=1e-15)
        np.testing.assert_allclose(s2, 0.5 * r, atol=1e-15)


class TestChoiFunctionals:
    def test_identity_split(self):
        pair = symmetric_pair(0.3)
        p, d = choi_functionals(OMEGA_PROJ / 2, OMEGA_PROJ / 2, pair)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_full_strength_values(self):
        pair = symmetric_pair(math.pi / 8)
        r1, r2 = instrument_chois(optimal_instrument(math.pi / 8, 1.0))
        p, d = choi_functionals(r1, r2, pair)
        assert p == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
        assert d == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-12)

    def test_matches_kraus_functionals_on_random_instruments(self, rng):
        _check_kraus_functionals(rng, (0.5, 0.5))

    @pytest.mark.parametrize("priors", UNEQUAL_PRIORS)
    def test_matches_kraus_functionals_at_unequal_priors(self, rng, priors):
        _check_kraus_functionals(rng, priors)

    # The quadratic forms <c| Tr_1 R |c> and <q (x) c| R |q (x) c> against the
    # trace forms Tr[(1 (x) |c><c|) R] and Tr[(|q><q| (x) |c><c|) R] they equal.
    def test_matches_trace_form(self, rng):
        _check_trace_form(rng, (0.5, 0.5))

    @pytest.mark.parametrize("priors", UNEQUAL_PRIORS)
    def test_matches_trace_form_at_unequal_priors(self, rng, priors):
        _check_trace_form(rng, priors)

    def test_needs_two_states(self):
        ens = Ensemble(priors=(1.0,), states=([1, 0],))
        with pytest.raises(ValueError, match="^ens must hold two states"):
            choi_functionals(OMEGA_PROJ / 2, OMEGA_PROJ / 2, ens)

    def test_trace_preservation_enforced(self):
        pair = symmetric_pair(0.3)
        with pytest.raises(ValueError):
            choi_functionals(OMEGA_PROJ, OMEGA_PROJ, pair)

    # The Kraus and Choi routes admit the same instruments: the identity
    # instrument, split over two outcomes, with a completeness error of half
    # the operator tolerance passes both checks, and twice it fails both.
    @pytest.mark.parametrize("entry", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("scale, admitted", [(0.5, True), (2.0, False)])
    def test_kraus_and_choi_routes_admit_the_same_instruments(self, entry, scale, admitted):
        delta = scale * OPERATOR_ATOL
        h = math.sqrt(0.5)
        # sum over both outcomes of E^† E is 1 plus delta in entry (0, 0), or in (0, 1).
        if entry == "diagonal":
            e = np.array([[math.sqrt((1.0 + delta) / 2.0), 0.0], [0.0, h]])
        else:
            e = np.array([[h, delta * h], [0.0, h]])
        r = kraus_to_choi([e])
        if admitted:
            Instrument(outcomes=((e,), (e,)))
            choi_functionals(r, r, symmetric_pair(0.3))
        else:
            with pytest.raises(ValueError, match="completeness"):
                Instrument(outcomes=((e,), (e,)))
            with pytest.raises(ValueError, match="trace preserving"):
                choi_functionals(r, r, symmetric_pair(0.3))

