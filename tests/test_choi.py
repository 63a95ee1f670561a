"""Choi representation: conversions, partial traces, symmetrization, functionals."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    ID2,
    SIGMA_XX,
    choi_apply,
    choi_functionals,
    choi_to_kraus,
    disturbance,
    kraus_to_choi,
    min_eigenvalue_hermitian,
    optimal_instrument,
    partial_trace_first,
    partial_trace_second,
    projector,
    success_probability,
    symmetric_pair,
    symmetrize,
)
from qtradeoff.choi import OMEGA

from conftest import random_density, random_instrument, random_state

OMEGA_PROJ = np.outer(OMEGA, OMEGA.conj())


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
            assert min_eigenvalue_hermitian(r) >= -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            kraus_to_choi([])


class TestChoiApply:
    def test_identity_choi_acts_trivially(self, rng):
        for _ in range(5):
            rho = random_density(rng)
            np.testing.assert_allclose(choi_apply(OMEGA_PROJ, rho), rho, atol=1e-12)

    def test_projector_map_weight(self):
        pair = symmetric_pair(math.pi / 8)
        r = kraus_to_choi([np.diag([1, 0]).astype(complex)])
        out = choi_apply(r, projector(pair.psi1))
        np.testing.assert_allclose(out, math.cos(math.pi / 8) ** 2 * np.diag([1, 0]), atol=1e-12)

    def test_round_trip_matches_kraus_action(self, rng):
        for _ in range(20):
            inst = random_instrument(rng, kraus_counts=(2, 1))
            rho = random_density(rng)
            for ops in inst.outcomes:
                direct = sum(e @ rho @ e.conj().T for e in ops)
                np.testing.assert_allclose(choi_apply(kraus_to_choi(ops), rho), direct, atol=1e-10)

    def test_round_trip_on_matrix_units(self, rng):
        # spanning set: the map is pinned by its action on the four matrix units
        inst = random_instrument(rng, kraus_counts=(1, 2))
        ops = inst.outcomes[1]
        r = kraus_to_choi(ops)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                hermitian_pair = (unit + unit.conj().T, 1j * (unit - unit.conj().T))
                for h in hermitian_pair:
                    direct = sum(e @ h @ e.conj().T for e in ops)
                    np.testing.assert_allclose(choi_apply(r, h), direct, atol=1e-10)

    def test_rejects_non_hermitian_rho(self):
        with pytest.raises(ValueError):
            choi_apply(OMEGA_PROJ, np.array([[0, 1], [0, 0]], dtype=complex))


class TestPartialTraces:
    def test_omega_marginals(self):
        np.testing.assert_allclose(partial_trace_first(OMEGA_PROJ), ID2, atol=1e-15)
        np.testing.assert_allclose(partial_trace_second(OMEGA_PROJ), ID2, atol=1e-15)

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
        pair = symmetric_pair(0.42)
        ens = Ensemble.equal_pair(pair)
        for _ in range(20):
            inst = random_instrument(rng, kraus_counts=(2, 2))
            p, d = choi_functionals(*instrument_chois(inst), pair)
            assert p == pytest.approx(success_probability(inst, ens), abs=1e-10)
            assert d == pytest.approx(disturbance(inst, ens), abs=1e-10)

    # The quadratic forms <c| Tr_1 R |c> and <q (x) c| R |q (x) c> against the
    # trace forms Tr[(1 (x) |c><c|) R] and Tr[(|q><q| (x) |c><c|) R] they equal.
    def test_matches_trace_form(self, rng):
        eps = np.finfo(float).eps
        for k in range(50):
            inst = random_instrument(rng, kraus_counts=(1 + k % 2, 1 + k // 2 % 2))
            r1, r2 = instrument_chois(inst)
            pair = symmetric_pair(rng.uniform(0.0, math.pi / 4))
            p_ref = d_ref = 0.0
            for psi, r in zip((pair.psi1, pair.psi2), (r1, r2)):
                proj = projector(psi).conj()
                perp = projector(np.array([-psi[1].conj(), psi[0].conj()]))
                p_ref += 0.5 * np.trace(np.kron(ID2, proj) @ r).real
                d_ref += 0.5 * np.trace(np.kron(perp, proj) @ (r1 + r2)).real
            p, d = choi_functionals(r1, r2, pair)
            assert abs(p - p_ref) <= 4 * eps
            assert abs(d - d_ref) <= 4 * eps

    def test_trace_preservation_enforced(self):
        pair = symmetric_pair(0.3)
        with pytest.raises(ValueError):
            choi_functionals(OMEGA_PROJ, OMEGA_PROJ, pair)


class TestChoiToKraus:
    def test_reconstructs_choi(self, rng):
        inst = random_instrument(rng, kraus_counts=(2, 2))
        r1, _ = instrument_chois(inst)
        ops = choi_to_kraus(r1)
        np.testing.assert_allclose(kraus_to_choi(ops), r1, atol=1e-10)

    def test_psd_choi_gives_cp_map(self, rng):
        # random PSD operator, marginal-normalized to trace preservation, must
        # map states to positive outputs after Kraus extraction
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            r = g @ g.conj().T
            marginal = partial_trace_first(r)
            vals, vecs = np.linalg.eigh(marginal)
            fix = (vecs / np.sqrt(vals)) @ vecs.conj().T
            r = np.kron(ID2, fix) @ r @ np.kron(ID2, fix).conj().T
            ops = choi_to_kraus(r)
            for _ in range(5):
                rho = random_density(rng)
                out = sum(e @ rho @ e.conj().T for e in ops)
                assert min_eigenvalue_hermitian(out, atol=1e-8) >= -1e-9

    def test_clamps_small_negative_eigenvalues(self):
        r = OMEGA_PROJ - 5e-11 * np.eye(4)
        ops = choi_to_kraus(r)
        np.testing.assert_allclose(kraus_to_choi(ops), OMEGA_PROJ, atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            choi_to_kraus(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))

    def test_single_kraus_for_pure_map(self):
        pair_ops = choi_to_kraus(kraus_to_choi([ID2]))
        assert len(pair_ops) == 1
        np.testing.assert_allclose(np.abs(pair_ops[0]), ID2, atol=1e-12)
