"""Instrument algebra: outcome maps, POVMs, information and disturbance."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    ID2,
    Instrument,
    choi_functionals,
    disturbance,
    kraus_to_choi,
    optimal_instrument,
    partial_trace_first,
    povm,
    projector,
    success_probability,
    symmetric_pair,
    tilt_t,
)
from qtradeoff.instruments import cell_tables
from qtradeoff.simulate import _cell_tables

from conftest import (
    curve_disturbance_reference,
    random_instrument,
    random_state,
    random_unitary,
)

EPS = float(np.finfo(float).eps)
HALF = 1.0 / math.sqrt(2)
COS2_PI8 = math.cos(math.pi / 8) ** 2  # 0.8535533905932737


def identity_instrument():
    return Instrument(outcomes=((HALF * ID2,), (HALF * ID2,)))


class TestConstruction:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            Instrument(outcomes=((ID2,), (ID2,)))

    def test_empty_outcome_rejected(self):
        with pytest.raises(ValueError):
            Instrument(outcomes=((), (ID2,)))

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

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ensemble(priors=(0.5, 0.5), states=([1, 1], [1, 0]))

    # The norm is checked on the plain entries, within ATOL_ALGEBRAIC (1e-12).
    def test_norm_tolerance_and_shape(self):
        for scale, admitted in ((1 + 1e-13, True), (1 + 1e-11, False)):
            states = ([scale, 0], [0, 1])
            if admitted:
                Ensemble(priors=(0.5, 0.5), states=states)
            else:
                with pytest.raises(ValueError, match="^states must be normalized"):
                    Ensemble(priors=(0.5, 0.5), states=states)
        with pytest.raises(ValueError, match="^states must be 2-component vectors"):
            Ensemble(priors=(1.0,), states=([1, 0, 0],))

    # float() would take the bools as 1 and 0 and parse the strings.
    @pytest.mark.parametrize("priors", [(True, False), ("0.5", "0.5"), (np.bool_(True), 0.0),
                                        (0.5 + 0j, 0.5)])
    def test_priors_must_be_real_numbers(self, priors):
        with pytest.raises(ValueError, match="^priors must be a real number"):
            Ensemble(priors=priors, states=([1, 0], [0, 1]))

    def test_equal_pair_keeps_states_and_alpha(self):
        pair = symmetric_pair(0.3)
        ens = Ensemble.equal_pair(Ensemble(priors=(0.9, 0.1), states=pair.states, alpha=0.3))
        assert ens.priors == (0.5, 0.5) and ens.alpha == 0.3
        assert all(np.array_equal(a, b) for a, b in zip(ens.states, pair.states))


NAN = math.nan
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))
# Choi operator of half the identity channel, |Om><Om|/2; two of them are trace preserving.
_IDENTITY_CHOI = 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)


_CHOI_ENTRIES = tuple((i, j) for i in range(4) for j in range(4))


def _with_nan(m, index, value=NAN):
    m = np.array(m, dtype=complex)
    m[index] = value
    return m


# Every validator is written so that NaN fails it; with `err > tol` a NaN
# error compared false and the input was accepted.
@pytest.mark.parametrize("build", [
    lambda: Ensemble(priors=(NAN, 1.0), states=([1, 0], [0, 1])),
    lambda: Ensemble(priors=(1.0,), states=([NAN, 0],)),
    lambda: Ensemble(priors=(0.5, 0.5), states=([NAN, NAN], [NAN, NAN]), alpha=0.3),
    lambda: Ensemble(priors=(0.5, 0.5), states=symmetric_pair(0.3).states, alpha=NAN),
    lambda: Instrument(outcomes=((np.array([[NAN, 0], [0, 1]]),), (np.diag([0.0, 1.0]),))),
    lambda: choi_functionals(np.full((4, 4), NAN), np.full((4, 4), NAN), symmetric_pair(0.3)),
    # A NaN in any entry, not only the first one a check compares: max() over
    # Python floats skips a NaN that is not its first argument.
    *(lambda index=index: Instrument(outcomes=((_with_nan(ID2, index),),)) for index in _ENTRIES),
    *(lambda index=index: Instrument(outcomes=((_with_nan(np.diag([1.0, 0.0]), index),),
                                               (np.diag([0.0, 1.0]),)))
      for index in _ENTRIES),
    lambda: choi_functionals(_with_nan(_IDENTITY_CHOI, (0, 1)), _IDENTITY_CHOI, symmetric_pair(0.3)),
    lambda: choi_functionals(_IDENTITY_CHOI, _with_nan(_IDENTITY_CHOI, (3, 2)), symmetric_pair(0.3)),
    # Every entry of R1, also those the trace-preserving check does not read, such as (0, 3).
    *(lambda index=index: choi_functionals(_with_nan(_IDENTITY_CHOI, index), _IDENTITY_CHOI,
                                           symmetric_pair(0.3))
      for index in _CHOI_ENTRIES),
    lambda: choi_functionals(_with_nan(_IDENTITY_CHOI, (0, 3), complex(0.0, NAN)), _IDENTITY_CHOI,
                             symmetric_pair(0.3)),
    lambda: choi_functionals(_with_nan(_IDENTITY_CHOI, (0, 3), math.inf), _IDENTITY_CHOI,
                             symmetric_pair(0.3)),
    lambda: choi_functionals(_with_nan(_IDENTITY_CHOI, (1, 2), -math.inf),
                             _with_nan(_IDENTITY_CHOI, (1, 2), math.inf), symmetric_pair(0.3)),
], ids=["ensemble-prior", "state", "pair-states", "pair-alpha", "kraus-entry", "choi",
        *(f"identity-kraus-entry-{i}{j}" for i, j in _ENTRIES),
        *(f"projective-kraus-entry-{i}{j}" for i, j in _ENTRIES),
        "choi-off-diagonal-01", "choi-off-diagonal-32",
        *(f"choi-entry-{i}{j}" for i, j in _CHOI_ENTRIES),
        "choi-imaginary-nan-03", "choi-inf-03", "choi-opposite-inf-12"])
def test_nan_input_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestOptimalInstrument:
    def test_feedback_posterior_at_full_strength(self):
        # first outcome prepares the tilted state: posterior is the rotated basis ket
        pair = symmetric_pair(math.pi / 8)
        (e,), _ = optimal_instrument(math.pi / 8, 1.0).outcomes
        out = e @ projector(pair.states[0]) @ e.conj().T
        p = np.trace(out).real
        assert p == pytest.approx(COS2_PI8, abs=1e-12)
        beta = tilt_t(math.pi / 8, 1.0)
        expected = projector(np.array([math.cos(beta), math.sin(beta)], dtype=complex))
        np.testing.assert_allclose(out / p, expected, atol=1e-12)


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
                assert np.linalg.eigvalsh(el)[0] >= -1e-10


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
        beta = tilt_t(alpha, 1.0)
        t1 = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
        t2 = np.array([math.sin(beta), math.cos(beta)], dtype=complex)
        e1 = np.outer(t1, [1, 0])
        e2 = np.outer(t2, [0, 1])
        inst = Instrument(outcomes=((e1,), (e2,)))
        expected = 1.0 - 0.5 * sum(
            abs(np.vdot(psi, e @ psi)) ** 2
            for psi in pair.states for e in (e1, e2)
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


def _random_ensemble(rng):
    prior = float(rng.uniform(0.05, 0.95))
    return Ensemble(priors=(prior, 1.0 - prior), states=(random_state(rng), random_state(rng)))


class TestScalarFunctionalsMatchNumpyExpressions:
    """The scalar functionals against the numpy expressions they replaced, on complex multi-Kraus input."""

    @staticmethod
    def _cases(rng):
        for _ in range(12):
            yield random_instrument(rng, kraus_counts=(4, 4)), _random_ensemble(rng)
            yield random_instrument(rng, kraus_counts=(3, 2)), _random_ensemble(rng)

    def test_povm_success_probability_and_disturbance(self, rng):
        for inst, ens in self._cases(rng):
            elements = [sum(e.conj().T @ e for e in ops) for ops in inst.outcomes]
            for got, want in zip(povm(inst), elements):
                assert got.dtype == complex and got.shape == (2, 2)
                np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS)
            p = sum(prior * float(np.real(psi.conj() @ pi @ psi))
                    for prior, psi, pi in zip(ens.priors, ens.states, elements))
            assert abs(success_probability(inst, ens) - p) <= 4 * EPS
            leaks = np.array([[sum(abs(np.vdot([-psi[1].conj(), psi[0].conj()], e @ psi)) ** 2 for e in ops)
                               for ops in inst.outcomes] for psi in ens.states])
            assert abs(disturbance(inst, ens) - float(np.dot(ens.priors, leaks.sum(axis=1)))) <= 4 * EPS

    def test_cell_tables_bit_identical(self, rng):
        # The loop cell_tables ran over numpy arrays; the simulator's draws depend on every bit.
        for inst, ens in self._cases(rng):
            probs = np.zeros((len(ens.states), inst.n_outcomes))
            leaks = np.zeros_like(probs)
            for i, (a, b) in enumerate(s.tolist() for s in ens.states):
                for j, ops in enumerate(inst.outcomes):
                    for (e00, e01), (e10, e11) in (e.tolist() for e in ops):
                        out0, out1 = e00 * a + e01 * b, e10 * a + e11 * b
                        amp = e10 * a * a - e01 * b * b - (e00 - e11) * a * b
                        probs[i, j] += abs(out0) ** 2 + abs(out1) ** 2
                        leaks[i, j] += abs(amp) ** 2
            got_probs, got_leaks = cell_tables(inst, ens)
            assert got_probs.dtype == float and np.array_equal(got_probs, probs)
            assert got_leaks.dtype == float and np.array_equal(got_leaks, leaks)

    def test_choi_functionals(self, rng):
        for k in range(12):
            inst = random_instrument(rng, kraus_counts=(4, 4))
            r1, r2 = (kraus_to_choi(ops) for ops in inst.outcomes)
            alpha = float(rng.uniform(0.0, math.pi / 4))
            pair = symmetric_pair(alpha)
            if k % 2:
                phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi))
                pair = Ensemble(priors=(0.5, 0.5), states=[phase * psi for psi in pair.states], alpha=alpha)
            total = r1 + r2
            p = d = 0.0
            for psi, r in zip(pair.states, (r1, r2)):
                c = psi.conj()
                qc = np.outer([-c[1], c[0]], c).reshape(4)
                p += 0.5 * float(np.vdot(c, partial_trace_first(r) @ c).real)
                d += 0.5 * float(np.vdot(qc, total @ qc).real)
            got_p, got_d = choi_functionals(r1, r2, pair)
            assert abs(got_p - p) <= 8 * EPS and abs(got_d - d) <= 8 * EPS

    def test_povm_returns_fresh_arrays(self, rng):
        inst = random_instrument(rng, kraus_counts=(2, 1))
        first = povm(inst)
        expected = [pi.copy() for pi in first]
        first[0][0, 0] = 7.0
        first[1][:] = 0.0
        for got, want in zip(povm(inst), expected):
            np.testing.assert_array_equal(got, want)
