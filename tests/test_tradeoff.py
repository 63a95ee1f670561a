"""Closed-form results: Helstrom optimum, tilts, optimal family, normalized identity."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    disturbance,
    helstrom_min_disturbance,
    helstrom_probability,
    no_feedback_instrument,
    normalized,
    optimal_instrument,
    povm,
    success_probability,
    symmetric_pair,
    tilt_disturbance,
    tilt_t,
    tradeoff_identity_residual,
    tradeoff_point,
)
from qtradeoff.tradeoff import curve_dist

PI8 = math.pi / 8
D_OPT_PI8 = (2 - math.sqrt(3)) / 4  # 0.0669872981077807
# pi/4, its float predecessor, and a point 1e-12 below it
NEAR_PI4 = (math.pi / 4, math.nextafter(math.pi / 4, 0.0), math.pi / 4 - 1e-12)


class TestHelstromProbability:
    def test_endpoints(self):
        assert helstrom_probability(0.0) == pytest.approx(1.0, abs=1e-15)
        assert helstrom_probability(math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_unbiased_value(self):
        assert helstrom_probability(PI8) == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            helstrom_probability(-0.2)


# The minimum-disturbance tilt of the minimum-error measurement, tilt_t at t = 1;
# its limit at a = pi/4 is TestTiltT.test_degenerate_corner_warns.
class TestOptimalTilt:
    def test_orthogonal_states_need_no_tilt(self):
        assert tilt_t(0.0, 1.0) == 0.0

    def test_unbiased_value(self):
        assert tilt_t(PI8, 1.0) == pytest.approx(math.atan(math.sqrt(2)) / 2, abs=1e-14)

    def test_tilt_never_below_alpha(self):
        for alpha in np.linspace(0.0, math.pi / 4 - 1e-9, 60):
            assert tilt_t(alpha, 1.0) >= alpha - 1e-12


class TestTiltDisturbance:
    def test_no_tilt_is_worse(self):
        # beta = alpha = pi/8: 1 - cos^2(pi/8) - sin^2(pi/8) sin^2(pi/4)
        expected = 1 - math.cos(PI8) ** 2 - math.sin(PI8) ** 2 * math.sin(math.pi / 4) ** 2
        assert tilt_disturbance(PI8, PI8) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.07322330470336316, abs=1e-12)

    def test_full_strength_tilt_attains_minimum(self):
        for alpha in (0.1, PI8, 0.5):
            beta = tilt_t(alpha, 1.0)
            d_star = tilt_disturbance(alpha, beta)
            assert d_star == pytest.approx(helstrom_min_disturbance(alpha), abs=1e-12)
            for other in np.linspace(beta - 0.2, beta + 0.2, 21):
                assert tilt_disturbance(alpha, other) >= d_star - 1e-12

    def test_zero_angle(self):
        assert tilt_disturbance(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, True, False])
    def test_non_finite_tilt_rejected(self, beta):
        with pytest.raises(ValueError, match="^beta must be finite"):
            tilt_disturbance(0.3, beta)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-4, 0.1, 0.5, 0.78, 0.785])
    def test_relative_accuracy_against_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        beta = tilt_t(alpha, 1.0)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            reference = 1 - mpmath.cos(a) ** 2 * mpmath.cos(b - a) ** 2 - mpmath.sin(a) ** 2 * mpmath.sin(a + b) ** 2
            rel = abs((mpmath.mpf(tilt_disturbance(alpha, beta)) - reference) / reference)
        assert rel <= 1e-14


class TestHelstromMinDisturbance:
    def test_endpoints_vanish(self):
        assert helstrom_min_disturbance(0.0) == pytest.approx(0.0, abs=1e-15)
        assert helstrom_min_disturbance(math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_unbiased_value(self):
        assert helstrom_min_disturbance(PI8) == pytest.approx(D_OPT_PI8, abs=1e-15)

    def test_maximum_at_unbiased_pair(self):
        grid = np.linspace(0.0, math.pi / 4, 2001)
        values = [helstrom_min_disturbance(a) for a in grid]
        assert abs(grid[int(np.argmax(values))] - PI8) <= grid[1] - grid[0]

    @pytest.mark.parametrize("alpha", [1e-2, 1e-4, 1e-6, 1e-8, PI8, math.pi / 4 - 1e-6])
    def test_relative_accuracy_against_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)  # the exact binary value of the float argument
            reference = (4 - mpmath.sqrt(14 + 2 * mpmath.cos(8 * a))) / 8
            rel = abs((mpmath.mpf(helstrom_min_disturbance(alpha)) - reference) / reference)
        assert rel <= 1e-13


class TestTiltT:
    def test_no_measurement_no_tilt(self):
        assert tilt_t(0.3, 0.0) == 0.0

    def test_full_strength_solves_the_tilt_equation(self):
        # tan 2b = tan 2a / cos 2a on the branch 2b in [0, pi/2]
        for alpha in np.linspace(1e-4, math.pi / 4 - 1e-4, 100):
            expected = 0.5 * math.atan(math.tan(2 * alpha) / math.cos(2 * alpha))
            assert abs(tilt_t(alpha, 1.0) - expected) <= 1e-12

    def test_half_strength_value(self):
        # tan 2b = (1/2) sin(pi/4) / (cos^2(pi/4) + sqrt(3)/2 sin^2(pi/4))
        expected = 0.5 * math.atan((0.5 * math.sin(math.pi / 4))
                                   / (0.5 + 0.5 * math.sqrt(3) / 2))
        assert expected == pytest.approx(0.18110907260582904, abs=1e-15)
        assert tilt_t(PI8, 0.5) == pytest.approx(expected, abs=1e-14)

    def test_degenerate_corner_warns(self):
        # no special case and no warning: arctan2 returns the pi/4 limit itself
        for alpha in NEAR_PI4:
            assert tilt_t(alpha, 1.0) == math.pi / 4

    def test_domain(self):
        with pytest.raises(ValueError):
            tilt_t(0.3, 1.5)


class TestOptimalInstrument:
    def test_no_measurement_is_identity_channel(self):
        inst = optimal_instrument(0.4, 0.0)
        for ops in inst.outcomes:
            np.testing.assert_allclose(ops[0], np.eye(2) / math.sqrt(2), atol=1e-12)

    def test_full_strength_is_measure_and_prepare(self):
        inst = optimal_instrument(PI8, 1.0)
        beta = tilt_t(PI8, 1.0)
        tilted1 = np.array([math.cos(beta), math.sin(beta)])
        tilted2 = np.array([math.sin(beta), math.cos(beta)])
        np.testing.assert_allclose(inst.outcomes[0][0], np.outer(tilted1, [1, 0]), atol=1e-12)
        np.testing.assert_allclose(inst.outcomes[1][0], np.outer(tilted2, [0, 1]), atol=1e-12)
        assert np.linalg.matrix_rank(inst.outcomes[0][0], tol=1e-10) == 1

    def test_povm_is_mixture_of_projective_and_random(self):
        for alpha in np.linspace(0.0, math.pi / 4, 20):
            for t in np.linspace(0.0, 1.0, 20):
                elements = povm(optimal_instrument(alpha, t))
                np.testing.assert_allclose(
                    elements[0], t * np.diag([1, 0]) + (1 - t) / 2 * np.eye(2), atol=1e-12)
                np.testing.assert_allclose(
                    elements[1], t * np.diag([0, 1]) + (1 - t) / 2 * np.eye(2), atol=1e-12)
        # near t = 0 the Kraus amplitude sqrt(1 - g) must not cancel
        for alpha in (0.1, PI8, 0.7):
            for t in (1e-12, 1e-8, 1e-6, 1e-4):
                elements = povm(optimal_instrument(alpha, t))
                for i in range(2):
                    target = t * np.diag([1 - i, i]) + (1 - t) / 2 * np.eye(2)
                    assert np.max(np.abs(elements[i] - target)) <= 1e-15, (alpha, t)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_instrument(1.0, 0.5)
        with pytest.raises(ValueError):
            optimal_instrument(0.3, -0.1)


class TestTradeoffPoint:
    # float() would take the bools as 0 and 1 and parse the strings; every
    # message starts with the parameter's name, which the CLI maps to its flag.
    @pytest.mark.parametrize("alpha, t, name", [
        (True, 0.5, "alpha"), (False, 0.5, "alpha"), ("0.3", 0.5, "alpha"), (-0.1, 0.5, "alpha"),
        (0.3, True, "t"), (0.3, False, "t"), (0.3, "0.5", "t"), (0.3, math.nan, "t"),
    ])
    def test_domain(self, alpha, t, name):
        for func in (tradeoff_point, tilt_t, optimal_instrument):
            with pytest.raises(ValueError, match=f"^{name} must"):
                func(alpha, t)

    def test_no_measurement_endpoint(self):
        pt = tradeoff_point(0.37, 0.0)
        assert (pt.P, pt.D) == (0.5, 0.0)

    def test_full_strength_endpoint(self):
        pt = tradeoff_point(PI8, 1.0)
        assert pt.P == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-12)
        assert pt.D == pytest.approx(D_OPT_PI8, abs=1e-12)

    def test_half_strength_point(self):
        # frozen from a direct evaluation of the closed forms at (pi/8, 1/2)
        pt = tradeoff_point(PI8, 0.5)
        assert pt.P == pytest.approx(0.6767766952966369, abs=1e-12)
        assert pt.D == pytest.approx(0.0011230858487688566, abs=1e-12)
        assert pt.beta_t == pytest.approx(0.18110907260582904, abs=1e-14)
        assert pt.gamma == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_success_probability_is_linear_in_t(self):
        for alpha in np.linspace(0.0, math.pi / 4, 15):
            for t in np.linspace(0.0, 1.0, 15):
                pt = tradeoff_point(alpha, t)
                assert abs(pt.P - (t * math.cos(alpha) ** 2 + (1 - t) / 2)) <= 1e-12

    def test_disturbance_nondecreasing_in_t(self):
        ts = np.arange(0.0, 1.0 + 1e-3, 1e-3)
        for alpha in (0.1, PI8, 0.4, 0.7):
            values = [tradeoff_point(alpha, min(t, 1.0)).D for t in ts]
            assert np.diff(values).min() >= -1e-12

    def test_disturbance_bounded_by_full_strength(self):
        for alpha in np.linspace(0.0, math.pi / 4, 12):
            d_max = helstrom_min_disturbance(alpha)
            for t in np.linspace(0.0, 1.0, 12):
                assert -1e-15 <= tradeoff_point(alpha, t).D <= d_max + 1e-12

    @pytest.mark.parametrize("alpha", [1e-8, 1e-5, 1e-3, 0.1, PI8, 0.7,
                                       math.pi / 4 - 1e-6, math.pi / 4 - 1e-9])
    def test_relative_accuracy_against_mpmath(self, alpha):
        # reference: the tilt-based form D = (1 - t sin 2a sin 2b)/2
        # + (cos 2b / 4)(g (cos 4a - 1) - cos 4a - 1), which cancels as t -> 0;
        # at 60 digits it loses up to 7e-12 there, so it is evaluated at 160
        mpmath = pytest.importorskip("mpmath")
        for t in (0.0, 1e-8, 1e-5, 1e-3, 0.5, 0.99, 1.0 - 1e-12, 1.0):
            with mpmath.workdps(160):
                a, tm = mpmath.mpf(alpha), mpmath.mpf(t)
                g = mpmath.sqrt(1 - tm * tm)
                s2, c4 = mpmath.sin(2 * a), mpmath.cos(4 * a)
                b = mpmath.atan2(tm * s2, mpmath.cos(2 * a) ** 2 + g * s2 ** 2) / 2
                reference = ((1 - tm * s2 * mpmath.sin(2 * b)) / 2
                             + (mpmath.cos(2 * b) / 4) * (g * (c4 - 1) - c4 - 1))
                d = tradeoff_point(alpha, t).D
                if reference == 0:
                    assert d == 0.0, t
                else:
                    assert abs((mpmath.mpf(d) - reference) / reference) <= 1e-13, t

    def test_matches_kraus_level_disturbance(self):
        # the instrument algebra reproduces the closed form across the grid
        for alpha in np.linspace(0.01, math.pi / 4 - 0.01, 20):
            ens = Ensemble.equal_pair(symmetric_pair(alpha))
            for t in np.linspace(0.0, 1.0, 20):
                inst = optimal_instrument(alpha, t)
                pt = tradeoff_point(alpha, t)
                assert abs(disturbance(inst, ens) - pt.D) <= 1e-10
                assert abs(success_probability(inst, ens) - pt.P) <= 1e-10


class TestNormalized:
    def test_info_equals_t_on_curve(self):
        for alpha in np.linspace(0.05, math.pi / 4 - 0.05, 12):
            for t in np.linspace(0.0, 1.0, 12):
                pt = tradeoff_point(alpha, t)
                norm = normalized(alpha, pt.P, pt.D)
                assert abs(norm.info - t) <= 1e-12

    def test_endpoints(self):
        pt1 = tradeoff_point(PI8, 1.0)
        n1 = normalized(PI8, pt1.P, pt1.D)
        assert (n1.info, n1.dist) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        pt0 = tradeoff_point(PI8, 0.0)
        n0 = normalized(PI8, pt0.P, pt0.D)
        assert (n0.info, n0.dist) == (0.0, 0.0)

    # 1e-170: D_opt underflows to 0. 1e-155 and 1e-160: D_opt is subnormal, and
    # D / D_opt would be 1.6e-12 and 0.9% off.
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 4, 1e-170, 1e-155, 1e-160])
    def test_degenerate_normalization_rejected(self, alpha):
        with pytest.raises(ValueError):
            normalized(alpha, 0.7, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["P", "D"])
    def test_non_finite_input_rejected(self, which, bad):
        p, d = (bad, 0.01) if which == "P" else (0.7, bad)
        with pytest.raises(ValueError, match="finite"):
            normalized(PI8, p, d)


class TestIdentityResidual:
    def test_zero_on_optimal_curve(self):
        for alpha in np.linspace(0.02, math.pi / 4 - 0.02, 25):
            for t in np.linspace(0.0, 1.0, 25):
                pt = tradeoff_point(alpha, t)
                norm = normalized(alpha, pt.P, pt.D)
                assert abs(tradeoff_identity_residual(alpha, norm.info, norm.dist)) <= 1e-9

    # D_opt is 0 at 1e-170 and 1e-300; the left side is formed from sqrt(D_opt) ~ alpha.
    @pytest.mark.parametrize("alpha", [1e-170, 1e-300])
    def test_zero_on_curve_at_tiny_alpha(self, alpha):
        for t in (0.1, 0.5, 0.9, 1.0):
            rhs = (math.sin(4 * alpha) / 4) * t * t / (1 + math.sqrt(1 - t * t))
            residual = tradeoff_identity_residual(alpha, t, curve_dist(alpha, t))
            assert abs(residual) <= 1e-12 * rhs, t

    def test_origin(self):
        assert tradeoff_identity_residual(PI8, 0.0, 0.0) == 0.0

    def test_no_feedback_witness_is_strictly_suboptimal(self):
        # same POVM as the optimal instrument, so same P; the missing feedback
        # rotation shows up as a strictly positive residual
        pair = symmetric_pair(PI8)
        ens = Ensemble.equal_pair(pair)
        witness = no_feedback_instrument(PI8, 0.5)
        p = success_probability(witness, ens)
        d = disturbance(witness, ens)
        assert p == pytest.approx(tradeoff_point(PI8, 0.5).P, abs=1e-12)
        assert d > tradeoff_point(PI8, 0.5).D
        norm = normalized(PI8, p, d)
        assert tradeoff_identity_residual(PI8, norm.info, norm.dist) > 1e-6

    def test_out_of_range_arguments(self):
        with pytest.raises(ValueError):
            tradeoff_identity_residual(PI8, 1.2, 0.5)
        for alpha in (0.0, math.pi / 4):
            with pytest.raises(ValueError, match="0 < alpha < pi/4"):
                tradeoff_identity_residual(alpha, 0.5, 0.5)
        # Overshoot by half of _RATIO_OVERSHOOT (1e-9) is clamped and by twice
        # it is rejected; literals, so that they pin its value. The other
        # argument is 0, so that the clamped one decides the residual.
        half, twice = 0.5e-9, 2e-9
        for value, clamped in ((-half, 0.0), (1.0 + half, 1.0)):
            assert (tradeoff_identity_residual(PI8, value, 0.0)
                    == tradeoff_identity_residual(PI8, clamped, 0.0))
            assert (tradeoff_identity_residual(PI8, 0.0, value)
                    == tradeoff_identity_residual(PI8, 0.0, clamped))
        for value in (-twice, 1.0 + twice):
            with pytest.raises(ValueError, match="^info must"):
                tradeoff_identity_residual(PI8, value, 0.0)
            with pytest.raises(ValueError, match="^dist must"):
                tradeoff_identity_residual(PI8, 0.0, value)
