"""Optimization oracle: objective, constraints, maximize, verification report."""
import dataclasses
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    OracleConfig,
    constraint_residuals,
    kraus_to_choi,
    maximize,
    optimal_instrument,
    sigma_objective,
    symmetric_pair,
    tradeoff_point,
    verify_closed_form,
)
from qtradeoff import oracle as oracle_module
from qtradeoff import tradeoff as tradeoff_module
from qtradeoff.choi import OMEGA

from conftest import curve_disturbance_reference, shift_closed_form

PI8 = math.pi / 8
EPS = np.finfo(float).eps
CERTIFICATE_ALPHAS = [0.005, 0.02, math.pi / 16, PI8, 0.39, 3 * math.pi / 16, 0.77, 0.785, 0.7853]
SMALL_T = (1e-6, 1e-4, 1e-3, 1e-2)
# The t values of test_certificate_brackets_closed_form and the near-face points
# of test_certificate_where_dual_is_flat, for the cross-check against the numpy readers.
CERTIFICATE_TS = (0.0, *SMALL_T, 0.25, 0.5, 0.75, 0.99, 0.99049, 0.999, 0.9999, 1.0)
NEAR_FACE = [(math.pi / 4 - 1e-6, 0.99995), (math.pi / 4 - 1e-7, 0.99999), (math.pi / 4 - 1e-8, 0.99999),
             (math.pi / 4 - 1e-6, 1.0 - 1e-13), (math.pi / 4 - 1e-9, 1.0 - 1e-12)]


def closed_form_choi(alpha, t):
    return kraus_to_choi(optimal_instrument(alpha, t).outcomes[0])


class TestSigmaObjective:
    def test_orthogonal_pair_is_diagonal(self):
        sig = sigma_objective(symmetric_pair(0.0))
        np.testing.assert_allclose(sig, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)

    def test_trace_two_everywhere(self):
        for alpha in np.linspace(0.0, math.pi / 4, 20):
            sig = sigma_objective(symmetric_pair(alpha))
            assert np.trace(sig).real == pytest.approx(2.0, abs=1e-12)
            np.testing.assert_allclose(sig, sig.conj().T, atol=1e-14)

    def test_top_eigenvalue_from_gram_overlap(self):
        # two rank-1 terms with overlap f^2: spectrum top is 1 + f^2
        sig = sigma_objective(symmetric_pair(PI8))
        assert np.linalg.eigvalsh(sig)[-1] == pytest.approx(1.5, abs=1e-12)

    # The public reader of Sigma is the Kronecker sum bit for bit. The solve does
    # not read it: it forms its rank-one terms from the pair's entries, and
    # test_objective_and_residuals_match_the_public_readers holds its objective
    # within 4 eps of Tr[sigma_objective R1].
    @pytest.mark.parametrize("alpha", CERTIFICATE_ALPHAS)
    def test_bit_identical_to_kron_sum(self, alpha):
        pair = symmetric_pair(alpha)
        projectors = [np.outer(psi, psi.conj()).real for psi in pair.states]
        sig = sigma_objective(pair)
        assert sig.dtype == np.float64
        assert np.array_equal(sig, np.kron(projectors[0], projectors[0]) + np.kron(projectors[1], projectors[1]))


class TestConstraintResiduals:
    @pytest.mark.parametrize("alpha", [math.pi / 16, PI8])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_closed_form_is_feasible(self, alpha, t):
        pair = symmetric_pair(alpha)
        res = constraint_residuals(closed_form_choi(alpha, t), pair, t)
        assert max(abs(r) for r in res) <= 1e-10

    def test_success_target_simplifies_to_t(self):
        # Tr[(1 (x) sz) R1] of the closed form equals t exactly, which is the
        # simplified form of (2 P_t - 1)/cos 2a
        alpha, t = 0.3, 0.65
        pair = symmetric_pair(alpha)
        res = constraint_residuals(closed_form_choi(alpha, t), pair, t)
        assert abs(res[3]) <= 1e-12
        p = tradeoff_point(alpha, t).P
        assert (2 * p - 1) / math.cos(2 * alpha) == pytest.approx(t, abs=1e-12)

    def test_identity_half_at_t_zero(self):
        pair = symmetric_pair(PI8)
        omega_half = np.outer(OMEGA, OMEGA.conj()) / 2
        res = constraint_residuals(omega_half, pair, 0.0)
        np.testing.assert_allclose(res, (0.0, 0.0, 0.0, 0.0), atol=1e-14)

    def test_degenerate_angle_rejected(self):
        pair = symmetric_pair(math.pi / 4)
        with pytest.raises(ValueError):
            constraint_residuals(np.eye(4, dtype=complex) / 4, pair, 0.5)

    @pytest.mark.parametrize("r1", [np.triu(np.ones((4, 4))) / 4, np.eye(3) / 3],
                             ids=["non-hermitian", "3x3"])
    def test_rejects_non_hermitian_or_wrong_shape(self, r1):
        with pytest.raises(ValueError, match="4x4 Hermitian"):
            constraint_residuals(r1, symmetric_pair(PI8), 0.5)

    @pytest.mark.parametrize("t", [0.3, 0.9, 1.0 - 1e-9])
    def test_real_and_complex_inputs_agree(self, t):
        pair = symmetric_pair(0.3)
        r1 = maximize(pair, t).best_R1
        assert r1.dtype == np.float64
        real = constraint_residuals(r1, pair, t)
        cplx = constraint_residuals(r1.astype(complex), pair, t)
        np.testing.assert_allclose(real, cplx, rtol=0, atol=1e-15)


def top_eigenvalue(mpmath, states, y):
    """lambda_max(Sigma - y1 (1 (x) sx) - y2 (1 (x) sz)) at 40 digits, Sigma from the float states exactly."""
    with mpmath.workdps(40):
        u = [[mpmath.re(x * mpmath.conj(z)) for x, z in ((a, a), (a, b), (b, a), (b, b))]
             for a, b in ([mpmath.mpc(x) for x in psi] for psi in states)]
        m = mpmath.matrix(4, 4)
        for j in range(4):
            for k in range(4):
                m[j, k] = u[0][j] * u[0][k] + u[1][j] * u[1][k]
            m[j, j] -= y[1] if j % 2 == 0 else -y[1]
            m[j, j ^ 1] -= y[0]
        return max(mpmath.eigsy(m, eigvals_only=True))


def assert_certified(alpha, t):
    result = maximize(symmetric_pair(alpha), t)
    closed = tradeoff_point(alpha, t).D
    where = f"alpha={alpha}, t={t}"
    assert result.lower_bound_D <= closed + 1e-12, where
    assert abs(result.achieved_D - closed) <= 1e-4, where
    assert max(abs(r) for r in result.constraint_residuals) <= 1e-6, where
    assert 0.0 <= result.certified_gap <= 1e-6, where


def assert_exact(alpha, t):
    """Exact to rounding: residuals and |achieved_D - D_t| <= 1e-14, 0 <= certified_gap <= 64 eps."""
    result = maximize(symmetric_pair(alpha), t)
    closed = tradeoff_point(alpha, t).D
    where = f"alpha={alpha}, t={t}"
    assert result.lower_bound_D <= closed, where
    assert max(abs(r) for r in result.constraint_residuals) <= 1e-14, where
    assert abs(result.achieved_D - closed) <= 1e-14, where
    assert 0.0 <= result.certified_gap <= 64 * EPS, where


class TestMaximize:
    def test_full_strength_matches_minimum_disturbance(self):
        result = maximize(symmetric_pair(PI8), 1.0)
        assert result.achieved_D == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-4)

    def test_half_strength_matches_curve(self):
        result = maximize(symmetric_pair(PI8), 0.5)
        assert result.certified_gap <= 1e-6
        assert result.achieved_D == pytest.approx(0.0011230858487688566, abs=1e-4)

    def test_no_measurement_is_undisturbing(self):
        # t = 0 is solved exactly: the identity channel and one dual point
        for alpha in CERTIFICATE_ALPHAS:
            result = maximize(symmetric_pair(alpha), 0.0)
            assert result.constraint_residuals == (0.0, 0.0, 0.0, 0.0), alpha
            assert abs(result.achieved_D) <= 4 * EPS, alpha
            assert result.lower_bound_D <= 0.0, alpha
            assert 0.0 <= result.certified_gap <= 1e-14, alpha

    def test_no_measurement_skips_the_interior_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("t = 0 entered the interior solver")

        positive_definite = oracle_module._positive_definite
        calls = []
        for name in ("_circle_points", "_kkt_point"):
            monkeypatch.setattr(oracle_module, name, forbidden)
        monkeypatch.setattr(oracle_module, "_positive_definite",
                            lambda m: calls.append(m) or positive_definite(m))
        result = maximize(symmetric_pair(PI8), 0.0)
        assert len(calls) == 1
        np.testing.assert_array_equal(result.best_R1, np.outer(OMEGA, OMEGA).real / 2)

    def test_best_point_is_feasible(self):
        result = maximize(symmetric_pair(0.3), 0.7)
        assert max(abs(r) for r in result.constraint_residuals) <= 1e-6

    def test_never_beats_closed_form(self):
        for t in (0.25, 0.75, 1.0):
            result = maximize(symmetric_pair(PI8), t)
            assert result.achieved_D >= tradeoff_point(PI8, t).D - 1e-5

    def test_deterministic(self):
        pair = symmetric_pair(0.35)
        a = maximize(pair, 0.6)
        b = maximize(pair, 0.6)
        assert a.achieved_D == b.achieved_D
        np.testing.assert_array_equal(a.best_R1, b.best_R1)

    # At t = 1 the face's optimum is its own certificate, less the interior's
    # rounding allowance 8 eps |Tr[Sigma R1]|, which keeps lower_bound_D below
    # D_t: achieved_D alone exceeds it by up to 4.5e-16 at 8 of the 12 grid alphas.
    # Tr[Sigma R1] is near 1, so 1 - fl(1 - Tr[Sigma R1]) is Tr[Sigma R1] exactly
    # (Sterbenz); test_objective_and_residuals_match_the_public_readers ties it to best_R1.
    def test_boundary_uses_exact_face_reduction(self):
        mpmath = pytest.importorskip("mpmath")
        alphas = [*np.linspace(0.02, 0.78, 12), *(10.0 ** -k for k in range(2, 9)),
                  *(math.pi / 4 - 10.0 ** -k for k in range(2, 9))]
        for alpha in alphas:
            pair = symmetric_pair(alpha)
            result = maximize(pair, 1.0)
            allowance = 8 * EPS * abs(1.0 - result.achieved_D)
            assert result.certified_gap == allowance, alpha
            assert result.lower_bound_D == result.achieved_D - allowance, alpha
            assert result.lower_bound_D <= curve_disturbance_reference(mpmath, alpha, 1.0), alpha
            assert result.achieved_D == pytest.approx(tradeoff_point(alpha, 1.0).D, abs=1e-12)

    @pytest.mark.parametrize("alpha", CERTIFICATE_ALPHAS)
    def test_certificate_brackets_closed_form(self, alpha):
        for t in (0.0, *SMALL_T, 0.25, 0.5, 0.75, 0.99, 0.99049, 0.999, 0.9999, 1.0):
            assert_certified(alpha, t)

    # The solve works on the pair's scalars; its objective and residuals agree
    # with the numpy readers of Sigma and of the conditions applied to best_R1.
    def test_objective_and_residuals_match_the_public_readers(self):
        points = [(alpha, t) for alpha in np.linspace(0.02, 0.78, 12) for t in np.linspace(0.0, 0.99, 23)]
        points += [(alpha, t) for alpha in CERTIFICATE_ALPHAS for t in CERTIFICATE_TS]
        for alpha, t in points + NEAR_FACE:
            pair = symmetric_pair(alpha)
            result = maximize(pair, t)
            where = f"alpha={alpha}, t={t}"
            readers = constraint_residuals(result.best_R1, pair, t)
            assert max(abs(r - s) for r, s in zip(result.constraint_residuals, readers)) <= 4 * EPS, where
            objective = float(np.sum(sigma_objective(pair) * result.best_R1))
            assert abs((1.0 - result.achieved_D) - objective) <= 4 * EPS, where

    # Both alpha edges against both t edges, with the t = 1 face: 17 x 23 points.
    def test_lower_bound_below_the_reference_at_the_edges(self):
        mpmath = pytest.importorskip("mpmath")
        alphas = [*(10.0 ** -k for k in range(1, 9)), 0.39, *(math.pi / 4 - 10.0 ** -k for k in range(2, 10))]
        ts = [*(10.0 ** -k for k in range(1, 9)), 0.5, 0.99, *(1.0 - 10.0 ** -k for k in range(2, 14)), 1.0]
        for alpha in alphas:
            for t in ts:
                result = maximize(symmetric_pair(alpha), t)
                reference = curve_disturbance_reference(mpmath, alpha, t)
                assert result.lower_bound_D <= reference, f"alpha={alpha}, t={t}"

    # The exact test proves mu >= lambda_max(M(y)) for M(y) built from the float
    # states, so mu is never below the 40-digit top eigenvalue, at every KKT
    # point of the 12 x 23 grid, either circle's, and at the t = 0 dual point.
    def test_proved_mu_bounds_the_top_eigenvalue(self):
        mpmath = pytest.importorskip("mpmath")
        for alpha in np.linspace(0.02, 0.78, 12):
            (a1, b1), (a2, b2) = states = symmetric_pair(alpha)._states
            u = oracle_module._rank_one_terms(states)
            sigma = oracle_module._exact_sigma(states)
            points = [(((a1.conjugate() * a2 + b1.conjugate() * b2).real, 0.0), 1.0, 0.0)]
            for t in np.linspace(0.0, 0.99, 23):
                points += [(*oracle_module._kkt_point(u, w), t) for w in oracle_module._circle_points(u, t)]
            for y, lam, t in points:
                lower, _, mu = oracle_module._certified_dual(sigma, y, lam, t)
                top = top_eigenvalue(mpmath, states, y)
                where = f"alpha={alpha}, t={t}, y={y}"
                assert mu >= top, where
                with mpmath.workdps(40):
                    assert lower <= 1 - top - mpmath.mpf(t) * y[1], where

    # A first mu below lambda_max fails the exact test, and its margin grows until
    # one passes; far below, the search stops at the Gershgorin bound, which
    # passes the test too.
    @pytest.mark.parametrize("shortfall, capped", [(1e-3, False), (1e3, True)])
    def test_failed_proof_grows_the_margin(self, shortfall, capped):
        mpmath = pytest.importorskip("mpmath")
        states = symmetric_pair(0.39)._states
        u = oracle_module._rank_one_terms(states)
        sigma = oracle_module._exact_sigma(states)
        y, lam = oracle_module._kkt_point(u, oracle_module._circle_points(u, 0.5)[0])
        _, _, mu = oracle_module._certified_dual(sigma, y, lam - shortfall, 0.5)
        assert mu >= top_eigenvalue(mpmath, states, y)
        cap = oracle_module._gershgorin(sigma, y)
        assert (mu == cap) is capped
        assert oracle_module._positive_definite(oracle_module._dual_matrix(sigma, y, cap)[0])

    # Near t = 0 the top-eigenvalue gap at the optimum shrinks as t^2, so the
    # optimum is all but degenerate; the rank-one solution and its KKT dual
    # point still meet every target of assert_exact.
    @pytest.mark.parametrize("t", SMALL_T)
    def test_small_t_keeps_the_best_stage(self, t):
        for alpha in CERTIFICATE_ALPHAS:
            assert_exact(alpha, t)

    # The rest of the test grid, small t aside: the 12 alpha x 23 t grid with
    # t > 0, and the certificate alphas at larger t.
    def test_exact_to_rounding_on_the_test_grids(self):
        grid = [(alpha, t) for alpha in np.linspace(0.02, 0.78, 12) for t in np.linspace(0.0, 0.99, 23)[1:]]
        grid += [(alpha, t) for alpha in CERTIFICATE_ALPHAS for t in (0.25, 0.5, 0.75, 0.99, 0.999)]
        for alpha, t in grid:
            assert_exact(alpha, t)

    # Nearly identical states close to t = 1: the dual is flat along one
    # direction, and the two circles of the rank-one family nearly coincide at
    # a kink of the dual. The KKT point of the better circle alone gave a gap
    # of 8.9e-6 at (pi/4 - 1e-6, 1 - 1e-13); the lesser of both circles' dual
    # values holds it to rounding.
    @pytest.mark.parametrize("alpha, t", [(math.pi / 4 - 1e-6, 0.99995),
                                          (math.pi / 4 - 1e-7, 0.99999),
                                          (math.pi / 4 - 1e-8, 0.99999),
                                          (math.pi / 4 - 1e-6, 1.0 - 1e-13),
                                          (math.pi / 4 - 1e-9, 1.0 - 1e-12)])
    def test_certificate_where_dual_is_flat(self, alpha, t):
        assert_certified(alpha, t)
        assert maximize(symmetric_pair(alpha), t).certified_gap <= 1e-9

    # Near t = 1 the dual variable grows to about 1e5, and the eigenvalue
    # rounding in the dual value, a few eps * |y|, reaches 1e-11.
    @pytest.mark.parametrize("alpha", [0.02, 0.1, 0.39, 0.6, 0.77, 0.785])
    def test_lower_bound_holds_near_full_strength(self, alpha):
        for k in range(8, 14):
            t = 1.0 - 10.0 ** -k
            result = maximize(symmetric_pair(alpha), t)
            assert result.lower_bound_D <= tradeoff_point(alpha, t).D, f"alpha={alpha}, t={t}"
            assert result.certified_gap <= 1e-6, f"alpha={alpha}, t={t}"

    # achieved_D - lower_bound_D alone can dip below 0 where best_R1 misses the
    # linear conditions; the residual terms of certified_gap make up for that.
    def test_certified_gap_is_nonnegative(self):
        for alpha in np.linspace(0.02, 0.78, 12):
            pair = symmetric_pair(alpha)
            for t in np.linspace(0.0, 0.99, 23):
                assert maximize(pair, t).certified_gap >= 0.0, f"alpha={alpha}, t={t}"

    def test_independent_of_closed_forms(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle consulted a closed form")

        for name in ("tradeoff_point", "helstrom_min_disturbance", "optimal_instrument", "tilt_t"):
            monkeypatch.setattr(tradeoff_module, name, forbidden)
        monkeypatch.setattr(oracle_module, "tradeoff_point", forbidden)
        for t in (0.0, 0.5, 0.999, 1.0):
            maximize(symmetric_pair(0.3), t)

    # The solver's kernel keeps nothing between calls: the order of calls in
    # one process cannot change a result.
    def test_results_do_not_depend_on_call_order(self):
        pair = symmetric_pair(0.77)
        grid = (0.0, 0.5, 0.999, 1.0 - 1e-12, 1.0)
        forward = {t: maximize(pair, t) for t in grid}
        backward = {t: maximize(pair, t) for t in reversed(grid)}
        for t in grid:
            a, b = forward[t], backward[t]
            assert a.achieved_D == b.achieved_D, t
            assert a.lower_bound_D == b.lower_bound_D, t
            assert a.certified_gap == b.certified_gap, t
            np.testing.assert_array_equal(a.best_R1, b.best_R1)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 4])
    def test_degenerate_angles_rejected(self, alpha):
        with pytest.raises(ValueError):
            maximize(symmetric_pair(alpha), 0.5)

    # float() would take np.bool_(True) as t = 1.
    def test_t_domain_checked(self):
        for t in (1.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="^t must"):
                maximize(symmetric_pair(PI8), t)

    # The program is the symmetric equal-prior pair's: any other ensemble is refused by name.
    @pytest.mark.parametrize("priors, alpha, condition", [
        ((0.3, 0.7), PI8, "equal priors"), ((0.9, 0.1), PI8, "equal priors"),
        ((0.5, 0.5), None, "a symmetric pair"),
    ])
    def test_other_ensembles_rejected(self, priors, alpha, condition):
        ens = Ensemble(priors=priors, states=symmetric_pair(PI8).states, alpha=alpha)
        r1 = closed_form_choi(PI8, 0.5)
        for call in (lambda: maximize(ens, 0.5), lambda: constraint_residuals(r1, ens, 0.5),
                     lambda: verify_closed_form(ens, [0.5]), lambda: sigma_objective(ens)):
            with pytest.raises(ValueError, match=f"^oracle requires {condition}"):
                call()


class TestOracleConfig:
    def test_defaults_are_valid(self):
        assert dataclasses.fields(OracleConfig()) == ()

    # The heuristic solver's settings are gone; passing one fails loudly
    # instead of being silently ignored.
    @pytest.mark.parametrize("kwargs", [
        dict(restarts=0),
        dict(max_iterations=0),
        dict(penalty_weight_schedule=()),
        dict(penalty_weight_schedule=(-1.0,)),
        dict(convergence_tol=0.0),
        dict(seed=-1),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(TypeError):
            OracleConfig(**kwargs)


class TestVerifyClosedForm:
    def test_default_grid_passes(self):
        report = verify_closed_form(symmetric_pair(PI8), [0.0, 0.5, 1.0])
        assert report.all_passed
        assert report.max_gap <= 1e-4
        assert report.no_superoptimality

    def test_unreachable_tolerance_fails(self, monkeypatch):
        shift_closed_form(monkeypatch, 1e-3)
        report = verify_closed_form(symmetric_pair(PI8), [0.5])
        assert report.all_passed is False
        # the oracle lands 1e-3 below the shifted closed form
        assert report.no_superoptimality is False

    # float() would take True as 1.0 and "1e-4" as a number.
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True, "1e-4"])
    def test_invalid_tolerance_rejected(self, tol):
        rule = "finite and positive" if isinstance(tol, float) else "a real number"
        with pytest.raises(ValueError, match=f"^tol must be {rule}"):
            verify_closed_form(symmetric_pair(PI8), [0.5], tol=tol)

    # Each grid value reaches check_t as given: True is not t = 1.
    @pytest.mark.parametrize("t", [True, False, "0.5", 1.5, math.nan])
    def test_invalid_grid_value_rejected(self, t):
        with pytest.raises(ValueError, match="^t must"):
            verify_closed_form(symmetric_pair(PI8), [0.5, t])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_closed_form(symmetric_pair(PI8), [])

    def test_report_serializes(self):
        report = verify_closed_form(symmetric_pair(0.3), [0.25])
        payload = report.as_dict()
        assert payload["points"][0]["passed"] is True
        assert payload["points"][0]["certified_gap"] <= 1e-6
        assert set(payload) >= {"alpha", "tolerance", "points", "max_gap", "all_passed"}
