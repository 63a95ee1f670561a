"""Matrix kernel and symmetric-pair geometry."""
import cmath
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    ID2,
    SIGMA_X,
    disturbance,
    maximize,
    optimal_instrument,
    projector,
    success_probability,
    symmetric_pair,
    tensor,
    tradeoff_point,
)

from conftest import random_hermitian


class TestSymmetricPair:
    def test_orthogonal_endpoint(self):
        pair = symmetric_pair(0.0)
        np.testing.assert_allclose(pair.states[0], [1, 0], atol=1e-15)
        np.testing.assert_allclose(pair.states[1], [0, 1], atol=1e-15)
        assert abs(np.vdot(*pair.states)) == pytest.approx(0.0, abs=1e-12)

    def test_identical_endpoint(self):
        pair = symmetric_pair(math.pi / 4)
        np.testing.assert_allclose(pair.states[0], pair.states[1], atol=1e-15)
        assert abs(np.vdot(*pair.states)) == pytest.approx(1.0, abs=1e-12)

    def test_unbiased_pair_overlap(self):
        # f = sin(pi/4), f^2 = 1/2 at the midpoint angle
        pair = symmetric_pair(math.pi / 8)
        f = abs(np.vdot(*pair.states))
        assert f == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert f**2 == pytest.approx(0.5, abs=1e-12)

    def test_overlap_equals_sin_2alpha_on_grid(self):
        for alpha in np.linspace(0.0, math.pi / 4, 41):
            pair = symmetric_pair(alpha)
            inner = np.vdot(*pair.states)
            assert abs(inner - math.sin(2 * alpha)) <= 1e-12

    def test_component_exchange(self):
        pair = symmetric_pair(0.3)
        np.testing.assert_allclose(SIGMA_X @ pair.states[0], pair.states[1], atol=1e-15)

    # float() would take False as the alpha = 0 pair and parse "0.3"; numbers.Real
    # refuses np.bool_ and complex.
    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 4 + 1e-6, 1.0, True, False, "0.3",
                                       np.bool_(False), 0.3 + 0j])
    def test_domain_error(self, alpha):
        with pytest.raises(ValueError, match="^alpha must"):
            symmetric_pair(alpha)

    def test_is_the_equal_prior_ensemble(self):
        pair = symmetric_pair(0.3)
        assert isinstance(pair, Ensemble) and pair.priors == (0.5, 0.5) and pair.alpha == 0.3
        assert [s.tolist() for s in pair.states] == [[complex(math.cos(0.3)), complex(math.sin(0.3))],
                                                     [complex(math.sin(0.3)), complex(math.cos(0.3))]]

    def test_manual_construction_checks_geometry(self):
        good = symmetric_pair(0.3)
        psi1, psi2 = good.states
        with pytest.raises(ValueError, match="^alpha requires states.1. to be the component exchange"):
            Ensemble(priors=(0.5, 0.5), states=(psi1, psi1), alpha=0.3)
        with pytest.raises(ValueError, match="^alpha does not match the overlap"):
            Ensemble(priors=(0.5, 0.5), states=(psi1, psi2), alpha=0.2)
        with pytest.raises(ValueError, match="^alpha requires a pair of states"):
            Ensemble(priors=(1.0,), states=(psi1,), alpha=0.3)
        with pytest.raises(ValueError, match="^alpha must"):
            Ensemble(priors=(0.5, 0.5), states=(psi1, psi2), alpha=math.nan)
        # Within ATOL_ALGEBRAIC (1e-12) the geometry is accepted, beyond it refused.
        shift = np.array([0.0, 1e-13])
        tilted = (psi1 + shift) / np.linalg.norm(psi1 + shift)
        assert Ensemble(priors=(0.5, 0.5), states=(tilted, tilted[::-1]), alpha=0.3).alpha == 0.3
        with pytest.raises(ValueError, match="^alpha does not match the overlap"):
            Ensemble(priors=(0.5, 0.5), states=(psi1, psi2), alpha=0.3 + 1e-11)

    # The overlap alone passes a relative phase between the components and the
    # pair in swapped order, which every route answered wrongly; a global phase
    # is the same pair.
    def test_manual_construction_fixes_the_pair_up_to_a_global_phase(self):
        a = 0.3
        swapped = (np.array([math.sin(a), math.cos(a)]), np.array([math.cos(a), math.sin(a)]))
        relative = np.array([1.0, cmath.exp(0.7j)]) / math.sqrt(2)
        for states, alpha in [(swapped, a), ((relative, relative[::-1]), math.asin(math.cos(0.7)) / 2)]:
            with pytest.raises(ValueError, match="^alpha requires states.0. to be a global phase"):
                Ensemble(priors=(0.5, 0.5), states=states, alpha=alpha)
        phased = Ensemble(priors=(0.5, 0.5), states=tuple(cmath.exp(0.4j) * s for s in symmetric_pair(a).states),
                          alpha=a)
        inst, pt = optimal_instrument(a, 0.5), tradeoff_point(a, 0.5)
        assert success_probability(inst, phased) == pytest.approx(pt.P, abs=1e-14)
        assert disturbance(inst, phased) == pytest.approx(pt.D, abs=1e-14)
        assert maximize(phased, 0.5).achieved_D == pytest.approx(pt.D, abs=1e-14)


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(ID2, ID2), np.eye(4))

    def test_sigma_x_pair_is_antidiagonal(self):
        np.testing.assert_array_equal(tensor(SIGMA_X, SIGMA_X), np.fliplr(np.eye(4)))

    def test_block_convention(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = tensor(a, b)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(out[2 * i:2 * i + 2, 2 * j:2 * j + 2],
                                           a[i, j] * b, atol=1e-15)

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-12)

    def test_projector_tensor_has_unit_trace(self):
        pair = symmetric_pair(math.pi / 8)
        p1 = projector(pair.states[0])
        assert np.trace(tensor(p1, p1)).real == pytest.approx(1.0, abs=1e-12)

    def test_bilinear(self, rng):
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        np.testing.assert_allclose(tensor(a + b, c), tensor(a, c) + tensor(b, c), atol=1e-13)
        np.testing.assert_allclose(tensor(2.5 * a, c), 2.5 * tensor(a, c), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor(ID2, np.eye(4))
        for shape_a, shape_b in [((2,), (2, 2)), ((2, 2), (4,)), ((3, 3), (2, 2)), ((2, 2, 1), (2, 2))]:
            with pytest.raises(ValueError, match="2x2"):
                tensor(np.ones(shape_a), np.ones(shape_b))

    # The broadcast product must reproduce numpy's kron bit for bit: the oracle's
    # Sigma and constraint operators are built from it.
    def test_bit_identical_to_kron_complex(self, rng):
        for _ in range(1000):
            a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
            assert np.array_equal(tensor(a, b), np.kron(a, b))

    def test_bit_identical_to_kron_real(self, rng):
        for _ in range(1000):
            a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            assert np.array_equal(tensor(a, b).real, np.kron(a, b))
            assert not tensor(a, b).imag.any()
