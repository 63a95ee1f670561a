"""Matrix kernel and symmetric-pair geometry."""
import math

import numpy as np
import pytest

from qtradeoff import (
    ID2,
    SIGMA_X,
    projector,
    symmetric_pair,
    tensor,
)

from conftest import random_hermitian


class TestSymmetricPair:
    def test_orthogonal_endpoint(self):
        pair = symmetric_pair(0.0)
        np.testing.assert_allclose(pair.psi1, [1, 0], atol=1e-15)
        np.testing.assert_allclose(pair.psi2, [0, 1], atol=1e-15)
        assert abs(np.vdot(pair.psi1, pair.psi2)) == pytest.approx(0.0, abs=1e-12)

    def test_identical_endpoint(self):
        pair = symmetric_pair(math.pi / 4)
        np.testing.assert_allclose(pair.psi1, pair.psi2, atol=1e-15)
        assert abs(np.vdot(pair.psi1, pair.psi2)) == pytest.approx(1.0, abs=1e-12)

    def test_unbiased_pair_overlap(self):
        # f = sin(pi/4), f^2 = 1/2 at the midpoint angle
        pair = symmetric_pair(math.pi / 8)
        f = abs(np.vdot(pair.psi1, pair.psi2))
        assert f == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert f**2 == pytest.approx(0.5, abs=1e-12)

    def test_overlap_equals_sin_2alpha_on_grid(self):
        for alpha in np.linspace(0.0, math.pi / 4, 41):
            pair = symmetric_pair(alpha)
            inner = np.vdot(pair.psi1, pair.psi2)
            assert abs(inner - math.sin(2 * alpha)) <= 1e-12

    def test_component_exchange(self):
        pair = symmetric_pair(0.3)
        np.testing.assert_allclose(SIGMA_X @ pair.psi1, pair.psi2, atol=1e-15)

    # float() would take False as the alpha = 0 pair and parse "0.3".
    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 4 + 1e-6, 1.0, True, False, "0.3"])
    def test_domain_error(self, alpha):
        with pytest.raises(ValueError, match="^alpha must"):
            symmetric_pair(alpha)

    def test_manual_construction_checks_geometry(self):
        from qtradeoff import StatePair
        good = symmetric_pair(0.3)
        with pytest.raises(ValueError):
            StatePair(alpha=0.3, psi1=good.psi1.copy(), psi2=good.psi1.copy())
        with pytest.raises(ValueError):
            StatePair(alpha=0.2, psi1=good.psi1.copy(), psi2=good.psi2.copy())


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
        p1 = projector(pair.psi1)
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
