"""Shared random-object helpers for the test suite."""
import numpy as np
import pytest

from qtradeoff import Instrument
from qtradeoff import oracle as oracle_module


def random_unitary(rng, dim=2):
    """Haar-ish unitary from the QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases.conj())


def random_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_instrument(rng, kraus_counts=(1, 1)):
    """Random two-outcome instrument: Gaussian Kraus blocks normalized to completeness."""
    blocks = [
        [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
        for n in kraus_counts
    ]
    total = sum(e.conj().T @ e for ops in blocks for e in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Instrument(outcomes=tuple(tuple(e @ inv_sqrt for e in ops) for ops in blocks))


def curve_disturbance_reference(mpmath, alpha, t):
    """D_t of the optimal curve at 60 digits, with s = sin(4a) t^2 / (2 (1 + sqrt(1 - t^2))).

    Uses s^2 / (2 (1 + sqrt(1 - s^2))): the form (1 - sqrt(1 - s^2))/2
    returns 0 even at 80 digits once s ~ 1e-44.
    """
    with mpmath.workdps(60):
        a, tm = mpmath.mpf(alpha), mpmath.mpf(t)
        s = mpmath.sin(4 * a) * tm ** 2 / (2 * (1 + mpmath.sqrt((1 - tm) * (1 + tm))))
        return s ** 2 / (2 * (1 + mpmath.sqrt(1 - s ** 2)))


def shift_closed_form(monkeypatch, delta):
    """Make verify_closed_form compare the oracle against D_t + delta."""
    exact = oracle_module.tradeoff_point
    monkeypatch.setattr(oracle_module, "tradeoff_point",
                        lambda alpha, t: exact(alpha, t)._replace(D=exact(alpha, t).D + delta))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
