"""Dense complex matrix kernel (2x2 and 4x4) and the symmetric two-state geometry.

Basis convention: the computational kets |1>, |2> map to indices 0, 1.
All arithmetic is IEEE-754 double precision.
"""
from __future__ import annotations

import numpy as np

from .tradeoff import check_alpha

# The library's input-check tolerances. Identities on O(1) scalars formed in a
# few operations: Ensemble's state norms, prior sum and symmetric-pair geometry.
ATOL_ALGEBRAIC = 1e-12
# Entrywise identities on operators that callers pass in, which come from
# products and eigendecompositions: Hermiticity, Kraus completeness and Choi
# trace preservation.
OPERATOR_ATOL = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _const in (ID2, SIGMA_X, SIGMA_Z):
    _const.setflags(write=False)


def is_hermitian(m: np.ndarray) -> bool:
    """Square, with entrywise max|M - M†| <= OPERATOR_ATOL (NaN fails)."""
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - m.conj().T)) <= OPERATOR_ATOL)


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def symmetric_pair(alpha: float) -> Ensemble:
    """The equal-prior Ensemble of (cos a, sin a) and (sin a, cos a), half-angle a in [0, pi/4]."""
    from .instruments import Ensemble

    alpha = check_alpha(alpha)
    psi1 = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    psi2 = np.array([np.sin(alpha), np.cos(alpha)], dtype=complex)
    return Ensemble(priors=(0.5, 0.5), states=(psi1, psi2), alpha=alpha)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices: (a (x) b)[2i+k, 2j+l] = a[i,j] b[k,l].

    One broadcast multiplication: each entry is the single product a[i,j] b[k,l],
    as in numpy's kron, so the result is bit-identical at a seventh of its call
    cost.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 matrices, got {a.shape} and {b.shape}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


SIGMA_XX = tensor(SIGMA_X, SIGMA_X)
SIGMA_XX.setflags(write=False)
