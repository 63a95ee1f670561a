"""Dense complex matrix kernel (2x2 and 4x4) and the symmetric two-state geometry.

Basis convention: the computational kets |1>, |2> map to indices 0, 1.
All arithmetic is IEEE-754 double precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tradeoff import check_alpha

# The library's input-check tolerances. Identities on O(1) scalars formed in a
# few operations: the state norm, StatePair's geometry, Ensemble's prior sum.
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


def validate_state(psi) -> np.ndarray:
    """Return psi as a complex 2-vector; raise if |psi|^2 is not 1 within ATOL_ALGEBRAIC."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"pure state must be a 2-component vector, got shape {psi.shape}")
    norm2 = float(np.real(np.vdot(psi, psi)))
    if not abs(norm2 - 1.0) <= ATOL_ALGEBRAIC:
        raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
    return psi


@dataclass(frozen=True, eq=False)
class StatePair:
    """Two equiprobable pure states placed symmetrically around the measurement basis.

    psi1 = (cos a, sin a), psi2 = (sin a, cos a) = sigma_x psi1; the overlap
    <psi1|psi2> equals sin 2a.
    """

    alpha: float
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self):
        validate_state(self.psi1)
        validate_state(self.psi2)
        # Written so that NaN fails: every comparison with NaN is false.
        if not np.max(np.abs(SIGMA_X @ self.psi1 - self.psi2)) <= ATOL_ALGEBRAIC:
            raise ValueError("psi2 must be the component exchange of psi1")
        if not abs(np.vdot(self.psi1, self.psi2) - np.sin(2.0 * self.alpha)) <= ATOL_ALGEBRAIC:
            raise ValueError("overlap does not match sin(2 alpha)")
        self.psi1.setflags(write=False)
        self.psi2.setflags(write=False)


def symmetric_pair(alpha: float) -> StatePair:
    """Build the symmetric pair at half-angle alpha, radians in [0, pi/4]."""
    alpha = check_alpha(alpha)
    psi1 = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    psi2 = np.array([np.sin(alpha), np.cos(alpha)], dtype=complex)
    return StatePair(alpha=alpha, psi1=psi1, psi2=psi2)


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
