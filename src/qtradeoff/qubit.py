"""Dense complex matrix kernel (2x2 and 4x4) and the symmetric two-state geometry.

Basis convention: the computational kets |1>, |2> map to indices 0, 1.
All arithmetic is IEEE-754 double precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Library-wide tolerances: direct algebraic identities vs derived equalities.
ATOL_ALGEBRAIC = 1e-12
ATOL_DERIVED = 1e-9

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_XX = np.kron(SIGMA_X, SIGMA_X)

KET_1 = np.array([1, 0], dtype=complex)
KET_2 = np.array([0, 1], dtype=complex)

for _const in (ID2, ID4, SIGMA_X, SIGMA_Z, SIGMA_XX, KET_1, KET_2):
    _const.setflags(write=False)


def is_hermitian(m: np.ndarray, atol: float = ATOL_ALGEBRAIC) -> bool:
    """Entrywise max|M - M†| <= atol."""
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - m.conj().T)) <= atol)


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def validate_state(psi) -> np.ndarray:
    """Return psi as a complex 2-vector; raise if not normalized within 1e-12."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"pure state must be a 2-component vector, got shape {psi.shape}")
    norm2 = float(np.real(np.vdot(psi, psi)))
    if abs(norm2 - 1.0) > ATOL_ALGEBRAIC:
        raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
    return psi


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap |<a|b>| of two normalized pure states. Symmetric in its arguments."""
    a = validate_state(a)
    b = validate_state(b)
    return float(abs(np.vdot(a, b)))


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
        if np.max(np.abs(SIGMA_X @ self.psi1 - self.psi2)) > ATOL_ALGEBRAIC:
            raise ValueError("psi2 must be the component exchange of psi1")
        if abs(np.vdot(self.psi1, self.psi2) - np.sin(2.0 * self.alpha)) > ATOL_ALGEBRAIC:
            raise ValueError("overlap does not match sin(2 alpha)")
        self.psi1.setflags(write=False)
        self.psi2.setflags(write=False)

    @property
    def overlap(self) -> float:
        return float(np.sin(2.0 * self.alpha))


def check_alpha(alpha: float) -> float:
    """The half-angle as a float; raises ValueError outside [0, pi/4] (NaN included)."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= np.pi / 4:
        raise ValueError(f"alpha must lie in [0, pi/4], got {alpha!r}")
    return alpha


def symmetric_pair(alpha: float) -> StatePair:
    """Build the symmetric pair at half-angle alpha, radians in [0, pi/4]."""
    alpha = check_alpha(alpha)
    psi1 = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    psi2 = np.array([np.sin(alpha), np.cos(alpha)], dtype=complex)
    return StatePair(alpha=alpha, psi1=psi1, psi2=psi2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices: (a (x) b)[2i+k, 2j+l] = a[i,j] b[k,l]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def min_eigenvalue_hermitian(m: np.ndarray, atol: float = 1e-10) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 or 4x4 matrix.

    Uses the closed form for 2x2 and LAPACK's iterative solver for 4x4.
    Raises ValueError if the input is not Hermitian within `atol`.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not is_hermitian(m, atol=atol):
        raise ValueError("matrix is not Hermitian within tolerance")
    if m.shape == (2, 2):
        a, d = m[0, 0].real, m[1, 1].real
        disc = (a - d) ** 2 + 4.0 * abs(m[0, 1]) ** 2
        return float(0.5 * (a + d - np.sqrt(disc)))
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
