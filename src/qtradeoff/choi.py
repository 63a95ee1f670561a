"""Choi representation of completely positive maps on a qubit.

A map M corresponds to the 4x4 positive operator R = (M (x) I)|Om><Om| built on
the unnormalized maximally entangled vector |Om> = sum_k |k>|k>. The first
tensor factor carries the map output, the second the input; consequently the
inverse formula reads M(rho) = Tr_2[(1 (x) rho*) R] and trace preservation is
Tr_1[R] = 1. Conjugation is taken in the basis that defines |Om> and is kept
explicit throughout, so nothing relies on states having real components.
"""
from __future__ import annotations

import math
from operator import add, mul

import numpy as np

from .instruments import Ensemble
from .qubit import OPERATOR_ATOL, SIGMA_XX

OMEGA = np.array([1, 0, 0, 1], dtype=complex)
OMEGA.setflags(write=False)


def kraus_to_choi(kraus_ops) -> np.ndarray:
    """Choi operator sum_k (E_k (x) 1)|Om><Om|(E_k (x) 1)† of a Kraus set.

    (E (x) 1)|Om> is the row-major flattening of E, so the result is PSD by
    construction.
    """
    ops = [np.asarray(e, dtype=complex) for e in kraus_ops]
    if not ops:
        raise ValueError("Kraus set must be nonempty")
    r = np.zeros((4, 4), dtype=complex)
    for e in ops:
        if e.shape != (2, 2):
            raise ValueError(f"Kraus operators must be 2x2, got shape {e.shape}")
        v = e.reshape(-1)
        r += np.outer(v, v.conj())
    return r


def partial_trace_first(r: np.ndarray) -> np.ndarray:
    """Trace over the first (output) factor: out[j,l] = sum_i R[2i+j, 2i+l]."""
    r = np.asarray(r, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {r.shape}")
    return np.einsum("ikil->kl", r.reshape(2, 2, 2, 2))


def symmetrize(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average each outcome with the swap-conjugated other outcome.

    R'_i = (R_i + sx(x)sx R_j sx(x)sx)/2 for i != j. The output pair achieves
    the same success probability and disturbance as the input pair and
    satisfies R'_2 = sx(x)sx R'_1 sx(x)sx.
    """
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    s1 = 0.5 * (r1 + SIGMA_XX @ r2 @ SIGMA_XX)
    s2 = 0.5 * (r2 + SIGMA_XX @ r1 @ SIGMA_XX)
    return s1, s2


def choi_functionals(r1: np.ndarray, r2: np.ndarray, ens: Ensemble) -> tuple[float, float]:
    """Success probability and disturbance of an instrument given as Choi operators.

    P = sum_i p_i Tr[(1 (x) |psi_i><psi_i|*) R_i] and
    D = sum_i p_i Tr[(|psi_i^perp><psi_i^perp| (x) |psi_i><psi_i|*) (R_1 + R_2)],
    over a two-state ensemble: the weight the channel R_1 + R_2 moves off each
    state, which equals one minus the fidelity because Tr_1[R_1 + R_2] = 1.
    Both traces are evaluated as quadratic forms, with c = psi_i* and
    q = psi_i^perp: Tr[(1 (x) |c><c|) R] = <c| Tr_1 R |c> and
    Tr[(|q><q| (x) |c><c|) R] = <q (x) c| R |q (x) c>.
    Raises if R_1 + R_2 is not trace preserving entrywise within
    OPERATOR_ATOL, as Instrument checks completeness, or if an entry
    or a result is not finite. Works on plain complex scalars: numpy's
    per-call cost dominates at this size.
    """
    r1, r2 = np.asarray(r1, dtype=complex), np.asarray(r2, dtype=complex)
    if r1.shape != (4, 4) or r2.shape != (4, 4):
        raise ValueError(f"expected two 4x4 matrices, got shapes {r1.shape} and {r2.shape}")
    if len(ens.states) != 2:
        raise ValueError(f"ens must hold two states, one per outcome, got {len(ens.states)}")
    r1, r2 = r1.ravel().tolist(), r2.ravel().tolist()
    total = list(map(add, r1, r2))
    # Tr_1[R][k][l] sums flat entries 4k + l and 4k + l + 10; all() fails on NaN, max() may not.
    if not all(abs(total[i] + total[i + 10] - one) <= OPERATOR_ATOL
               for i, one in zip((0, 1, 4, 5), (1.0, 0.0, 0.0, 1.0))):
        raise ValueError("R1 + R2 is not trace preserving within tolerance")
    p = d = 0.0
    for prior, psi, r in zip(ens.priors, ens._states, (r1, r2)):
        c = [x.conjugate() for x in psi]
        p += prior * _quadratic_form(c, [r[i] + r[i + 10] for i in (0, 1, 4, 5)])
        d += prior * _quadratic_form([x * y for x in (-c[1], c[0]) for y in c], total)
    # D's form multiplies every entry of R1 + R2 by a finite coefficient, and
    # 0 * inf and 0 * nan are NaN, so a non-finite entry of R1 or R2 makes D non-finite.
    if not (math.isfinite(p) and math.isfinite(d)):
        raise ValueError("R1, R2 and the resulting P and D must be finite")
    return p, d


def _quadratic_form(v, m) -> float:
    """Re <v| M |v>, for M given row-major as a flat list of complex scalars."""
    return sum(map(mul, [x.conjugate() * y for x in v for y in v], m)).real

