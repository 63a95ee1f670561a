"""Two-outcome quantum instruments: Kraus maps, POVM extraction, information and disturbance.

An instrument is an ordered collection of completely positive maps, one per
outcome, each given by a list of 2x2 Kraus operators. The outcome maps must sum
to a trace-preserving channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit import ID2, StatePair, is_hermitian, validate_state

COMPLETENESS_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered outcomes, each a tuple of 2x2 Kraus operators.

    Completeness sum_i sum_k E_k^(i)† E_k^(i) = 1 is enforced on construction
    (entrywise, within 1e-10).
    """

    outcomes: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        clean = []
        for kraus_set in self.outcomes:
            ops = tuple(np.asarray(e, dtype=complex) for e in kraus_set)
            if not ops:
                raise ValueError("every outcome needs at least one Kraus operator")
            for e in ops:
                if e.shape != (2, 2):
                    raise ValueError(f"Kraus operators must be 2x2, got shape {e.shape}")
                e.setflags(write=False)
            clean.append(ops)
        object.__setattr__(self, "outcomes", tuple(clean))
        total = sum(e.conj().T @ e for ops in self.outcomes for e in ops)
        if np.max(np.abs(total - ID2)) > COMPLETENESS_ATOL:
            raise ValueError("Kraus operators do not satisfy the completeness relation")

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def is_pure(self) -> bool:
        """True iff every outcome has exactly one Kraus operator."""
        return all(len(ops) == 1 for ops in self.outcomes)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Pure states with prior probabilities summing to one."""

    priors: tuple[float, ...]
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        priors = tuple(float(p) for p in self.priors)
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        if len(priors) != len(states):
            raise ValueError("priors and states must have matching lengths")
        if any(p < 0 for p in priors):
            raise ValueError("priors must be nonnegative")
        if abs(sum(priors) - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1, got {sum(priors)!r}")
        for s in states:
            validate_state(s)
            s.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)

    @classmethod
    def equal_pair(cls, pair: StatePair) -> "Ensemble":
        """Equiprobable ensemble {1/2, psi1; 1/2, psi2}."""
        return cls(priors=(0.5, 0.5), states=(pair.psi1.copy(), pair.psi2.copy()))


def apply_outcome(inst: Instrument, i: int, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply outcome map i to a density matrix.

    Returns the unnormalized output sum_k E_k rho E_k† together with its trace
    (the outcome probability). The normalized posterior is output/probability
    when the probability is nonzero; a zero-probability outcome returns the
    zero matrix and probability 0, and normalization is the caller's problem.
    """
    if not 0 <= i < inst.n_outcomes:
        raise IndexError(f"outcome index {i} out of range for {inst.n_outcomes} outcomes")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) or not is_hermitian(rho, atol=1e-10):
        raise ValueError("rho must be a 2x2 Hermitian matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    out = np.zeros((2, 2), dtype=complex)
    for e in inst.outcomes[i]:
        out += e @ rho @ e.conj().T
    return out, float(np.trace(out).real)


def povm(inst: Instrument) -> list[np.ndarray]:
    """POVM elements Pi_i = sum_k E_k^(i)† E_k^(i); positive and summing to 1."""
    return [sum(e.conj().T @ e for e in ops) for ops in inst.outcomes]


def success_probability(inst: Instrument, ens: Ensemble) -> float:
    """Average success probability sum_i p_i <psi_i| Pi_i |psi_i>.

    Depends only on the POVM, not on the Kraus decomposition.
    """
    if inst.n_outcomes != len(ens.states):
        raise ValueError("outcome count must match ensemble size")
    elements = povm(inst)
    p = 0.0
    for prior, psi, pi in zip(ens.priors, ens.states, elements):
        p += prior * float(np.real(psi.conj() @ pi @ psi))
    return p


def cell_tables(inst: Instrument, ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Probability and leaked weight of every (state, outcome) cell.

    probs[i, j] = sum_k |E_k^(j) psi_i|^2 and leaks[i, j] = sum_k
    |<psi_i^perp| E_k^(j) |psi_i>|^2, the weight outcome j moves from psi_i
    onto its orthogonal complement. Both are non-negative by construction.
    """
    if inst.n_outcomes != len(ens.states):
        raise ValueError("outcome count must match ensemble size")
    probs = np.zeros((len(ens.states), inst.n_outcomes))
    leaks = np.zeros_like(probs)
    # Plain complex scalars: numpy's per-call cost dominates at this size.
    for i, (a, b) in enumerate(s.tolist() for s in ens.states):
        for j, ops in enumerate(inst.outcomes):
            for (e00, e01), (e10, e11) in (e.tolist() for e in ops):
                out0, out1 = e00 * a + e01 * b, e10 * a + e11 * b
                # <psi^perp| E |psi> with psi^perp = (-b*, a*). Since
                # <psi^perp|psi> = 0 only the traceless part of E enters (its
                # off-diagonal and e00 - e11), so E = c 1 leaks exactly 0.
                amp = e10 * a * a - e01 * b * b - (e00 - e11) * a * b
                probs[i, j] += abs(out0) ** 2 + abs(out1) ** 2
                leaks[i, j] += abs(amp) ** 2
    return probs, leaks


def disturbance(inst: Instrument, ens: Ensemble) -> float:
    """Input-averaged weight leaked off each state by the outcome-averaged channel.

    D = sum_i p_i sum_{j,k} |<psi_i^perp| E_k^(j) |psi_i>|^2. It has no
    difference in it, unlike one minus the input-averaged fidelity
    1 - sum_i p_i <psi_i| E(|psi_i><psi_i|) |psi_i>, which it equals for a
    trace-preserving instrument; the two differ by the completeness error,
    at most 2e-10 within Instrument's entrywise tolerance.
    """
    _, leaks = cell_tables(inst, ens)
    return float(np.dot(ens.priors, leaks.sum(axis=1)))
