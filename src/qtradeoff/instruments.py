"""Two-outcome quantum instruments: Kraus maps, POVM extraction, information and disturbance.

An instrument is an ordered collection of completely positive maps, one per
outcome, each given by a list of 2x2 Kraus operators. The outcome maps must sum
to a trace-preserving channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import ATOL_ALGEBRAIC, OPERATOR_ATOL
from .tradeoff import _as_float, check_alpha


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered outcomes, each a tuple of 2x2 Kraus operators.

    Completeness sum_i sum_k E_k^(i)† E_k^(i) = 1 is enforced on construction
    (entrywise, within OPERATOR_ATOL). The POVM elements and Kraus entries are
    kept as plain complex scalars, computed once: numpy's per-call cost
    dominates here.
    """

    outcomes: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        clean, kraus, elements = [], [], []
        for kraus_set in self.outcomes:
            ops = tuple(np.asarray(e, dtype=complex) for e in kraus_set)
            if not ops:
                raise ValueError("every outcome needs at least one Kraus operator")
            for e in ops:
                if e.shape != (2, 2):
                    raise ValueError(f"Kraus operators must be 2x2, got shape {e.shape}")
                e.setflags(write=False)
            clean.append(ops)
            kraus.append(tuple(e.tolist() for e in ops))
            p00 = p01 = p11 = 0.0
            for (e00, e01), (e10, e11) in kraus[-1]:
                p00 += e00.conjugate() * e00 + e10.conjugate() * e10
                p01 += e00.conjugate() * e01 + e10.conjugate() * e11
                p11 += e01.conjugate() * e01 + e11.conjugate() * e11
            elements.append(((p00, p01), (p01.conjugate(), p11)))
        # all(), not max(): max() skips a NaN that is not its first argument.
        if not all(abs(sum(pi[i][j] for pi in elements) - (i == j)) <= OPERATOR_ATOL
                   for i, j in ((0, 0), (0, 1), (1, 1))):
            raise ValueError("Kraus operators do not satisfy the completeness relation")
        object.__setattr__(self, "outcomes", tuple(clean))
        object.__setattr__(self, "_kraus", tuple(kraus))
        object.__setattr__(self, "_povm", tuple(elements))

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Pure qubit states with prior probabilities summing to one.

    alpha, when given, is the half-angle of a symmetric pair: states[0] is a
    global phase times (cos a, sin a), states[1] is its component exchange, and
    <psi1|psi2> = sin 2a. Every identity is checked within ATOL_ALGEBRAIC on
    the plain entries, so that NaN fails.
    """

    priors: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    alpha: float | None = None

    def __post_init__(self):
        priors = tuple(_as_float(p, "priors") for p in self.priors)
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        if len(priors) != len(states):
            raise ValueError("priors and states must have matching lengths")
        if not all(p >= 0 for p in priors):
            raise ValueError("priors must be nonnegative")
        if not abs(sum(priors) - 1.0) <= ATOL_ALGEBRAIC:
            raise ValueError(f"priors must sum to 1, got {sum(priors)!r}")
        for s in states:
            if s.shape != (2,):
                raise ValueError(f"states must be 2-component vectors, got shape {s.shape}")
            s.setflags(write=False)
        entries = tuple(s.tolist() for s in states)
        for a, b in entries:
            norm2 = (a.conjugate() * a + b.conjugate() * b).real
            if not abs(norm2 - 1.0) <= ATOL_ALGEBRAIC:
                raise ValueError(f"states must be normalized, got |psi|^2 = {norm2!r}")
        if self.alpha is not None:
            alpha = check_alpha(self.alpha)
            if len(entries) != 2:
                raise ValueError(f"alpha requires a pair of states, got {len(entries)}")
            (a1, b1), (a2, b2) = entries
            sin2a = math.sin(2.0 * alpha)
            if not (abs(b1 - a2) <= ATOL_ALGEBRAIC and abs(a1 - b2) <= ATOL_ALGEBRAIC):
                raise ValueError("alpha requires states[1] to be the component exchange of states[0]")
            if not abs(a1.conjugate() * a2 + b1.conjugate() * b2 - sin2a) <= ATOL_ALGEBRAIC:
                raise ValueError("alpha does not match the overlap: <psi1|psi2> != sin(2 alpha)")
            # The overlap is 2 Re(conj(a1) b1): it misses a relative phase between the
            # components, and their order. These two fix psi1 up to a global phase.
            if not (abs(2.0 * a1.conjugate() * b1 - sin2a) <= ATOL_ALGEBRAIC
                    and abs((a1.conjugate() * a1 - b1.conjugate() * b1).real - math.cos(2.0 * alpha))
                    <= ATOL_ALGEBRAIC):
                raise ValueError("alpha requires states[0] to be a global phase times (cos alpha, sin alpha)")
            object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_states", entries)

    @classmethod
    def equal_pair(cls, ens: "Ensemble") -> "Ensemble":
        """The equal-prior ensemble {1/2, psi1; 1/2, psi2} over ens's two states, keeping its alpha."""
        return cls(priors=(0.5, 0.5), states=ens.states, alpha=ens.alpha)


def povm(inst: Instrument) -> list[np.ndarray]:
    """POVM elements Pi_i = sum_k E_k^(i)† E_k^(i), as fresh arrays; positive and summing to 1."""
    return [np.array(pi) for pi in inst._povm]


def success_probability(inst: Instrument, ens: Ensemble) -> float:
    """Average success probability sum_i p_i <psi_i| Pi_i |psi_i>.

    Depends only on the POVM, not on the Kraus decomposition.
    """
    if inst.n_outcomes != len(ens.states):
        raise ValueError("outcome count must match ensemble size")
    p = 0.0
    for prior, (a, b), ((p00, p01), (p10, p11)) in zip(ens.priors, ens._states, inst._povm):
        ca, cb = a.conjugate(), b.conjugate()
        p += prior * ((ca * p00 + cb * p10) * a + (ca * p01 + cb * p11) * b).real
    return p


def _leak_rows(inst: Instrument, ens: Ensemble) -> list[list[float]]:
    """leaks of cell_tables, as nested lists."""
    if inst.n_outcomes != len(ens.states):
        raise ValueError("outcome count must match ensemble size")
    rows = []
    for a, b in ens._states:
        row = []
        for ops in inst._kraus:
            leak = 0.0
            for (e00, e01), (e10, e11) in ops:
                # <psi^perp| E |psi> with psi^perp = (-b*, a*). Since
                # <psi^perp|psi> = 0 only the traceless part of E enters (its
                # off-diagonal and e00 - e11), so E = c 1 leaks exactly 0.
                leak += abs(e10 * a * a - e01 * b * b - (e00 - e11) * a * b) ** 2
            row.append(leak)
        rows.append(row)
    return rows


def _cells(inst: Instrument, ens: Ensemble) -> tuple[list[list[float]], list[list[float]]]:
    """probs and leaks of cell_tables, as nested lists."""
    leaks = _leak_rows(inst, ens)
    probs = [[0.0] * inst.n_outcomes for _ in ens._states]
    for i, (a, b) in enumerate(ens._states):
        for j, ops in enumerate(inst._kraus):
            for (e00, e01), (e10, e11) in ops:
                probs[i][j] += abs(e00 * a + e01 * b) ** 2 + abs(e10 * a + e11 * b) ** 2
    return probs, leaks


def cell_tables(inst: Instrument, ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Probability and leaked weight of every (state, outcome) cell.

    probs[i, j] = sum_k |E_k^(j) psi_i|^2 and leaks[i, j] = sum_k
    |<psi_i^perp| E_k^(j) |psi_i>|^2, the weight outcome j moves from psi_i
    onto its orthogonal complement. Both are non-negative by construction.
    """
    probs, leaks = _cells(inst, ens)
    return np.array(probs), np.array(leaks)


def disturbance(inst: Instrument, ens: Ensemble) -> float:
    """Input-averaged weight leaked off each state by the outcome-averaged channel.

    D = sum_i p_i sum_{j,k} |<psi_i^perp| E_k^(j) |psi_i>|^2. It has no
    difference in it, unlike one minus the input-averaged fidelity
    1 - sum_i p_i <psi_i| E(|psi_i><psi_i|) |psi_i>, which it equals for a
    trace-preserving instrument; the two differ by the completeness error,
    at most 2 OPERATOR_ATOL within Instrument's entrywise tolerance.
    """
    return sum(prior * sum(row) for prior, row in zip(ens.priors, _leak_rows(inst, ens)))
