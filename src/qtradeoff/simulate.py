"""Seeded Monte Carlo of the discrimination experiment.

Each shot draws one of the two states uniformly and an outcome from the POVM
statistics, landing in one of four (state, outcome) cells with exact
probabilities and per-shot disturbances (one minus the posterior fidelity). A
run makes one multinomial draw of `shots` over the cells and computes the
sample means and standard errors exactly from the four counts, in time and
memory independent of `shots`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Instrument, apply_outcome
from .qubit import StatePair, projector

# Pinned in output metadata so results can be reproduced across platforms.
RNG_ALGORITHM = f"numpy.random.Generator(PCG64) numpy=={np.__version__}"

MAX_SHOTS = 2 ** 63 - 1  # the largest count numpy's multinomial accepts

# Per-shot disturbances below double-precision resolution are round-off.
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class SimulationConfig:
    shots: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.shots, (int, np.integer)) or not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {self.shots!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class SimulationResult:
    empirical_P: float
    empirical_D: float
    stderr_P: float
    stderr_D: float
    shots: int
    seed: int


def _cell_tables(inst: Instrument, pair: StatePair) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p[i, j] and per-shot disturbances d[i, j]."""
    if inst.n_outcomes != 2:
        raise ValueError("simulation requires a two-outcome instrument")
    probs = np.zeros((2, 2))
    dist = np.zeros((2, 2))
    for i, psi in enumerate((pair.psi1, pair.psi2)):
        rho = projector(psi)
        for j in range(2):
            out, p = apply_outcome(inst, j, rho)
            probs[i, j] = p
            if p > 0.0:
                fid = float(np.real(psi.conj() @ (out / p) @ psi))
                d = max(0.0, 1.0 - fid)
                dist[i, j] = 0.0 if d < _ROUNDOFF else d
    return probs, dist


def _draw_counts(probs: np.ndarray, cfg: SimulationConfig) -> np.ndarray:
    """Counts over the four (state, outcome) cells from one multinomial draw."""
    rng = np.random.default_rng(int(cfg.seed))
    # The draw rejects negative round-off, and sums above 1 + 1e-12 that the
    # 1e-10 completeness tolerance of Instrument allows.
    cells = 0.5 * np.clip(probs, 0.0, None).ravel()
    return rng.multinomial(int(cfg.shots), cells / cells.sum()).reshape(2, 2)


def run(inst: Instrument, pair: StatePair, cfg: SimulationConfig) -> SimulationResult:
    """Simulate cfg.shots discrimination rounds with equal priors.

    Deterministic given cfg.seed. Success means the sampled outcome index
    matches the sampled state index; the per-shot disturbance is one minus the
    posterior fidelity for the sampled (state, outcome) cell. Returns sample
    means with standard errors (sample standard deviation / sqrt(shots)).
    """
    probs, dist = _cell_tables(inst, pair)
    counts = _draw_counts(probs, cfg).astype(float)
    n = int(cfg.shots)
    # Success indicator and disturbance per cell, weighted by the counts: the
    # mean() and std(ddof=1) of per-shot arrays (ddof=0 for a single shot).
    values = np.stack([np.eye(2), dist])
    mean = np.sum(counts * values, axis=(1, 2)) / n
    var = np.sum(counts * (values - mean[:, None, None]) ** 2, axis=(1, 2)) / max(n - 1, 1)
    stderr = np.sqrt(var / n)
    return SimulationResult(
        empirical_P=float(mean[0]),
        empirical_D=float(mean[1]),
        stderr_P=float(stderr[0]),
        stderr_D=float(stderr[1]),
        shots=n,
        seed=int(cfg.seed),
    )


def outcome_counts(inst: Instrument, pair: StatePair, cfg: SimulationConfig) -> np.ndarray:
    """Counts over the four (state, outcome) cells, the same draw as run()."""
    return _draw_counts(_cell_tables(inst, pair)[0], cfg)
