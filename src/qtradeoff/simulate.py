"""Seeded Monte Carlo of the discrimination experiment.

Each shot draws one of the two states by its prior and an outcome from the
POVM statistics, landing in one of four (state, outcome) cells with exact
probabilities p and per-shot disturbances leak / p, the posterior's weight off
the sent state (see instruments.cell_tables). A run makes one multinomial draw
of `shots` over the cells and computes the sample means and standard errors
exactly from the four counts, in time and memory independent of `shots`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Ensemble, Instrument, cell_tables

# Named in simulate's JSON output so that runs can be reproduced across platforms.
RNG_ALGORITHM = f"numpy.random.Generator(PCG64) numpy=={np.__version__}"

MAX_SHOTS = 2 ** 63 - 1  # the largest count numpy's multinomial accepts


@dataclass(frozen=True)
class SimulationConfig:
    shots: int
    seed: int

    def __post_init__(self):
        if isinstance(self.shots, bool) or isinstance(self.seed, bool):
            raise ValueError(f"shots and seed must be integers, not bool: {self.shots!r}, {self.seed!r}")
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


def _cell_tables(inst: Instrument, ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p[i, j] and per-shot disturbances leak[i, j] / p[i, j]."""
    probs, leaks = cell_tables(inst, ens)
    dist = np.divide(leaks, probs, out=np.zeros_like(leaks), where=probs > 0.0)
    return probs, dist


def _draw_counts(probs: np.ndarray, priors: tuple[float, ...], cfg: SimulationConfig) -> np.ndarray:
    """Counts over the (state, outcome) cells from one multinomial draw."""
    rng = np.random.default_rng(int(cfg.seed))
    # The draw rejects sums above 1 + 1e-12, which the 1e-10 completeness
    # tolerance of Instrument allows.
    cells = (np.array(priors)[:, None] * probs).ravel()
    return rng.multinomial(int(cfg.shots), cells / cells.sum()).reshape(probs.shape)


def run(inst: Instrument, ens: Ensemble, cfg: SimulationConfig) -> SimulationResult:
    """Simulate cfg.shots discrimination rounds, drawing the states by ens.priors.

    Deterministic given cfg.seed. Success means the sampled outcome index
    matches the sampled state index; the per-shot disturbance is leak / p for
    the sampled (state, outcome) cell. Returns sample means with standard
    errors (sample standard deviation / sqrt(shots)).
    """
    probs, dist = _cell_tables(inst, ens)
    counts = _draw_counts(probs, ens.priors, cfg).astype(float)
    n = int(cfg.shots)
    # Success indicator and disturbance per cell, weighted by the counts: the
    # mean() and std(ddof=1) of per-shot arrays (ddof=0 for a single shot).
    values = np.stack([np.eye(len(probs)), dist])
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
