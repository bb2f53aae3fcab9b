"""Seeded Monte Carlo plumbing: substreams, estimates, trial runners.

Every stochastic loop in the package draws its randomness through
``trial_rng``, which derives an independent generator per (seed, trial)
pair, and reductions happen over arrays in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Estimate",
    "ExpectationReport",
    "trial_rng",
    "run_trials",
    "mean_stderr",
]


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a standard error; ``exact`` marks analytic values."""

    value: float
    stderr: float
    exact: bool = False

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "exact": self.exact}


@dataclass
class ExpectationReport:
    """Monte Carlo expectation record.

    ``bound`` carries the analytic reference scale for the estimated
    quantity when one applies; ``extras`` holds experiment-specific
    reference values (measures, widths, ratios).
    """

    estimate: float
    stderr: float
    trials: int
    bound: float | None
    seed: int
    wall_time_ms: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 2:
            raise ValueError("ExpectationReport requires trials >= 2")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def to_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "trials": self.trials,
            "bound": self.bound,
            "seed": self.seed,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        return out


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of one seeded experiment."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def run_trials(
    fn: Callable[[np.random.Generator], float],
    trials: int,
    seed: int,
) -> np.ndarray:
    """Evaluate ``fn`` on ``trials`` independent substreams.

    ``fn`` may return a scalar or a fixed-length vector.  The returned
    array is indexed by trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    first = np.asarray(fn(trial_rng(seed, 0)), dtype=float)
    values = np.empty((trials,) + first.shape, dtype=float)
    values[0] = first
    for i in range(1, trials):
        values[i] = np.asarray(fn(trial_rng(seed, i)), dtype=float)
    return values


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (pairwise summation order)."""
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(n))
