"""Seeded Monte Carlo plumbing: substreams, estimates, trial runners.

Every stochastic loop in the package draws its randomness through
``trial_rng``, which derives an independent generator per (seed, trial)
pair, and reductions happen over arrays in trial order.

The stream of trial i of seed s is ``PCG64(SeedSequence((s, i)))`` bit for
bit.  The SeedSequence hash (NumPy's documented, stream-stable algorithm
with pool size 4) is computed here for 256 trials at a time in one numpy
pass, and each generator is seeded from those cached words.  The first
trial of a block (row 0) takes its words from ``SeedSequence`` itself
instead, without hashing the block: a caller that draws only trial 0 of a
fresh seed, as every sweep attempt does, pays for one hash, not 256.  So
``trial_rng(s, i).bit_generator.seed_seq`` is a private ``ISeedSequence``
that only answers PCG64's seeding request, not a ``SeedSequence``; it has
no ``entropy`` and cannot ``spawn``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Estimate",
    "ExpectationReport",
    "check_trials",
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
        check_trials(self.trials)
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


def check_trials(trials: int) -> None:
    """The trial count of an estimate with a standard error (an
    ``ExpectationReport``, the disc-ring report), checked before any draw."""
    if trials < 2:
        raise ValueError(f"a standard error requires trials >= 2 (trials must be >= 1 to draw), not {trials}")


# Trials whose seed words are hashed together; an aligned block never
# straddles a multiple of 2^32, so its trials have equally many words.
_SEED_BLOCK = 256

# SeedSequence constants (numpy.random.bit_generator, pool size 4), and
# the number of uint64 words PCG64 asks its seed sequence for.
_POOL_SIZE = 4
_STATE_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer ([0] for 0)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.lru_cache(maxsize=64)
def _block_words(seed: int, block: int) -> np.ndarray:
    """``SeedSequence((seed, t)).generate_state(4, np.uint64)`` for the 256
    trials t of one aligned block, as a read-only (256, 4) array.

    Each entropy word is a uint32 column over the block: the seed's words,
    then the trial's words, whose lowest one is the only one that varies.
    """
    first = _uint32_words(block * _SEED_BLOCK)
    entropy = [np.full(_SEED_BLOCK, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(first[0], first[0] + _SEED_BLOCK, dtype=np.uint32))
    entropy += [np.full(_SEED_BLOCK, w, dtype=np.uint32) for w in first[1:]]

    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(_SEED_BLOCK, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(2 * _STATE_WORDS):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # Consecutive uint32 words pair up little-endian into uint64 words.
    lo, hi = np.stack(state[0::2], axis=1), np.stack(state[1::2], axis=1)
    words = lo | (hi << np.uint64(32))
    words.flags.writeable = False
    return words


class _TrialSeed(ISeedSequence):
    """The cached seed words of one trial, handed to PCG64."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _STATE_WORDS or dtype is not np.uint64:
            raise ValueError("a trial seed only answers PCG64's request for 4 uint64 words")
        return self._words


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of one seeded experiment.

    The stream equals ``Generator(PCG64(SeedSequence((seed, trial))))`` bit
    for bit, and every call returns a fresh generator, whose
    ``bit_generator.seed_seq`` is not a SeedSequence.  ``seed`` and
    ``trial`` must be nonnegative integers (ValueError for negatives,
    TypeError for non-integers, as SeedSequence).

    The first trial of a 256-trial block gets its words from one
    ``SeedSequence`` and leaves the block cache alone; any other trial
    hashes (or finds cached) its whole block.
    """
    seed, trial = operator.index(seed), operator.index(trial)
    if seed < 0 or trial < 0:
        raise ValueError(f"seed and trial must be nonnegative, got ({seed}, {trial})")
    block, row = divmod(trial, _SEED_BLOCK)
    if row:
        words = _block_words(seed, block)[row]
    else:
        words = np.random.SeedSequence((seed, trial)).generate_state(_STATE_WORDS, np.uint64)
        words.flags.writeable = False
    return np.random.Generator(np.random.PCG64(_TrialSeed(words)))


def run_trials(
    fn: Callable[[np.random.Generator], float],
    trials: int,
    seed: int,
) -> np.ndarray:
    """Evaluate ``fn`` on ``trials`` independent substreams.

    ``fn`` may return a scalar or a fixed-length vector.  The returned
    array is indexed by trial.

    In the package its one caller is ``lattice.estimate_card``.  The other
    lattice estimators draw their trials in blocks
    (``lattice._lattice_blocks``); ``estimate_card`` keeps one
    ``sample_lattice`` and one ``intersect`` per trial because perfbench's
    tracing test (``perfbench/test_perfbench.py``) pins those per-trial
    calls, and it can move to the blocks once that test no longer does.
    A trial of ``estimate_card`` on a disc of radius 2 costs about 40 us
    (2-vCPU Xeon): about 22 us for ``sample_lattice``, of which the QR and
    determinant gufuncs take 3 us and ``_check_rotations`` 6 us, about
    11 us for ``intersect`` and 2-3 us for ``trial_rng``.
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
