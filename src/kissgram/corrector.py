"""Player 2: sample row deletions and learn which rows block expansion.

The policy scores rows from geometric features with a linear function and
samples a deletion set through a temperatured softmax without replacement.
Training is plain REINFORCE on the shared team reward with a moving-average
baseline.  Each draw records its score, the exact gradient of its
log-likelihood at the sampling policy, while it samples, so an update
replays no softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, ProtectedRow
from .filler import DiscreteSet
from .gram import GramState

FEATURE_BASE = 4  # max-cosine degree, mean cosine, age, conflict score


def row_features(state: GramState, c1: DiscreteSet, ages: Sequence[int],
                 conflicts: Sequence[int], rounds: int) -> np.ndarray:
    """Normalized m x (FEATURE_BASE + len(c1.values)) feature matrix for policy scoring.

    Per row: the share of its m - 1 partners at the state's largest
    off-diagonal cosine, its mean cosine, its age over ``rounds``, its share
    of the total conflict score, and the share of partners whose cosine lies
    nearest each c1 value (``DiscreteSet.nearest``, so the value shares
    account for all m - 1).
    """
    m = state.m
    k = len(c1.values)
    conflicts = np.asarray(conflicts, dtype=np.int64)
    denom = max(m - 1, 1)
    out = np.zeros((m, FEATURE_BASE + k))
    out[:, 2] = np.asarray(ages, dtype=np.int64) / max(rounds, 1)
    out[:, 3] = conflicts / max(int(conflicts.sum()), 1)
    if m > 1:
        off = state.entries[~np.eye(m, dtype=bool)].reshape(m, m - 1)
        out[:, 0] = np.count_nonzero(np.abs(off - off.max()) <= 1e-9, axis=1) / denom
        out[:, 1] = off.mean(axis=1)
        if k:
            # Bin (row, nearest value) pairs as row * k + value: one count per cell.
            cell = c1.nearest(off) + k * np.arange(m)[:, None]
            counts = np.bincount(cell.ravel(), minlength=m * k).reshape(m, k)
            out[:, FEATURE_BASE:] = counts / denom
    return out


@dataclass(frozen=True)
class CorrectorPolicy:
    """Feature-linear softmax deletion policy."""

    weights: np.ndarray
    temperature: float = 1.0
    max_delete_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.max_delete_fraction < 1.0:
            raise ValueError("max_delete_fraction must lie in [0, 1)")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        w = np.ascontiguousarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def zeros(n_features: int, **kwargs) -> "CorrectorPolicy":
        return CorrectorPolicy(weights=np.zeros(n_features), **kwargs)


@dataclass(frozen=True)
class CorrectionDraw:
    """One sampled deletion: the set, the draw order, and its score, the exact
    gradient of its log-likelihood in the weights, recorded at sampling."""

    indices: tuple[int, ...]       # sorted deletion set
    sequence: tuple[int, ...]      # order the rows were drawn in
    score: np.ndarray              # d log P(sequence) / d weights, read-only


def sample_index_set(policy: CorrectorPolicy, state: GramState, features: np.ndarray,
                     rng: np.random.Generator, protected: Sequence[int] = ()) -> CorrectionDraw:
    """Sample rows for deletion (softmax without replacement, capped size).

    The set size is a Binomial(len(eligible), max_delete_fraction) draw
    truncated at floor(max_delete_fraction * m); an empty set is a legal
    pass.  Protected rows are never eligible.  Each step adds its pick's
    features minus their expectation under the step's probabilities, over
    the temperature, to the draw's score.
    """
    m = state.m
    blocked = set(int(i) for i in protected)
    remaining = [i for i in range(m) if i not in blocked]
    cap = int(policy.max_delete_fraction * m)
    k = 0
    if remaining and cap > 0:
        k = min(int(rng.binomial(len(remaining), policy.max_delete_fraction)), cap, len(remaining))
    row_scores = features @ policy.weights
    score = np.zeros_like(policy.weights)
    sequence: list[int] = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        for _ in range(k):
            logits = row_scores[remaining] / policy.temperature
            logits -= logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
            if not np.isfinite(probs).all():
                raise ConfigError(f"corrector temperature {policy.temperature:g} overflows "
                                  "the deletion softmax")
            # Generator.choice's draw, without its per-call checks of p.
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            i = int(cdf.searchsorted(rng.random(), side="right"))
            score += (features[remaining[i]] - probs @ features[remaining]) / policy.temperature
            sequence.append(remaining.pop(i))
    score.setflags(write=False)
    return CorrectionDraw(indices=tuple(sorted(sequence)), sequence=tuple(sequence),
                          score=score)


def apply_correction(state: GramState, delete_set: Sequence[int],
                     protected: Sequence[int] = ()) -> GramState:
    """Principal submatrix on the kept rows; invariants survive deletion."""
    m = state.m
    doomed = set(int(i) for i in delete_set)
    dels = sorted(doomed)
    if any(i < 0 or i >= m for i in dels):
        raise IndexError(f"deletion index out of range for m={m}")
    shielded = set(int(i) for i in protected)
    bad = [i for i in dels if i in shielded]
    if bad:
        raise ProtectedRow(f"rows {bad} are protected")
    keep = [i for i in range(m) if i not in doomed]
    return state.principal(keep)


def policy_gradient_update(policy: CorrectorPolicy, draws: Sequence[CorrectionDraw],
                           team_reward: float, learning_rate: float,
                           baseline: float) -> tuple[CorrectorPolicy, float]:
    """One REINFORCE step for one episode; returns (new policy, updated
    moving baseline).

    The weights move along the advantage-weighted score gradients of the
    episode's draws; an episode without draws, or whose reward equals the
    baseline, leaves them as they are.
    """
    advantage = team_reward - baseline
    if draws and advantage != 0.0:
        grad = np.zeros_like(policy.weights)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
            for draw in draws:
                grad += advantage * draw.score
            weights = policy.weights + learning_rate * grad
        if not np.isfinite(weights).all():
            raise ConfigError(f"corrector learning-rate {learning_rate:g} at temperature "
                              f"{policy.temperature:g} overflows the deletion policy weights")
        policy = replace(policy, weights=weights)
    return policy, 0.9 * baseline + 0.1 * team_reward
