"""Player 2: sample row deletions and learn which rows block expansion.

The policy scores rows from geometric features with a linear function and
samples a deletion set through a temperatured softmax without replacement.
Training is plain REINFORCE on the shared team reward with a moving-average
baseline; the log-likelihood gradient is exact and finite-difference checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ProtectedRow
from .gram import GramState

FEATURE_BASE = 4  # max-cosine degree, mean cosine, age, conflict score


def row_features(state: GramState, c1_values: Sequence[float], ages: Sequence[int],
                 conflicts: Sequence[int], rounds: int) -> np.ndarray:
    """Normalized m x (FEATURE_BASE + len(c1_values)) feature matrix for policy scoring.

    Per row: the share of its m - 1 partners at the state's largest
    off-diagonal cosine, its mean cosine, its age over ``rounds``, its share
    of the total conflict score, and the share of partners whose cosine lies
    nearest each c1 value (so the value shares account for all m - 1).
    """
    m = state.m
    vals = np.asarray(c1_values, dtype=float)
    k = vals.size
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
            cell = np.abs(off[:, :, None] - vals).argmin(axis=2) + k * np.arange(m)[:, None]
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
    """One sampled deletion: the set, the draw order, and its context."""

    indices: tuple[int, ...]       # sorted deletion set
    sequence: tuple[int, ...]      # order the rows were drawn in
    eligible: tuple[int, ...]      # rows that were available to the sampler
    features: np.ndarray           # feature matrix at sampling time


def _softmax_steps(scores: np.ndarray, eligible: Sequence[int], temperature: float,
                   steps: int):
    """Softmax sampling without replacement over ``eligible`` rows.

    Yields ``steps`` times the list of rows still available and their
    probabilities; the caller removes the row it picks from that list before
    asking for the next step.
    """
    remaining = list(eligible)
    for _ in range(steps):
        logits = scores[remaining] / temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        yield remaining, probs


def sample_index_set(policy: CorrectorPolicy, state: GramState, features: np.ndarray,
                     rng: np.random.Generator, protected: Sequence[int] = ()) -> CorrectionDraw:
    """Sample rows for deletion (softmax without replacement, capped size).

    The set size is a Binomial(len(eligible), max_delete_fraction) draw
    truncated at floor(max_delete_fraction * m); an empty set is a legal
    pass.  Protected rows are never eligible.
    """
    m = state.m
    blocked = set(int(i) for i in protected)
    eligible = [i for i in range(m) if i not in blocked]
    cap = int(policy.max_delete_fraction * m)
    k = 0
    if eligible and cap > 0:
        k = min(int(rng.binomial(len(eligible), policy.max_delete_fraction)), cap, len(eligible))
    sequence: list[int] = []
    for remaining, probs in _softmax_steps(features @ policy.weights, eligible,
                                           policy.temperature, k):
        sequence.append(remaining.pop(int(rng.choice(len(remaining), p=probs))))
    return CorrectionDraw(
        indices=tuple(sorted(sequence)),
        sequence=tuple(sequence),
        eligible=tuple(eligible),
        features=features,
    )


def apply_correction(state: GramState, delete_set: Sequence[int],
                     protected: Sequence[int] = ()) -> GramState:
    """Principal submatrix on the kept rows; invariants survive deletion."""
    m = state.m
    dels = sorted(set(int(i) for i in delete_set))
    if any(i < 0 or i >= m for i in dels):
        raise IndexError(f"deletion index out of range for m={m}")
    shielded = set(int(i) for i in protected)
    bad = [i for i in dels if i in shielded]
    if bad:
        raise ProtectedRow(f"rows {bad} are protected")
    keep = [i for i in range(m) if i not in set(dels)]
    return state.principal(keep)


def log_prob(policy: CorrectorPolicy, draw: CorrectionDraw) -> float:
    """Log-likelihood of the drawn sequence, up to the weight-independent
    size term."""
    steps = _softmax_steps(draw.features @ policy.weights, draw.eligible,
                           policy.temperature, len(draw.sequence))
    total = 0.0
    for pick, (remaining, probs) in zip(draw.sequence, steps):
        total += float(np.log(probs[remaining.index(pick)]))
        remaining.remove(pick)
    return total


def grad_log_prob(policy: CorrectorPolicy, draw: CorrectionDraw) -> np.ndarray:
    """Exact gradient of log_prob with respect to the policy weights."""
    steps = _softmax_steps(draw.features @ policy.weights, draw.eligible,
                           policy.temperature, len(draw.sequence))
    grad = np.zeros_like(policy.weights)
    for pick, (remaining, probs) in zip(draw.sequence, steps):
        grad += (draw.features[pick] - probs @ draw.features[remaining]) / policy.temperature
        remaining.remove(pick)
    return grad


@dataclass(frozen=True)
class EpisodeSample:
    """Training record: the deletions drawn in one episode and its reward."""

    draws: tuple[CorrectionDraw, ...]
    team_reward: float


def policy_gradient_update(policy: CorrectorPolicy, episodes: Sequence[EpisodeSample],
                           learning_rate: float, baseline: float) -> tuple[CorrectorPolicy, float]:
    """One REINFORCE step; returns (new policy, updated moving baseline).

    Weights move along mean advantage-weighted score gradients; episodes
    whose reward equals the baseline contribute nothing.
    """
    if not episodes:
        raise ValueError("policy_gradient_update needs at least one episode")
    grad = np.zeros_like(policy.weights)
    for ep in episodes:
        advantage = ep.team_reward - baseline
        if advantage == 0.0:
            continue
        for draw in ep.draws:
            grad += advantage * grad_log_prob(policy, draw)
    grad /= len(episodes)
    new_weights = policy.weights + learning_rate * grad
    mean_reward = sum(ep.team_reward for ep in episodes) / len(episodes)
    new_baseline = 0.9 * baseline + 0.1 * mean_reward
    return replace(policy, weights=new_weights), new_baseline
