"""The alternating fill/correct game: rounds, rewards, restarts, training.

One episode is a single guided pass of the two-player game; the tree and the
deletion policy are updated from the shared team reward after each episode.
Episodes never report a reward above a provably optimal kissing number; that
would be a soundness bug and raises immediately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corrector import (
    CorrectionDraw,
    CorrectorPolicy,
    EpisodeSample,
    apply_correction,
    feature_matrix,
    policy_gradient_update,
    row_features,
    sample_index_set,
)
from .errors import (
    ConfigError,
    InvalidSeed,
    InvalidState,
    RankDeficientBasis,
    SoundnessError,
)
from .filler import (
    ActionSpec,
    MembershipList,
    SearchTree,
    backpropagate,
    enumerate_lifted,
    enumerate_membership,
    enumerate_small,
    fingerprint_column,
    fingerprint_state,
    select_action,
)
from .gram import (
    FactorCache,
    GramState,
    Tolerances,
    check_invariants,
    extend,
    extend_cache,
    factorize,
    full_rank_prefix,
    permute_state,
)

# Kissing numbers proved optimal; exceeding any of these is a bug, not a discovery.
KNOWN_OPTIMAL = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240, 24: 196560}


@dataclass(frozen=True)
class SeedSpec:
    """Where the initial Gram state comes from."""

    kind: str = "scratch"           # "scratch" | "generator" | "file"
    name: str | None = None
    path: str | None = None
    rows: int | None = None

    def __post_init__(self):
        if self.kind not in ("scratch", "generator", "file"):
            raise ConfigError(f"unknown seed kind: {self.kind!r}")
        if self.kind == "generator" and not self.name:
            raise ConfigError("generator seed needs a name")
        if self.kind == "file" and not self.path:
            raise ConfigError("file seed needs a path")


@dataclass(frozen=True)
class CorrectorConfig:
    temperature: float = 1.0
    max_delete_fraction: float = 0.2
    learning_rate: float = 0.05
    protect_seed: bool = True


@dataclass(frozen=True)
class GameConfig:
    dim: int
    action: ActionSpec
    seed: SeedSpec = SeedSpec()
    rounds: int = 5
    fill_budget: int | None = None          # None = fill until stuck
    rollouts_per_move: int = 4096           # per-move candidate sample cap
    rng_seed: int = 0
    mode: str = "float"                     # "float" | "rational"
    stagnation_window: int = 10
    exploration: float = math.sqrt(2.0)
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    reassemble: bool = False
    debug_revalidate: bool = False
    episodes: int = 100
    checkpoint_every: int = 10

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1")
        if self.mode not in ("float", "rational"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.mode == "rational" and not self.action.is_rational:
            raise ConfigError("rational mode requires rational cosine sets")
        if self.mode == "rational" and isinstance(self.action.c_star, MembershipList):
            raise ConfigError("membership constraints run in float mode only")


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one episode; team reward equals the final sphere count."""

    final_state: GramState
    team_reward: int
    per_round_sizes: tuple[int, ...]
    trajectory: tuple[tuple[bytes, bytes], ...]
    wall_time: float
    draws: tuple[CorrectionDraw, ...] = ()


def team_reward(state: GramState) -> int:
    """Squared Frobenius norm of the diagonal; asserted equal to the row count."""
    diag = np.diag(state.entries)
    value = float(diag @ diag)
    if value != float(state.m):
        raise InvalidState(f"diagonal norm {value} disagrees with sphere count {state.m}")
    return state.m


def _check_bound(state: GramState):
    bound = KNOWN_OPTIMAL.get(state.dim)
    if bound is not None and state.m > bound:
        raise SoundnessError(
            f"{state.m} spheres in dimension {state.dim} exceeds the optimal {bound}")


class _RowMeta:
    """Per-row bookkeeping that must follow every permutation and deletion."""

    def __init__(self, m: int, protected: bool, anchors: np.ndarray | None,
                 member_idx: list[int | None] | None):
        self.ages = [0] * m
        self.conflicts = np.zeros(m)
        self.protected = [protected] * m
        self.anchors = anchors
        self.member_idx = member_idx if member_idx is not None else [None] * m

    def append(self, age: int, anchor: np.ndarray | None = None,
               member: int | None = None):
        self.ages.append(age)
        self.conflicts = np.append(self.conflicts, 0.0)
        self.protected.append(False)
        self.member_idx.append(member)
        if self.anchors is not None:
            if anchor is None:
                raise InvalidState("anchored run extended without coordinates")
            self.anchors = np.vstack([self.anchors, anchor[None, :]])

    def keep(self, kept: Sequence[int]):
        self.ages = [self.ages[i] for i in kept]
        self.conflicts = self.conflicts[list(kept)]
        self.protected = [self.protected[i] for i in kept]
        self.member_idx = [self.member_idx[i] for i in kept]
        if self.anchors is not None:
            self.anchors = self.anchors[list(kept)]

    def permute(self, order: Sequence[int]):
        self.keep(order)

    def protected_rows(self) -> list[int]:
        return [i for i, p in enumerate(self.protected) if p]


def load_seed(config: GameConfig) -> tuple[GramState, np.ndarray | None]:
    """Build and validate the initial state (and coordinates when available)."""
    from .refconfigs import generate

    rational = config.mode == "rational"
    if config.seed.kind == "scratch":
        return GramState.single(config.dim, rational=rational), None
    if config.seed.kind == "generator":
        built = generate(config.seed.name)
    else:
        built = generate(f"FromVectorFile({config.seed.path})")
    state, anchors = built.gram, built.vectors
    if config.seed.rows is not None:
        k = config.seed.rows
        if not 1 <= k <= state.m:
            raise InvalidSeed(f"seed truncation to {k} rows is out of range")
        state = GramState(dim=state.dim, entries=state.entries[:k, :k],
                          exact=tuple(r[:k] for r in state.exact[:k])
                          if state.exact is not None else None)
        anchors = anchors[:k]
    if state.dim != config.dim:
        raise InvalidSeed(f"seed dimension {state.dim} disagrees with config dim {config.dim}")
    if rational:
        if state.exact is None:
            raise InvalidSeed("rational mode needs a seed with exact rational cosines")
    else:
        state = state.as_float()
    try:
        check_invariants(state, config.tolerances)
    except InvalidState as exc:
        raise InvalidSeed(str(exc)) from exc
    return state, anchors


class _FillOutcome(NamedTuple):
    state: GramState
    added: int


def _fill_phase(state: GramState, meta: _RowMeta, config: GameConfig, tree: SearchTree,
                rng: np.random.Generator, trajectory: list, round_no: int,
                used_members: np.ndarray | None) -> _FillOutcome:
    """Extend until the budget is spent or no feasible column remains."""
    tols = config.tolerances
    membership = isinstance(config.action.c_star, MembershipList)
    meta.conflicts = np.zeros(state.m)
    cache: FactorCache | None = None
    values = config.action.c1.exact + config.action.c2.exact if state.exact is not None else ()
    added = 0
    while config.fill_budget is None or added < config.fill_budget:
        blame = np.zeros(state.m)
        member_of: dict[bytes, int] = {}
        if membership:
            if meta.anchors is None:
                raise InvalidState("membership constraint needs a coordinate-anchored seed")
            pairs = enumerate_membership(state, meta.anchors, config.action,
                                         used=used_members, tols=tols, blame=blame)
            candidates = [col for _, col in pairs]
            for midx, col in pairs:
                member_of[fingerprint_column(col)] = midx
        elif state.m < state.dim:
            candidates = enumerate_small(state, config.action, tols=tols)
        else:
            if cache is None:
                try:
                    cache = factorize(state, tols=tols, values=values)
                except RankDeficientBasis:
                    try:
                        order = full_rank_prefix(state, tols=tols)
                    except RankDeficientBasis:
                        break  # rank-deficient at m >= dim: no lifted action exists
                    state = permute_state(state, order)
                    meta.permute(order)
                    cache = factorize(state, tols=tols, values=values)
            candidates = enumerate_lifted(state, cache, config.action, tols=tols, blame=blame)
        meta.conflicts = meta.conflicts + blame
        if not candidates:
            break
        if len(candidates) > config.rollouts_per_move:
            pick = rng.choice(len(candidates), size=config.rollouts_per_move, replace=False)
            candidates = [candidates[i] for i in sorted(pick)]
        chosen = select_action(tree, state, candidates)
        trajectory.append((fingerprint_state(state), fingerprint_column(chosen)))
        was_small = state.m < state.dim
        state = extend(state, chosen, revalidate=config.debug_revalidate, tols=tols)
        member = member_of.get(fingerprint_column(chosen))
        anchor = None
        if meta.anchors is not None:
            if member is None:
                raise InvalidState("anchored run accepted a column outside the member list")
            anchor = config.action.c_star.vectors[member]
            used_members[member] = True
        meta.append(age=round_no, anchor=anchor, member=member)
        added += 1
        _check_bound(state)
        if cache is not None and not was_small:
            cache = extend_cache(cache, np.asarray(chosen.head, dtype=float),
                                 exact_head=chosen.exact[: state.dim] if chosen.exact else None)
    return _FillOutcome(state, added)


class ReassembleResult(NamedTuple):
    state: GramState
    protected: int
    frames: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]


def decompose_reassemble(state: GramState, *, min_pairs: int = 2,
                         tol: float = 1e-9) -> ReassembleResult:
    """Move detected cross-polytope frames into the protected prefix.

    A frame is a maximal family of antipodal row pairs that are mutually
    orthogonal; families below ``min_pairs`` pairs do not count as structure.
    The multiset of rows is unchanged: the result is a pure permutation
    (returned as ``order`` so callers can permute row metadata identically)
    plus a protected-prefix count.
    """
    g = state.entries
    m = state.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if abs(g[i, j] + 1.0) <= tol]
    unused = list(pairs)
    frames: list[list[tuple[int, int]]] = []
    while unused:
        seedp = unused.pop(0)
        frame = [seedp]
        rest = []
        for q in unused:
            rows = [r for p in frame for r in p]
            if all(abs(g[a, b]) <= tol for a in q for b in rows):
                frame.append(q)
            else:
                rest.append(q)
        unused = rest
        if len(frame) >= min_pairs:
            frames.append(frame)
    frames.sort(key=lambda fr: (-len(fr), fr[0]))
    prefix: list[int] = []
    for fr in frames:
        for i, j in fr:
            prefix.extend((i, j))
    if not prefix:
        return ReassembleResult(state, 0, (), tuple(range(m)))
    order = prefix + [r for r in range(m) if r not in set(prefix)]
    new_state = permute_state(state, order)
    return ReassembleResult(new_state, len(prefix),
                            tuple(tuple(sorted(r for p in fr for r in p)) for fr in frames),
                            tuple(order))


def play_episode(config: GameConfig, tree: SearchTree, policy: CorrectorPolicy,
                 rng: np.random.Generator) -> EpisodeResult:
    """One pass of the alternating game, up to ``config.rounds`` rounds.

    The episode ends early when a fill pass adds nothing and the corrector
    passes, or when the best size stagnates for the configured window.  The
    reported state is the largest completed matrix the episode reached.
    """
    start = time.perf_counter()
    state, anchors = load_seed(config)
    membership = isinstance(config.action.c_star, MembershipList)
    if not membership:
        anchors = None  # coordinates are only tracked for member-list runs
    used_members = None
    member_idx: list[int | None] | None = None
    if membership:
        if anchors is None:
            raise InvalidSeed("membership constraint needs a coordinate-anchored seed")
        allowed = config.action.c_star.vectors
        used_members = np.zeros(allowed.shape[0], dtype=bool)
        lookup = {np.rint(v * 1e9).astype(np.int64).tobytes(): i
                  for i, v in enumerate(allowed)}
        member_idx = []
        for v in anchors:
            i = lookup.get(np.rint(v * 1e9).astype(np.int64).tobytes())
            member_idx.append(i)
            if i is not None:
                used_members[i] = True
    meta = _RowMeta(state.m, protected=config.corrector.protect_seed, anchors=anchors,
                    member_idx=member_idx)
    _check_bound(state)
    trajectory: list[tuple[bytes, bytes]] = []
    draws: list[CorrectionDraw] = []
    sizes: list[int] = []
    state, added = _fill_phase(state, meta, config, tree, rng, trajectory, 1, used_members)
    sizes.append(state.m)
    best = state
    stagnant = 0
    for round_no in range(2, config.rounds + 1):
        if config.reassemble:
            result = decompose_reassemble(state)
            if result.protected:
                state = result.state
                meta.permute(result.order)
                for i in range(result.protected):
                    meta.protected[i] = True
        feats = feature_matrix(
            row_features(state, config.action.c1.values, meta.ages, meta.conflicts.astype(int)),
            rounds=config.rounds)
        draw = sample_index_set(policy, state, feats, rng, protected=meta.protected_rows())
        draws.append(draw)
        if draw.indices:
            kept = [i for i in range(state.m) if i not in set(draw.indices)]
            if used_members is not None:
                for i in draw.indices:
                    mi = meta.member_idx[i]
                    if mi is not None:
                        used_members[mi] = False
            state = apply_correction(state, draw.indices, protected=meta.protected_rows())
            meta.keep(kept)
        state, added = _fill_phase(state, meta, config, tree, rng, trajectory, round_no,
                                   used_members)
        sizes.append(state.m)
        if state.m > best.m:
            best = state
            stagnant = 0
        else:
            stagnant += 1
        if added == 0 and not draw.indices:
            break
        if stagnant >= config.stagnation_window:
            break
    reward = team_reward(best)
    return EpisodeResult(
        final_state=best,
        team_reward=reward,
        per_round_sizes=tuple(sizes),
        trajectory=tuple(trajectory),
        wall_time=time.perf_counter() - start,
        draws=tuple(draws),
    )


@dataclass
class TrainResult:
    tree: SearchTree
    policy: CorrectorPolicy
    best: EpisodeResult | None
    baseline: float
    rewards: list[int]


EpisodeCallback = Callable[[int, "TrainResult"], None]


def default_policy(config: GameConfig) -> CorrectorPolicy:
    from .corrector import FEATURE_BASE

    return CorrectorPolicy.zeros(
        FEATURE_BASE + len(config.action.c1.values),
        temperature=config.corrector.temperature,
        max_delete_fraction=config.corrector.max_delete_fraction,
    )


def train_loop(config: GameConfig, episodes: int, *, tree: SearchTree | None = None,
               policy: CorrectorPolicy | None = None, rng: np.random.Generator | None = None,
               baseline: float = 0.0, best: EpisodeResult | None = None,
               rewards: list[int] | None = None,
               on_episode: EpisodeCallback | None = None) -> TrainResult:
    """Run episodes, updating both learners from the shared team reward.

    The best-ever result is monotone over episodes.  All stochastic choices
    flow through the single ``rng`` stream, so a fixed seed reproduces the
    run bit for bit (and checkpoint resume continues the same stream).
    """
    if episodes < 1:
        raise ConfigError("episodes must be at least 1")
    if tree is None:
        tree = SearchTree(exploration=config.exploration)
    if policy is None:
        policy = default_policy(config)
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    rewards = rewards if rewards is not None else []
    result = TrainResult(tree=tree, policy=policy, best=best, baseline=baseline,
                         rewards=rewards)
    for _ in range(episodes):
        episode = play_episode(config, result.tree, result.policy, rng)
        backpropagate(result.tree, episode.trajectory, float(episode.team_reward))
        if episode.draws:
            sample = EpisodeSample(draws=episode.draws, team_reward=float(episode.team_reward))
            result.policy, result.baseline = policy_gradient_update(
                result.policy, [sample], config.corrector.learning_rate, result.baseline)
        else:
            result.baseline = 0.9 * result.baseline + 0.1 * episode.team_reward
        result.rewards.append(episode.team_reward)
        if result.best is None or episode.team_reward > result.best.team_reward:
            result.best = episode
        if on_episode is not None:
            on_episode(len(result.rewards), result)
    return result
