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
        if self.kind == "scratch" and self.rows is not None:
            raise ConfigError("seed rows apply to generator and file seeds; "
                              "the scratch seed is a single row")


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
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint-every must be at least 1")
        if not self.corrector.temperature > 0.0:
            raise ConfigError("corrector temperature must be positive")
        if not 0.0 <= self.corrector.max_delete_fraction < 1.0:
            raise ConfigError("corrector max-delete-fraction must lie in [0, 1)")
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
    """Per-row arrays that must follow every permutation and deletion.

    ``member`` is each row's index in the membership list (-1 for none) and
    ``anchors`` its coordinates; both matter in member-list runs only.
    """

    def __init__(self, m: int, protected: bool, anchors: np.ndarray | None,
                 member: np.ndarray):
        self.ages = np.zeros(m, dtype=np.int64)
        self.conflicts = np.zeros(m, dtype=np.int64)
        self.protected = np.full(m, protected)
        self.member = member
        self.anchors = anchors

    def append(self, age: int, member: int, anchor: np.ndarray | None):
        self.ages = np.append(self.ages, age)
        self.conflicts = np.append(self.conflicts, 0)
        self.protected = np.append(self.protected, False)
        self.member = np.append(self.member, member)
        if self.anchors is not None:
            self.anchors = np.vstack([self.anchors, anchor[None, :]])

    def take(self, rows: Sequence[int]):
        """Keep ``rows``, in that order: a deletion or a permutation."""
        rows = np.asarray(rows, dtype=np.intp)
        self.ages, self.conflicts = self.ages[rows], self.conflicts[rows]
        self.protected, self.member = self.protected[rows], self.member[rows]
        if self.anchors is not None:
            self.anchors = self.anchors[rows]


def load_seed(config: GameConfig) -> tuple[GramState, np.ndarray | None]:
    """Build and validate the initial state (and coordinates when available)."""
    from .refconfigs import generate

    rational = config.mode == "rational"
    if config.seed.kind == "scratch":
        return _run_scale(GramState.single(config.dim, rational=rational), config.action), None
    if config.seed.kind == "generator":
        built = generate(config.seed.name)
    else:
        built = generate(f"FromVectorFile({config.seed.path})")
    state, anchors = built.gram, built.vectors
    if state.m == 0:
        raise InvalidSeed("seed holds no rows")
    if config.seed.rows is not None:
        k = config.seed.rows
        if not 1 <= k <= state.m:
            raise InvalidSeed(f"seed truncation to {k} rows is out of range")
        state = state.principal(range(k))
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
    return _run_scale(state, config.action), anchors


def _run_scale(state: GramState, spec: ActionSpec) -> GramState:
    """A rational seed lifted to D = lcm(its D, the denominators of c1 and c2), which
    the episode keeps: every cosine it can add is then an integer over D."""
    if state.exact is None:
        return state
    scale = math.lcm(state.exact_scale, *(x.denominator for x in spec.c1.exact + spec.c2.exact))
    if scale == state.exact_scale:
        return state
    return GramState.from_exact(state.dim, state.exact * (scale // state.exact_scale), scale)


class _FillOutcome(NamedTuple):
    state: GramState
    added: int


def _fill_phase(state: GramState, meta: _RowMeta, config: GameConfig, tree: SearchTree,
                rng: np.random.Generator, trajectory: list, round_no: int) -> _FillOutcome:
    """Extend until the budget is spent or no feasible column remains."""
    tols = config.tolerances
    member_list = config.action.c_star
    meta.conflicts = np.zeros(state.m, dtype=np.int64)
    cache: FactorCache | None = None
    added = 0
    while config.fill_budget is None or added < config.fill_budget:
        blame = np.zeros(state.m, dtype=np.int64)
        members: list[int] | None = None
        if isinstance(member_list, MembershipList):
            used = np.isin(np.arange(member_list.vectors.shape[0]), meta.member)
            pairs = enumerate_membership(state, meta.anchors, config.action,
                                         used=used, tols=tols, blame=blame)
            members = [midx for midx, _ in pairs]
            candidates = [col for _, col in pairs]
        elif state.m < state.dim:
            candidates = enumerate_small(state, config.action, tols=tols)
        else:
            if cache is None:
                try:
                    cache = factorize(state, tols=tols)
                except RankDeficientBasis:
                    try:
                        order = full_rank_prefix(state, tols=tols)
                    except RankDeficientBasis:
                        break  # rank-deficient at m >= dim: no lifted action exists
                    state = permute_state(state, order)
                    meta.take(order)
                    cache = factorize(state, tols=tols)
            candidates = enumerate_lifted(state, cache, config.action, tols=tols, blame=blame)
        meta.conflicts += blame
        if not candidates:
            break
        if len(candidates) > config.rollouts_per_move:
            pick = sorted(rng.choice(len(candidates), size=config.rollouts_per_move, replace=False))
            candidates = [candidates[i] for i in pick]
            if members is not None:
                members = [members[i] for i in pick]
        chosen, edge = select_action(tree, state, candidates)
        trajectory.append(edge)
        state = extend(state, chosen, revalidate=config.debug_revalidate, tols=tols)
        member, anchor = -1, None
        if members is not None:
            member = members[next(i for i, col in enumerate(candidates) if col is chosen)]
            anchor = member_list.vectors[member]
        meta.append(round_no, member, anchor)
        added += 1
        _check_bound(state)
        if cache is not None:
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
    member = np.full(state.m, -1)
    if membership:
        if anchors is None:
            raise InvalidSeed("membership constraint needs a coordinate-anchored seed")
        lookup = {np.rint(v * 1e9).astype(np.int64).tobytes(): i
                  for i, v in enumerate(config.action.c_star.vectors)}
        member = np.array([lookup.get(np.rint(v * 1e9).astype(np.int64).tobytes(), -1)
                           for v in anchors])
    meta = _RowMeta(state.m, protected=config.corrector.protect_seed, anchors=anchors,
                    member=member)
    _check_bound(state)
    trajectory: list[tuple[bytes, bytes]] = []
    draws: list[CorrectionDraw] = []
    sizes: list[int] = []
    state, added = _fill_phase(state, meta, config, tree, rng, trajectory, 1)
    sizes.append(state.m)
    best = state
    stagnant = 0
    for round_no in range(2, config.rounds + 1):
        if config.reassemble:
            result = decompose_reassemble(state)
            if result.protected:
                state = result.state
                meta.take(result.order)
                meta.protected[:result.protected] = True
        feats = row_features(state, config.action.c1.values, meta.ages, meta.conflicts,
                             config.rounds)
        protected = np.flatnonzero(meta.protected)
        draw = sample_index_set(policy, state, feats, rng, protected=protected)
        draws.append(draw)
        if draw.indices:
            state = apply_correction(state, draw.indices, protected=protected)
            meta.take(np.delete(np.arange(meta.ages.size), draw.indices))
        state, added = _fill_phase(state, meta, config, tree, rng, trajectory, round_no)
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
