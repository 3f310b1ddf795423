"""The alternating fill/correct game: rounds, rewards, restarts, training.

One episode is a single guided pass of the two-player game; the tree and the
deletion policy are updated from the shared team reward after each episode.
Episodes never report a reward above a provably optimal kissing number; that
would be a soundness bug and raises immediately.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corrector import (
    CorrectionDraw,
    CorrectorPolicy,
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
    BasisTable,
    LiftedPool,
    MembershipList,
    SearchTree,
    backpropagate,
    enumerate_lifted,
    enumerate_membership,
    enumerate_small,
    grow_digests,
    row_digests,
    select_action,
)
from .gram import (
    GramState,
    Tolerances,
    check_invariants,
    extend,
    full_rank_prefix,
    permute_state,
)

# Kissing numbers proved optimal; exceeding any of these is a bug, not a discovery.
KNOWN_OPTIMAL = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240, 24: 196560}
FRAME_MIN_PAIRS = 2  # antipodal pairs a cross-polytope frame needs to be protected
FRAME_TOL = 1e-9     # how far a frame's cosines may lie from -1 and 0


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
        if self.rows is not None and self.rows < 1:
            raise ConfigError("seed rows must be at least 1")


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
        if self.episodes < 1:
            raise ConfigError("episodes must be at least 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint-every must be at least 1")
        if self.rollouts_per_move < 1:
            raise ConfigError("rollouts-per-move must be at least 1")
        if self.fill_budget is not None and self.fill_budget < 1:
            raise ConfigError("fill-budget must be at least 1")
        if self.stagnation_window < 1:
            raise ConfigError("stagnation-window must be at least 1")
        if not self.exploration >= 0.0:
            raise ConfigError("exploration must be non-negative")
        if not all(tol >= 0.0 for tol in astuple(self.tolerances)):
            raise ConfigError("tolerances must be non-negative")
        # A placed member-list vector has cosine 1 with its own row: the cap
        # rejects it only while cosine + 1/2 < 1.
        if not self.tolerances.cosine < 0.5:
            raise ConfigError("the cosine tolerance must be below 1/2")
        if not self.corrector.temperature > 0.0:
            raise ConfigError("corrector temperature must be positive")
        if not 0.0 <= self.corrector.max_delete_fraction < 1.0:
            raise ConfigError("corrector max-delete-fraction must lie in [0, 1)")
        if not self.corrector.learning_rate >= 0.0:
            raise ConfigError("corrector learning-rate must be non-negative")
        if self.mode not in ("float", "rational"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.mode == "rational" and not self.action.is_rational:
            raise ConfigError("rational mode requires rational cosine sets")
        if self.mode == "rational" and isinstance(self.action.c_star, MembershipList):
            raise ConfigError("membership constraints run in float mode only")
        if self.rng_seed < 0:
            raise ConfigError("rng-seed must be non-negative")


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one episode; team reward equals the final sphere count."""

    final_state: GramState
    team_reward: int
    per_round_sizes: tuple[int, ...]
    trajectory: tuple[tuple[bytes, bytes], ...]
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


class Seed(NamedTuple):
    """A run's starting matrix, built once and replayed by every episode;
    ``anchors``, the rows' coordinates, are kept for member-list runs only."""

    state: GramState
    anchors: np.ndarray | None


class _RowMeta:
    """Per-row arrays that must follow every permutation and deletion;
    ``anchors`` start as the seed's (see ``Seed``).  ``conflicts`` and
    ``digests``, the state fingerprint's row digests, are reset by each fill
    phase, which keeps them current while it runs."""

    def __init__(self, seed: Seed, protected: bool):
        m = seed.state.m
        self.ages = np.zeros(m, dtype=np.int64)
        self.conflicts = np.zeros(m, dtype=np.int64)
        self.digests = np.zeros(m, dtype=np.uint64)
        self.protected = np.full(m, protected)
        self.anchors = seed.anchors

    def append(self, age: int, anchor: np.ndarray | None, state: GramState):
        """Record the row a move placed as ``state``'s last."""
        self.ages = np.append(self.ages, age)
        self.conflicts = np.append(self.conflicts, 0)
        self.digests = grow_digests(self.digests, state)
        self.protected = np.append(self.protected, False)
        if self.anchors is not None:
            self.anchors = np.vstack([self.anchors, anchor[None, :]])

    def take(self, rows: Sequence[int]):
        """Keep ``rows``, in that order: a deletion or a permutation."""
        rows = np.asarray(rows, dtype=np.intp)
        self.ages, self.conflicts = self.ages[rows], self.conflicts[rows]
        self.digests, self.protected = self.digests[rows], self.protected[rows]
        if self.anchors is not None:
            self.anchors = self.anchors[rows]


def _kept_rows(spec: SeedSpec, count: int) -> int:
    if count == 0:
        raise InvalidSeed("seed holds no rows")
    if spec.rows is None:
        return count
    if spec.rows > count:
        raise InvalidSeed(f"seed rows = {spec.rows} exceeds the seed's {count} rows")
    return spec.rows


def load_seed(config: GameConfig) -> Seed:
    """Build the run's seed: generate or read it, keep its first ``rows``
    rows, validate them and lift a rational state to the run's D.  Only a
    file seed's kept rows are normalized, checked and turned into a Gram.

    A seed that cannot start the run raises ``InvalidSeed``, a config error;
    an unreadable seed file raises ``ParseError``, and a zero row or a cosine
    above 1/2 by more than the run's cosine tolerance among the kept rows
    ``NonUnitVector`` or ``CosineCapViolation``.  ``search`` calls this once,
    before it creates any output."""
    from .fileio import read_vector_file
    from .refconfigs import config_from_vectors, generate

    rational = config.mode == "rational"
    spec = config.seed
    if spec.kind == "scratch":
        state, anchors = GramState.single(config.dim, rational=rational), None
    elif spec.kind == "generator":
        built = generate(spec.name)
        k = _kept_rows(spec, built.gram.m)
        state, anchors = built.gram.principal(range(k)), built.vectors[:k]
    else:
        doc = read_vector_file(spec.path)
        k = _kept_rows(spec, doc.count)
        built = config_from_vectors(doc.vectors[:k], doc.dim,
                                    exact=None if doc.exact is None else doc.exact[:k],
                                    tols=config.tolerances)
        state, anchors = built.gram, built.vectors
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
    _check_bound(state)
    if not isinstance(config.action.c_star, MembershipList):
        anchors = None
    elif anchors is None:
        raise InvalidSeed("membership constraint needs a coordinate-anchored seed")
    return Seed(_run_scale(state, config.action), anchors)


def _run_scale(state: GramState, spec: ActionSpec) -> GramState:
    """A rational seed lifted to D = lcm(its D, the denominators of c1 and c2), which
    the episode keeps: every cosine it can add is then an integer over D."""
    if state.exact is None:
        return state
    scale = math.lcm(state.exact_scale, spec.c1.exact_scale, spec.c2.exact_scale)
    if scale == state.exact_scale:
        return state
    return GramState.from_exact(state.dim, state.exact * (scale // state.exact_scale), scale)


class _FillOutcome(NamedTuple):
    state: GramState
    added: int


def _fill_phase(state: GramState, meta: _RowMeta, config: GameConfig, tree: SearchTree,
                rng: np.random.Generator, trajectory: list, round_no: int,
                table: BasisTable) -> _FillOutcome:
    """Extend until the budget is spent or no feasible column remains.

    Action sets come from ``table``, the run's basis table."""
    tols = config.tolerances
    member_list = config.action.c_star
    meta.conflicts = np.zeros(state.m, dtype=np.int64)
    meta.digests = row_digests(state)
    pool: LiftedPool | None = None  # once m >= dim; dropped with the phase
    added = 0
    while config.fill_budget is None or added < config.fill_budget:
        if state.m < state.dim:
            if isinstance(member_list, MembershipList):
                candidates = enumerate_membership(state, meta.anchors, config.action, tols=tols)
            else:
                candidates = enumerate_small(state, config.action, tols=tols, table=table)
        else:
            if pool is None:
                try:
                    pool = LiftedPool(state, config.action, tols=tols, table=table,
                                      anchors=meta.anchors)
                except RankDeficientBasis:  # a member-list pool factors nothing
                    try:
                        order = full_rank_prefix(state, tols=tols)
                    except RankDeficientBasis:
                        break  # rank-deficient at m >= dim: no lifted action exists
                    state = permute_state(state, order)
                    meta.take(order)
                    pool = LiftedPool(state, config.action, tols=tols, table=table)
            candidates = enumerate_lifted(pool, state, anchors=meta.anchors,
                                          blame=meta.conflicts)
        if not candidates:
            break
        if len(candidates) > config.rollouts_per_move:
            pick = np.sort(rng.choice(len(candidates), config.rollouts_per_move, replace=False))
            candidates = candidates.take(pick)
        row, edge = select_action(tree, state, candidates, meta.digests)
        trajectory.append(edge)
        column = candidates.columns[row]
        exact = None if candidates.exact is None else candidates.exact[row]
        state = extend(state, column, exact=exact, revalidate=config.debug_revalidate, tols=tols)
        members = candidates.members
        meta.append(round_no, None if members is None else member_list.vectors[members[row]],
                    state)
        added += 1
        _check_bound(state)
    return _FillOutcome(state, added)


class ReassembleResult(NamedTuple):
    state: GramState
    protected: int
    frames: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]


def decompose_reassemble(state: GramState) -> ReassembleResult:
    """Move detected cross-polytope frames into the protected prefix.

    A frame is a maximal family of antipodal row pairs that are mutually
    orthogonal, within FRAME_TOL; families below FRAME_MIN_PAIRS pairs do not
    count as structure.
    The multiset of rows is unchanged: the result is a pure permutation
    (returned as ``order`` so callers can permute row metadata identically)
    plus a protected-prefix count.
    """
    g = state.entries
    m = state.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
             if abs(g[i, j] + 1.0) <= FRAME_TOL]
    unused = list(pairs)
    frames: list[list[tuple[int, int]]] = []
    while unused:
        seedp = unused.pop(0)
        frame = [seedp]
        rest = []
        for q in unused:
            rows = [r for p in frame for r in p]
            if all(abs(g[a, b]) <= FRAME_TOL for a in q for b in rows):
                frame.append(q)
            else:
                rest.append(q)
        unused = rest
        if len(frame) >= FRAME_MIN_PAIRS:
            frames.append(frame)
    frames.sort(key=lambda fr: (-len(fr), fr[0]))
    prefix: list[int] = []
    for fr in frames:
        for i, j in fr:
            prefix.extend((i, j))
    if not prefix:
        return ReassembleResult(state, 0, (), tuple(range(m)))
    framed = set(prefix)
    order = prefix + [r for r in range(m) if r not in framed]
    new_state = permute_state(state, order)
    return ReassembleResult(new_state, len(prefix),
                            tuple(tuple(sorted(r for p in fr for r in p)) for fr in frames),
                            tuple(order))


def play_episode(config: GameConfig, seed: Seed, tree: SearchTree, policy: CorrectorPolicy,
                 rng: np.random.Generator, table: BasisTable | None = None) -> EpisodeResult:
    """One pass of the alternating game from ``seed``, up to ``config.rounds`` rounds.

    Every fill phase looks its action sets up in ``table``, the run's basis
    table (a throwaway one by default).

    The episode ends early when a fill pass adds nothing and the corrector
    passes, or when the best size stagnates for the configured window.  The
    reported state is the largest completed matrix the episode reached.
    """
    table = BasisTable() if table is None else table
    meta = _RowMeta(seed, protected=config.corrector.protect_seed)
    trajectory: list[tuple[bytes, bytes]] = []
    draws: list[CorrectionDraw] = []
    sizes: list[int] = []
    state, added = _fill_phase(seed.state, meta, config, tree, rng, trajectory, 1, table)
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
        feats = row_features(state, config.action.c1, meta.ages, meta.conflicts,
                             config.rounds)
        protected = np.flatnonzero(meta.protected)
        draw = sample_index_set(policy, state, feats, rng, protected=protected)
        draws.append(draw)
        if draw.indices:
            state = apply_correction(state, draw.indices, protected=protected)
            meta.take(np.delete(np.arange(meta.ages.size), draw.indices))
        state, added = _fill_phase(state, meta, config, tree, rng, trajectory, round_no,
                                    table)
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
        draws=tuple(draws),
    )


@dataclass
class TrainResult:
    """A run's state: what ``train_loop`` continues and a checkpoint stores."""

    tree: SearchTree
    policy: CorrectorPolicy
    best: EpisodeResult | None = None
    baseline: float = 0.0
    rewards: list[int] = field(default_factory=list)


EpisodeCallback = Callable[[int, TrainResult], None]


def default_policy(config: GameConfig) -> CorrectorPolicy:
    from .corrector import FEATURE_BASE

    return CorrectorPolicy.zeros(
        FEATURE_BASE + len(config.action.c1.values),
        temperature=config.corrector.temperature,
        max_delete_fraction=config.corrector.max_delete_fraction,
    )


def train_loop(config: GameConfig, episodes: int, *, run: TrainResult | None = None,
               rng: np.random.Generator | None = None,
               on_episode: EpisodeCallback | None = None,
               seed: Seed | None = None) -> TrainResult:
    """Run episodes, updating both learners from the shared team reward.

    Every episode replays ``seed``, built by ``load_seed(config)`` when none
    is given; the episodes share one ``BasisTable``, so the run factors and
    enumerates each basis block once.  ``run``, a fresh one by default, is
    continued in place and returned.  The best-ever result is monotone over
    episodes.  All stochastic choices flow through the single ``rng``
    stream, so a fixed seed reproduces the run bit for bit (and a checkpoint
    resume continues the same stream).
    """
    if episodes < 1:
        raise ConfigError("episodes must be at least 1")
    if run is None:
        run = TrainResult(tree=SearchTree(exploration=config.exploration),
                          policy=default_policy(config))
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    if seed is None:
        seed = load_seed(config)
    table = BasisTable()
    for _ in range(episodes):
        episode = play_episode(config, seed, run.tree, run.policy, rng, table)
        backpropagate(run.tree, episode.trajectory, float(episode.team_reward))
        run.policy, run.baseline = policy_gradient_update(
            run.policy, episode.draws, float(episode.team_reward),
            config.corrector.learning_rate, run.baseline)
        run.rewards.append(episode.team_reward)
        if run.best is None or episode.team_reward > run.best.team_reward:
            run.best = episode
        if on_episode is not None:
            on_episode(len(run.rewards), run)
    return run
