"""Game orchestration: rewards, episodes, training, round boundaries."""

import math
from fractions import Fraction

import numpy as np
import pytest

import kissgram.game as game
from kissgram.errors import ConfigError, InvalidSeed, SoundnessError
from kissgram.filler import ActionSpec, DiscreteSet, MembershipList
from kissgram.game import (
    CorrectorConfig,
    GameConfig,
    KNOWN_OPTIMAL,
    SeedSpec,
    _check_bound,
    decompose_reassemble,
    load_seed,
    play_episode,
    team_reward,
    train_loop,
    default_policy,
)
from kissgram.filler import SearchTree
from kissgram.gram import GramState, gram_from_vectors
from kissgram.refconfigs import generate

SPEC = ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.0, 0.5)))


def test_team_reward_examples():
    assert team_reward(GramState.single(4)) == 1
    assert team_reward(generate("Hexagon").gram) == 6
    assert team_reward(generate("E8Roots").gram) == 240


def test_reward_identity_over_random_states():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        state = gram_from_vectors(vs, n)
        assert team_reward(state) == m


def test_check_bound_raises_on_impossible_claim():
    fake = GramState(dim=1, entries=np.eye(3))
    with pytest.raises(SoundnessError):
        _check_bound(fake)


def test_play_episode_dim2_reaches_hexagon():
    cfg = GameConfig(dim=2, action=SPEC, rounds=3, rng_seed=0)
    result = play_episode(cfg, load_seed(cfg), SearchTree(), default_policy(cfg),
                          np.random.default_rng(0))
    assert result.team_reward == 6
    assert result.final_state.m == 6
    assert result.per_round_sizes[0] >= 4
    assert result.team_reward <= KNOWN_OPTIMAL[2]


def test_play_episode_terminates_within_rounds():
    cfg = GameConfig(dim=3, action=SPEC, rounds=4, rng_seed=1, stagnation_window=2)
    result = play_episode(cfg, load_seed(cfg), SearchTree(), default_policy(cfg),
                          np.random.default_rng(1))
    assert len(result.per_round_sizes) <= 4


def test_train_loop_single_episode_is_best():
    cfg = GameConfig(dim=2, action=SPEC, rounds=2, rng_seed=5)
    result = train_loop(cfg, episodes=1)
    assert result.best.team_reward == result.rewards[0]


def test_train_loop_determinism():
    cfg = GameConfig(dim=3, action=SPEC, rounds=4, rng_seed=9)
    a = train_loop(cfg, episodes=8)
    b = train_loop(cfg, episodes=8)
    assert a.rewards == b.rewards
    assert np.array_equal(a.best.final_state.entries, b.best.final_state.entries)
    assert a.tree.summary() == b.tree.summary()
    assert np.array_equal(a.policy.weights, b.policy.weights)


def test_train_loop_best_is_monotone():
    cfg = GameConfig(dim=3, action=SPEC, rounds=4, rng_seed=2)
    seen: list[int] = []

    def on_episode(_, state):
        seen.append(state.best.team_reward)

    train_loop(cfg, episodes=12, on_episode=on_episode)
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def test_train_loop_validates_episode_count():
    cfg = GameConfig(dim=2, action=SPEC)
    with pytest.raises(ConfigError):
        train_loop(cfg, episodes=0)


def test_seeded_game_reaches_full_d4():
    cfg = GameConfig(dim=4, action=SPEC, rounds=5, rng_seed=3,
                     seed=SeedSpec(kind="generator", name="D4Roots", rows=4))
    result = train_loop(cfg, episodes=10)
    assert result.best.team_reward == KNOWN_OPTIMAL[4]


def test_generator_prefixes_are_full_rank_seeds():
    # Seed truncation takes leading rows, so generator orderings must put a
    # spanning set first.
    for name, n in (("D4Roots", 4), ("E8Roots", 8)):
        built = generate(name)
        assert np.linalg.matrix_rank(built.vectors[:n]) == n


def test_load_seed_rejects_wrong_dimension():
    cfg = GameConfig(dim=5, action=SPEC, seed=SeedSpec(kind="generator", name="D4Roots"))
    with pytest.raises(InvalidSeed):
        load_seed(cfg)


def test_load_seed_truncation():
    cfg = GameConfig(dim=8, action=SPEC,
                     seed=SeedSpec(kind="generator", name="E8Roots", rows=120))
    seed = load_seed(cfg)
    assert seed.state.m == 120
    assert seed.anchors is None  # coordinates are kept for member-list runs only
    e8 = generate("E8Roots").vectors
    member_list = ActionSpec(c1=SPEC.c1, c_star=MembershipList(vectors=e8[::-1]))
    seed = load_seed(GameConfig(dim=8, action=member_list, seed=cfg.seed))
    assert np.array_equal(seed.anchors, e8[:120])


def test_file_seed_builds_an_exact_gram_from_rational_coordinates(tmp_path):
    from kissgram.fileio import write_vector_file

    d4 = generate("D4Roots")
    rows = [[Fraction(int(x), 2) for x in row] for row in np.rint(d4.vectors * np.sqrt(2))]
    path = tmp_path / "d4.vec"
    write_vector_file(path, d4.vectors, mode="rational", exact_rows=rows)
    cfg = GameConfig(dim=4, action=_rational_spec(Fraction(-1), Fraction(-1, 2), Fraction(0),
                                                  Fraction(1, 2)),
                     mode="rational", seed=SeedSpec(kind="file", path=str(path)))
    state = load_seed(cfg).state
    assert state.exact_scale == d4.gram.exact_scale
    assert np.array_equal(state.exact, d4.gram.exact)
    assert np.array_equal(state.entries, d4.gram.entries)


def test_file_seed_turns_only_its_kept_rows_into_a_gram(tmp_path, monkeypatch):
    import kissgram.refconfigs as refconfigs
    from kissgram.fileio import write_vector_file

    seen = []
    real = refconfigs.config_from_vectors

    def spy(raw, dim, *args, **kwargs):
        seen.append(len(raw))
        return real(raw, dim, *args, **kwargs)

    monkeypatch.setattr(refconfigs, "config_from_vectors", spy)
    path = tmp_path / "e8.vec"
    write_vector_file(path, generate("E8Roots").vectors)
    seed = SeedSpec(kind="file", path=str(path), rows=10)
    loaded = load_seed(GameConfig(dim=8, action=SPEC, seed=seed))
    assert seen == [10]
    assert loaded.state.m == 10
    # Rows after the kept ones are not validated: a zero row or a cosine
    # above 1/2 there no longer rejects the seed.
    path.write_text("kiss-vectors v1 dim=2 count=4\n1 0\n0 1\n0 0\n1 0\n")
    seed = SeedSpec(kind="file", path=str(path), rows=2)
    assert load_seed(GameConfig(dim=2, action=SPEC, seed=seed)).state.m == 2
    with pytest.raises(InvalidSeed, match="seed rows = 5 exceeds the seed's 4 rows"):
        load_seed(GameConfig(dim=2, action=SPEC,
                             seed=SeedSpec(kind="file", path=str(path), rows=5)))


def _rational_spec(*exact: Fraction) -> ActionSpec:
    scale = math.lcm(*(x.denominator for x in exact))
    return ActionSpec(c1=DiscreteSet.from_exact([int(x * scale) for x in exact], scale))


def test_load_seed_lifts_a_rational_seed_to_the_action_denominator():
    seed = generate("E8Roots").gram  # D = 8
    spec = _rational_spec(Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(0),
                          Fraction(1, 2))
    cfg = GameConfig(dim=8, action=spec, mode="rational",
                     seed=SeedSpec(kind="generator", name="E8Roots"))
    state = load_seed(cfg).state
    assert seed.exact_scale == 8 and state.exact_scale == 24
    assert ([[Fraction(x, 24) for x in row] for row in state.exact.tolist()]
            == [[Fraction(x, 8) for x in row] for row in seed.exact.tolist()])
    assert state.entries.tobytes() == seed.entries.tobytes()
    # A denominator that already covers the cosine set is kept.
    cfg = GameConfig(dim=8, action=_rational_spec(Fraction(-1), Fraction(1, 2)),
                     mode="rational", seed=SeedSpec(kind="generator", name="E8Roots"))
    assert load_seed(cfg)[0].exact_scale == 8
    # From scratch, [[1]] over D = 1 becomes [[6]] over D = 6.
    cfg = GameConfig(dim=3, action=spec, mode="rational")
    state = load_seed(cfg).state
    assert state.exact_scale == 6 and state.exact.tolist() == [[6]]


def test_rational_fill_phase_builds_no_fractions(monkeypatch):
    # The run's D is fixed when the seed loads, and the cosine sets are
    # integer numerators: loading the seed and filling construct no Fraction
    # and read none, and every exact entry the fill appends is a Python int.
    real_new, real_extend = Fraction.__new__, game.extend
    built, reads, entry_types, inside = [], [], set(), []

    def counting_new(cls, *args, **kwargs):
        if inside:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    def counting_read(name):
        getter = getattr(Fraction, name).fget

        def read(self):
            if inside:
                reads.append(name)
            return getter(self)
        return property(read)

    def watched(fn):
        def run(*args, **kwargs):
            inside.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    def watched_extend(state, column, **kwargs):
        out = real_extend(state, column, **kwargs)
        entry_types.update(map(type, out.exact.flat))
        return out

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, counting_read(name))
    monkeypatch.setattr(game, "load_seed", watched(game.load_seed))
    monkeypatch.setattr(game, "_fill_phase", watched(game._fill_phase))
    monkeypatch.setattr(game, "extend", watched_extend)
    spec = _rational_spec(Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    result = train_loop(GameConfig(dim=3, action=spec, mode="rational", rounds=2), 2)
    assert result.best.team_reward == 12  # both enumeration regimes ran
    assert built == []
    assert reads == []
    assert entry_types == {int}


def test_game_config_validation():
    with pytest.raises(ConfigError):
        GameConfig(dim=0, action=SPEC)
    with pytest.raises(ConfigError):
        GameConfig(dim=2, action=SPEC, rounds=0)
    with pytest.raises(ConfigError):
        GameConfig(dim=2, action=SPEC, mode="rational")  # float-only value set
    with pytest.raises(ConfigError):
        GameConfig(dim=2, action=SPEC, checkpoint_every=0)
    with pytest.raises(ConfigError):
        GameConfig(dim=2, action=SPEC, corrector=CorrectorConfig(temperature=0.0))
    with pytest.raises(ConfigError):
        GameConfig(dim=2, action=SPEC, corrector=CorrectorConfig(max_delete_fraction=1.0))


def test_decompose_reassemble_detects_planted_cross_polytope():
    x3 = generate("CrossPolytope(3)")
    extra = np.array([[0.5, 0.5, 1 / np.sqrt(2)]])
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    vs = np.vstack([extra, x3.vectors[:3], extra * -1.0, x3.vectors[3:]])
    state = gram_from_vectors(vs, 3)
    result = decompose_reassemble(state)
    assert result.protected == 6
    rows = set(result.frames[0])
    assert rows == {1, 2, 3, 5, 6, 7}  # the planted +-e_i rows
    # Pure permutation: sorted rows of the matrix are unchanged.
    before = np.sort(np.sort(state.entries, axis=1), axis=0)
    after = np.sort(np.sort(result.state.entries, axis=1), axis=0)
    assert np.allclose(before, after)


def test_decompose_reassemble_no_match_is_identity():
    state = generate("Simplex(3)").gram.as_float()
    result = decompose_reassemble(state)
    assert result.protected == 0
    assert result.order == tuple(range(state.m))
    assert np.array_equal(result.state.entries, state.entries)


def test_decompose_reassemble_finds_x8_frame_in_e8():
    state = generate("E8Roots").gram.as_float()
    result = decompose_reassemble(state)
    assert result.protected >= 16
    frame = result.frames[0]
    assert len(frame) == 16
    g = state.entries
    for a in frame:
        for b in frame:
            if a != b:
                assert abs(g[a, b]) <= 1e-9 or abs(g[a, b] + 1.0) <= 1e-9
    # Each frame row has exactly one antipodal partner inside the frame.
    for a in frame:
        partners = [b for b in frame if b != a and abs(g[a, b] + 1.0) <= 1e-9]
        assert len(partners) == 1


def test_rational_mode_game_runs_exactly():
    from fractions import Fraction

    spec = _rational_spec(Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    cfg = GameConfig(dim=2, action=spec, rounds=3, rng_seed=0, mode="rational")
    result = train_loop(cfg, episodes=3)
    assert result.best.team_reward == 6
    state = result.best.final_state
    assert state.exact is not None
    values = {Fraction(state.exact[i, j], state.exact_scale)
              for i in range(6) for j in range(i + 1, 6)}
    assert values == {Fraction(-1), Fraction(-1, 2), Fraction(1, 2)}


def test_debug_revalidation_accepts_every_filler_extension():
    # Extension soundness: with revalidation on, every accepted column must
    # produce a state satisfying all invariants (else extend raises).
    cfg = GameConfig(dim=3, action=SPEC, rounds=3, rng_seed=4, debug_revalidate=True)
    result = train_loop(cfg, episodes=4)
    assert result.best.team_reward == 12


def test_membership_constrained_game_completes_e8():
    from kissgram.filler import MembershipList

    built = generate("E8Roots")
    spec = ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.0, 0.5)),
                      c_star=MembershipList(vectors=built.vectors))
    cfg = GameConfig(dim=8, action=spec, rounds=3, rng_seed=0,
                     seed=SeedSpec(kind="generator", name="E8Roots", rows=30))
    result = train_loop(cfg, episodes=1)
    assert result.best.team_reward == 240


def test_fill_budget_caps_additions_per_round():
    cfg = GameConfig(dim=2, action=SPEC, rounds=1, rng_seed=0, fill_budget=2)
    result = play_episode(cfg, load_seed(cfg), SearchTree(), default_policy(cfg),
                          np.random.default_rng(0))
    assert result.per_round_sizes == (3,)  # one sphere seed plus two additions


def test_rollout_cap_keeps_game_deterministic():
    cfg = GameConfig(dim=3, action=SPEC, rounds=3, rng_seed=6, rollouts_per_move=1)
    a = train_loop(cfg, episodes=5)
    b = train_loop(cfg, episodes=5)
    assert a.rewards == b.rewards
    assert all(r <= KNOWN_OPTIMAL[3] for r in a.rewards)


def test_trained_corrector_is_no_worse_than_always_pass():
    # The empty deletion is always available, so learned correction must not
    # lose reward: mean(trained) >= mean(always-pass) - 2 standard errors
    # over matched seeds.
    import math

    from dataclasses import replace as dc_replace

    deltas = []
    for seed in range(10):
        cfg = GameConfig(dim=3, action=SPEC, rounds=4, rng_seed=seed)
        trained = train_loop(cfg, episodes=8)
        passive_cfg = dc_replace(
            cfg, corrector=dc_replace(cfg.corrector, max_delete_fraction=0.0))
        passive = train_loop(passive_cfg, episodes=8)
        deltas.append(np.mean(trained.rewards) - np.mean(passive.rewards))
    mean_delta = float(np.mean(deltas))
    se = float(np.std(deltas, ddof=1) / math.sqrt(len(deltas)))
    assert mean_delta >= -2.0 * se


def test_rational_mode_rejects_membership_constraint():
    from kissgram.filler import MembershipList

    spec = ActionSpec(c1=DiscreteSet.from_exact([-2, 0, 1], 2),
                      c_star=MembershipList(vectors=np.eye(3)))
    with pytest.raises(ConfigError):
        GameConfig(dim=3, action=spec, mode="rational")
