"""Candidate enumeration against an exhaustive oracle, and UCB selection."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import kissgram.filler as filler
from kissgram.cli import main
from kissgram.errors import EmptyCandidates, EnumerationOverflow
from kissgram.filler import (
    ActionSpec,
    CapOnly,
    DiscreteSet,
    MembershipList,
    SearchTree,
    _confirm_exact_lifted,
    _exact_schur_positive,
    _expand_columns,
    backpropagate,
    enumerate_lifted,
    enumerate_membership,
    enumerate_small,
    fingerprint_column,
    fingerprint_state,
    select_action,
)
from kissgram.gram import (
    CandidateColumn,
    GramState,
    Tolerances,
    extend,
    extend_cache,
    factorize,
    full_rank_prefix,
    gram_from_vectors,
    permute_state,
)
from kissgram.game import GameConfig, SeedSpec, load_seed
from kissgram.rational import exact_inverse, exact_matvec, scaled_integers
from kissgram.refconfigs import generate

TOLS = Tolerances()
C1 = (-1.0, -0.5, 0.0, 0.5)


def oracle_small(state: GramState, values, tols=TOLS) -> set[tuple[float, ...]]:
    """Exhaustive rank-increasing action set via full eigenvalue checks."""
    m = state.m
    out = set()
    for tup in itertools.product(values, repeat=m):
        g = np.zeros((m + 1, m + 1))
        g[:m, :m] = state.entries
        g[m, :m] = tup
        g[:m, m] = tup
        g[m, m] = 1.0
        w = np.linalg.eigvalsh(g)
        if w[0] >= -tols.psd and int(np.count_nonzero(w > tols.rank)) == m + 1:
            out.add(tup)
    return out


def oracle_lifted(state: GramState, values, c2, tols=TOLS) -> set[tuple[float, ...]]:
    """Exhaustive lifted action set via dense inverses and pseudo-inverses."""
    n = state.dim
    basis = state.entries[:n, :n]
    chol = np.linalg.cholesky(basis)
    pinv = np.linalg.pinv(basis)
    cross = state.entries[n:, :n]
    out = set()
    for head in itertools.product(values, repeat=n):
        h = np.array(head)
        y = np.linalg.inv(chol) @ h
        if abs(np.linalg.norm(y) - 1.0) > tols.psd:
            continue
        tail = cross @ pinv @ h
        if isinstance(c2, CapOnly):
            if tail.size and tail.max() > c2.max_value + tols.cosine:
                continue
            snapped = tail
        else:
            snapped = []
            ok = True
            for t in tail:
                dist = [abs(t - v) for v in c2.values]
                k = int(np.argmin(dist))
                if dist[k] > tols.snap:
                    ok = False
                    break
                snapped.append(c2.values[k])
            if not ok:
                continue
            snapped = np.array(snapped)
        out.add(tuple(np.concatenate([h, snapped]).tolist()))
    return out


def as_set(candidates) -> set[tuple[float, ...]]:
    return {tuple(c.full.tolist()) for c in candidates}


def test_enumerate_small_single_sphere_example():
    spec = ActionSpec(c1=DiscreteSet(C1))
    got = as_set(enumerate_small(GramState.single(3), spec))
    assert got == {(-0.5,), (0.0,), (0.5,)}  # [-1] loses rank, [1] is capped out


def test_enumerate_small_matches_oracle_on_identity_pair():
    spec = ActionSpec(c1=DiscreteSet(C1))
    state = GramState(dim=3, entries=np.eye(2))
    assert as_set(enumerate_small(state, spec)) == oracle_small(state, C1)


def test_enumerate_small_empty_value_set():
    spec = ActionSpec(c1=DiscreteSet(()))
    assert enumerate_small(GramState.single(2), spec) == []


def test_enumerate_small_is_lexicographic():
    spec = ActionSpec(c1=DiscreteSet(C1))
    state = GramState(dim=3, entries=np.eye(2))
    cols = [tuple(c.full.tolist()) for c in enumerate_small(state, spec)]
    assert cols == sorted(cols)


def test_enumerate_lifted_recovers_missing_e8_root():
    spec = ActionSpec(c1=DiscreteSet(C1))
    e8 = generate("E8Roots").gram.as_float()
    state = permute_state(e8, full_rank_prefix(e8))
    sub = GramState(dim=8, entries=state.entries[:239, :239])
    cands = enumerate_lifted(sub, factorize(sub), spec)
    assert len(cands) == 1
    assert np.abs(cands[0].full - state.entries[239, :239]).max() < 1e-9


def test_enumerate_lifted_hexagon_is_stuck():
    spec = ActionSpec(c1=DiscreteSet(C1))
    hexagon = generate("Hexagon").gram.as_float()
    assert enumerate_lifted(hexagon, factorize(hexagon), spec) == []


def test_enumerate_lifted_cap_only_postcondition():
    rng = np.random.default_rng(0)
    spec = ActionSpec(c1=DiscreteSet(C1), c2=CapOnly(0.5))
    built = generate("CrossPolytope(3)").gram.as_float()
    cands = enumerate_lifted(built, factorize(built), spec)
    for c in cands:
        assert c.tail.size == 0 or c.tail.max() <= 0.5 + 1e-9


def test_enumerate_lifted_agrees_with_oracle_randomized():
    rng = np.random.default_rng(12)
    spec_values_pool = [(-1.0, -0.5, 0.0, 0.5), (-1.0, -0.5, 0.5), (-0.5, 0.0, 0.5)]
    for _ in range(40):
        n = int(rng.integers(2, 4))
        extra = int(rng.integers(0, 3))
        values = spec_values_pool[int(rng.integers(len(spec_values_pool)))]
        state = _random_discrete_state(rng, n, n + extra, values)
        if state is None:
            continue
        spec = ActionSpec(c1=DiscreteSet(values))
        cands = enumerate_lifted(state, factorize(state), spec)
        assert as_set(cands) == oracle_lifted(state, values, spec.c2)


def _random_discrete_state(rng, n, m, values):
    """Grow a random feasible configuration over the given cosine set."""
    state = GramState.single(n)
    spec = ActionSpec(c1=DiscreteSet(values))
    while state.m < m:
        if state.m < n:
            cands = enumerate_small(state, spec)
        else:
            try:
                cands = enumerate_lifted(state, factorize(state), spec)
            except Exception:
                return None
        if not cands:
            return state if state.m >= n else None
        state = extend(state, cands[int(rng.integers(len(cands)))])
    return state


def test_selection_cold_tree_takes_first_candidate():
    tree = SearchTree()
    state = GramState.single(2)
    a = CandidateColumn(head=np.array([0.5]))
    b = CandidateColumn(head=np.array([0.0]))
    chosen, edge = select_action(tree, state, [a, b])
    assert chosen is a
    assert edge == (fingerprint_state(state), fingerprint_column(a))


def test_selection_pure_exploitation():
    tree = SearchTree(exploration=0.0)
    state = GramState.single(2)
    a = CandidateColumn(head=np.array([0.5]))
    b = CandidateColumn(head=np.array([0.0]))
    fp = fingerprint_state(state)
    backpropagate(tree, [(fp, fingerprint_column(a))], 1.0)
    backpropagate(tree, [(fp, fingerprint_column(b))], 0.0)
    assert select_action(tree, state, [a, b])[0] is a


def test_selection_exploration_bonus_flips_choice():
    # Q(a)=1.0 with 90 visits, Q(b)=0.9 with 10 visits, c=1:
    # bonus(b) = sqrt(ln(100)/10) ~ 0.679 beats the 0.1 value gap.
    assert math.sqrt(math.log(100) / 10) - math.sqrt(math.log(100) / 90) > 0.1
    tree = SearchTree(exploration=1.0)
    state = GramState.single(2)
    a = CandidateColumn(head=np.array([0.5]))
    b = CandidateColumn(head=np.array([0.0]))
    fp = fingerprint_state(state)
    for _ in range(90):
        backpropagate(tree, [(fp, fingerprint_column(a))], 1.0)
    for _ in range(10):
        backpropagate(tree, [(fp, fingerprint_column(b))], 0.9)
    chosen, edge = select_action(tree, state, [a, b])
    assert chosen is b
    assert edge == (fp, fingerprint_column(b))


def test_selection_empty_candidates():
    with pytest.raises(EmptyCandidates):
        select_action(SearchTree(), GramState.single(2), [])


def test_backpropagate_running_mean():
    tree = SearchTree()
    edge = (b"s", b"a")
    backpropagate(tree, [edge], 6.0)
    assert tree.edge_value[edge] == 6.0 and tree.edge_visits[edge] == 1
    backpropagate(tree, [edge], 10.0)
    assert tree.edge_value[edge] == 8.0 and tree.edge_visits[edge] == 2
    for _ in range(5):
        backpropagate(tree, [edge], 8.0)
    assert tree.edge_value[edge] == pytest.approx(8.0)
    assert tree.node_visits[b"s"] == 7


def test_fingerprint_is_permutation_invariant():
    built = generate("D4Roots").gram.as_float()
    rng = np.random.default_rng(3)
    order = list(rng.permutation(built.m))
    assert fingerprint_state(built) == fingerprint_state(permute_state(built, order))
    other = generate("CrossPolytope(4)").gram.as_float()
    assert fingerprint_state(built) != fingerprint_state(other)


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec(c1=DiscreteSet((0.9,)))
    with pytest.raises(ValueError):
        ActionSpec(c1=DiscreteSet(C1), c2=CapOnly(0.7))
    spec = ActionSpec(c1=DiscreteSet(C1))
    assert isinstance(spec.c2, DiscreteSet)  # defaults to C1


def test_enumeration_determinism():
    spec = ActionSpec(c1=DiscreteSet(C1))
    built = generate("D4Roots").gram.as_float()
    state = permute_state(built, full_rank_prefix(built))
    sub = GramState(dim=4, entries=state.entries[:20, :20])
    runs = [as_set(enumerate_lifted(sub, factorize(sub), spec)) for _ in range(2)]
    assert runs[0] == runs[1]
    streams = [[tuple(c.full.tolist()) for c in enumerate_lifted(sub, factorize(sub), spec)]
               for _ in range(2)]
    assert streams[0] == streams[1]


def test_enumerate_membership_restricts_to_list():
    built = generate("D4Roots")
    spec = ActionSpec(c1=DiscreteSet(C1), c_star=MembershipList(vectors=built.vectors))
    state = gram_from_vectors(built.vectors[:6], 4)
    used = np.zeros(24, dtype=bool)
    used[:6] = True
    pairs = enumerate_membership(state, built.vectors[:6], spec, used=used)
    assert pairs, "remaining roots must be reachable"
    for idx, col in pairs:
        assert not used[idx]
        expected = built.vectors[idx] @ built.vectors[:6].T
        assert np.abs(col.full - expected).max() < 1e-7


def test_enumerate_membership_small_regime_requires_rank_growth():
    built = generate("CrossPolytope(3)")
    spec = ActionSpec(c1=DiscreteSet(C1), c_star=MembershipList(vectors=built.vectors))
    state = gram_from_vectors(built.vectors[:1], 3)
    used = np.zeros(6, dtype=bool)
    used[0] = True
    pairs = enumerate_membership(state, built.vectors[:1], spec, used=used)
    # The antipode -e1 extends PSD but keeps rank 1, so it is excluded.
    indices = {i for i, _ in pairs}
    assert 3 not in indices
    assert {1, 2, 4, 5} <= indices


def test_blame_counts_single_violator_rows():
    spec = ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.5)))
    e8 = generate("E8Roots").gram.as_float()
    state = permute_state(e8, full_rank_prefix(e8))
    sub = GramState(dim=8, entries=state.entries[:40, :40])
    blame = np.zeros(40)
    enumerate_lifted(sub, factorize(sub), spec, blame=blame)
    assert blame[:8].sum() == 0  # heads are never blamed
    assert blame.sum() >= 0


def test_enumerate_small_rejects_lifted_regime():
    from kissgram.errors import DimensionMismatch

    spec = ActionSpec(c1=DiscreteSet(C1))
    state = GramState(dim=2, entries=np.eye(2))
    with pytest.raises(DimensionMismatch):
        enumerate_small(state, spec)
    with pytest.raises(DimensionMismatch):
        enumerate_lifted(GramState.single(3), factorize(state), spec)


def test_enumeration_overflow_raises_and_search_exits_3(monkeypatch, tmp_path, capsys):
    # From one sphere in dimension 3, the first level keeps -1/2, 0 and 1/2.
    monkeypatch.setattr(filler, "MAX_ENUMERATION_WIDTH", 2)
    spec = ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.0, 0.5)))
    with pytest.raises(EnumerationOverflow, match="3 partial columns at level 0"):
        enumerate_small(GramState.single(3), spec)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 3\nepisodes = 1\nout-dir = out\n")
    capsys.readouterr()
    assert main(["search", "--config", str(cfg)]) == 3
    assert "3 partial columns at level 0" in capsys.readouterr().err


def test_action_spec_rejects_capped_out_tail_values():
    with pytest.raises(ValueError):
        ActionSpec(c1=DiscreteSet((0.0,)), c2=DiscreteSet((0.9,)))


# Exact confirmation on integer numerators against the Fraction reference path.

RATIONAL_C1 = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def _rational_spec(exact=RATIONAL_C1) -> ActionSpec:
    return ActionSpec(c1=DiscreteSet(tuple(float(x) for x in exact), exact))


def _truncated(name: str, rows: int, spec: ActionSpec) -> GramState:
    """The first rows of a generator, lifted to the spec's denominator by load_seed."""
    # The first dim rows of both generators are independent.
    config = GameConfig(dim=generate(name).gram.dim, action=spec, mode="rational",
                        seed=SeedSpec(kind="generator", name=name, rows=rows))
    return load_seed(config)[0]


def as_fractions(column, state: GramState) -> tuple[Fraction, ...] | None:
    """An exact column of integer numerators as Fractions over the state's D."""
    return None if column is None else tuple(Fraction(x, state.exact_scale) for x in column)


def fractions(state: GramState) -> list[list[Fraction]]:
    """The exact entries of a state as Fractions, for the reference kernels."""
    return [[Fraction(x, state.exact_scale) for x in row] for row in state.exact.tolist()]


def fraction_confirm(state: GramState, spec: ActionSpec, idx: np.ndarray) -> list:
    """Per-candidate confirmation on Fractions: B^-1 by Gauss-Jordan, lifts by matvec."""
    n = state.dim
    gram = fractions(state)
    inv = exact_inverse([row[:n] for row in gram[:n]])
    cross = [row[:n] for row in gram[n:]]
    allowed = set(spec.c2.exact)
    out = []
    for row in idx:
        head = tuple(spec.c1.exact[i] for i in row)
        coeff = exact_matvec(inv, head)
        tail = exact_matvec(cross, coeff)
        unit = sum(h * c for h, c in zip(head, coeff)) == 1
        out.append(head + tail if unit and all(t in allowed for t in tail) else None)
    return out


def _prescreened_and_random(state: GramState, spec: ActionSpec, cache, rng) -> np.ndarray:
    """Heads passing the float unit-norm prescreen (before the tail filter), plus random rows."""
    values = np.asarray(spec.c1.values)
    _, idx, s = _expand_columns(cache.chol_factor, values, (1 + 1e-6) ** 2, False)
    idx = idx[np.abs(np.sqrt(s) - 1.0) <= 1e-6]
    return np.vstack([idx, rng.integers(0, values.size, size=(50, state.dim))])


def _dtype_recorder(monkeypatch) -> list:
    chosen = []
    real = filler.integer_dtype

    def recording(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(filler, "integer_dtype", recording)
    return chosen


@pytest.mark.parametrize("name, rows, exact", [
    ("D4Roots", 16, RATIONAL_C1),
    ("E8Roots", 232, RATIONAL_C1),
    # A value with denominator 2^40 puts D at 2^40: the bound fails int64.
    ("D4Roots", 16, RATIONAL_C1 + (Fraction(1, 2**40),)),
])
def test_batched_confirmation_matches_fraction_path(monkeypatch, name, rows, exact):
    chosen = _dtype_recorder(monkeypatch)
    spec = _rational_spec(exact)
    state = _truncated(name, rows, spec)
    cache = factorize(state)
    idx = _prescreened_and_random(state, spec, cache, np.random.default_rng(rows))
    expected = fraction_confirm(state, spec, idx)
    assert any(c is not None for c in expected) and any(c is None for c in expected)
    got = _confirm_exact_lifted(cache, spec, idx)
    assert [as_fractions(c, state) for c in got] == expected
    assert chosen == [object if len(exact) > 4 else np.int64]
    # The same batch on Python ints gives the same answer.
    monkeypatch.setattr(filler, "integer_dtype", lambda bound: object)
    assert _confirm_exact_lifted(cache, spec, idx) == got
    # Appending a confirmed row to the cache keeps its integer rows in step.
    row = next(c for c in got if c is not None)
    floats = np.array([x / state.exact_scale for x in row])
    grown = extend(state, CandidateColumn(head=floats[:state.dim], tail=floats[state.dim:],
                                          exact=row))
    extended = extend_cache(cache, floats[:state.dim], exact_head=row[:state.dim])
    assert np.array_equal(extended.exact_cross, factorize(grown).exact_cross)


def test_batched_confirmation_rejects_everything_as_none():
    spec = _rational_spec()
    state = _truncated("D4Roots", 24, spec)  # K(4) = 24: nothing can be added
    cache = factorize(state)
    idx = _prescreened_and_random(state, spec, cache, np.random.default_rng(0))
    assert fraction_confirm(state, spec, idx) == [None] * len(idx)
    assert _confirm_exact_lifted(cache, spec, idx) is None
    assert enumerate_lifted(state, cache, spec) == []


def fraction_small(state: GramState, spec: ActionSpec) -> list:
    """Rank-increasing exact columns by the Fraction Schur gap 1 - g^T G^-1 g > 0."""
    inv = exact_inverse(fractions(state))
    out = []
    for row in itertools.product(spec.c1.exact, repeat=state.m):
        coeff = exact_matvec(inv, row)
        if sum(g * c for g, c in zip(row, coeff)) < 1:
            out.append(row)
    return out


@pytest.mark.parametrize("name, rows, exact", [
    ("D4Roots", 1, RATIONAL_C1),
    ("D4Roots", 3, RATIONAL_C1),
    ("E8Roots", 4, RATIONAL_C1),
    ("E8Roots", 5, RATIONAL_C1 + (Fraction(1, 2**40),)),
])
def test_enumerate_small_exact_gap_matches_fraction_path(monkeypatch, name, rows, exact):
    chosen = _dtype_recorder(monkeypatch)
    spec = _rational_spec(exact)
    state = _truncated(name, rows, spec)
    expected = fraction_small(state, spec)
    # Every column over c1, zero gaps (a repeated row) included.
    idx = np.array(list(itertools.product(range(len(exact)), repeat=rows)))
    keep = _exact_schur_positive(state, scaled_integers(spec.c1.exact, state.exact_scale), idx)
    assert [tuple(spec.c1.exact[i] for i in row) for row in idx[keep]] == expected
    # The float walk prunes, the exact gap confirms.
    got = [as_fractions(c.exact, state) for c in enumerate_small(state, spec)]
    float_only = as_set(enumerate_small(state.as_float(), spec))
    assert got == [e for e in expected if tuple(float(x) for x in e) in float_only]
    assert set(chosen) == {object if len(exact) > 4 else np.int64}
