"""Candidate enumeration against an exhaustive oracle, and UCB selection."""

import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import kissgram.filler as filler
from kissgram.cli import main
from kissgram.errors import (
    DimensionMismatch,
    EmptyCandidates,
    EnumerationOverflow,
    MixedModeEntries,
    RankDeficientBasis,
)
from kissgram.filler import (
    ActionSpec,
    BasisTable,
    Candidates,
    CapOnly,
    DiscreteSet,
    LiftedPool,
    MembershipList,
    SearchTree,
    _confirm_exact_lifted,
    _exact_schur_positive,
    _expand_columns,
    _lifted_basis,
    _tail_filter,
    backpropagate,
    enumerate_lifted,
    enumerate_membership,
    enumerate_small,
    fingerprint_column,
    fingerprint_state,
    select_action,
)
from kissgram.gram import (
    COSINE_CAP,
    GramState,
    Tolerances,
    extend,
    full_rank_prefix,
    gram_from_vectors,
    permute_state,
)
from kissgram.game import GameConfig, SeedSpec, load_seed, train_loop
from kissgram.rational import exact_inverse, exact_matvec
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
    return set(map(tuple, candidates.columns.tolist()))


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
    assert len(enumerate_small(GramState.single(2), spec)) == 0


def test_enumerate_small_is_lexicographic():
    spec = ActionSpec(c1=DiscreteSet(C1))
    state = GramState(dim=3, entries=np.eye(2))
    cols = list(map(tuple, enumerate_small(state, spec).columns.tolist()))
    assert cols == sorted(cols)


def test_enumerate_lifted_recovers_missing_e8_root():
    spec = ActionSpec(c1=DiscreteSet(C1))
    e8 = generate("E8Roots").gram.as_float()
    state = permute_state(e8, full_rank_prefix(e8))
    sub = GramState(dim=8, entries=state.entries[:239, :239])
    cands = enumerate_lifted(LiftedPool(sub, spec), sub)
    assert len(cands) == 1
    assert np.abs(cands.columns[0] - state.entries[239, :239]).max() < 1e-9


def test_enumerate_lifted_hexagon_is_stuck():
    spec = ActionSpec(c1=DiscreteSet(C1))
    hexagon = generate("Hexagon").gram.as_float()
    assert len(enumerate_lifted(LiftedPool(hexagon, spec), hexagon)) == 0


def test_enumerate_lifted_cap_only_postcondition():
    rng = np.random.default_rng(0)
    spec = ActionSpec(c1=DiscreteSet(C1), c2=CapOnly(0.5))
    built = generate("CrossPolytope(3)").gram.as_float()
    cands = enumerate_lifted(LiftedPool(built, spec), built)
    for column in cands.columns:
        tail = column[built.dim:]
        assert tail.size == 0 or tail.max() <= 0.5 + 1e-9


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
        cands = enumerate_lifted(LiftedPool(state, spec), state)
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
                cands = enumerate_lifted(LiftedPool(state, spec), state)
            except Exception:
                return None
        if not cands:
            return state if state.m >= n else None
        state = extend(state, cands.columns[int(rng.integers(len(cands)))])
    return state


A, B = np.array([0.5]), np.array([0.0])
AB = Candidates(np.array([A, B]))


def test_selection_cold_tree_takes_first_candidate():
    tree = SearchTree()
    state = GramState.single(2)
    row, edge = select_action(tree, state, AB)
    assert row == 0
    assert edge == (fingerprint_state(state), fingerprint_column(A))


def test_selection_pure_exploitation():
    tree = SearchTree(exploration=0.0)
    state = GramState.single(2)
    fp = fingerprint_state(state)
    backpropagate(tree, [(fp, fingerprint_column(A))], 1.0)
    backpropagate(tree, [(fp, fingerprint_column(B))], 0.0)
    assert select_action(tree, state, AB) == (0, (fp, fingerprint_column(A)))


def test_selection_exploration_bonus_flips_choice():
    # Q(a)=1.0 with 90 visits, Q(b)=0.9 with 10 visits, c=1:
    # bonus(b) = sqrt(ln(100)/10) ~ 0.679 beats the 0.1 value gap.
    assert math.sqrt(math.log(100) / 10) - math.sqrt(math.log(100) / 90) > 0.1
    tree = SearchTree(exploration=1.0)
    state = GramState.single(2)
    fp = fingerprint_state(state)
    for _ in range(90):
        backpropagate(tree, [(fp, fingerprint_column(A))], 1.0)
    for _ in range(10):
        backpropagate(tree, [(fp, fingerprint_column(B))], 0.9)
    row, edge = select_action(tree, state, AB)
    assert row == 1
    assert edge == (fp, fingerprint_column(B))


def test_selection_empty_candidates():
    with pytest.raises(EmptyCandidates):
        select_action(SearchTree(), GramState.single(2), AB.take([]))


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


def _lexsort_fingerprint(state: GramState) -> bytes:
    """The oracle: the sort-and-lexsort fingerprint that the row digests replaced,
    a hash of every quantized entry with each row sorted and the rows sorted."""
    q = np.sort(np.rint(state.entries / filler.FINGERPRINT_QUANTUM).astype(np.int64), axis=1)
    canon = np.ascontiguousarray(q[np.lexsort(q.T[::-1])])
    h = hashlib.blake2b(digest_size=16)
    for part in (np.int64(state.m), np.int64(state.dim), canon):
        h.update(part.tobytes())
    return h.digest()


def _with_offdiagonal(entries: np.ndarray, pairs: dict) -> GramState:
    g = np.array(entries, dtype=float)
    for (i, j), value in pairs.items():
        g[i, j] = g[j, i] = value
    return GramState(dim=g.shape[0], entries=g)


def _oracle_cases() -> dict[str, GramState]:
    d4 = generate("D4Roots").gram.as_float()
    shuffled = permute_state(d4, list(np.random.default_rng(3).permutation(d4.m)))

    def without(state, a, cosine):  # delete row a and its first partner at ``cosine``
        b = int(np.flatnonzero(state.entries[a] == cosine)[0])
        return state.principal([r for r in range(state.m) if r not in (a, b)])

    base = np.eye(3)
    step = filler.FINGERPRINT_QUANTUM
    cap = 0.3141592653589793  # a CapOnly-style unsnapped lifted entry
    cycle = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return {
        "d4": d4, "d4 permuted": shuffled,
        # Deletions of an antipodal pair leave permuted copies of one state.
        "d4 - pair": without(d4, 0, -1.0), "d4 permuted - pair": without(shuffled, 5, -1.0),
        "d4 - neighbours": without(d4, 0, 0.5),
        "cross polytope": generate("CrossPolytope(4)").gram.as_float(),
        "duplicate 01": _with_offdiagonal(base, {(0, 1): 1.0}),
        "duplicate 12": _with_offdiagonal(base, {(1, 2): 1.0}),
        "duplicate, quarter": _with_offdiagonal(base, {(0, 1): 1.0, (0, 2): 0.25}),
        "-0.0": _with_offdiagonal(base, {(0, 1): -0.0, (0, 2): 0.5}),
        "+0.0": _with_offdiagonal(base, {(0, 1): 0.0, (0, 2): 0.5}),
        # Either side of the quantum boundary at 0.25 + quantum / 2.
        "below 0.4": _with_offdiagonal(base, {(0, 1): 0.25 + 0.4 * step}),
        "below 0.1": _with_offdiagonal(base, {(0, 1): 0.25 + 0.1 * step}),
        "above 0.6": _with_offdiagonal(base, {(0, 1): 0.25 + 0.6 * step}),
        "above 0.9": _with_offdiagonal(base, {(0, 1): 0.25 + 0.9 * step}),
        # Unsnapped values: moved to other rows, within a quantum, a quantum apart.
        "cap": _with_offdiagonal(base, {(0, 1): cap, (1, 2): -cap}),
        "cap moved": _with_offdiagonal(base, {(1, 2): cap, (0, 2): -cap}),
        "cap + 1e-13": _with_offdiagonal(base, {(0, 1): cap + 1e-13, (1, 2): -cap}),
        "cap + quantum": _with_offdiagonal(base, {(0, 1): cap + step, (1, 2): -cap}),
        # Equal multisets of rows that no permutation maps onto each other.
        "6-cycle": _with_offdiagonal(np.eye(6), {e: -0.5 for e in cycle}),
        "two triangles": _with_offdiagonal(np.eye(6), {e: -0.5 for e in triangles}),
        "I3 in dim 3": GramState(dim=3, entries=np.eye(3)),
        "I3 in dim 4": GramState(dim=4, entries=np.eye(3)),
    }


def test_fingerprint_partitions_states_as_the_lexsort_oracle():
    cases = _oracle_cases()
    ours = {name: fingerprint_state(s) for name, s in cases.items()}
    oracle = {name: _lexsort_fingerprint(s) for name, s in cases.items()}
    for a, b in itertools.combinations(cases, 2):
        assert (ours[a] == ours[b]) == (oracle[a] == oracle[b]), (a, b)
    # The cases exercise both outcomes at each boundary they probe.
    same = [("d4", "d4 permuted"), ("d4 - pair", "d4 permuted - pair"),
            ("duplicate 01", "duplicate 12"), ("-0.0", "+0.0"), ("below 0.4", "below 0.1"),
            ("above 0.6", "above 0.9"), ("cap", "cap moved"), ("cap", "cap + 1e-13"),
            ("6-cycle", "two triangles")]
    differ = [("d4 - pair", "d4 - neighbours"), ("below 0.4", "above 0.6"),
              ("cap", "cap + quantum"), ("I3 in dim 3", "I3 in dim 4"),
              ("duplicate 01", "duplicate, quarter")]
    assert all(ours[a] == ours[b] for a, b in same)
    assert all(ours[a] != ours[b] for a, b in differ)


def test_kept_row_digests_follow_moves_and_permutations():
    state = GramState.single(4)
    digests = filler.row_digests(state)
    for column in ([0.5], [-0.5, 0.5], [0.0, -0.5, 0.3141592653589793]):
        state = extend(state, np.array(column))
        digests = filler.grow_digests(digests, state)
        assert np.array_equal(digests, filler.row_digests(state))
        assert fingerprint_state(state, digests) == fingerprint_state(state)
    order = [3, 1, 0, 2]
    assert fingerprint_state(state) == fingerprint_state(permute_state(state, order),
                                                         digests[order])


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec(c1=DiscreteSet((0.9,)))
    with pytest.raises(ValueError):
        ActionSpec(c1=DiscreteSet(C1), c2=CapOnly(0.7))
    spec = ActionSpec(c1=DiscreteSet(C1))
    assert isinstance(spec.c2, DiscreteSet)  # defaults to C1


def test_discrete_set_holds_integer_numerators():
    cosines = DiscreteSet.from_exact([1, -2, 0, -1], 2)
    assert cosines.exact == (-2, -1, 0, 1) and cosines.exact_scale == 2
    assert cosines.values == tuple(float(Fraction(n, 2)) for n in (-2, -1, 0, 1))
    assert cosines.numerators_over(6) == [-6, -3, 0, 3]
    with pytest.raises(MixedModeEntries):
        cosines.numerators_over(3)  # not a multiple of 2
    with pytest.raises(MixedModeEntries):
        DiscreteSet(C1).numerators_over(2)  # a float set
    with pytest.raises(ValueError):
        DiscreteSet((0.5, 0.0), (0, 1), 3)  # 1/3 does not round to 0.5


@pytest.mark.parametrize("cosines", [DiscreteSet((-1.0, -0.8, -0.7, 0.2, 0.3, 0.45)),
                                     DiscreteSet.from_exact([-4, -2, -1, 0, 1, 2], 4)],
                         ids=["float", "rational"])
def test_nearest_is_the_argmin_with_ties_to_the_lower_value(cosines):
    values, midpoints = cosines.snap_points
    exact = [Fraction(v) for v in cosines.values]
    # Every float midpoint is the exact one, so the exact argmin is the rule.
    assert [Fraction(m) for m in midpoints] == [(a + b) / 2 for a, b in zip(exact, exact[1:])]
    x = np.concatenate([midpoints, np.nextafter(midpoints, -np.inf),
                        np.nextafter(midpoints, np.inf), [-np.inf, np.inf]])

    def oracle(t):  # the first, so the lower, of the nearest values
        if math.isinf(t):
            return 0 if t < 0 else len(exact) - 1
        distance = [abs(Fraction(t) - v) for v in exact]
        return distance.index(min(distance))

    assert cosines.nearest(x).tolist() == [oracle(t) for t in x.tolist()]
    assert cosines.nearest(midpoints).tolist() == list(range(len(midpoints)))


def test_enumeration_determinism():
    spec = ActionSpec(c1=DiscreteSet(C1))
    built = generate("D4Roots").gram.as_float()
    state = permute_state(built, full_rank_prefix(built))
    sub = GramState(dim=4, entries=state.entries[:20, :20])
    runs = [as_set(enumerate_lifted(LiftedPool(sub, spec), sub)) for _ in range(2)]
    assert runs[0] == runs[1]
    streams = [enumerate_lifted(LiftedPool(sub, spec), sub).columns.tolist() for _ in range(2)]
    assert streams[0] == streams[1]


def test_enumerate_membership_restricts_to_list():
    # At m >= dim a member list is a pool; enumerate_membership serves m < dim only.
    built = generate("D4Roots")
    spec = ActionSpec(c1=DiscreteSet(C1), c_star=MembershipList(vectors=built.vectors))
    state = gram_from_vectors(built.vectors[:6], 4)
    anchors = built.vectors[:6]
    cands = enumerate_lifted(LiftedPool(state, spec, anchors=anchors), state, anchors=anchors)
    assert len(cands), "remaining roots must be reachable"
    for idx, col in zip(cands.members, cands.columns):
        assert idx >= 6  # no placed vector is offered
        expected = built.vectors[idx] @ built.vectors[:6].T
        assert np.abs(col - expected).max() < 1e-7
    for rows in (4, 6):
        with pytest.raises(DimensionMismatch):
            enumerate_membership(gram_from_vectors(anchors[:rows], 4), anchors[:rows], spec)
    with pytest.raises(DimensionMismatch):
        LiftedPool(gram_from_vectors(anchors[:3], 4), spec, anchors=anchors[:3])
    with pytest.raises(DimensionMismatch):
        LiftedPool(state, spec, anchors=anchors[:5])


def reference_membership(state, anchors, spec, blame, tols=TOLS, pooled_blame=False):
    """The m >= dim member-list enumeration that the pool replaced: every list
    vector's whole cosine column, computed and tested again at each move.

    It blames every list vector with one snap violation.  With
    ``pooled_blame`` it blames only those whose heads pass, as the pool does:
    the two differ when c2 rules out a cosine of a vector that c1 rules out."""
    allowed = spec.c_star.vectors
    m, n = state.m, state.dim
    cols = allowed @ anchors.T
    ok = cols.max(axis=1) <= COSINE_CAP + tols.cosine
    heads = cols[:, :min(m, n)]
    c1v = spec.c1.snap_points[0]
    snaps = (np.abs(heads - c1v[spec.c1.nearest(heads)]) <= tols.snap).all(axis=1)
    ok &= snaps
    if m > n:
        snapped, viol = _tail_filter(cols[:, n:], spec.c2, tols)
        count = viol.sum(axis=1)
        single = count == 1
        if pooled_blame:
            single &= snaps & (heads <= COSINE_CAP + tols.cosine).all(axis=1)
        np.add.at(blame, n + viol.argmax(axis=1)[single], 1)
        ok &= count == 0
        cols = np.concatenate([cols[:, :n], snapped], axis=1)
    members = np.nonzero(ok)[0]
    return Candidates(cols[members], members=members)


def drive_member_phase(vectors, anchors, c1, c2=None, extra_blame=None):
    """A member-list fill phase from the seed coordinates ``anchors``, one
    random candidate per move until none is left; every move's pool batch
    and blame are checked against ``reference_membership``.  ``extra_blame``
    is the blame the pool adds per move beyond the reference's.  Returns the
    number of moves and of heads the pool dropped."""
    spec = ActionSpec(c1=DiscreteSet(c1), c2=None if c2 is None else DiscreteSet(c2),
                      c_star=MembershipList(vectors=vectors))
    state = gram_from_vectors(anchors)
    pool = LiftedPool(state, spec, anchors=anchors)
    heads = len(pool.columns)
    rng = np.random.default_rng(len(anchors))
    moves = 0
    while True:
        got_blame, want_blame = np.zeros(state.m, np.int64), np.zeros(state.m, np.int64)
        got = enumerate_lifted(pool, state, anchors=anchors, blame=got_blame)
        want = reference_membership(state, anchors, spec, want_blame,
                                    pooled_blame=c2 is not None)
        if extra_blame is not None:
            want_blame[:len(extra_blame)] += extra_blame
        assert np.array_equal(got.members, want.members)
        assert got.columns.shape == want.columns.shape
        assert got.columns.tobytes() == want.columns.tobytes()
        assert np.array_equal(got_blame, want_blame)
        assert len(pool.members) == len(pool.columns)
        if not got:
            return moves, heads - len(pool.columns)
        row = rng.integers(len(got))
        state = extend(state, got.columns[row])
        anchors = np.vstack([anchors, spec.c_star.vectors[got.members[row]]])
        moves += 1


def _antipode(vectors, row):
    return int(np.flatnonzero(np.all(np.abs(vectors + vectors[row]) < 1e-12, axis=1))[0])


@pytest.mark.parametrize("name, c1", [
    ("CrossPolytope(4)", C1),
    ("Icosahedron", (-1.0, -1 / math.sqrt(5.0), 1 / math.sqrt(5.0))),
    ("D4Roots", C1),
    ("E8Roots", C1),
])
@pytest.mark.parametrize("seed", ["m=dim", "m>dim", "singular"])
def test_member_pool_matches_the_per_move_enumeration(name, c1, seed):
    vectors = generate(name).vectors
    dim = vectors.shape[1]
    rows = {"m=dim": list(range(dim)), "m>dim": list(range(dim + 2)),
            # A rank-deficient leading block, which a member-list pool never factors.
            "singular": [0, _antipode(vectors, 0), *range(1, dim - 1)]}[seed]
    moves, dropped = drive_member_phase(vectors, vectors[rows], c1)
    assert moves > 0 and dropped == 0  # every list cosine is in c2: one violation at most


@pytest.mark.parametrize("name, c2", [("D4Roots", (-1.0, 0.0, 0.5)),
                                      ("E8Roots", (-1.0, -0.5, 0.5))])
def test_member_pool_drops_heads_at_the_second_violation(name, c2):
    vectors = generate(name).vectors
    moves, dropped = drive_member_phase(vectors, vectors[:vectors.shape[1] + 2], C1, c2=c2)
    assert moves > 0 and dropped > 0


def test_member_pool_keeps_the_cap_on_raw_tails():
    # The 24-cell as the unit vectors ±e_i and (±1/2, ±1/2, ±1/2, ±1/2).  Seed
    # row t lies 3e-8 off the list vector (1, 1, 1, -1)/2, so its cosine with
    # (1, 1, 1, 1)/2 and with (1, 1, -1, -1)/2 is 1/2 + 3e-8: within the snap
    # of 1/2 but above the cap by more than the cosine tolerance, so neither
    # is ever a candidate.
    cell = np.vstack([np.eye(4), -np.eye(4),
                      np.array(list(itertools.product((0.5, -0.5), repeat=4)))])
    a = 0.5 + 3e-8
    b = math.sqrt(0.5 - a * a)
    seed = np.vstack([np.eye(4), [a, a, b, -b]])
    for w in ([1, 1, 1, 1], [1, 1, -1, -1]):
        assert TOLS.cosine < np.dot(w, seed[4]) / 2 - COSINE_CAP <= TOLS.snap
    # The pool counts each over-cap tail as that vector's one violation and so
    # blames row 4 twice at every move; the reference counted snap
    # violations only.
    extra = np.array([0, 0, 0, 0, 2])
    assert drive_member_phase(cell, seed, C1, extra_blame=extra)[0] > 0


def test_enumerate_membership_small_regime_requires_rank_growth():
    built = generate("CrossPolytope(3)")
    spec = ActionSpec(c1=DiscreteSet(C1), c_star=MembershipList(vectors=built.vectors))
    state = gram_from_vectors(built.vectors[:1], 3)
    cands = enumerate_membership(state, built.vectors[:1], spec)
    # The antipode -e1 extends PSD but keeps rank 1, so it is excluded.
    indices = set(cands.members.tolist())
    assert 0 not in indices  # no placed vector is offered
    assert 3 not in indices
    assert {1, 2, 4, 5} <= indices


def test_blame_counts_single_violator_rows():
    spec = ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.5)))
    e8 = generate("E8Roots").gram.as_float()
    state = permute_state(e8, full_rank_prefix(e8))
    sub = GramState(dim=8, entries=state.entries[:40, :40])
    blame = np.zeros(40)
    enumerate_lifted(LiftedPool(sub, spec), sub, blame=blame)
    assert blame[:8].sum() == 0  # heads are never blamed
    assert blame.sum() >= 0


def _argmin_snap(tails, values, snap):
    """The cube rule the midpoint search replaced: argmin of |tail - c2| (lowest on ties)."""
    c2v = np.asarray(values)
    dist = np.abs(tails[:, :, None] - c2v[None, None, :])
    nearest = np.argmin(dist, axis=2)
    return c2v[nearest], np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0] > snap


@pytest.mark.parametrize("values", [
    C1, (-1.0, -0.75, -0.25, 0.0, 0.125, 0.5), (-1.0, -1 / 3, 0.0, 1 / 3, 0.5), (0.25,),
])
def test_tail_filter_snaps_like_argmin(values):
    rng = np.random.default_rng(len(values))
    c2v = np.array(values)
    spec = DiscreteSet(values)
    near = np.concatenate([c2v, c2v + 0.9 * TOLS.snap, c2v - 1.1 * TOLS.snap])
    outside = np.array([-3.0, c2v[0] - 1e-3, c2v[-1] + 1e-3, 2.0])
    flat = np.concatenate([rng.uniform(-1.5, 1.0, 200), near, outside])
    tails = np.stack([flat, flat[::-1]])
    snapped, viol = _tail_filter(tails, spec, TOLS)
    want_snapped, want_viol = _argmin_snap(tails, values, TOLS.snap)
    assert np.array_equal(snapped, want_snapped) and np.array_equal(viol, want_viol)
    assert viol.sum() and (~viol).sum()
    # On a midpoint both rules snap to the lower value when the midpoint is
    # exact, as for dyadic values; otherwise they may part within an ulp, where
    # the tail is half a gap from c2 and violates under either rule.
    mids = ((c2v[1:] + c2v[:-1]) / 2)[:, None]
    snapped, viol = _tail_filter(mids, spec, TOLS)
    want_snapped, want_viol = _argmin_snap(mids, values, TOLS.snap)
    assert np.array_equal(viol, want_viol) and viol.all()
    if all(float(v * 1024).is_integer() for v in values):
        assert np.array_equal(snapped, want_snapped)
        assert np.array_equal(snapped[:, 0], c2v[:-1])


def test_enumerate_small_rejects_lifted_regime():
    from kissgram.errors import DimensionMismatch

    spec = ActionSpec(c1=DiscreteSet(C1))
    state = GramState(dim=2, entries=np.eye(2))
    with pytest.raises(DimensionMismatch):
        enumerate_small(state, spec)
    with pytest.raises(DimensionMismatch):
        LiftedPool(GramState.single(3), spec)


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
    scale = math.lcm(*(x.denominator for x in exact))
    return ActionSpec(c1=DiscreteSet.from_exact([int(x * scale) for x in exact], scale))


def set_fractions(cosines: DiscreteSet) -> list[Fraction]:
    """The exact values of a rational cosine set as Fractions."""
    return [Fraction(n, cosines.exact_scale) for n in cosines.exact]


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
    """Per-candidate confirmation on Fractions: B^-1 by Gauss-Jordan, lifts by matvec,
    one cross row at a time up to the first tail outside c2."""
    n = state.dim
    gram = fractions(state)
    inv = exact_inverse([row[:n] for row in gram[:n]])
    cross = [row[:n] for row in gram[n:]]
    allowed, c1 = set(set_fractions(spec.c2)), set_fractions(spec.c1)
    out = []
    for row in idx:
        head = tuple(c1[i] for i in row)
        coeff = exact_matvec(inv, head)
        confirmed = None
        if sum(h * c for h, c in zip(head, coeff)) == 1:
            tail = []
            for cross_row in cross:
                tail += exact_matvec([cross_row], coeff)
                if tail[-1] not in allowed:
                    break
            else:
                confirmed = head + tuple(tail)
        out.append(confirmed)
    return out


def _unit_prescreened(pool: LiftedPool, spec: ActionSpec) -> np.ndarray:
    """c1 indices of the heads passing the float unit-norm prescreen, before any tail test."""
    values = np.asarray(spec.c1.values)
    _, idx, s = _expand_columns(pool.cache.chol_factor, values, (1 + 1e-6) ** 2, False)
    return idx[np.abs(np.sqrt(s) - 1.0) <= 1e-6]


def _dtype_recorder(monkeypatch) -> list:
    chosen = []
    real = filler.integer_dtype

    def recording(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(filler, "integer_dtype", recording)
    return chosen


def _pool_population(pool: LiftedPool) -> dict:
    heads = pool.columns[:, :pool.cache.n]
    return dict(zip(map(tuple, heads.tolist()), pool.violations.tolist()))


def _drive_pool(state: GramState, spec: ActionSpec, moves: int, seed: int,
                table: BasisTable | None = None) -> set[str]:
    """Drive one pool through up to ``moves`` random moves, checking every batch.

    The pool takes its basis from ``table`` when given.  At every move the
    batch and the blame equal those of a fresh pool (on a throwaway table)
    on the grown state and, in rational mode, the exact columns equal the
    Fraction reference on every head passing the float unit prescreen.
    Returns the events seen on the way.
    """
    rng = np.random.default_rng(seed)
    pool = LiftedPool(state, spec, table=table)
    heads = _unit_prescreened(pool, spec)
    events = set()
    for _ in range(moves):
        before = _pool_population(pool)
        blame, fresh_blame = np.zeros(state.m, dtype=np.int64), np.zeros(state.m, dtype=np.int64)
        got = enumerate_lifted(pool, state, blame=blame)
        want = enumerate_lifted(LiftedPool(state, spec), state, blame=fresh_blame)
        assert np.array_equal(got.columns, want.columns)
        assert got.columns.shape[1] == state.m
        assert (got.exact is None) == (want.exact is None) == (state.exact is None or not want)
        assert np.array_equal(blame, fresh_blame)
        if state.exact is not None:
            if got.exact is not None:
                assert got.exact.tolist() == want.exact.tolist()
            expected = [e for e in fraction_confirm(state, spec, heads) if e is not None]
            exact = [] if got.exact is None else got.exact.tolist()
            assert [as_fractions(c, state) for c in exact] == expected
            if expected:
                events.add("exact columns confirmed")
            if np.count_nonzero(pool.violations == 0) > len(got):
                events.add("exact test rejects a float survivor")
        after = _pool_population(pool)
        assert set(after.values()) <= {0, 1}
        if any(v == 1 and head not in after for head, v in before.items()):
            events.add("second violation leaves the pool")
        if any(v == 1 and after.get(head) == 1 for head, v in before.items()):
            events.add("single violator blamed again")
        if not got:
            break
        row = int(rng.integers(len(got)))
        column = got.columns[row]
        exact = None if got.exact is None else got.exact[row]
        state = extend(state, column, exact=exact)
    return events


@pytest.mark.parametrize("name, rows, exact", [
    ("D4Roots", 16, RATIONAL_C1),
    pytest.param("E8Roots", 232, RATIONAL_C1, marks=pytest.mark.slow),
    # A value with denominator 2^40 puts D at 2^40: the bounds fail int64.
    ("D4Roots", 16, RATIONAL_C1 + (Fraction(1, 2**40),)),
    # With no cross row yet, only the exact unit test rejects a head through 2^-40.
    ("D4Roots", 4, RATIONAL_C1 + (Fraction(1, 2**40),)),
])
def test_batched_confirmation_matches_fraction_path(monkeypatch, name, rows, exact):
    chosen = _dtype_recorder(monkeypatch)
    spec = _rational_spec(exact)
    state = _truncated(name, rows, spec)
    events = _drive_pool(state, spec, 2, rows)
    assert "exact columns confirmed" in events
    assert set(chosen) == {object if len(exact) > 4 else np.int64}
    if len(exact) > 4:
        # Heads through 2^-40 pass the float unit test, not the exact one.
        assert "exact test rejects a float survivor" in events
    else:
        # The same moves on Python ints give the same answer.
        monkeypatch.setattr(filler, "integer_dtype", lambda bound: object)
        assert _drive_pool(state, spec, 2, rows) == events


def test_exact_tail_test_rejects_float_survivors():
    # 1/2 - 2^-30 lies within the snap tolerance of 1/2: every tail of 1/2
    # passes the float filter, and only the exact tail test rejects it.
    spec = _rational_spec()
    spec = ActionSpec(c1=spec.c1, c2=DiscreteSet.from_exact([-2**31, -2**30, 0, 2**30 - 2], 2**31))
    assert abs(spec.c2.values[-1] - 0.5) < TOLS.snap
    state = _truncated("D4Roots", 8, spec)
    events = _drive_pool(state, spec, 4, 8)
    assert {"exact columns confirmed", "exact test rejects a float survivor"} <= events


def test_batched_confirmation_rejects_everything_as_none():
    spec = _rational_spec()
    state = _truncated("D4Roots", 24, spec)  # K(4) = 24: nothing can be added
    pool = LiftedPool(state, spec)
    heads = _unit_prescreened(pool, spec)
    assert fraction_confirm(state, spec, heads) == [None] * len(heads)
    assert len(pool.y) == len(heads)  # every unit head is exactly unit, then fails a tail
    assert _confirm_exact_lifted(pool, state.exact[4:, :4]) is None
    assert not pool.exact_ok.any()
    assert len(enumerate_lifted(LiftedPool(state, spec), state)) == 0


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_enumerate_lifted_twice_on_an_unchanged_state(mode):
    # The pool reads its untested rows from the state: a second call on the
    # same state has none, so it returns the same batch and changes nothing.
    spec = _rational_spec()
    state = _truncated("E8Roots", 40, spec)
    if mode == "float":
        state = state.as_float()
    pool = LiftedPool(state, spec)
    blames = [np.zeros(state.m, dtype=np.int64) for _ in range(2)]
    once = enumerate_lifted(pool, state, blame=blames[0])
    kept = [a.copy() for a in (pool.columns, pool.violations, pool.first)]
    assert once and (pool.violations == 1).any()
    twice = enumerate_lifted(pool, state, blame=blames[1])
    assert np.array_equal(twice.columns, once.columns)
    assert (twice.exact is None) == (mode == "float")
    if mode == "rational":
        assert twice.exact.tolist() == once.exact.tolist()
    for now, before in zip((pool.columns, pool.violations, pool.first), kept):
        assert np.array_equal(now, before)
    assert np.array_equal(blames[0], blames[1])


def fraction_small(state: GramState, spec: ActionSpec) -> list:
    """Rank-increasing exact columns by the Fraction Schur gap 1 - g^T G^-1 g > 0."""
    inv = exact_inverse(fractions(state))
    out = []
    for row in itertools.product(set_fractions(spec.c1), repeat=state.m):
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
    keep = _exact_schur_positive(state, spec.c1.numerators_over(state.exact_scale), idx)
    c1 = set_fractions(spec.c1)
    assert [tuple(c1[i] for i in row) for row in idx[keep]] == expected
    # The float walk prunes, the exact gap confirms.
    got = [as_fractions(c, state) for c in enumerate_small(state, spec).exact.tolist()]
    float_only = as_set(enumerate_small(state.as_float(), spec))
    assert got == [e for e in expected if tuple(float(x) for x in e) in float_only]
    assert set(chosen) == {object if len(exact) > 4 else np.int64}


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("name, rows, tail_numerators", [
    ("E8Roots", 16, None),
    # Without 1/2 among the tails a d4 head can violate twice; with c2 = c1
    # every d4 head is a D4 root and only ever conflicts with its own row.
    ("D4Roots", 4, (-2, -1, 0)),
])
def test_lifted_pool_matches_fresh_enumeration(mode, name, rows, tail_numerators):
    spec = _rational_spec()
    if tail_numerators is not None:
        spec = ActionSpec(c1=spec.c1, c2=DiscreteSet.from_exact(tail_numerators, 2))
    state = _truncated(name, rows, spec)
    if mode == "float":
        state = state.as_float()
    events = _drive_pool(state, spec, 8, rows)
    assert {"second violation leaves the pool", "single violator blamed again"} <= events


# The run's basis table: shared entries, read-only arrays, one table per run.


def _phase_states(state: GramState) -> list[GramState]:
    """Fill-phase starts on one basis: the state, the state after the
    corrector deleted every other cross row, and the state again."""
    n = state.dim
    thinned = state.principal(list(range(n)) + list(range(n + 1, state.m, 2)))
    return [state, thinned, state]


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("name, rows, exact", [
    ("E8Roots", 16, RATIONAL_C1),
    ("D4Roots", 12, RATIONAL_C1),
    ("D4Roots", 16, RATIONAL_C1 + (Fraction(1, 2**40),)),
])
def test_shared_table_pools_match_fresh_pools(mode, name, rows, exact):
    # Every move of a pool on the shared entry equals a fresh pool's, so no
    # phase changed what the next one reads.
    builds = []

    class Counting(BasisTable):
        def lookup(self, kind, state, rows, spec, tols, build):
            return super().lookup(kind, state, rows, spec, tols,
                                  lambda: builds.append(kind) or build())

    spec = _rational_spec(exact)
    state = _truncated(name, rows, spec)
    if mode == "float":
        state = state.as_float()
    table = Counting()
    events = set()
    for phase, start in enumerate(_phase_states(state)):
        events |= _drive_pool(start, spec, 4, phase, table=table)
    assert builds == ["lifted"] and len(table.entries) == 1
    if mode == "rational":
        assert "exact columns confirmed" in events


def test_table_entries_are_read_only():
    spec = _rational_spec()
    table = BasisTable()
    state = _truncated("D4Roots", 8, spec)
    pool = LiftedPool(state, spec, table=table)
    enumerate_lifted(pool, state)
    small = enumerate_small(_truncated("D4Roots", 2, spec), spec, table=table)
    basis = next(e for e in table.entries.values() if not isinstance(e, Candidates))
    shared = [basis.heads, basis.exact_ok, basis.y, basis.exact, basis.targets,
              basis.cache.chol_factor, basis.cache.pseudo_inv, basis.cache.exact_adj,
              small.columns, small.exact]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    # A pool's own state is its own: its marks start from a copy.
    assert pool.exact_ok is not basis.exact_ok and pool.exact_ok.flags.writeable


def test_a_basis_entry_depends_on_the_basis_alone():
    # The entry of a 232-row state equals that of its 8-row basis prefix, so
    # it holds nothing of the rows after the basis.
    spec = _rational_spec()
    state = _truncated("E8Roots", 232, spec)
    full, prefix = (_lifted_basis(s, spec, TOLS) for s in (state, state.principal(range(8))))

    def arrays(entry):
        cache = entry.cache
        return [*entry[1:], *(getattr(cache, f.name) for f in dataclasses.fields(cache))]

    assert len(arrays(full)) == len(arrays(prefix))
    for a, b in zip(arrays(full), arrays(prefix)):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()
        else:
            assert a == b


def test_enumerate_small_reads_the_table():
    spec = _rational_spec()
    table = BasisTable()
    state = _truncated("D4Roots", 3, spec)
    first = enumerate_small(state, spec, table=table)
    assert enumerate_small(state, spec, table=table) is first
    fresh = enumerate_small(state, spec)
    assert fresh is not first
    assert np.array_equal(first.columns, fresh.columns)
    assert first.exact.tolist() == fresh.exact.tolist()
    # Another denominator, mode or tolerance is another key.
    float_batch = enumerate_small(state.as_float(), spec, table=table)
    assert float_batch is not first and float_batch.exact is None
    enumerate_small(state, spec, tols=Tolerances(rank=1e-6), table=table)
    assert len(table.entries) == 3


def test_a_singular_basis_is_remembered():
    hexagon = generate("Hexagon").gram.as_float()
    state = GramState(dim=3, entries=hexagon.entries)  # rank 2 < 3
    spec = ActionSpec(c1=DiscreteSet(C1))
    table = BasisTable()
    for _ in range(2):
        with pytest.raises(RankDeficientBasis):
            LiftedPool(state, spec, table=table)
    (entry,) = table.entries.values()
    assert entry.__traceback__ is None  # a kept traceback would pin the frames of its phase


def test_basis_table_evicts_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(filler, "BASIS_TABLE_ENTRIES", 2)
    spec = ActionSpec(c1=DiscreteSet(C1))
    table = BasisTable()
    states = [GramState(dim=3, entries=np.array([[1.0, c], [c, 1.0]])) for c in (-0.5, 0.0, 0.5)]
    built = []

    def lookup(state):
        return table.lookup("small", state, state.m, spec, TOLS,
                            lambda: built.append(state) or enumerate_small(state, spec))

    _, b, _ = (lookup(s) for s in states)
    assert built == states and len(table.entries) == 2  # a left when c came
    lookup(states[1])  # b is now the most recent
    lookup(states[0])  # a again: a miss, and c leaves
    assert len(built) == 4 and len(table.entries) == 2
    assert lookup(states[1]) is b and len(built) == 4
    lookup(states[2])
    assert len(built) == 5


def _recorded_tables(monkeypatch) -> list:
    """The basis tables the game makes from now on, in order."""
    import kissgram.game as game

    tables = []

    class Recorded(BasisTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(game, "BasisTable", Recorded)
    return tables


def test_a_run_keeps_its_table_within_the_bound(monkeypatch):
    config = GameConfig(dim=4, action=_rational_spec(), mode="rational", rounds=4)
    tables = _recorded_tables(monkeypatch)
    whole = train_loop(config, 4)
    monkeypatch.setattr(filler, "BASIS_TABLE_ENTRIES", 2)
    bounded = train_loop(config, 4)
    assert len(tables) == 2 and len(tables[0].entries) > 2 and len(tables[1].entries) == 2
    # Evicted blocks are built again, to the same entries.
    assert bounded.rewards == whole.rewards
    assert bounded.tree.summary() == whole.tree.summary()


def test_runs_share_no_table_entry(monkeypatch):
    tables = _recorded_tables(monkeypatch)
    spec = _rational_spec()
    configs = [GameConfig(dim=3, action=spec, rounds=3, tolerances=tols)
               for tols in (Tolerances(), Tolerances(rank=1e-5, psd=1e-8))]
    _, second = (train_loop(config, 3) for config in configs)
    assert len(tables) == 2
    assert not set(tables[0].entries) & set(tables[1].entries)
    assert not {id(e) for e in tables[0].entries.values()} & {
        id(e) for e in tables[1].entries.values()}
    assert all(key[-1] == config.tolerances
               for table, config in zip(tables, configs) for key in table.entries)
    # The second run alone gives what it gave after the first.
    again = train_loop(configs[1], 3)
    assert again.rewards == second.rewards
    assert again.best.final_state.entries.tobytes() == second.best.final_state.entries.tobytes()


def test_exact_confirmation_takes_its_dtype_from_the_basis(monkeypatch):
    spec = _rational_spec()
    state = _truncated("E8Roots", 40, spec)
    pool = LiftedPool(state, spec)

    def forbidden(bound):
        raise AssertionError("a move chose an integer type")

    monkeypatch.setattr(filler, "integer_dtype", forbidden)
    for _ in range(3):
        got = enumerate_lifted(pool, state)
        assert got
        state = extend(state, got.columns[0], exact=got.exact[0])
    assert pool.dtype is np.int64


# Pools whose creation holds more rows than one block.


def one_shot_pool(state: GramState, spec: ActionSpec, anchors: np.ndarray | None = None,
                  tols=TOLS) -> dict:
    """A pool's fields once it has tested every row of ``state``, from one
    product over all of them: every tail of every head snapped and counted at
    once, and a head with two violations dropped only at the end.  With them,
    the blame a call adds and ``live_before[t]``, how many heads have fewer
    than two violations on the tails before tail t."""
    n = state.dim
    out = dict(members=None, exact_ok=None, exact=None)
    if spec.c_star is None:
        basis = _lifted_basis(state, spec, tols)
        heads = basis.heads
        tails = heads @ (basis.cache.pseudo_inv @ state.entries[n:, :n].T)
        snapped, viol = _tail_filter(tails, spec.c2, tols)
    else:
        cols = spec.c_star.vectors @ anchors.T
        members = np.flatnonzero(filler._conforming_heads(cols[:, :n], spec, tols))
        heads, tails = cols[members, :n], cols[members, n:]
        snapped, viol = _tail_filter(tails, spec.c2, tols)
        viol |= tails > COSINE_CAP + tols.cosine
    count = viol.sum(axis=1)
    live = count < 2
    out["live_before"] = [len(heads), *(viol.cumsum(axis=1) < 2).sum(axis=0)]
    out["columns"] = np.concatenate([heads, snapped], axis=1)[live]
    out["violations"], out["first"] = count[live], viol.argmax(axis=1)[live]
    out["blame"] = np.zeros(state.m, dtype=np.int64)
    np.add.at(out["blame"], n + out["first"][out["violations"] == 1], 1)
    if spec.c_star is not None:
        out["members"] = members[live]
    elif state.exact is not None:
        exact_tails = basis.y @ state.exact[n:, :n].astype(basis.dtype).T
        conform = (count[basis.exact_ok] == 0) & np.isin(exact_tails, basis.targets).all(axis=1)
        exact_ok = np.zeros(len(heads), dtype=bool)
        exact_ok[np.flatnonzero(basis.exact_ok)[conform]] = True
        out["exact_ok"] = exact_ok[live]
        det = basis.cache.exact_det
        out["exact"] = np.concatenate([basis.exact[conform], exact_tails[conform] // det], axis=1)
    return out


@pytest.mark.parametrize("case", ["float", "rational", "member-list"])
def test_pool_blocks_match_one_shot_creation(monkeypatch, case):
    # 120 E8 rows: 112 held cross rows are four blocks, the last one partial.
    # Heads over c1 with 1/4 that are no roots, and list vectors whose
    # antipode is a row while -1 is no tail value, violate twice at rows
    # spread over the blocks; others violate once or never.
    rows = 120
    assert rows - 8 > 3 * filler.POOL_BLOCK_ROWS
    spec = _rational_spec(RATIONAL_C1 + (Fraction(1, 4),))
    anchors = None
    if case == "member-list":
        vectors = generate("E8Roots").vectors
        spec = ActionSpec(c1=DiscreteSet(C1), c2=DiscreteSet((-0.5, 0.0, 0.5)),
                          c_star=MembershipList(vectors=vectors))
        anchors = vectors[:rows]
        state = gram_from_vectors(anchors)
    else:
        state = _truncated("E8Roots", rows, spec)
        if case == "float":
            state = state.as_float()
    pool = LiftedPool(state, spec, anchors=anchors)
    heads = len(pool.columns)
    tested = []  # heads per block: those dropped in earlier blocks are gone
    real = filler._tail_filter
    monkeypatch.setattr(filler, "_tail_filter",
                        lambda tails, *args: tested.append(len(tails)) or real(tails, *args))
    rng = np.random.default_rng(rows)
    for _ in range(3):
        blame = np.zeros(state.m, dtype=np.int64)
        seen = pool.columns.shape[1] - 8
        tested.clear()
        got = enumerate_lifted(pool, state, anchors=anchors, blame=blame)
        blocks = list(tested)
        want = one_shot_pool(state, spec, anchors)
        starts = range(seen, state.m - 8, filler.POOL_BLOCK_ROWS)
        assert blocks == [want["live_before"][t] for t in starts]
        assert pool.columns.shape == want["columns"].shape
        assert pool.columns.tobytes() == want["columns"].tobytes()
        for field in ("violations", "first", "members", "exact_ok"):
            assert np.array_equal(getattr(pool, field, None), want[field]), field
        assert np.array_equal(blame, want["blame"])
        if case == "rational":
            assert pool.exact.tolist() == want["exact"].tolist()
        if not got:
            break
        row = int(rng.integers(len(got)))
        exact = None if got.exact is None else got.exact[row]
        state = extend(state, got.columns[row], exact=exact)
        if anchors is not None:
            anchors = np.vstack([anchors, spec.c_star.vectors[got.members[row]]])
    assert len(pool.columns) < heads and (pool.violations == 1).any()


def test_extend_cache_lifts_each_row_of_a_phase_once(monkeypatch):
    spec = ActionSpec(c1=DiscreteSet(C1))
    state = _truncated("E8Roots", 120, _rational_spec()).as_float()
    lifted = []
    real = filler.extend_cache

    def recording(cache, rows):
        lifted.append(np.array(rows))
        return real(cache, rows)

    monkeypatch.setattr(filler, "extend_cache", recording)
    pool = LiftedPool(state, spec)
    moves = 0
    while got := enumerate_lifted(pool, state):
        state = extend(state, got.columns[0])
        moves += 1
    assert moves > 0 and state.m == 240
    assert all(1 <= len(rows) <= filler.POOL_BLOCK_ROWS for rows in lifted)
    # Four blocks at creation, then the one row each move placed.
    assert len(lifted) == -(-112 // filler.POOL_BLOCK_ROWS) + moves
    assert np.concatenate(lifted).tobytes() == state.entries[8:, :8].tobytes()
