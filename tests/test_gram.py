"""Gram-state operations: extension, predicates, factorization, lifting."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kissgram.errors import (
    DimensionMismatch,
    InfeasibleColumn,
    InvalidState,
    MixedModeEntries,
    RankDeficientBasis,
)
from kissgram.gram import (
    GramState,
    Tolerances,
    check_invariants,
    extend,
    extend_cache,
    factorize,
    full_rank_prefix,
    gram_from_vectors,
    is_psd,
    permute_state,
    rank_of,
    reconstruct_vectors,
)
from kissgram.refconfigs import generate

TOLS = Tolerances()


def _lift_rows(state: GramState) -> np.ndarray:
    """The lift rows C B^-1 of the state's cross rows, one ``extend_cache`` call each."""
    cache = factorize(state)
    n = cache.n
    return np.array([extend_cache(cache, row) for row in state.entries[n:, :n]]).reshape(-1, n)


def test_extend_antipodal_pair():
    state = extend(GramState.single(2), np.array([-1.0]), revalidate=True)
    assert state.entries.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert is_psd(state, 1e-9)
    assert rank_of(state, 1e-7) == 1


def test_extend_preserves_input_state():
    base = GramState.single(2)
    extend(base, np.array([0.5]))
    assert base.entries.tolist() == [[1.0]]
    with pytest.raises(ValueError):
        base.entries[0, 0] = 2.0  # frozen storage


def test_extend_identity_gram_with_symmetric_column():
    # PSD holds because ||M^+ g|| = ||g|| = sqrt(1/2) <= 1 for the identity
    # basis; the extension leaves the basis span, so it is not revalidated
    # against the ambient rank bound here.
    base = GramState(dim=2, entries=np.eye(2))
    state = extend(base, np.array([-0.5, -0.5]))
    assert state.m == 3
    assert is_psd(state, 1e-9)


def test_hexagon_admits_no_extension():
    # Exhaustive oracle: no column over C1 = {-1, 0, +-1/2} borders the
    # hexagon into a PSD matrix realizable in the plane (rank <= 2).
    hexagon = generate("Hexagon").gram.as_float()
    c1 = (-1.0, -0.5, 0.0, 0.5)
    for column in itertools.product(c1, repeat=6):
        g = np.zeros((7, 7))
        g[:6, :6] = hexagon.entries
        g[6, :6] = column
        g[:6, 6] = column
        g[6, 6] = 1.0
        w = np.linalg.eigvalsh(g)
        feasible = w[0] >= -1e-9 and int(np.count_nonzero(w > 1e-7)) <= 2
        assert not feasible


def test_extend_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        extend(GramState.single(2), np.array([0.5, 0.5]))


def test_extend_revalidation_rejects_cap_violation():
    with pytest.raises(InfeasibleColumn):
        extend(GramState.single(2), np.array([0.9]), revalidate=True)


def test_extend_revalidation_rejects_a_tail_off_the_lift_of_its_head():
    # At m >= dim the invariants alone pin a tail to C B^-1 head: moving one
    # tail entry by -1e-8 leaves the PSD cone.
    e8 = generate("E8Roots").gram.as_float()
    state = permute_state(e8, full_rank_prefix(e8))
    sub = state.principal(range(40))
    head = state.entries[40, :8]
    column = np.concatenate([head, _lift_rows(sub) @ head])
    assert extend(sub, column, revalidate=True).m == 41
    column[20] -= 1e-8
    with pytest.raises(InfeasibleColumn, match="not positive semidefinite"):
        extend(sub, column, revalidate=True)


def test_is_psd_examples():
    assert is_psd(GramState(dim=2, entries=np.array([[1.0, -1.0], [-1.0, 1.0]])), 1e-9)
    assert is_psd(np.array([[1.0, 0.9], [0.9, 1.0]]), 1e-9)
    anti = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    assert not is_psd(anti, 1e-9)
    assert float(np.linalg.eigvalsh(anti)[0]) == pytest.approx(-1.0)


def test_rank_examples():
    assert rank_of(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1e-7) == 1
    assert rank_of(np.eye(5), 1e-7) == 5
    e8 = generate("E8Roots").gram
    assert rank_of(e8, 1e-7) == 8
    # Independent oracle on the same matrix.
    assert int(np.count_nonzero(np.linalg.eigvalsh(e8.entries) > 1e-7)) == 8


def test_factorize_identity_basis():
    state = GramState(dim=2, entries=np.eye(2))
    cache = factorize(state)
    assert np.allclose(cache.chol_factor, np.eye(2))
    assert np.allclose(cache.pseudo_inv, np.eye(2))
    assert cache.n == 2 and _lift_rows(state).shape == (0, 2)


def test_factorize_closed_form_two_by_two():
    state = GramState(dim=2, entries=np.array([[1.0, 0.5], [0.5, 1.0]]))
    cache = factorize(state)
    expected = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert np.allclose(cache.chol_factor, expected, atol=1e-12)
    assert np.allclose(cache.chol_factor @ cache.chol_factor.T, state.entries, atol=1e-12)


def test_factorize_d4_block_reconstruction():
    d4 = generate("D4Roots").gram.as_float()
    order = full_rank_prefix(d4)
    state = permute_state(d4, order)
    cache = factorize(state)
    basis, cross = state.entries[:4, :4], state.entries[4:, :4]
    residual = np.abs(cache.chol_factor @ cache.chol_factor.T - basis).max()
    assert residual < 1e-12
    recon = basis @ cache.pseudo_inv @ basis
    assert np.abs(recon - basis).max() < 1e-10
    # The lift rows are C B^-1: lifting the cross rows' heads gives the cross block.
    assert np.abs(_lift_rows(state) @ basis - cross).max() < 1e-10


def test_factorize_requires_enough_rows():
    with pytest.raises(DimensionMismatch):
        factorize(GramState.single(2))


def test_factorize_rank_deficient_basis_raises():
    hexagon = generate("Hexagon").gram.as_float()
    lifted = GramState(dim=3, entries=hexagon.entries)  # rank 2 < 3
    with pytest.raises(RankDeficientBasis):
        factorize(lifted)


def test_lift_tail_empty_cross_block():
    state = GramState(dim=2, entries=np.eye(2))
    assert (_lift_rows(state) @ np.array([0.5, 0.0])).shape == (0,)


def test_lift_tail_identity_basis_single_cross_row():
    g = np.eye(3)
    r = np.array([0.5, -0.5])
    g[2, :2] = r
    g[:2, 2] = r
    state = GramState(dim=2, entries=g)
    head = np.array([0.25, 0.5])
    assert _lift_rows(state) @ head == pytest.approx([r @ head])


def test_lift_tail_matches_direct_dot_products_on_e8():
    built = generate("E8Roots")
    state = permute_state(built.gram.as_float(), full_rank_prefix(built.gram))
    lift = _lift_rows(state)
    # Oracle: tails computed from explicit root coordinates.
    rng = np.random.default_rng(2)
    for row in rng.choice(np.arange(8, 240), size=12, replace=False):
        head = state.entries[row, :8]
        expected = state.entries[row, 8:]
        got = lift @ head
        err = np.abs(got - expected).max()
        assert err < 1e-10


def test_extend_cache_lifts_one_row_by_the_basis_inverse():
    d4 = generate("D4Roots").gram
    state = permute_state(d4, full_rank_prefix(d4))
    row = state.entries[5, :4]
    for cache in (factorize(state), factorize(state.as_float())):
        assert np.array_equal(extend_cache(cache, row), cache.pseudo_inv @ row)


def test_reconstruct_vectors_antipodal():
    state = GramState(dim=3, entries=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    vs = reconstruct_vectors(state)
    assert np.allclose(vs[0], -vs[1], atol=1e-9)
    assert np.linalg.norm(vs[0]) == pytest.approx(1.0)


def test_reconstruct_round_trip_hexagon_and_cross_polytope():
    for name in ("Hexagon", "CrossPolytope(3)", "Icosahedron"):
        state = generate(name).gram.as_float()
        vs = reconstruct_vectors(state)
        assert np.abs(vs @ vs.T - state.entries).max() < 1e-9


def test_reconstruct_hexagon_consecutive_angles():
    state = generate("Hexagon").gram.as_float()
    vs = reconstruct_vectors(state)
    for i in range(5):
        assert vs[i] @ vs[i + 1] == pytest.approx(0.5, abs=1e-9)


def test_schur_complement_equivalence_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        state = gram_from_vectors(vs, n)
        g = rng.uniform(-1.0, 0.5, size=m)
        extended = extend(state, g)
        quad = float(g @ np.linalg.pinv(state.entries) @ g)
        assert is_psd(extended, 1e-9) == (quad <= 1.0 + 1e-9)


def test_rank_monotonicity_property():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 3))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        state = gram_from_vectors(vs, n)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        extended = extend(state, vs @ x)
        assert rank_of(extended, 1e-7) >= rank_of(state, 1e-7)


@pytest.mark.parametrize("name, stride, basis", [
    ("D4Roots", 5, [0, 1, 6, 7]),
    ("E8Roots", 7, [0, 1, 6, 7, 8, 11, 18, 20]),
])
def test_full_rank_prefix_skips_dependent_early_rows(name, stride, basis):
    # The hexagon spanned by the first two roots comes first (rank 2 in six
    # rows), then the other roots in stride order, which brings more
    # dependent rows before the basis is complete.
    built = generate(name)
    v = built.vectors
    plane = np.linalg.qr(v[[0, 1]].T)[0]
    hexagon = np.flatnonzero(np.linalg.norm(v - v @ plane @ plane.T, axis=1) < 1e-9).tolist()
    m = len(v)
    rest = [i * stride % m for i in range(m)]
    state = permute_state(built.gram.as_float(), hexagon + [i for i in rest if i not in hexagon])
    order = full_rank_prefix(state)
    assert order[:state.dim] == basis
    assert order[state.dim:] == [r for r in range(m) if r not in basis]


def test_full_rank_prefix_e8():
    e8 = generate("E8Roots").gram.as_float()
    order = full_rank_prefix(e8)
    state = permute_state(e8, order)
    assert rank_of(GramState(dim=8, entries=state.entries[:8, :8]), 1e-7) == 8


def test_full_rank_prefix_raises_below_dim():
    hexagon = generate("Hexagon").gram.as_float()
    with pytest.raises(RankDeficientBasis):
        full_rank_prefix(GramState(dim=3, entries=hexagon.entries))


def _padded_prefix(state: GramState, tols: Tolerances = TOLS) -> list[int]:
    """Reference full_rank_prefix whose factor grows by np.pad once per chosen row."""
    n, g = state.dim, state.entries
    lower = np.zeros((0, 0))
    selected = []
    for r in range(state.m):
        if len(selected) == n:
            break
        y = np.linalg.solve(lower, g[r, selected])
        piv_sq = float(g[r, r] - y @ y)
        if piv_sq > tols.rank:
            lower = np.pad(lower, ((0, 1), (0, 1)))
            lower[-1] = np.append(y, math.sqrt(piv_sq))
            selected.append(r)
    if len(selected) < n:
        raise RankDeficientBasis(f"state rank {len(selected)} is below dim {n}")
    return selected + [r for r in range(state.m) if r not in selected]


def _prefix_states():
    rng = np.random.default_rng(11)
    for _ in range(40):  # random unit rows, some in a proper subspace
        n = int(rng.integers(2, 7))
        v = rng.standard_normal((int(rng.integers(1, 13)), n))
        if rng.random() < 0.3:
            v[:, -1] = 0.0
        yield GramState(dim=n, entries=gram_from_vectors(v / np.linalg.norm(v, axis=1)[:, None],
                                                         n).entries)
    for name in ("Hexagon", "D4Roots", "E8Roots", "CrossPolytope(4)", "Simplex(3)"):
        built = generate(name).gram.as_float()
        for _ in range(3):  # repeated, antipodal and orthogonal rows in shuffled orders
            yield permute_state(built, rng.permutation(built.m).tolist())
        yield GramState(dim=built.dim + 1, entries=built.entries)  # rank below dim
    # A protected prefix of dependent rows (a hexagon in E8), then the rest.
    e8 = generate("E8Roots")
    plane = np.linalg.qr(e8.vectors[[0, 1]].T)[0]
    v = e8.vectors
    hexagon = np.flatnonzero(np.linalg.norm(v - v @ plane @ plane.T, axis=1) < 1e-9).tolist()
    rest = [r for r in rng.permutation(e8.gram.m).tolist() if r not in hexagon]
    yield permute_state(e8.gram.as_float(), hexagon + rest)
    # Pivots on both sides of the rank tolerance.
    for eps in (0.5e-7, 2e-7):
        v = np.array([[1.0, 0.0, 0.0], [math.sqrt(1 - eps), math.sqrt(eps), 0.0],
                      [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        yield gram_from_vectors(v, 3)


def test_full_rank_prefix_matches_the_padded_loop(monkeypatch):
    # The preallocated factor hands np.linalg.solve the same systems, so the
    # chosen rows, and the error on a rank-deficient state, are the same.
    real_solve = np.linalg.solve
    calls = []

    def recording(a, b):
        calls.append((np.array(a), np.array(b)))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    raised = 0
    for state in _prefix_states():
        outcomes = []
        for prefix in (_padded_prefix, full_rank_prefix):
            calls.clear()
            try:
                outcomes.append((prefix(state), calls[:]))
            except RankDeficientBasis as exc:
                outcomes.append((str(exc), calls[:]))
        (want, want_calls), (got, got_calls) = outcomes
        assert got == want
        assert len(got_calls) == len(want_calls)
        for (a, b), (a_ref, b_ref) in zip(got_calls, want_calls):
            assert a.tobytes() == a_ref.tobytes() and a.shape == a_ref.shape
            assert b.tobytes() == b_ref.tobytes()
        raised += isinstance(want, str)
    assert 0 < raised


def test_permute_state_rejects_non_permutation():
    state = generate("Hexagon").gram
    with pytest.raises(DimensionMismatch):
        permute_state(state, [0, 0, 1, 2, 3, 4])


def test_check_invariants_rejects_bad_diagonal_and_cap():
    with pytest.raises(InvalidState):
        check_invariants(GramState(dim=2, entries=np.array([[1.0, 0.0], [0.0, 0.9]])))
    with pytest.raises(InvalidState):
        check_invariants(GramState(dim=2, entries=np.array([[1.0, 0.8], [0.8, 1.0]])))


def test_exact_float_view_is_correctly_rounded():
    # Numerators and denominator beyond 2^53: float64 division of rounded
    # operands would differ from float(Fraction) in the last bit.
    rng = np.random.default_rng(3)
    d = 3**40 + 2**60
    nums = [[int(x) * (2**40 + 1) for x in row] for row in rng.integers(-2**60, 2**60, (4, 4))]
    state = GramState.from_exact(4, nums, d)
    assert all(state.entries[i, j] == float(Fraction(nums[i][j], d))
               for i in range(4) for j in range(4))


def test_extend_rejects_non_integer_exact_entries():
    # Exact columns are integer numerators over the state's D; a Fraction
    # must not reach an exact Gram through one.
    state = GramState.from_exact(3, [[6, -3], [-3, 6]], 6)
    with pytest.raises(MixedModeEntries):
        extend(state, np.array([0.5, 0.0]))  # a rational state needs the exact column
    with pytest.raises(TypeError):
        extend(state, np.array([1 / 3, 0.0]), exact=(Fraction(1, 3), 0))
    with pytest.raises(TypeError):
        extend(state, np.array([0.5, 0.0]), exact=(0.5, 0))
    grown = extend(state, np.array([0.5, 0.0]), exact=np.array([3, 0], dtype=np.int64))
    assert grown.exact[2].tolist() == [3, 0, 6]
    assert all(type(x) is int for x in grown.exact.flat)


def test_extend_keeps_the_state_denominator():
    state = GramState.from_exact(3, [[6, -3], [-3, 6]], 6)  # cosine -1/2 over D = 6
    grown = extend(state, np.array([1 / 3, 0.0]), exact=(2, 0))
    assert grown.exact_scale == 6
    assert grown.exact.tolist() == [[6, -3, 2], [-3, 6, 0], [2, 0, 6]]
    assert grown.entries[0, 2] == float(Fraction(1, 3)) and grown.entries[2, 2] == 1.0
    check_invariants(grown)


def test_check_invariants_rejects_asymmetric_exact_entries():
    # Off-diagonals 10^20 / D and (10^20 + 1) / D round to the same float, so
    # only the exact numerators show the asymmetry.
    d = 3 * 10**20
    state = GramState.from_exact(2, [[d, 10**20], [10**20 + 1, d]], d)
    assert np.array_equal(state.entries, state.entries.T)
    with pytest.raises(InvalidState, match="exact entries are not symmetric"):
        check_invariants(state)

