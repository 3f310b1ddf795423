"""Gram-matrix game state: predicates, factorization and extension operations.

A state is the symmetric unit-diagonal matrix of pairwise cosines of the
sphere centers.  All operations are pure: extension and deletion build new
values, so states are safely shareable across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleColumn,
    InvalidState,
    MixedModeEntries,
    RankDeficientBasis,
)
from .rational import (
    RationalMatrix,
    common_denominator,
    exact_ldlt,
    exact_matvec,  # noqa: F401  (bench/tests trace the reference kernel through this name)
    pd_adjugate,
    scaled_integers,
)

COSINE_CAP = 0.5


@dataclass(frozen=True)
class Tolerances:
    """Floating-point thresholds for the double-precision mode."""

    psd: float = 1e-9
    rank: float = 1e-7
    cosine: float = 1e-9
    snap: float = 1e-7


DEFAULT_TOLS = Tolerances()


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GramState:
    """Symmetric unit-diagonal cosine matrix of a partial configuration.

    ``exact`` carries the same entries as Fractions when the state lives in
    rational mode; the float view is kept in sync for numeric work.
    """

    dim: int
    entries: np.ndarray
    exact: RationalMatrix | None = None

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def mode(self) -> str:
        return "rational" if self.exact is not None else "float"

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))

    @staticmethod
    def single(dim: int, rational: bool = False) -> "GramState":
        """The from-scratch seed: one sphere, Gram matrix [[1]]."""
        exact = ((Fraction(1),),) if rational else None
        return GramState(dim=dim, entries=np.ones((1, 1)), exact=exact)

    def as_float(self) -> "GramState":
        """The same state with exact entries dropped (float mode)."""
        if self.exact is None:
            return self
        return GramState(dim=self.dim, entries=self.entries)


def gram_from_vectors(vectors: np.ndarray, dim: int | None = None) -> GramState:
    """Build the (unvalidated) Gram state of explicit unit row vectors."""
    v = np.asarray(vectors, dtype=float)
    g = v @ v.T
    np.fill_diagonal(g, 1.0)
    g = (g + g.T) / 2.0
    return GramState(dim=dim if dim is not None else v.shape[1], entries=g)


def check_invariants(state: GramState, tols: Tolerances = DEFAULT_TOLS) -> None:
    """Raise InvalidState unless all structural invariants hold."""
    g = state.entries
    m = state.m
    if g.shape != (m, m):
        raise InvalidState("entries are not square")
    if state.dim < 1:
        raise InvalidState("ambient dimension must be positive")
    if not np.all(np.diag(g) == 1.0):
        raise InvalidState("diagonal entries must equal 1 exactly")
    if not np.array_equal(g, g.T):
        raise InvalidState("matrix is not symmetric")
    off = g[~np.eye(m, dtype=bool)]
    if off.size and off.max() > COSINE_CAP + tols.cosine:
        raise InvalidState(f"off-diagonal cosine {off.max()} exceeds cap {COSINE_CAP}")
    if state.exact is not None:
        ex = state.exact
        if len(ex) != m or any(len(row) != m for row in ex):
            raise InvalidState("exact entries disagree with float shape")
        for i in range(m):
            if ex[i][i] != 1:
                raise InvalidState("exact diagonal entries must equal 1")
            for j in range(i + 1, m):
                if ex[i][j] != ex[j][i]:
                    raise InvalidState("exact entries are not symmetric")
                if ex[i][j] > Fraction(1, 2):
                    raise InvalidState("exact off-diagonal cosine exceeds 1/2")
        psd, rank = exact_ldlt(ex)
        if not psd:
            raise InvalidState("matrix is not positive semidefinite (exact)")
        if rank > state.dim:
            raise InvalidState(f"exact rank {rank} exceeds dimension {state.dim}")
        return
    if not is_psd(state, tols.psd):
        raise InvalidState("matrix is not positive semidefinite")
    if rank_of(state, tols.rank) > state.dim:
        raise InvalidState("rank exceeds ambient dimension")


@dataclass(frozen=True)
class CandidateColumn:
    """A proposed extension column split into its basis head and lifted tail.

    For states with m >= dim the tail is fully determined by the head, so
    storing both is a cache; equality is re-checked under revalidation.
    """

    head: np.ndarray
    tail: np.ndarray = field(default_factory=lambda: np.zeros(0))
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "head", _frozen(np.atleast_1d(self.head)))
        object.__setattr__(self, "tail", _frozen(np.atleast_1d(self.tail)))

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.head, self.tail])


def extend(state: GramState, column: CandidateColumn | np.ndarray, *,
           revalidate: bool = False, tols: Tolerances = DEFAULT_TOLS) -> GramState:
    """Border the matrix with ``column`` and a trailing diagonal 1.

    The input state is never mutated.  With ``revalidate`` the extended state
    is checked against every invariant and InfeasibleColumn is raised on
    failure (debug mode; the filler pipeline already guarantees feasibility).
    """
    if isinstance(column, CandidateColumn):
        col = column.full
        exact_col = column.exact
    else:
        col = np.asarray(column, dtype=float)
        exact_col = None
    if state.exact is not None and exact_col is not None:
        # Keep the float view the exact image of the rational entries.
        col = np.array([float(x) for x in exact_col])
    m = state.m
    if col.shape != (m,):
        raise DimensionMismatch(f"column has length {col.shape[0]}, state has m={m}")
    g = np.empty((m + 1, m + 1))
    g[:m, :m] = state.entries
    g[:m, m] = col
    g[m, :m] = col
    g[m, m] = 1.0
    exact = None
    if state.exact is not None:
        if exact_col is None:
            raise MixedModeEntries("rational state extended with a float-only column")
        if len(exact_col) != m:
            raise DimensionMismatch("exact column length disagrees with state")
        rows = [row + (exact_col[i],) for i, row in enumerate(state.exact)]
        rows.append(tuple(exact_col) + (Fraction(1),))
        exact = tuple(rows)
    out = GramState(dim=state.dim, entries=g, exact=exact)
    if revalidate:
        try:
            check_invariants(out, tols)
        except InvalidState as exc:
            raise InfeasibleColumn(str(exc)) from exc
        if isinstance(column, CandidateColumn) and m >= state.dim and column.tail.size:
            cache = factorize(state, tols=tols)
            expect = lift_tail(cache, column.head)
            if not np.allclose(expect, column.tail, atol=1e-7):
                raise InfeasibleColumn("cached tail disagrees with the lift of its head")
    return out


def is_psd(state: GramState | np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue is >= -tol (exact pivots in rational mode).

    Fast path: a Cholesky attempt on the tol-shifted matrix accepts most
    feasible states; the smallest eigenvalue is computed only on failure.
    """
    if isinstance(state, GramState) and state.exact is not None:
        psd, _ = exact_ldlt(state.exact)
        return psd
    g = state.entries if isinstance(state, GramState) else np.asarray(state, dtype=float)
    if g.size == 0:
        return True
    try:
        np.linalg.cholesky(g + tol * np.eye(g.shape[0]))
        return True
    except np.linalg.LinAlgError:
        pass
    return float(np.linalg.eigvalsh(g)[0]) >= -tol


def rank_of(state: GramState | np.ndarray, tol: float) -> int:
    """Number of eigenvalues (exact pivots in rational mode) exceeding tol."""
    if isinstance(state, GramState) and state.exact is not None:
        _, rank = exact_ldlt(state.exact)
        return rank
    g = state.entries if isinstance(state, GramState) else np.asarray(state, dtype=float)
    if g.size == 0:
        return 0
    return int(np.count_nonzero(np.linalg.eigvalsh(g) > tol))


@dataclass(frozen=True)
class FactorCache:
    """Factorization of the leading basis block used by the lifted action set.

    ``lift_matrix`` is the precomputed product cross_block @ pseudo_inv so a
    tail costs one matrix-vector product.  The exact fields are populated in
    rational mode only, as integers over one common denominator D: with B
    the basis block and C the cross block, ``exact_det`` = det(D B) > 0,
    ``exact_adj`` = adj(D B) and ``exact_cross`` = D C (object arrays of
    Python ints).  Then B^-1 = D adj(D B) / det(D B), so a head h has
    h^T B^-1 h = (D h)^T adj (D h) / (D det) and tail
    C B^-1 h = (D C) adj (D h) / (D det).
    """

    basis_block: np.ndarray
    chol_factor: np.ndarray
    pseudo_inv: np.ndarray
    cross_block: np.ndarray
    lift_matrix: np.ndarray
    exact_scale: int | None = None
    exact_det: int | None = None
    exact_adj: np.ndarray | None = None
    exact_cross: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.basis_block.shape[0]

    @property
    def m(self) -> int:
        return self.n + self.cross_block.shape[0]


def factorize(state: GramState, *, tols: Tolerances = DEFAULT_TOLS,
              values: Sequence[Fraction] = ()) -> FactorCache:
    """Factor the leading dim x dim block of a state with m >= dim.

    Raises RankDeficientBasis when the leading block is singular, which
    signals the caller to reorder rows (see full_rank_prefix) before retrying.
    In rational mode the common denominator D also covers ``values``, the
    exact cosines later columns may hold, so that every head appended by
    extend_cache and every candidate entry is an integer at scale D.
    """
    n = state.dim
    if state.m < n:
        raise DimensionMismatch(f"factorize needs m >= dim, got m={state.m}, dim={n}")
    basis = state.entries[:n, :n]
    w = np.linalg.eigvalsh(basis)
    if int(np.count_nonzero(w > tols.rank)) < n:
        raise RankDeficientBasis(f"leading {n}x{n} block has rank deficiency (min eig {w[0]:.3e})")
    chol = np.linalg.cholesky(basis)
    pinv = np.linalg.inv(basis)
    cross = state.entries[n:, :n]
    scale = det = adj = exact_cross = None
    if state.exact is not None:
        rows = [row[:n] for row in state.exact]
        scale = common_denominator([x for row in rows for x in row] + list(values))
        ints = [scaled_integers(row, scale) for row in rows]
        factored = pd_adjugate(ints[:n])
        if factored is None:
            raise RankDeficientBasis(f"leading {n}x{n} block is not positive definite (exact)")
        det, adj = factored
        exact_cross = np.array(ints[n:], dtype=object).reshape(state.m - n, n)
    return FactorCache(
        basis_block=_frozen(basis),
        chol_factor=_frozen(chol),
        pseudo_inv=_frozen(pinv),
        cross_block=_frozen(cross),
        lift_matrix=_frozen(cross @ pinv),
        exact_scale=scale,
        exact_det=det,
        exact_adj=adj,
        exact_cross=exact_cross,
    )


def extend_cache(cache: FactorCache, head: np.ndarray,
                 exact_head: tuple[Fraction, ...] | None = None) -> FactorCache:
    """Append one configuration row to the cross block without refactorizing."""
    head = np.asarray(head, dtype=float)
    exact_cross = cache.exact_cross
    if exact_cross is not None:
        if exact_head is None:
            raise MixedModeEntries("exact cache extended with a float-only head")
        row = np.array(scaled_integers(exact_head, cache.exact_scale), dtype=object)
        exact_cross = np.vstack([exact_cross, row[None, :]])
    return FactorCache(
        basis_block=cache.basis_block,
        chol_factor=cache.chol_factor,
        pseudo_inv=cache.pseudo_inv,
        cross_block=_frozen(np.vstack([cache.cross_block, head[None, :]])),
        lift_matrix=_frozen(np.vstack([cache.lift_matrix, (cache.pseudo_inv @ head)[None, :]])),
        exact_scale=cache.exact_scale,
        exact_det=cache.exact_det,
        exact_adj=cache.exact_adj,
        exact_cross=exact_cross,
    )


def lift_tail(cache: FactorCache, head: np.ndarray) -> np.ndarray:
    """Tail entries implied by a head: cross_block @ basis_block^+ @ head."""
    head = np.asarray(head, dtype=float)
    if head.shape != (cache.n,):
        raise DimensionMismatch(f"head has length {head.shape[0]}, basis has n={cache.n}")
    return cache.lift_matrix @ head


def unit_norm_test(cache: FactorCache, head: np.ndarray, tol: float) -> bool:
    """Unit-length condition on the candidate head in the basis frame.

    With basis block B = L L^T, a new center whose cosines with the basis
    rows are ``head`` has squared length head^T B^-1 head = ||L^-1 head||^2
    when it lies in the basis span; the test is that this length is 1.
    """
    head = np.asarray(head, dtype=float)
    if head.shape != (cache.n,):
        raise DimensionMismatch(f"head has length {head.shape[0]}, basis has n={cache.n}")
    y = np.linalg.solve(cache.chol_factor, head)
    return abs(float(np.linalg.norm(y)) - 1.0) <= tol


def reconstruct_vectors(state: GramState, *, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Unit coordinate vectors (rows) whose Gram matrix reproduces the state.

    Uses the top-rank eigenspace of a symmetric eigendecomposition; the
    result is unique only up to a global orthogonal transform.
    """
    g = state.entries
    w, v = np.linalg.eigh(g)
    keep = w > tols.rank
    rank = int(np.count_nonzero(keep))
    coords = v[:, keep] * np.sqrt(w[keep])
    out = np.zeros((state.m, state.dim))
    out[:, :rank] = coords[:, ::-1]
    return out


class CholeskyAppender:
    """Incremental Cholesky of a growing positive-definite matrix.

    Used by ``full_rank_prefix`` for greedy basis selection, where testing
    one more row must not refactor the rows already chosen.
    """

    def __init__(self):
        self._rows: list[np.ndarray] = []

    @property
    def size(self) -> int:
        return len(self._rows)

    def factor(self) -> np.ndarray:
        k = self.size
        out = np.zeros((k, k))
        for i, row in enumerate(self._rows):
            out[i, : i + 1] = row
        return out

    def pivot_sq(self, cross: np.ndarray, diagonal: float = 1.0) -> float:
        """Squared pivot of the bordered matrix; negative means not PD."""
        y = self._solve(cross)
        return float(diagonal - y @ y)

    def append(self, cross: np.ndarray, diagonal: float = 1.0) -> float:
        """Grow the factor by one row; returns the (positive) pivot used."""
        y = self._solve(cross)
        piv_sq = float(diagonal - y @ y)
        if piv_sq <= 0:
            raise InvalidState(f"appended row has non-positive pivot {piv_sq:.3e}")
        piv = math.sqrt(piv_sq)
        self._rows.append(np.concatenate([y, [piv]]))
        return piv

    def _solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        k = self.size
        if b.shape != (k,):
            raise DimensionMismatch(f"cross vector has length {b.shape[0]}, factor has k={k}")
        return np.linalg.solve(self.factor(), b)


def full_rank_prefix(state: GramState, *, tols: Tolerances = DEFAULT_TOLS) -> list[int]:
    """Row order putting a greedily chosen full-rank dim-sized basis first.

    Scans rows in their current order, so earlier (e.g. protected) rows are
    preferred for the basis.  Raises RankDeficientBasis when the whole state
    has rank below dim.
    """
    n = state.dim
    g = state.entries
    chol = CholeskyAppender()
    selected: list[int] = []
    for r in range(state.m):
        if len(selected) == n:
            break
        cross = g[r, selected] if selected else np.zeros(0)
        if chol.pivot_sq(cross, g[r, r]) > tols.rank:
            chol.append(cross, g[r, r])
            selected.append(r)
    if len(selected) < n:
        raise RankDeficientBasis(f"state rank {len(selected)} is below dim {n}")
    rest = [r for r in range(state.m) if r not in set(selected)]
    return selected + rest


def permute_state(state: GramState, order: Sequence[int]) -> GramState:
    """Apply a row/column permutation; the multiset of rows is unchanged."""
    idx = list(order)
    if sorted(idx) != list(range(state.m)):
        raise DimensionMismatch("order is not a permutation of the rows")
    entries = state.entries[np.ix_(idx, idx)]
    exact = None
    if state.exact is not None:
        exact = tuple(tuple(state.exact[i][j] for j in idx) for i in idx)
    return GramState(dim=state.dim, entries=entries, exact=exact)
