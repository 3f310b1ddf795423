"""Gram-matrix game state: predicates, factorization and extension operations.

A state is the symmetric unit-diagonal matrix of pairwise cosines of the
sphere centers.  All operations are pure: extension and deletion build new
values, so states are safely shareable across workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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
    exact_ldlt,
    exact_matvec,  # noqa: F401  (bench/tests trace the reference kernel through this name)
    pd_adjugate,
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

    A rational-mode state also holds its entries exactly, in one form:
    ``exact`` is an m x m object array of Python-int numerators over the
    positive common denominator ``exact_scale`` (D), so a valid state has
    exact[i, i] == D.  D need not be the least denominator.  ``entries`` is
    then the correctly rounded float of each N / D, the view numeric work
    reads.
    """

    dim: int
    entries: np.ndarray
    exact: np.ndarray | None = None
    exact_scale: int | None = None

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def mode(self) -> str:
        return "rational" if self.exact is not None else "float"

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
        if self.exact is not None:
            exact = np.asarray(self.exact, dtype=object)
            exact.setflags(write=False)
            object.__setattr__(self, "exact", exact)

    @staticmethod
    def from_exact(dim: int, numerators, scale: int) -> "GramState":
        """A rational state from integer numerators over ``scale``."""
        exact = np.asarray(numerators, dtype=object)
        return GramState(dim=dim, entries=(exact / scale).astype(float), exact=exact,
                         exact_scale=scale)

    @staticmethod
    def single(dim: int, rational: bool = False) -> "GramState":
        """The from-scratch seed: one sphere, Gram matrix [[1]]."""
        if rational:
            return GramState.from_exact(dim, [[1]], 1)
        return GramState(dim=dim, entries=np.ones((1, 1)))

    def as_float(self) -> "GramState":
        """The same state with exact entries dropped (float mode)."""
        if self.exact is None:
            return self
        return GramState(dim=self.dim, entries=self.entries)

    def principal(self, rows: Sequence[int]) -> "GramState":
        """The principal submatrix on ``rows``, in that order."""
        ix = np.ix_(rows, rows)
        return GramState(dim=self.dim, entries=self.entries[ix],
                         exact=None if self.exact is None else self.exact[ix],
                         exact_scale=self.exact_scale)


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
        ex, scale = state.exact, state.exact_scale
        if ex.shape != (m, m):
            raise InvalidState("exact entries disagree with float shape")
        if not np.all(ex.diagonal() == scale):
            raise InvalidState("exact diagonal entries must equal 1")
        if not np.array_equal(ex, ex.T):
            raise InvalidState("exact entries are not symmetric")
        if m > 1 and 2 * ex[~np.eye(m, dtype=bool)].max() > scale:
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
    ``exact`` holds the whole column as Python-int numerators over the
    rational state's ``exact_scale``.
    """

    head: np.ndarray
    tail: np.ndarray = field(default_factory=lambda: np.zeros(0))
    exact: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "head", _frozen(np.atleast_1d(self.head)))
        object.__setattr__(self, "tail", _frozen(np.atleast_1d(self.tail)))
        if self.exact is not None:  # integers only: no Fraction reaches an exact Gram
            object.__setattr__(self, "exact", tuple(map(operator.index, self.exact)))

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.head, self.tail])


def extend(state: GramState, column: CandidateColumn | np.ndarray, *,
           revalidate: bool = False, tols: Tolerances = DEFAULT_TOLS) -> GramState:
    """Border the matrix with ``column`` and a trailing diagonal 1.

    The input state is never mutated; a rational state keeps its D and
    appends the column's numerators as they are.  With ``revalidate`` the
    extended state is checked against every invariant and InfeasibleColumn
    is raised on failure (debug mode; the filler pipeline already guarantees
    feasibility).
    """
    col = column.full if isinstance(column, CandidateColumn) else np.asarray(column, dtype=float)
    exact_col = column.exact if isinstance(column, CandidateColumn) else None
    m = state.m
    exact = scale = None
    if state.exact is not None:
        if exact_col is None:
            raise MixedModeEntries("rational state extended with a float-only column")
        if len(exact_col) != m:
            raise DimensionMismatch("exact column length disagrees with state")
        scale = state.exact_scale
        exact = np.empty((m + 1, m + 1), dtype=object)
        exact[:m, :m] = state.exact
        exact[:m, m] = exact[m, :m] = exact_col
        exact[m, m] = scale
        # Keep the float view the correctly rounded image of the exact entries.
        col = np.array([x / scale for x in exact_col])
    if col.shape != (m,):
        raise DimensionMismatch(f"column has length {col.shape[0]}, state has m={m}")
    g = np.empty((m + 1, m + 1))
    g[:m, :m] = state.entries
    g[:m, m] = g[m, :m] = col
    g[m, m] = 1.0
    out = GramState(dim=state.dim, entries=g, exact=exact, exact_scale=scale)
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
    rational mode only, as integers over the state's denominator D: with B
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


def factorize(state: GramState, *, tols: Tolerances = DEFAULT_TOLS) -> FactorCache:
    """Factor the leading dim x dim block of a state with m >= dim.

    Raises RankDeficientBasis when the leading block is singular, which
    signals the caller to reorder rows (see full_rank_prefix) before retrying.
    The exact factors are taken at the state's D, which a rational run fixes
    when its seed loads.
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
    det = adj = exact_cross = None
    if state.exact is not None:
        factored = pd_adjugate(state.exact[:n, :n])
        if factored is None:
            raise RankDeficientBasis(f"leading {n}x{n} block is not positive definite (exact)")
        det, adj = factored
        exact_cross = state.exact[n:, :n].copy()  # a view would pin the whole m x m Gram
    return FactorCache(
        basis_block=_frozen(basis),
        chol_factor=_frozen(chol),
        pseudo_inv=_frozen(pinv),
        cross_block=_frozen(cross),
        lift_matrix=_frozen(cross @ pinv),
        exact_scale=state.exact_scale,
        exact_det=det,
        exact_adj=adj,
        exact_cross=exact_cross,
    )


def extend_cache(cache: FactorCache, head: np.ndarray,
                 exact_head: Sequence[int] | None = None) -> FactorCache:
    """Append one configuration row to the cross block without refactorizing."""
    head = np.asarray(head, dtype=float)
    exact_cross = cache.exact_cross
    if exact_cross is not None:
        if exact_head is None:
            raise MixedModeEntries("exact cache extended with a float-only head")
        exact_cross = np.vstack([exact_cross, np.array(exact_head, dtype=object)[None, :]])
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


def full_rank_prefix(state: GramState, *, tols: Tolerances = DEFAULT_TOLS) -> list[int]:
    """Row order putting a greedily chosen full-rank dim-sized basis first.

    Scans rows in their current order, so earlier (e.g. protected) rows are
    preferred for the basis: a row joins when its pivot against the Cholesky
    factor of the rows already chosen exceeds the rank tolerance.  Raises
    RankDeficientBasis when the whole state has rank below dim.
    """
    n = state.dim
    g = state.entries
    lower = np.zeros((0, 0))
    selected: list[int] = []
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
    chosen = set(selected)
    return selected + [r for r in range(state.m) if r not in chosen]


def permute_state(state: GramState, order: Sequence[int]) -> GramState:
    """Apply a row/column permutation; the multiset of rows is unchanged."""
    idx = list(order)
    if sorted(idx) != list(range(state.m)):
        raise DimensionMismatch("order is not a permutation of the rows")
    return state.principal(idx)
