"""Gram-matrix game state: predicates, factorization and extension operations.

A state is the symmetric unit-diagonal matrix of pairwise cosines of the
sphere centers.  All operations are pure: extension and deletion build new
values, so states are safely shareable across workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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


def extend(state: GramState, column: np.ndarray, *, exact: Sequence[int] | None = None,
           revalidate: bool = False, tols: Tolerances = DEFAULT_TOLS) -> GramState:
    """Border the matrix with ``column`` and a trailing diagonal 1.

    The input state is never mutated.  A rational state needs ``exact``, the
    column's integer numerators over its D: they are appended as Python ints
    (any other number raises TypeError) and give the float column.  With
    ``revalidate`` the extended state is checked against every invariant and
    InfeasibleColumn is raised on failure (debug mode; the filler already
    guarantees feasibility).  At m >= dim that also pins a lifted tail: a PSD
    extension of rank at most dim has the lift of its head as its tail.
    """
    col = np.asarray(column, dtype=float)
    m = state.m
    grown = scale = None
    if state.exact is not None:
        if exact is None:
            raise MixedModeEntries("rational state extended with a float-only column")
        numerators = [operator.index(x) for x in exact]
        if len(numerators) != m:
            raise DimensionMismatch("exact column length disagrees with state")
        scale = state.exact_scale
        grown = np.empty((m + 1, m + 1), dtype=object)
        grown[:m, :m] = state.exact
        grown[:m, m] = grown[m, :m] = numerators
        grown[m, m] = scale
        # Keep the float view the correctly rounded image of the exact entries.
        col = np.array([x / scale for x in numerators])
    if col.shape != (m,):
        raise DimensionMismatch(f"column has length {col.shape[0]}, state has m={m}")
    g = np.empty((m + 1, m + 1))
    g[:m, :m] = state.entries
    g[:m, m] = g[m, :m] = col
    g[m, m] = 1.0
    out = GramState(dim=state.dim, entries=g, exact=grown, exact_scale=scale)
    if revalidate:
        try:
            check_invariants(out, tols)
        except InvalidState as exc:
            raise InfeasibleColumn(str(exc)) from exc
    return out


def is_psd(state: GramState | np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue of the float entries is >= -tol.

    Fast path: a Cholesky attempt on the tol-shifted matrix accepts most
    feasible states; the smallest eigenvalue is computed only on failure.
    Exact entries are not read: exact callers run ``exact_ldlt`` themselves.
    """
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
    """Number of eigenvalues of the float entries exceeding tol."""
    g = state.entries if isinstance(state, GramState) else np.asarray(state, dtype=float)
    if g.size == 0:
        return 0
    return int(np.count_nonzero(np.linalg.eigvalsh(g) > tol))


@dataclass(frozen=True)
class FactorCache:
    """Factorization of the leading basis block B used by the lifted action set.

    It depends on B alone: a ``filler.BasisTable`` keeps one from
    ``factorize`` per basis block, and every ``filler.LiftedPool`` on that
    block shares it, so its arrays are read-only.  A block of cross rows C
    (rows after the basis) lifts to B^-1 C^T (``extend_cache``), one matrix
    product.  The exact fields are populated in rational mode only, as
    integers over the state's denominator D: ``exact_det`` = det(D B) > 0
    and ``exact_adj`` = adj(D B), an object array of Python ints.
    Then B^-1 = D adj(D B) / det(D B), so a head h has
    h^T B^-1 h = (D h)^T adj (D h) / (D det) and a tail
    c^T B^-1 h = (D c)^T adj (D h) / (D det).
    """

    chol_factor: np.ndarray
    pseudo_inv: np.ndarray
    exact_scale: int | None = None
    exact_det: int | None = None
    exact_adj: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.chol_factor.shape[0]


def factorize(state: GramState, *, tols: Tolerances = DEFAULT_TOLS) -> FactorCache:
    """Factor the leading dim x dim block of a state with m >= dim.

    Raises RankDeficientBasis when a squared Cholesky pivot of the leading
    block is at most ``tols.rank``, the rule full_rank_prefix picks rows by,
    which signals the caller to reorder rows with it before retrying.
    The exact factors are taken at the state's D, which a rational run fixes
    when its seed loads.
    """
    n = state.dim
    if state.m < n:
        raise DimensionMismatch(f"factorize needs m >= dim, got m={state.m}, dim={n}")
    basis = state.entries[:n, :n]
    try:
        chol = np.linalg.cholesky(basis)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientBasis(f"leading {n}x{n} block is not positive definite") from exc
    pivots = np.diag(chol) ** 2
    if not np.all(pivots > tols.rank):
        raise RankDeficientBasis(f"leading {n}x{n} block has rank deficiency "
                                 f"(min squared pivot {pivots.min():.3e})")
    pinv = np.linalg.inv(basis)
    det = adj = None
    if state.exact is not None:
        factored = pd_adjugate(state.exact[:n, :n])
        if factored is None:
            raise RankDeficientBasis(f"leading {n}x{n} block is not positive definite (exact)")
        det, adj = factored
        adj.setflags(write=False)  # shared by every pool on this basis
    return FactorCache(chol_factor=_frozen(chol), pseudo_inv=_frozen(pinv),
                       exact_scale=state.exact_scale, exact_det=det, exact_adj=adj)


def extend_cache(cache: FactorCache, rows: np.ndarray) -> np.ndarray:
    """The lift B^-1 C^T of new cross rows C: one column per row of a block,
    or the vector B^-1 c of one 1-D row c."""
    return cache.pseudo_inv @ np.asarray(rows, dtype=float).T


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
    lower = np.zeros((n, n))  # the factor of the chosen rows is its leading k x k block
    selected: list[int] = []
    for r in range(state.m):
        k = len(selected)
        if k == n:
            break
        y = np.linalg.solve(lower[:k, :k], g[r, selected])
        piv_sq = float(g[r, r] - y @ y)
        if piv_sq > tols.rank:
            lower[k, :k] = y
            lower[k, k] = math.sqrt(piv_sq)
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
