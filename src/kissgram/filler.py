"""Player 1: enumerate feasible extension columns and select with UCB search.

Enumeration is a level-synchronous branch-and-prune over column entries.
For rank-increasing extensions (m < dim) partial columns are pruned through
the running Schur-complement bound; for lifted extensions (m >= dim) the
pruning bound is the running coordinate norm of the candidate head.  Both
walks are deterministic and lexicographic over the discrete value set, and
each returns one move's action set as a ``Candidates`` batch of K whole
columns, of which ``select_action`` picks a row.

A lifted head depends only on the basis block, which a fill phase never
changes, and each move appends one row.  So a ``LiftedPool``, the one object
of every fill phase at m >= dim, takes the heads once per phase and keeps
only each head's tails.  It tests the rows it has not yet tested in blocks
of ``POOL_BLOCK_ROWS``, the rows held at its creation and then the one row
each move placed: a block snaps its tail entries for every head that has at
most one violation so far and, in rational mode, the exact tail entries for
every head that is still exactly unit and conforming.  So a block's tails
are K x POOL_BLOCK_ROWS, never K x rows.  Under a membership list the heads
are list vectors, and ``enumerate_membership`` serves m < dim.

The corrector rarely changes the basis block, so fill phases of one run
meet the same blocks again, and small-regime moves the same states.  A
``BasisTable``, made once per run, keeps what each block determines: the
factors and unit heads of a lifted basis, the action set of a small state.
So a run factors and enumerates each distinct block once.

The search tree keys its statistics on the state's fingerprint, a hash of
its sorted row digests.  A row's digest is an order-free sum over its
quantized entries, so a fill phase computes the digests once and a move
updates them in O(m): the new row adds one entry to every kept row's sum
and brings its own.
"""

from __future__ import annotations

import hashlib
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    EnumerationOverflow,
    MixedModeEntries,
    RankDeficientBasis,
)
from .gram import (
    COSINE_CAP,
    DEFAULT_TOLS,
    FactorCache,
    GramState,
    Tolerances,
    extend_cache,
    factorize,
)
from .rational import integer_dtype, pd_adjugate

MAX_ENUMERATION_WIDTH = 4_000_000
FINGERPRINT_QUANTUM = 1e-9  # entries that round to the same multiple of this share a fingerprint
# The splitmix64 finalizer's multipliers and shifts.
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(map(np.uint64, (30, 27, 31)))
BASIS_TABLE_ENTRIES = 256  # blocks a run's BasisTable keeps; the least recently used leave first
POOL_BLOCK_ROWS = 32  # untested rows a LiftedPool lifts and snaps at once


@dataclass(frozen=True)
class DiscreteSet:
    """A finite admissible cosine set, ascending, with no value repeated.

    A rational set holds its values exactly in the form of ``GramState``:
    ``exact`` is a tuple of Python-int numerators over the positive
    denominator ``exact_scale``, ascending, and ``values`` the correctly
    rounded float of each (``from_exact``).  So -1/2 and -2/4 are a repeat.
    """

    values: tuple[float, ...]
    exact: tuple[int, ...] | None = None
    exact_scale: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        key = self.values
        if self.exact is not None:
            key = tuple(sorted(self.exact))
            if not (self.exact_scale > 0
                    and self.values == tuple(n / self.exact_scale for n in key)):
                raise ValueError("values are not the exact numerators over a positive scale")
            object.__setattr__(self, "exact", key)
        repeats = [v for v, a, b in zip(self.values[1:], key, key[1:]) if a == b]
        if repeats:
            raise ValueError(f"cosine value {repeats[0]} is repeated")

    @staticmethod
    def from_exact(numerators: Sequence[int], scale: int) -> "DiscreteSet":
        """A rational set from integer numerators over ``scale``."""
        exact = tuple(map(operator.index, numerators))
        return DiscreteSet(tuple(n / scale for n in exact), exact, operator.index(scale))

    @property
    def is_rational(self) -> bool:
        return self.exact is not None

    @cached_property
    def snap_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The values as a float array and the midpoints between neighbours,
        which ``nearest`` searches; built once per set."""
        values = _readonly(np.array(self.values, dtype=float))
        return values, _readonly((values[1:] + values[:-1]) / 2)

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Index of the value nearest each entry of ``x``, the lower one on a
        tie: a search on the midpoints, as the values ascend.  Tails are
        finite by construction; NaN, which ``searchsorted`` puts last, is the
        one input on which this search and counting the midpoints below x
        differ."""
        return np.searchsorted(self.snap_points[1], x, side="left")

    def numerators_over(self, scale: int) -> list[int]:
        """The exact values as integer numerators over a run's denominator ``scale``."""
        if self.exact is None or scale % self.exact_scale:
            raise MixedModeEntries(f"the cosine set is not rational over 1/{scale}")
        return [n * (scale // self.exact_scale) for n in self.exact]


@dataclass(frozen=True)
class CapOnly:
    """Continuous tail constraint: every lifted entry at most ``max_value``."""

    max_value: float = COSINE_CAP


@dataclass(frozen=True)
class MembershipList:
    """Structural constraint: new rows must come from a fixed vector set."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True)
class ActionSpec:
    """Constraint sets defining the candidate action space."""

    c1: DiscreteSet
    c2: DiscreteSet | CapOnly | None = None
    c_star: MembershipList | None = None

    def __post_init__(self):
        tail = self.c2.values if isinstance(self.c2, DiscreteSet) else ()
        for part, values in (("head", self.c1.values), ("tail", tail)):
            for v in values:
                if not -1.0 - 1e-12 <= v <= COSINE_CAP + 1e-12:  # nan included
                    raise ValueError(f"{part} cosine value {v} outside [-1, 1/2]")
        if isinstance(self.c2, CapOnly) and not self.c2.max_value <= COSINE_CAP + 1e-12:
            raise ValueError(f"tail cap {self.c2.max_value} exceeds 1/2")
        if self.c2 is None:
            object.__setattr__(self, "c2", self.c1)

    @property
    def is_rational(self) -> bool:
        # A continuous cap cannot be confirmed exactly.
        return self.c1.is_rational and isinstance(self.c2, DiscreteSet) and self.c2.is_rational


@dataclass(frozen=True)
class Candidates:
    """One move's action set: K extension columns in enumeration order.

    ``columns`` is K x m, each row a head followed by its snapped tail.
    ``exact`` holds the same columns as integer numerators over the rational
    state's D (None in float mode), ``members`` each column's index in the
    membership list (None outside member-list runs).
    """

    columns: np.ndarray
    exact: np.ndarray | None = None
    members: np.ndarray | None = None

    def __len__(self) -> int:
        return self.columns.shape[0]

    def take(self, rows: Sequence[int]) -> "Candidates":
        """The batch restricted to ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Candidates(self.columns[rows],
                          None if self.exact is None else self.exact[rows],
                          None if self.members is None else self.members[rows])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class BasisTable:
    """What a run has derived from each block, so that it derives it once.

    Keys are a block of a state: the leading dim x dim basis block for a
    ``LiftedPool``, the whole m < dim state for ``enumerate_small``.  A block
    is its float bytes in float mode and its exact numerators over D in
    rational mode; the key also holds the cosine sets and tolerances, which
    shape what is derived, so an entry never serves another spec.  Entries
    are shared, so their arrays are read-only.  The table keeps at most
    ``BASIS_TABLE_ENTRIES`` entries, evicting the least recently used.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()

    def lookup(self, kind: str, state: GramState, rows: int, spec: ActionSpec,
               tols: Tolerances, build: Callable[[], object]):
        """The entry of the leading ``rows`` x ``rows`` block of ``state``;
        ``build`` makes it on a miss."""
        if state.exact is None:
            block = state.entries[:rows, :rows].tobytes()
        else:
            block = (state.exact_scale, *state.exact[:rows, :rows].flat)
        key = (kind, rows, block, spec.c1, spec.c2, tols)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = build()
            if len(self.entries) > BASIS_TABLE_ENTRIES:
                self.entries.popitem(last=False)
        else:
            self.entries.move_to_end(key)
        return entry


def _mixed(entries: np.ndarray) -> np.ndarray:
    """mix(q) of each entry: q = rint(g / FINGERPRINT_QUANTUM) as a 64-bit word,
    mixed by the splitmix64 finalizer, a bijection on 64-bit words."""
    z = np.rint(entries / FINGERPRINT_QUANTUM).astype(np.int64).view(np.uint64)
    shifted = z >> _SHIFTS[0]
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, _SHIFTS[1], out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, _SHIFTS[2], out=shifted)
    z ^= shifted
    return z


def row_digests(state: GramState) -> np.ndarray:
    """Each row's digest: the wrapping uint64 sum of ``mix(q)`` over its entries.

    The sum is order-free, so it depends on the row's multiset of quantized
    entries alone."""
    return _mixed(state.entries).sum(axis=1)


def grow_digests(digests: np.ndarray, state: GramState) -> np.ndarray:
    """The digests of ``state`` from those of its first m - 1 rows: its last
    row adds one entry to every kept row and brings its own sum, in O(m)."""
    z = _mixed(state.entries[-1])
    grown = np.empty_like(z)
    np.add(digests, z[:-1], out=grown[:-1])
    grown[-1] = z.sum()
    return grown


def fingerprint_state(state: GramState, digests: np.ndarray | None = None) -> bytes:
    """Order-independent digest of the multiset of quantized Gram rows.

    It is blake2b-128 of (m, dim, the sorted row digests): ``digests`` as a
    fill phase keeps them (``row_digests``, ``grow_digests``), or computed
    from ``state`` when not given.  So permuted discoveries of the same
    sphere set share statistics.  States with equal multisets of quantized
    rows share a fingerprint; distinct ones collide only if two distinct
    rows share a 64-bit digest.
    """
    digests = row_digests(state) if digests is None else digests
    h = hashlib.blake2b(np.array((state.m, state.dim), dtype=np.int64).tobytes(),
                        digest_size=16)
    h.update(np.sort(digests).tobytes())
    return h.digest()


def fingerprint_column(column: np.ndarray) -> bytes:
    q = np.rint(column / FINGERPRINT_QUANTUM).astype(np.int64)
    return hashlib.blake2b(q.tobytes(), digest_size=16).digest()


class SearchTree:
    """Mean-reward and visit statistics over state/action fingerprints."""

    def __init__(self, exploration: float = math.sqrt(2.0)):
        self.exploration = float(exploration)
        self.node_visits: dict[bytes, int] = {}
        self.edge_visits: dict[tuple[bytes, bytes], int] = {}
        self.edge_value: dict[tuple[bytes, bytes], float] = {}

    def ucb(self, state_fp: bytes, action_fp: bytes) -> float:
        key = (state_fp, action_fp)
        n_sa = self.edge_visits.get(key, 0)
        if n_sa == 0:
            return math.inf
        n_s = max(self.node_visits.get(state_fp, n_sa), 1)
        bonus = self.exploration * math.sqrt(math.log(n_s) / n_sa)
        return self.edge_value[key] + bonus

    def summary(self) -> dict:
        return {
            "exploration": self.exploration,
            "nodes": {fp.hex(): n for fp, n in self.node_visits.items()},
            "edges": [
                [s.hex(), a.hex(), self.edge_visits[(s, a)], self.edge_value[(s, a)]]
                for (s, a) in self.edge_visits
            ],
        }

    @staticmethod
    def from_summary(data: dict) -> "SearchTree":
        tree = SearchTree(exploration=float(data["exploration"]))
        tree.node_visits = {bytes.fromhex(k): int(v) for k, v in data["nodes"].items()}
        for s_hex, a_hex, n, q in data["edges"]:
            key = (bytes.fromhex(s_hex), bytes.fromhex(a_hex))
            tree.edge_visits[key] = int(n)
            tree.edge_value[key] = float(q)
        return tree


def select_action(tree: SearchTree, state: GramState, candidates: Candidates,
                  digests: np.ndarray | None = None) -> tuple[int, tuple[bytes, bytes]]:
    """UCB-greedy row of ``candidates`` and its tree edge ``(state_fp, action_fp)``;
    unvisited actions rank above all visited ones.  ``digests``, the state's
    row digests when the caller keeps them, go to ``fingerprint_state``.

    Ties resolve to the earliest candidate in the (deterministic) stream
    order, so cold starts are reproducible.
    """
    if not candidates:
        raise EmptyCandidates("no candidate columns to select from")
    state_fp = fingerprint_state(state, digests)
    action_fps = []
    best_i = 0
    best_score = -math.inf
    for i, column in enumerate(candidates.columns):
        action_fps.append(fingerprint_column(column))
        score = tree.ucb(state_fp, action_fps[i])
        if score > best_score:
            best_score = score
            best_i = i
        if math.isinf(score):
            break  # first unvisited candidate wins outright
    return best_i, (state_fp, action_fps[best_i])


def backpropagate(tree: SearchTree, trajectory: Sequence[tuple[bytes, bytes]],
                  reward: float) -> SearchTree:
    """Running-mean update of every edge on the trajectory (in place)."""
    for state_fp, action_fp in trajectory:
        key = (state_fp, action_fp)
        n = tree.edge_visits.get(key, 0) + 1
        q = tree.edge_value.get(key, 0.0)
        tree.edge_visits[key] = n
        tree.edge_value[key] = q + (reward - q) / n
        tree.node_visits[state_fp] = tree.node_visits.get(state_fp, 0) + 1
    return tree


def _expand_columns(lower: np.ndarray, values: np.ndarray, s_limit: float,
                    strict: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All columns g over ``values`` whose running ||L^-1 g||^2 stays in bound.

    Returns (columns, value indices, squared norms), in lexicographic order
    over value indices.  The partial squared norm is monotone, so pruning a
    prefix never drops a feasible completion.
    """
    k = lower.shape[0]
    idx = np.zeros((1, 0), dtype=np.int64)
    ys = np.zeros((1, 0))
    s = np.zeros(1)
    for level in range(k):
        row = lower[level, :level]
        piv = lower[level, level]
        proj = ys @ row
        yk = (values[None, :] - proj[:, None]) / piv
        s_new = s[:, None] + yk * yk
        keep = (s_new < s_limit) if strict else (s_new <= s_limit)
        ki, vi = np.nonzero(keep)
        if ki.size == 0:
            return (np.zeros((0, k)), np.zeros((0, k), dtype=np.int64), np.zeros(0))
        if ki.size > MAX_ENUMERATION_WIDTH:
            raise EnumerationOverflow(
                f"{ki.size} partial columns at level {level}; shrink the value set "
                f"or add a structural constraint")
        idx = np.concatenate([idx[ki], vi[:, None]], axis=1)
        ys = np.concatenate([ys[ki], yk[ki, vi][:, None]], axis=1)
        s = s_new[ki, vi]
    return values[idx], idx, s


def _stuck(m: int) -> Candidates:
    """The empty action set for a state of m rows: Player 1 is stuck."""
    return Candidates(_readonly(np.zeros((0, m))))


def enumerate_small(state: GramState, spec: ActionSpec, *, tols: Tolerances = DEFAULT_TOLS,
                    table: BasisTable | None = None) -> Candidates:
    """Rank-increasing action set for m < dim.

    Every column over the head set whose bordered matrix is PSD with rank
    m + 1, in lexicographic order.  The batch is ``table``'s entry for the
    whole state (a throwaway table by default), built on a miss; its arrays
    are read-only.
    """
    if state.m >= state.dim:
        raise DimensionMismatch(f"small-regime enumeration needs m < dim, got m={state.m}")
    table = BasisTable() if table is None else table
    return table.lookup("small", state, state.m, spec, tols,
                        lambda: _small_candidates(state, spec, tols))


def _small_candidates(state: GramState, spec: ActionSpec, tols: Tolerances) -> Candidates:
    values = np.asarray(spec.c1.values, dtype=float)
    if values.size == 0:
        return _stuck(state.m)
    try:
        lower = np.linalg.cholesky(state.entries)
    except np.linalg.LinAlgError:
        return _stuck(state.m)  # numerically rank-deficient: no rank-(m+1) extension exists
    cols, idx, _ = _expand_columns(lower, values, 1.0 - tols.rank, True)
    if state.exact is None:
        return Candidates(_readonly(cols))
    heads = spec.c1.numerators_over(state.exact_scale)
    keep = _exact_schur_positive(state, heads, idx)
    return Candidates(_readonly(cols[keep]),
                      _readonly(np.array(heads, dtype=object)[idx[keep]]))


def _exact_schur_positive(state: GramState, heads: Sequence[int],
                          idx: np.ndarray) -> np.ndarray:
    """Rows of ``idx`` (columns g over c1) whose Schur gap 1 - g^T G^-1 g is positive.

    ``heads`` are the c1 numerators over the state's denominator D.  With
    G^-1 = D adj(D G) / det(D G), the gap is positive iff
    (D g)^T adj (D g) < D det.  An exactly singular G has no rank-increasing
    extension.
    """
    factored = pd_adjugate(state.exact)
    if factored is None:
        return np.zeros(idx.shape[0], dtype=bool)
    det, adj = factored
    limit = state.exact_scale * det
    _, _, forms, _ = _exact_quadratic_forms(heads, idx, adj, limit)
    return forms < limit


def _exact_quadratic_forms(numerators: Sequence[int], idx: np.ndarray, adj: np.ndarray,
                           limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """H = numerators[idx], Y = H adj, the forms rowsum(Y * H) and a bound on |Y|.

    With h = max|numerators|, a = max|adj| and adj n x n, |Y| <= n h a, so
    every form is at most n^2 h^2 a in absolute value.  H, Y and the forms
    are in the integer type that holds that and ``limit``, the number the
    caller compares the forms with.
    """
    n = adj.shape[0]
    h = max(map(abs, numerators))
    y_bound = n * h * max(map(abs, adj.flat))
    dtype = integer_dtype(max(n * y_bound * h, limit))
    hmat = np.array(numerators, dtype=object).astype(dtype)[idx]
    y = hmat @ adj.astype(dtype)
    return hmat, y, (y * hmat).sum(axis=1), y_bound


class _LiftedBasis(NamedTuple):
    """What a basis block determines for every lifted pool built on it.

    It depends on that block alone: ``cache`` holds its factors, ``heads``
    the unit heads in lexicographic order.  In rational mode ``exact_ok``
    marks the exactly unit heads, ``y`` and ``exact`` hold their Y and head
    numerators, and ``targets`` the allowed exact tails, in ``dtype``, the
    integer type of the exact tail test.
    """

    cache: FactorCache
    heads: np.ndarray
    exact_ok: np.ndarray | None = None
    y: np.ndarray | None = None
    exact: np.ndarray | None = None
    targets: np.ndarray | None = None
    dtype: type | None = None


def _lifted_basis(state: GramState, spec: ActionSpec, tols: Tolerances
                  ) -> _LiftedBasis | RankDeficientBasis:
    """The entry of the state's basis block; a singular block's entry is its error."""
    try:
        cache = factorize(state, tols=tols)
    except RankDeficientBasis as exc:
        return RankDeficientBasis(*exc.args)  # without the traceback, which pins its frames
    rational = state.exact is not None
    unit_tol = 1e-6 if rational else tols.psd
    values = np.asarray(spec.c1.values, dtype=float)
    heads, idx, s = _expand_columns(cache.chol_factor, values, (1.0 + unit_tol) ** 2, False)
    keep = np.abs(np.sqrt(s) - 1.0) <= unit_tol
    heads = _readonly(heads[keep])
    if not rational:
        return _LiftedBasis(cache, heads)
    n, scale, det = cache.n, cache.exact_scale, cache.exact_det
    hmat, y, forms, y_bound = _exact_quadratic_forms(spec.c1.numerators_over(scale), idx[keep],
                                                     cache.exact_adj, scale * det)
    exact_ok = forms == scale * det
    targets = [det * v for v in spec.c2.numerators_over(scale)]
    # A cross entry is a cosine numerator over D, so |D C| <= D and a tail
    # N = Y (D C_new)^T has |N| <= n max|Y| D.
    confirm = integer_dtype(max(n * y_bound * scale, det, *map(abs, targets)))
    return _LiftedBasis(cache, heads, _readonly(exact_ok), _readonly(y[exact_ok].astype(confirm)),
                        _readonly(hmat[exact_ok]),
                        _readonly(np.array(targets, dtype=object).astype(confirm)), confirm)


class LiftedPool:
    """The one object of a fill phase at m >= dim: the heads and their tails so far.

    Within a fill phase rows are only appended, so the leading dim rows,
    and with them the set of heads, never change, and each new row adds one
    tail entry per head.  The pool keeps per head its snapped tails, its
    violation count and the row of its first violation.  A count never
    falls, so a head leaves the pool at its second violation, even within
    the held rows tested at creation; a head with one violation stays, since
    it is still blamed.

    Under a ``MembershipList`` the heads are the list's cosines with the
    first dim ``anchors`` (the rows' coordinates) that pass the cap and
    snap to c1, in list order, and ``members`` their list indices.  Nothing
    is factored, so a singular leading block is no obstacle; a raw tail
    above the cap by more than ``tols.cosine`` also violates.  Otherwise the
    heads are the basis block's unit heads in lexicographic order, from
    ``table``'s ``_LiftedBasis`` (a throwaway table by default), whose
    ``cache`` the pool shares.  A miss factors the block (``factorize``)
    and runs ``_expand_columns`` once; a singular block raises
    RankDeficientBasis, on every lookup.

    In rational mode the float unit test is a prescreen.  With H = D c1[head]
    and Y = H adj(D B), the basis entry decides once per head whether it is
    exactly unit: rowsum(Y * H) == D det.  ``exact_ok`` marks the heads that
    are exactly unit, violation-free and exactly conforming so far; for
    these, in pool order, ``y`` holds Y and ``exact`` the exact columns over
    D.  No head regains the mark, so a move checks one new exact tail entry
    per marked head (``_confirm_exact_lifted``).
    """

    def __init__(self, state: GramState, spec: ActionSpec, *,
                 tols: Tolerances = DEFAULT_TOLS, table: BasisTable | None = None,
                 anchors: np.ndarray | None = None):
        if state.exact is not None and not spec.is_rational:
            raise MixedModeEntries("rational state requires rational cosine sets")
        if state.m < state.dim:
            raise DimensionMismatch(f"a pool needs m >= dim, got m={state.m}")
        self.spec, self.tols = spec, tols
        self.members = self.exact = None
        if isinstance(spec.c_star, MembershipList):
            heads = spec.c_star.vectors @ _anchor_rows(state, anchors, spec)[:state.dim].T
            self.members = np.flatnonzero(_conforming_heads(heads, spec, tols))
            self.columns = heads[self.members]  # K x (n + rows tested): head, then snapped tails
        else:
            table = BasisTable() if table is None else table
            basis = table.lookup("lifted", state, state.dim, spec, tols,
                                 lambda: _lifted_basis(state, spec, tols))
            if isinstance(basis, RankDeficientBasis):
                raise RankDeficientBasis(*basis.args)
            self.cache, self.columns, self.exact = basis.cache, basis.heads, basis.exact
            if self.exact is not None:
                self.exact_ok = basis.exact_ok.copy()
                self.y, self.targets, self.dtype = basis.y, basis.targets, basis.dtype
        self.violations = np.zeros(len(self.columns), dtype=np.int64)
        self.first = np.zeros(len(self.columns), dtype=np.int64)


def enumerate_lifted(pool: LiftedPool, state: GramState, *, anchors: np.ndarray | None = None,
                     blame: np.ndarray | None = None) -> Candidates:
    """Action set for m >= dim: the pool's heads with conforming tails.

    ``state`` is the pool's state grown by the phase's moves, and
    ``anchors`` its rows' coordinates in a member-list run.  Each call tests
    the rows of ``state`` the pool has not yet tested, in blocks of
    ``POOL_BLOCK_ROWS``: all rows present at the pool's creation on its
    first call, the one row a move placed on every later call.  A block's
    tails are one product: of the list vectors with the block's anchors in a
    member-list pool, else of the heads with the block's lift
    (``extend_cache``).  A row adds one snapped tail entry per head in the
    pool and, in rational mode, one exact tail entry per ``exact_ok`` head,
    whose exact columns are the batch's ``exact``.  A head leaves at its
    second violation, before the next block.  ``blame``, when given, is a
    length-m counter that is incremented at the row responsible each time a
    head in the pool fails through exactly one tail entry; the corrector
    uses it as a conflict feature.
    """
    n = state.dim
    untested = slice(pool.columns.shape[1], None)
    for lo in range(untested.start, state.m, POOL_BLOCK_ROWS):
        rows = slice(lo, lo + POOL_BLOCK_ROWS)
        if pool.members is None:
            tails = pool.columns[:, :n] @ extend_cache(pool.cache, state.entries[rows, :n])
        else:
            tails = pool.spec.c_star.vectors[pool.members] @ anchors[rows].T
        snapped, viol = _tail_filter(tails, pool.spec.c2, pool.tols)
        if pool.members is not None:
            viol |= tails > COSINE_CAP + pool.tols.cosine
        count = viol.sum(axis=1)
        pool.first = np.where((pool.violations == 0) & (count > 0),
                              lo - n + viol.argmax(axis=1), pool.first)
        pool.violations += count
        pool.columns = np.concatenate([pool.columns, snapped], axis=1)
        if pool.exact is not None:  # a head that violates is never a candidate again
            clean = count[pool.exact_ok] == 0
            pool.exact_ok &= count == 0
            pool.y, pool.exact = pool.y[clean], pool.exact[clean]
        live = pool.violations < 2
        if not live.all():
            pool.columns, pool.violations, pool.first = (
                pool.columns[live], pool.violations[live], pool.first[live])
            if pool.exact is not None:
                pool.exact_ok = pool.exact_ok[live]
            if pool.members is not None:
                pool.members = pool.members[live]
    if blame is not None:
        np.add.at(blame, n + pool.first[pool.violations == 1], 1)
    if pool.exact is None:
        clean = pool.violations == 0
        return Candidates(pool.columns[clean],
                          members=None if pool.members is None else pool.members[clean])
    if pool.exact_ok.any() and _confirm_exact_lifted(pool, state.exact[untested, :n]) is not None:
        return Candidates(pool.columns[pool.exact_ok], pool.exact)
    return _stuck(pool.columns.shape[1])


def _tail_filter(tails: np.ndarray, c2: DiscreteSet | CapOnly,
                 tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Snapped tails and their violation mask.

    A discrete tail snaps to its nearest c2 value (``DiscreteSet.nearest``)
    and violates when it lies farther than ``tols.snap`` from it.  A capped
    tail is kept as it is and violates above the cap.
    """
    if isinstance(c2, CapOnly):
        return tails, tails > c2.max_value + tols.cosine
    snapped = c2.snap_points[0][c2.nearest(tails)]
    return snapped, np.abs(tails - snapped) > tols.snap


def _confirm_exact_lifted(pool: LiftedPool, cross: np.ndarray) -> np.ndarray | None:
    """Exact tail test of the pool's ``exact_ok`` heads on new cross rows ``cross`` (D C_new).

    The tails N = Y (D C_new)^T are det times the true tails over D, so each
    must lie in det * (D c2) (``pool.targets``, ascending as c2 is).  The
    basis entry fixed the integer type ``pool.dtype`` from a bound on |N|.
    Heads that fail lose their mark, and those that pass get N / det
    appended to their exact columns.  Returns the exact columns, or None
    when no head passes.
    """
    det, targets = pool.cache.exact_det, pool.targets
    tails = pool.y @ cross.astype(pool.dtype).T
    pos = np.minimum(np.searchsorted(targets, tails), len(targets) - 1)
    member = (targets[pos] == tails).all(axis=1)
    if not member.all():
        pool.exact_ok[np.flatnonzero(pool.exact_ok)] = member
        pool.y, pool.exact, tails = pool.y[member], pool.exact[member], tails[member]
    pool.exact = np.concatenate([pool.exact, tails // det], axis=1)
    return pool.exact if len(pool.exact) else None


def _anchor_rows(state: GramState, anchors: np.ndarray | None, spec: ActionSpec) -> np.ndarray:
    """``anchors``, checked to hold one coordinate row of the list's dimension per state row."""
    if anchors is None or anchors.shape != (state.m, spec.c_star.vectors.shape[1]):
        raise DimensionMismatch("anchor coordinates disagree with the state")
    return anchors


def _conforming_heads(heads: np.ndarray, spec: ActionSpec, tols: Tolerances) -> np.ndarray:
    """Which rows of list cosines ``heads`` lie within the cap and snap to c1.

    A vector already placed has cosine 1 with its own row, so the cap
    rejects it while ``tols.cosine`` < 1/2."""
    _, viol = _tail_filter(heads, spec.c1, tols)
    return (heads <= COSINE_CAP + tols.cosine).all(axis=1) & ~viol.any(axis=1)


def enumerate_membership(state: GramState, anchors: np.ndarray, spec: ActionSpec, *,
                         tols: Tolerances = DEFAULT_TOLS) -> Candidates:
    """Rank-increasing action set for m < dim, restricted to a fixed vector list.

    ``anchors`` holds the coordinates of the current rows; candidates are the
    vectors of the membership list whose cosine column lies within the cap,
    snaps to c1 and raises the rank, in list order, with their list indices
    as ``members``.  At m >= dim a ``LiftedPool`` serves member lists.
    """
    if not isinstance(spec.c_star, MembershipList):
        raise ValueError("enumerate_membership needs a MembershipList constraint")
    if state.m >= state.dim:
        raise DimensionMismatch(f"member-list enumeration needs m < dim, got m={state.m}")
    cols = spec.c_star.vectors @ _anchor_rows(state, anchors, spec).T
    ok = _conforming_heads(cols, spec, tols)
    # Rank must grow: positive Schur pivot against the current state.
    try:
        lower = np.linalg.cholesky(state.entries)
    except np.linalg.LinAlgError:
        return Candidates(cols[:0], members=np.zeros(0, dtype=np.intp))
    sel = np.nonzero(ok)[0]
    y = np.linalg.solve(lower, cols[sel].T)
    ok[sel] = 1.0 - (y * y).sum(axis=0) > tols.rank
    members = np.nonzero(ok)[0]
    return Candidates(cols[members], members=members)
