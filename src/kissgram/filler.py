"""Player 1: enumerate feasible extension columns and select with UCB search.

Enumeration is a level-synchronous branch-and-prune over column entries.
For rank-increasing extensions (m < dim) partial columns are pruned through
the running Schur-complement bound; for lifted extensions (m >= dim) the
pruning bound is the running coordinate norm of the candidate head.  Both
walks are deterministic and lexicographic over the discrete value set.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    EnumerationOverflow,
    MixedModeEntries,
)
from .gram import (
    COSINE_CAP,
    DEFAULT_TOLS,
    CandidateColumn,
    FactorCache,
    GramState,
    Tolerances,
)
from .rational import integer_dtype, pd_adjugate, scaled_integers

MAX_ENUMERATION_WIDTH = 4_000_000
FINGERPRINT_QUANTUM = 1e-9  # entries closer than this share a fingerprint


@dataclass(frozen=True)
class DiscreteSet:
    """A finite admissible cosine set, optionally with exact rational forms."""

    values: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        ordered = tuple(sorted(self.values))
        if ordered != self.values:
            idx = sorted(range(len(self.values)), key=lambda i: self.values[i])
            object.__setattr__(self, "values", ordered)
            if self.exact is not None:
                object.__setattr__(self, "exact", tuple(self.exact[i] for i in idx))

    @property
    def is_rational(self) -> bool:
        return self.exact is not None and len(self.exact) == len(self.values)


@dataclass(frozen=True)
class CapOnly:
    """Continuous tail constraint: every lifted entry at most ``max_value``."""

    max_value: float = COSINE_CAP


@dataclass(frozen=True)
class MembershipList:
    """Structural constraint: new rows must come from a fixed vector set."""

    vectors: np.ndarray
    label: str = "membership"

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
        for v in self.c1.values:
            if v < -1.0 - 1e-12 or v > COSINE_CAP + 1e-12:
                raise ValueError(f"head cosine value {v} outside [-1, 1/2]")
        if isinstance(self.c2, CapOnly) and self.c2.max_value > COSINE_CAP + 1e-12:
            raise ValueError(f"tail cap {self.c2.max_value} exceeds 1/2")
        if isinstance(self.c2, DiscreteSet):
            for v in self.c2.values:
                if v < -1.0 - 1e-12 or v > COSINE_CAP + 1e-12:
                    raise ValueError(f"tail cosine value {v} outside [-1, 1/2]")
        if self.c2 is None:
            object.__setattr__(self, "c2", DiscreteSet(self.c1.values, self.c1.exact))

    @property
    def is_rational(self) -> bool:
        if not self.c1.is_rational:
            return False
        if isinstance(self.c2, DiscreteSet):
            return self.c2.is_rational
        return False  # a continuous cap cannot be confirmed exactly


def fingerprint_state(state: GramState) -> bytes:
    """Order-independent digest of the multiset of Gram rows.

    Rows are quantized, each row's entries sorted, and the rows themselves
    sorted, so permuted discoveries of the same sphere set share statistics.
    """
    q = np.rint(state.entries / FINGERPRINT_QUANTUM).astype(np.int64)
    q = np.sort(q, axis=1)
    order = np.lexsort(q.T[::-1])
    canon = np.ascontiguousarray(q[order])
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(state.m).tobytes())
    h.update(np.int64(state.dim).tobytes())
    h.update(canon.tobytes())
    return h.digest()


def fingerprint_column(column: CandidateColumn) -> bytes:
    q = np.rint(column.full / FINGERPRINT_QUANTUM).astype(np.int64)
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


def select_action(tree: SearchTree, state: GramState, candidates: Sequence[CandidateColumn]
                  ) -> tuple[CandidateColumn, tuple[bytes, bytes]]:
    """UCB-greedy choice and its tree edge ``(state_fp, action_fp)``;
    unvisited actions rank above all visited ones.

    Ties resolve to the earliest candidate in the (deterministic) stream
    order, so cold starts are reproducible.
    """
    if not candidates:
        raise EmptyCandidates("no candidate columns to select from")
    state_fp = fingerprint_state(state)
    action_fps = []
    best_i = 0
    best_score = -math.inf
    for i, cand in enumerate(candidates):
        action_fps.append(fingerprint_column(cand))
        score = tree.ucb(state_fp, action_fps[i])
        if score > best_score:
            best_score = score
            best_i = i
        if math.isinf(score):
            break  # first unvisited candidate wins outright
    return candidates[best_i], (state_fp, action_fps[best_i])


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
    count = values.size
    cols = np.zeros((1, 0))
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
        cols = np.concatenate([cols[ki], values[vi][:, None]], axis=1)
        idx = np.concatenate([idx[ki], vi[:, None]], axis=1)
        ys = np.concatenate([ys[ki], yk[ki, vi][:, None]], axis=1)
        s = s_new[ki, vi]
    return cols, idx, s


def enumerate_small(state: GramState, spec: ActionSpec, *,
                    tols: Tolerances = DEFAULT_TOLS) -> list[CandidateColumn]:
    """Rank-increasing action set for m < dim.

    Every column over the head set whose bordered matrix is PSD with rank
    m + 1, in lexicographic order.  An empty list means Player 1 is stuck.
    """
    if state.m >= state.dim:
        raise DimensionMismatch(f"small-regime enumeration needs m < dim, got m={state.m}")
    values = np.asarray(spec.c1.values, dtype=float)
    if values.size == 0:
        return []
    try:
        lower = np.linalg.cholesky(state.entries)
    except np.linalg.LinAlgError:
        return []  # numerically rank-deficient: no rank-(m+1) extension exists
    cols, idx, _ = _expand_columns(lower, values, 1.0 - tols.rank, True)
    if state.exact is None:
        return [CandidateColumn(head=col, tail=np.zeros(0)) for col in cols]
    if not spec.c1.is_rational:
        raise MixedModeEntries("rational state requires a rational head set")
    heads = scaled_integers(spec.c1.exact, state.exact_scale)
    keep = _exact_schur_positive(state, heads, idx)
    return [CandidateColumn(head=col, tail=np.zeros(0), exact=tuple(map(heads.__getitem__, row)))
            for col, row in zip(cols[keep], idx[keep].tolist())]


def _exact_schur_positive(state: GramState, heads: Sequence[int],
                          idx: np.ndarray) -> np.ndarray:
    """Rows of ``idx`` (columns g over c1) whose Schur gap 1 - g^T G^-1 g is positive.

    ``heads`` are the c1 numerators over the state's denominator D.  With
    G^-1 = D adj(D G) / det(D G), the gap is positive iff
    (D g)^T adj (D g) < D det.  An exactly singular G has no rank-increasing
    extension.
    """
    scale = state.exact_scale
    factored = pd_adjugate(state.exact)
    if factored is None:
        return np.zeros(idx.shape[0], dtype=bool)
    det, adj = factored
    h = max(map(abs, heads))
    a = max(abs(x) for x in adj.flat)
    m = state.m
    # |Y| <= m h a for Y = G_int adj, so the quadratic forms are at most m^2 h^2 a.
    dtype = integer_dtype(max(m * m * h * h * a, scale * det))
    g_int = np.array(heads, dtype=object).astype(dtype)[idx]
    quad = ((g_int @ adj.astype(dtype)) * g_int).sum(axis=1)
    return quad < scale * det


def enumerate_lifted(state: GramState, cache: FactorCache, spec: ActionSpec, *,
                     tols: Tolerances = DEFAULT_TOLS,
                     blame: np.ndarray | None = None) -> list[CandidateColumn]:
    """Lifted action set for m >= dim: unit-norm heads with conforming tails.

    ``blame``, when given, is a length-m counter that is incremented at the
    row responsible each time a candidate fails through exactly one tail
    entry; the corrector uses it as a conflict feature.
    """
    if state.m < state.dim:
        raise DimensionMismatch(f"lifted enumeration needs m >= dim, got m={state.m}")
    n = state.dim
    values = np.asarray(spec.c1.values, dtype=float)
    if values.size == 0:
        return []
    unit_tol = tols.psd
    exact_mode = state.exact is not None
    if exact_mode:
        if not spec.is_rational:
            raise MixedModeEntries("rational state requires rational cosine sets")
        unit_tol = 1e-6  # float prescreen; survivors are confirmed exactly below
    limit = (1.0 + unit_tol) ** 2
    heads, idx, s = _expand_columns(cache.chol_factor, values, limit, False)
    keep = np.abs(np.sqrt(s) - 1.0) <= unit_tol
    heads, idx = heads[keep], idx[keep]
    if heads.shape[0] == 0:
        return []
    tails = heads @ cache.lift_matrix.T
    keep, snapped, single_row = _tail_filter(tails, spec.c2, tols)
    if blame is not None and single_row.size:
        np.add.at(blame, n + single_row, 1)
    heads, idx, tails = heads[keep], idx[keep], snapped[keep]
    if not exact_mode:
        return [CandidateColumn(head=head, tail=tail) for head, tail in zip(heads, tails)]
    exact_cols = _confirm_exact_lifted(cache, spec, idx) if heads.shape[0] else None
    return [CandidateColumn(head=heads[row], tail=tails[row], exact=col)
            for row, col in enumerate(exact_cols or ()) if col is not None]


def _tail_filter(tails: np.ndarray, c2: DiscreteSet | CapOnly,
                 tols: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep mask, snapped tails, and rows blamed by single-violation columns."""
    if tails.shape[1] == 0:
        return np.ones(tails.shape[0], dtype=bool), tails, np.zeros(0, dtype=np.int64)
    if isinstance(c2, CapOnly):
        viol = tails > c2.max_value + tols.cosine
        snapped = tails
    else:
        c2v = np.asarray(c2.values, dtype=float)
        dist = np.abs(tails[:, :, None] - c2v[None, None, :])
        nearest = np.argmin(dist, axis=2)
        viol = np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0] > tols.snap
        snapped = c2v[nearest]
    nviol = viol.sum(axis=1)
    keep = nviol == 0
    single = np.nonzero(nviol == 1)[0]
    single_row = viol[single].argmax(axis=1) if single.size else np.zeros(0, dtype=np.int64)
    return keep, snapped, single_row


def _confirm_exact_lifted(cache: FactorCache, spec: ActionSpec,
                          idx: np.ndarray) -> list[tuple[int, ...] | None] | None:
    """Exact unit-norm and tail test of a batch of heads, rows of c1 indices ``idx``.

    With H = D c1[idx] and Y = H adj(D B), a head is unit iff
    rowsum(Y * H) == D det, and its tails N = Y (D C)^T are det times its
    true tails over D, so each must lie in det * (D c2).  Returns the exact
    column of each row as numerators over D (H then N / det), None for a
    rejected row, or None when no row is confirmed.
    """
    if cache.exact_adj is None:
        raise MixedModeEntries("cache has no exact factors")
    scale, det, adj, cross = cache.exact_scale, cache.exact_det, cache.exact_adj, cache.exact_cross
    heads = scaled_integers(spec.c1.exact, scale)
    targets = sorted(det * v for v in scaled_integers(spec.c2.exact, scale))
    h = max(map(abs, heads))
    a = max(abs(x) for x in adj.flat)
    c = max((abs(x) for x in cross.flat), default=0)
    n = cache.n
    # |Y| <= n h a, so |rowsum(Y * H)| <= n^2 h^2 a and |N| <= n^2 h a c.
    dtype = integer_dtype(max(n * n * h * a * max(h, c), scale * det, *map(abs, targets)))
    hmat = np.array(heads, dtype=object).astype(dtype)[idx]
    y = hmat @ adj.astype(dtype)
    rows = np.nonzero((y * hmat).sum(axis=1) == scale * det)[0]
    tails = y[rows] @ cross.astype(dtype).T
    allowed = np.array(targets, dtype=object).astype(dtype)
    pos = np.minimum(np.searchsorted(allowed, tails), len(targets) - 1)
    member = (allowed[pos] == tails).all(axis=1)
    if not member.any():
        return None
    columns = np.concatenate([hmat[rows[member]], tails[member] // det], axis=1)
    found = dict(zip(rows[member].tolist(), map(tuple, columns.tolist())))
    return [found.get(row) for row in range(idx.shape[0])]


def enumerate_membership(state: GramState, anchors: np.ndarray, spec: ActionSpec, *,
                         used: np.ndarray | None = None,
                         tols: Tolerances = DEFAULT_TOLS,
                         blame: np.ndarray | None = None) -> list[tuple[int, CandidateColumn]]:
    """Action set restricted to a fixed vector list (coordinate-anchored runs).

    ``anchors`` holds the coordinates of the current rows; candidates are the
    unused vectors of the membership list whose cosine column satisfies every
    discrete and cap constraint.  Returns (member index, column) pairs in
    list order.
    """
    member = spec.c_star
    if not isinstance(member, MembershipList):
        raise ValueError("enumerate_membership needs a MembershipList constraint")
    allowed = member.vectors
    m, n = state.m, state.dim
    if anchors.shape != (m, allowed.shape[1]):
        raise DimensionMismatch("anchor coordinates disagree with the state")
    cols = allowed @ anchors.T
    ok = np.ones(allowed.shape[0], dtype=bool)
    if used is not None:
        ok &= ~used
    ok &= cols.max(axis=1) <= COSINE_CAP + tols.cosine
    head_len = min(m, n)
    c1v = np.asarray(spec.c1.values, dtype=float)
    head_dist = np.abs(cols[:, :head_len, None] - c1v[None, None, :]).min(axis=2)
    ok &= (head_dist <= tols.snap).all(axis=1)
    if m > n:
        keep, snapped, single_row = _tail_filter(cols[:, n:], spec.c2, tols)
        if blame is not None and single_row.size:
            np.add.at(blame, n + single_row, 1)
        ok &= keep
        cols = np.concatenate([cols[:, :n], snapped], axis=1)
    if m < n:
        # Rank must grow: positive Schur pivot against the current state.
        try:
            lower = np.linalg.cholesky(state.entries)
        except np.linalg.LinAlgError:
            return []
        sel = np.nonzero(ok)[0]
        for i in sel:
            y = np.linalg.solve(lower, cols[i, :m])
            if 1.0 - float(y @ y) <= tols.rank:
                ok[i] = False
    out = []
    for i in np.nonzero(ok)[0]:
        head = cols[i, :head_len]
        tail = cols[i, n:] if m > n else np.zeros(0)
        out.append((int(i), CandidateColumn(head=head, tail=tail)))
    return out
