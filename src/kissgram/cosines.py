"""Discovery of the discrete cosine set of feasible kissing structures.

New sphere centers tangent to n-1 chosen spheres are solved in closed form.
A UCB tree search grows configurations.  An exploring move takes the fresh
candidate (its edge not in the tree) of most tight contacts plus noise, else
the best UCB score; an exploiting move the visited candidate of best mean
value, else the most tight contacts.  The cosines of the best structures are
recorded until the same values clear the noise floor in both halves.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RankDeficient
from .filler import SearchTree, backpropagate, fingerprint_state
from .gram import COSINE_CAP, gram_from_vectors
from .rational import format_rational
from .refconfigs import unit_rows

# Exact algebraic constants that recur in lattice-derived configurations.
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)
ALGEBRAIC_CONSTANTS: dict[str, float] = {
    "sqrt(6)/12": _SQRT6 / 12,
    "sqrt(3)/6": _SQRT3 / 6,
    "sqrt(6)/6": _SQRT6 / 6,
    "(2*sqrt(3)-sqrt(6))/12": (2 * _SQRT3 - _SQRT6) / 12,
    "(2*sqrt(3)+sqrt(6))/12": (2 * _SQRT3 + _SQRT6) / 12,
}
ALGEBRAIC_CONSTANTS.update({f"-{k}": -v for k, v in list(ALGEBRAIC_CONSTANTS.items())})

SNAP_MAX_DENOMINATOR = 12
SNAP_TOL = 1e-6
COMBO_CAP = 512        # tangent combinations solved per rollout step at most
DIGITS = 9             # histogram bins and candidate identity are values rounded to 1e-9
NOISE_FLOOR = 0.005    # least share of the samples a kept cosine needs
TANGENT_TOL = 1e-9     # rank, radicand and cap tolerance of the tangent solve
TIGHT_TOL = 1e-7       # distance from the cap at which a cosine is a tight contact


@dataclass(frozen=True)
class CosineValue:
    """A cosine with its exact form when one was recognized."""

    value: float
    exact: Fraction | None = None
    label: str = ""

    def display(self) -> str:
        return self.label if self.label else f"{self.value:.9f}"


def snap_value(x: float) -> CosineValue:
    """Snap to a low-height rational (denominator <= 12) or a known
    algebraic constant when within tolerance; otherwise keep the float."""
    frac = Fraction(x).limit_denominator(SNAP_MAX_DENOMINATOR)
    if abs(float(frac) - x) <= SNAP_TOL:
        return CosineValue(value=float(frac), exact=frac, label=format_rational(frac))
    for label, target in ALGEBRAIC_CONSTANTS.items():
        if abs(target - x) <= SNAP_TOL:
            return CosineValue(value=target, exact=None, label=label)
    return CosineValue(value=x)


@dataclass(frozen=True)
class CosineSet:
    """Finite set of admissible cosine values, sorted ascending."""

    entries: tuple[CosineValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(sorted(self.entries, key=lambda e: e.value)))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.entries)


def _histogram(buffers: list[list[float]]) -> Counter:
    """Occurrence counts of the cosines in ``buffers``, rounded to DIGITS
    decimals, with -0.0 counted as 0.0."""
    return Counter(round(v, DIGITS) + 0.0 for buffer in buffers for v in buffer)


def solve_tangent(centers: np.ndarray) -> list[np.ndarray]:
    """Unit centers tangent to all n-1 given ones: zero, one or two solutions.

    One combination of ``_batched_tangent``; the two solutions coincide, and
    one is returned, when the radicand is clipped to 0.
    """
    a = np.asarray(centers, dtype=float)
    k, n = a.shape
    if k != n - 1:
        raise RankDeficient(f"need exactly n-1 = {n - 1} centers, got {k}")
    if np.linalg.matrix_rank(a, tol=TANGENT_TOL) < k:
        raise RankDeficient("stacked center matrix is not of full row rank")
    sols = list(_batched_tangent(a, np.arange(k)[None, :]))
    if len(sols) == 2 and np.array_equal(*sols):
        return sols[:1]
    return sols


def _batched_tangent(vs: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Solve every combination at once; returns candidate unit vectors."""
    a = vs[combos]                                   # (K, n-1, n)
    n = vs.shape[1]
    u, s, vt = np.linalg.svd(a)
    ok = s[:, -1] > TANGENT_TOL                      # full row rank
    b = np.full(n - 1, 0.5)
    coeff = (u.transpose(0, 2, 1) @ b) / np.where(s > TANGENT_TOL, s, 1.0)
    part = np.einsum("kij,ki->kj", vt[:, : n - 1, :], coeff)
    kernel = vt[:, n - 1, :]
    rad = 1.0 - np.einsum("ki,ki->k", part, part)
    ok &= rad >= -TANGENT_TOL
    r = np.sqrt(np.clip(rad, 0.0, None))
    sols = np.concatenate([part + r[:, None] * kernel, part - r[:, None] * kernel])
    return sols[np.concatenate([ok, ok])]


def _grow_seed(vs: np.ndarray, n: int) -> np.ndarray:
    """Pad a seed below n-1 centers with orthonormal completions.

    Orthogonal padding (cosine 0) keeps every bootstrap pair feasible and,
    unlike tangency-grown seeds, stays compatible with lattice completions:
    a mutually-tangent bootstrap triple in four dimensions provably admits
    no discrete-cosine fourth neighbor, poisoning the whole run.  Axis
    directions are preferred so the bootstrap is deterministic.
    """
    axis = 0
    while vs.shape[0] < n - 1:
        rank = np.linalg.matrix_rank(vs, tol=1e-10)
        basis = np.linalg.svd(vs)[2][:rank]
        while axis < n:
            resid = np.eye(n)[axis] - (np.eye(n)[axis] @ basis.T) @ basis
            axis += 1
            norm = float(np.linalg.norm(resid))
            if norm > 1e-8:
                vs = np.vstack([vs, (resid / norm)[None, :]])
                break
        else:
            raise RankDeficient("cannot complete the seed to n-1 independent centers")
    return vs


@dataclass(frozen=True)
class CosineSimResult:
    """``counts`` holds, per ``cosine_set`` entry, the histogram samples that
    snap to it."""

    cosine_set: CosineSet
    counts: tuple[int, ...]
    converged: bool
    histogram: Counter
    best_count: int
    best_contacts: int


def _quantized(x: np.ndarray) -> np.ndarray:
    """``x`` in integer units of 10**-DIGITS."""
    return np.rint(x * 10.0 ** DIGITS).astype(np.int64)


def _rollout(dim: int, vs0: np.ndarray, tree: SearchTree, rng: np.random.Generator,
             exploit: bool) -> tuple[np.ndarray, list[float]]:
    """One configuration-growing pass; returns the final centers and the
    cosines recorded along the way."""
    vs = vs0.copy()
    trajectory: list[tuple[bytes, bytes]] = []
    buffer: list[float] = []
    while True:
        m = vs.shape[0]
        if math.comb(m, dim - 1) <= COMBO_CAP:
            combos = np.array(list(itertools.combinations(range(m), dim - 1)))
        else:
            picks = np.sort(rng.integers(0, m, size=(COMBO_CAP, dim - 1)), axis=1)
            valid = (np.diff(picks, axis=1) > 0).all(axis=1)
            combos = np.unique(picks[valid], axis=0)
            if combos.size == 0:
                break
        sols = _batched_tangent(vs, combos)
        sols = sols[(sols @ vs.T).max(axis=1) <= COSINE_CAP + TANGENT_TOL]
        if sols.shape[0] == 0:
            break
        # One candidate per rounded vector: its first occurrence, in order.
        first = np.unique(_quantized(sols), axis=0, return_index=True)[1]
        cands = sols[np.sort(first)]
        state_fp = fingerprint_state(gram_from_vectors(vs, dim))
        profiles = cands @ vs.T
        # A move is keyed by its rounded cosine profile, as a multiset.
        keys = [hashlib.blake2b(row.tobytes(), digest_size=16).digest()
                for row in np.sort(_quantized(profiles), axis=1)]
        # Tight contacts (cosines at the cap) densify; noise diversifies exploring.
        contacts = np.count_nonzero(np.abs(profiles - COSINE_CAP) <= TIGHT_TOL, axis=1)
        visited = [i for i, k in enumerate(keys) if (state_fp, k) in tree.edge_visits]
        if exploit:
            pick = (max(visited, key=lambda i: tree.edge_value[(state_fp, keys[i])])
                    if visited else int(np.argmax(contacts)))
        else:
            prior = contacts + rng.uniform(0.0, 1.0, size=len(keys))
            prior[visited] = -np.inf
            pick = (int(np.argmax(prior)) if len(visited) < len(keys)
                    else max(range(len(keys)), key=lambda i: tree.ucb(state_fp, keys[i])))
        buffer.extend(float(c) for c in profiles[pick])
        trajectory.append((state_fp, keys[pick]))
        vs = np.vstack([vs, cands[pick][None, :]])
    backpropagate(tree, trajectory, float(vs.shape[0]))
    return vs, buffer


def _contact_pairs(vs: np.ndarray) -> int:
    pairs = (vs @ vs.T)[np.triu_indices(len(vs), k=1)]
    return int(np.count_nonzero(np.abs(pairs - COSINE_CAP) <= TIGHT_TOL))


def simulate_cosine_set(dim: int, seed_config: np.ndarray, budget: int,
                        ucb_c: float = math.sqrt(2.0), *,
                        rng: np.random.Generator | None = None) -> CosineSimResult:
    """Record cosine frequencies over ``budget`` guided rollouts.

    Rollouts alternate between exploring and exploiting (module docstring).
    Only rollouts that match the best structure so far, ranked by sphere
    count and then by tight-contact pairs, commit samples; a strict
    improvement obsoletes earlier ones.  A value is kept when its count
    clears the noise floor of all committed samples and it occurs in both
    halves of them; the run converged when a value is kept and the same
    values clear the floor in each half alone.  Exhausting the budget is
    not an error: the partial histogram comes back with the flag down.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if dim < 2:
        raise RankDeficient("cosine simulation needs dimension at least 2")
    if rng is None:
        rng = np.random.default_rng(0)
    vs0 = np.asarray(seed_config, dtype=float)
    if vs0.ndim != 2 or vs0.shape[1] != dim:
        raise RankDeficient(f"seed centers must be vectors of dimension {dim}")
    vs0 = unit_rows(vs0)
    if vs0.shape[0] < dim - 1:
        vs0 = _grow_seed(vs0, dim)
    tree = SearchTree(exploration=ucb_c)
    best_key = (vs0.shape[0], -1)
    commits: list[list[float]] = []
    for rollout in range(budget):
        exploit = rollout % 2 == 1
        vs, buffer = _rollout(dim, vs0, tree, rng, exploit)
        key = (vs.shape[0], _contact_pairs(vs))
        if key > best_key:
            best_key = key
            commits = [buffer]
        elif key == best_key:
            commits.append(buffer)
    split = (len(commits) + 1) // 2
    halves = [_histogram(commits[:split]), _histogram(commits[split:])]
    merged = halves[0] + halves[1]
    groups = [_groups(h) for h in (merged, *halves)]
    floors = [NOISE_FLOOR * max(h.total(), 1) for h in (merged, *halves)]
    cleared = [{label for label, (_, count) in g.items() if count >= floor}
               for g, floor in zip(groups, floors)]
    kept = sorted((pair for label, pair in groups[0].items()
                   if label in cleared[0] and label in groups[1] and label in groups[2]),
                  key=lambda pair: pair[0].value)
    return CosineSimResult(cosine_set=CosineSet(entries=tuple(e for e, _ in kept)),
                           counts=tuple(count for _, count in kept), histogram=merged,
                           converged=bool(kept) and cleared[1] == cleared[2],
                           best_count=best_key[0], best_contacts=max(best_key[1], 0))


def _groups(hist: Counter) -> dict[str, tuple[CosineValue, int]]:
    """Bins by snapped label: the label's first snapped value, in ascending
    bin order, and the group's count."""
    groups: dict[str, tuple[CosineValue, int]] = {}
    for key, count in sorted(hist.items()):
        snapped = snap_value(key)
        entry, total = groups.get(snapped.display(), (snapped, 0))
        groups[entry.display()] = (entry, total + count)
    return groups
