"""Certification of claimed kissing configurations.

A certificate records every constraint verdict (unit norms, cosine cap,
positive semidefiniteness, rank) plus descriptive statistics: the cosine
spectrum, per-row contact degrees and the antipodality flag.  Rational mode
certifies with exact arithmetic end to end; floating mode reports worst-case
residuals.  Certificates are pure functions of their input.

One routine reads every input as a source of Gram row blocks, BLOCK_ROWS
rows at a time, so it holds O(BLOCK_ROWS * m) values: a Gram state (dense
already, as Gram files are) gives slices of its matrix, float coordinates U
give U[a:b] U[a:]^T, and rational coordinates, held as integer numerators,
give integer cosine numerators (``rational.cosine_factors``).  A coordinate
Gram is PSD by construction (G = U U^T) and has the rank of the m x n
coordinates.

The routine walks the strict upper triangle once, using each block in place.
It overwrites the block's diagonal and lower triangle with a sentinel below
every value (-inf in float mode; in rational mode one less than the least of
-D and the block's numerators, with blocks in int64 whenever they fit), raises
the running maximum to the block's and counts the block's contacts against
it, then sorts the whole block, drops the k(k+1)/2 sentinels at its front and
splits the rest into distinct values and counts for the spectrum.  A rise
restarts the degrees, since every earlier value lies below the new maximum.
A rational contact equals the maximum.  A float contact x lies within
CONTACT_TOL of the maximum, |x - top| <= CONTACT_TOL in floating point;
since no value exceeds top and fl(x - top) does not decrease in x, that is
x >= floor for the least double floor that passes, found once per rise.  A
rise by at most CONTACT_TOL marks the earlier blocks for a recount against
the final maximum, and a larger rise clears the mark; only marked blocks are
produced twice.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cosines import CosineValue, snap_value
from .errors import MixedModeEntries, NonUnitVector
from .gram import COSINE_CAP, DEFAULT_TOLS, GramState, Tolerances, is_psd, rank_of
from .rational import cosine_factors, exact_ldlt, format_rational, integer_dtype

PASS = "Pass"
FAIL = "Fail"

CONTACT_TOL = 1e-9
SPECTRUM_GAP = 1e-7
# Gram rows per block when verifying coordinates: a block holds 8 * BLOCK_ROWS * m bytes.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct off-diagonal cosine with its pair multiplicity."""

    cosine: CosineValue
    multiplicity: int


@dataclass(frozen=True)
class Certificate:
    mode: str
    sphere_count: int
    dim: int
    max_cosine: float
    max_cosine_exact: Fraction | None
    psd: bool
    rank: int
    unit_norm_max_error: float | None
    cosine_spectrum: tuple[SpectrumEntry, ...]
    contact_degrees: tuple[int, ...]
    non_antipodal: bool
    verdict: str
    fail_reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def max_cosine_text(self) -> str:
        if self.max_cosine_exact is not None:
            return format_rational(self.max_cosine_exact)
        return f"{self.max_cosine:.12g}"


def _merge_clusters(lo: np.ndarray, hi: np.ndarray, count: np.ndarray,
                    total: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chain-cluster groups of values given as (lowest, highest, count, sum).

    Taken in order of their lowest value, a group joins the cluster before it
    unless it starts more than SPECTRUM_GAP above every value seen so far.
    For single values (lo == hi) this splits the sorted values at every gap
    above SPECTRUM_GAP.  No cluster has such a gap inside it, so merging the
    clusters of disjoint parts of a multiset gives the clusters of the whole.
    """
    order = np.argsort(lo, kind="stable")
    lo, hi, count, total = lo[order], hi[order], count[order], total[order]
    reach = np.maximum.accumulate(hi)
    starts = np.flatnonzero(np.concatenate(([True], lo[1:] - reach[:-1] > SPECTRUM_GAP)))
    ends = np.append(starts[1:], lo.size) - 1
    return (lo[starts], reach[ends], np.add.reduceat(count, starts),
            np.add.reduceat(total, starts))


def _contact_floor(top: float) -> float:
    """The least double c with fl(c - top) >= -CONTACT_TOL.  fl(x - top) does
    not decrease in x, so for x <= top, x >= c exactly when
    |x - top| <= CONTACT_TOL in floating point.  This bisects the doubles
    from -inf to top, at most 64 halvings: stepping from top - CONTACT_TOL
    by ulps takes billions of steps for a top near CONTACT_TOL, where the
    doubles near c are far denser than near top."""
    q, d = struct.Struct("<q"), struct.Struct("<d")

    def rank(x):  # the doubles in order as integers: +-0.0 to 0, -x to -rank(x)
        k = q.unpack(d.pack(x))[0]
        return k if k >= 0 else -k - 2**63

    def double(r):  # the inverse of rank
        return d.unpack(q.pack(r if r >= 0 else -r - 2**63))[0]

    lo, hi = rank(-math.inf), rank(top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if double(mid) - top >= -CONTACT_TOL:
            hi = mid
        else:
            lo = mid
    return double(hi)


def _walk(rows, m: int, one, exact: bool):
    """The largest value (``-one`` without pairs), the antipodality flag, the
    spectrum and the contact degrees, in one pass over the row blocks."""
    below = np.tril(np.ones((BLOCK_ROWS, BLOCK_ROWS), dtype=bool))
    degrees = np.zeros(m, dtype=np.int64)
    top, floor, recount, antipodal, parts = None, None, 0, False, []

    def fresh(a, b):
        """Rows a..b-1 from column a on, with a sentinel under every value of
        the block in place of each entry on or below the diagonal."""
        block, k = rows(a, b), b - a
        if exact:  # a Gram file may hold numerators beyond [-D, D]
            low = min(int(block.min()), -one)
            block = block.astype(integer_dtype(max(int(block.max()), -low) + 1), copy=False)
            block[:, :k][below[:k, :k]] = low - 1
        else:
            block[:, :k][below[:k, :k]] = -np.inf
        return block

    def count(a, block):
        hits = (block == top if exact else block >= floor).view(np.uint8)
        degrees[a:a + len(hits)] += hits.sum(axis=1, dtype=np.int32)
        degrees[a:] += hits.sum(axis=0, dtype=np.int32)

    for a in range(0, m - 1, BLOCK_ROWS):  # a last row alone has no pair
        b = min(a + BLOCK_ROWS, m)
        block = fresh(a, b)
        high = block.max()
        if top is None or high > top:
            recount = a if top is not None and not exact and high - top <= CONTACT_TOL else 0
            degrees[:] = 0
            top = high
            floor = None if exact else _contact_floor(float(top))
        count(a, block)
        values = block.reshape(-1)
        del block
        values.sort()
        values = values[(b - a) * (b - a + 1) // 2:]  # drop the sentinels
        starts = np.append(0, np.flatnonzero(values[1:] != values[:-1]) + 1)
        u, c = values[starts], np.diff(starts, append=values.size)
        del values
        antipodal = antipodal or bool(np.any(u == -one) if exact
                                      else np.any(np.abs(u + 1.0) <= CONTACT_TOL))
        parts.append((u, c) if exact else _merge_clusters(u, u, c, u * c))
    for a in range(0, recount, BLOCK_ROWS):
        count(a, fresh(a, a + BLOCK_ROWS))
    top = -one if top is None else top
    if not exact:  # each cluster's mean, snapped
        clusters = _merge_clusters(*map(np.concatenate, zip(*parts))) if parts else [()] * 4
        spectrum = tuple(SpectrumEntry(snap_value(float(t / c)), int(c))
                         for c, t in zip(*clusters[2:]))
        return top, antipodal, spectrum, degrees
    tally: Counter = Counter()
    for u, c in parts:
        tally.update(dict(zip(u.tolist(), c.tolist())))
    values = ((Fraction(v, one), n) for v, n in sorted(tally.items()))
    spectrum = tuple(SpectrumEntry(CosineValue(float(v), v, format_rational(v)), n)
                     for v, n in values)
    return int(top), antipodal, spectrum, degrees


def _certificate(mode: str, rows, m: int, dim: int, one, psd: bool, rank: int,
                 tols: Tolerances, reasons: list[str],
                 unit_norm_max_error: float | None) -> Certificate:
    """Certificate of the Gram whose fresh row blocks ``rows(a, b)`` returns,
    given the caller's structural ``reasons``, PSD check and rank.  Rational
    values are numerators over ``one`` = D, compared exactly; float values
    (``one`` = 1.0) are contacts within CONTACT_TOL of the maximum.  Contacts
    are counted in the pass that finds the maximum (``_walk``); only the blocks
    before a float rise by at most CONTACT_TOL are produced twice.  The vectors'
    ``unit_norm_max_error`` (None for a Gram) is reported, not judged:
    ``verify_vectors`` refuses a residual above 1e-6 before it gets here."""
    exact = mode == "rational"
    top, antipodal, spectrum, degrees = _walk(rows, m, one, exact)
    max_exact = Fraction(top, one) if exact else None
    max_cos = float(max_exact) if exact else float(top) + 0.0  # no -0 from the sort
    if (max_exact > COSINE_CAP) if exact else (max_cos > COSINE_CAP + tols.cosine):
        reasons.append("CosineCapViolation")
    if not psd:
        reasons.append("NotPositiveSemidefinite")
    if rank > dim:
        reasons.append("RankExceedsDimension")
    return Certificate(
        mode=mode,
        sphere_count=m,
        dim=dim,
        max_cosine=max_cos,
        max_cosine_exact=max_exact,
        psd=psd,
        rank=rank,
        unit_norm_max_error=unit_norm_max_error,
        cosine_spectrum=spectrum,
        contact_degrees=tuple(degrees.tolist()),
        non_antipodal=not antipodal,
        verdict=FAIL if reasons else PASS,
        fail_reason=reasons[0] if reasons else None,
    )


def _state_rows(state: GramState, mode: str):
    """The state's values in ``mode``, their diagonal value and fresh row blocks."""
    g, one = (state.exact, state.exact_scale) if mode == "rational" else (state.entries, 1.0)
    return g, one, lambda a, b: g[a:b, a:].copy()


def spectrum_report(state: GramState) -> tuple[SpectrumEntry, ...]:
    """Sorted distinct off-diagonal values with multiplicities (pairs counted
    once).  Rational mode is exact; floating mode clusters values within 1e-7
    and snaps cluster means to recognized exact forms."""
    _, one, rows = _state_rows(state, state.mode)
    return _walk(rows, state.m, one, state.mode == "rational")[2]


def verify_gram(state: GramState, mode: str | None = None,
                tols: Tolerances = DEFAULT_TOLS) -> Certificate:
    """Full certificate for a Gram state.

    ``mode`` defaults to the state's own arithmetic mode.  Rational mode
    demands exact entries and performs every comparison exactly.
    """
    if mode is None:
        mode = state.mode
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    if mode == "rational" and state.exact is None:
        raise MixedModeEntries("rational verification needs exact entries")
    g, one, rows = _state_rows(state, mode)
    reasons: list[str] = []
    if not np.all(g.diagonal() == one):
        reasons.append("UnitDiagonalViolation")
    if not np.array_equal(g, g.T):
        reasons.append("NotSymmetric")
    if mode == "rational":
        psd, rank = exact_ldlt(g)
    else:
        psd, rank = is_psd(state, tols.psd), rank_of(state, tols.rank)
    return _certificate(mode, rows, state.m, state.dim, one, psd, rank, tols, reasons, None)


def verify_vectors(vectors: np.ndarray, dim: int | None = None, mode: str = "float",
                   tols: Tolerances = DEFAULT_TOLS,
                   exact: np.ndarray | None = None) -> Certificate:
    """Certify explicit coordinates: unit-norm residuals plus the Gram checks.

    Rational mode reads ``exact``, the coordinates as integer numerators over
    any common positive denominator (no cosine depends on it), and reads
    ``vectors`` only for the unit-norm residuals.  Raises NonUnitVector when
    any coordinate vector misses unit norm by more than 1e-6 (or is not
    finite), and in rational mode when a cosine is irrational, which rules
    out exactly unit rows; smaller residuals are reported on the certificate.
    No m x m Gram is built in either mode.
    """
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise NonUnitVector("vectors must form a 2-d array")
    norms = np.linalg.norm(v, axis=1)
    max_err = float(np.abs(norms - 1.0).max()) if len(v) else 0.0
    if not max_err <= 1e-6:
        raise NonUnitVector(f"worst unit-norm residual {max_err:.3e} exceeds 1e-06")
    if dim is None:
        dim = v.shape[1]
    if mode == "float":
        unit = v / norms[:, None]
        sigma = np.linalg.svd(unit, compute_uv=False)
        rank = int(np.count_nonzero(sigma * sigma > tols.rank))
        return _certificate(mode, lambda a, b: unit[a:b] @ unit[a:].T, len(v), dim, 1.0, True,
                            rank, tols, [], max_err)
    if exact is None:
        raise MixedModeEntries("rational verification needs exact coordinates")
    factors = cosine_factors(exact)
    if factors is None:
        raise NonUnitVector("pairwise cosines are irrational, so some row is not exactly unit")
    z, left, right, scale = factors
    # rank G = rank Z = rank Z^T Z (n x n), whose partial sums are at most m max|Z|^2.
    top = int(np.abs(z).max()) if z.size else 0
    zz = z.astype(integer_dtype(len(z) * top * top))
    psd, rank = exact_ldlt(zz.T @ zz)

    def rows(a, b):  # numerators P_ij left_i right_j, scaled in place
        block = z[a:b] @ z[a:].T
        block *= left[a:b, None]
        block *= right[a:]
        return block

    return _certificate(mode, rows, len(z), dim, scale, psd, rank, tols, [], max_err)
