"""Certification of claimed kissing configurations.

A certificate records every constraint verdict (unit norms, cosine cap,
positive semidefiniteness, rank) plus descriptive statistics: the cosine
spectrum, per-row contact degrees and the antipodality flag.  Rational mode
certifies with exact arithmetic end to end; floating mode reports worst-case
residuals.  Certificates are pure functions of their input.

Gram states (and so Gram files) are checked dense.  Float coordinate sets
never build their m x m Gram: ``verify_vectors`` walks its upper triangle in
blocks of ``BLOCK_ROWS`` rows, so memory is O(BLOCK_ROWS * m).  The rank is
read from the singular values of the m x n coordinates, whose squares are the
Gram's non-zero eigenvalues, and the Gram is PSD by construction (G = U U^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cosines import CosineValue, snap_value
from .errors import MixedModeEntries, NonUnitVector
from .gram import COSINE_CAP, DEFAULT_TOLS, GramState, Tolerances, is_psd, rank_of
from .rational import exact_cosines, exact_ldlt, format_rational

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
    if lo.size == 0:
        return lo, hi, count, total
    order = np.argsort(lo, kind="stable")
    lo, hi, count, total = lo[order], hi[order], count[order], total[order]
    reach = np.maximum.accumulate(hi)
    starts = np.flatnonzero(np.concatenate(([True], lo[1:] - reach[:-1] > SPECTRUM_GAP)))
    ends = np.append(starts[1:], lo.size) - 1
    return (lo[starts], reach[ends], np.add.reduceat(count, starts),
            np.add.reduceat(total, starts))


def _spectrum(clusters: tuple[np.ndarray, ...]) -> tuple[SpectrumEntry, ...]:
    """Spectrum entries from clusters: each cluster's mean, snapped."""
    _, _, count, total = clusters
    return tuple(SpectrumEntry(snap_value(float(t / c)), int(c)) for c, t in zip(count, total))


def spectrum_report(state: GramState, tols: Tolerances = DEFAULT_TOLS) -> tuple[SpectrumEntry, ...]:
    """Sorted distinct off-diagonal values with multiplicities (pairs counted
    once).  Rational mode is exact; floating mode clusters values within 1e-7
    and snaps cluster means to recognized exact forms."""
    m = state.m
    if m < 2:
        return ()
    if state.exact is not None:
        u, c = np.unique(state.exact[np.triu_indices(m, k=1)], return_counts=True)
        values = (Fraction(v, state.exact_scale) for v in u)
        return tuple(SpectrumEntry(CosineValue(value=float(v), exact=v, label=format_rational(v)),
                                   int(n)) for v, n in zip(values, c))
    u, c = np.unique(state.entries[np.triu_indices(m, k=1)], return_counts=True)
    return _spectrum(_merge_clusters(u, u, c, u * c))


def _verdict(reasons: list[str], *, cap_violated: bool, psd: bool, rank: int, dim: int,
             unit_norm_max_error: float | None) -> tuple[str, str | None]:
    """Verdict and first fail reason, after the structural ``reasons``."""
    if cap_violated:
        reasons.append("CosineCapViolation")
    if not psd:
        reasons.append("NotPositiveSemidefinite")
    if rank > dim:
        reasons.append("RankExceedsDimension")
    if unit_norm_max_error is not None and unit_norm_max_error > 1e-6:
        reasons.append("NonUnitVector")
    return (PASS, None) if not reasons else (FAIL, reasons[0])


def verify_gram(state: GramState, mode: str | None = None,
                tols: Tolerances = DEFAULT_TOLS,
                unit_norm_max_error: float | None = None) -> Certificate:
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
    m = state.m
    exact = mode == "rational"
    # Rational mode reads the integer numerators over D, so every comparison is exact.
    g, one = (state.exact, state.exact_scale) if exact else (state.entries, 1.0)
    reasons: list[str] = []
    if not np.all(g.diagonal() == one):
        reasons.append("UnitDiagonalViolation")
    if not np.array_equal(g, g.T):
        reasons.append("NotSymmetric")
    off = g[~np.eye(m, dtype=bool)]
    top = off.max() if m > 1 else -one
    if exact:
        max_exact = Fraction(top, one)
        max_cos = float(max_exact)
        psd, rank = exact_ldlt(g)
        cap_violated = 2 * top > one
        contacts = g == top
        antipodal = np.any(off == -one)
    else:
        max_exact = None
        max_cos = float(top)
        psd = is_psd(state, tols.psd)
        rank = rank_of(state, tols.rank)
        cap_violated = max_cos > COSINE_CAP + tols.cosine
        contacts = np.abs(g - top) <= CONTACT_TOL
        antipodal = np.any(np.abs(off + 1.0) <= CONTACT_TOL)
    np.fill_diagonal(contacts, False)
    verdict, fail_reason = _verdict(reasons, cap_violated=cap_violated, psd=psd, rank=rank,
                                    dim=state.dim, unit_norm_max_error=unit_norm_max_error)
    return Certificate(
        mode=mode,
        sphere_count=m,
        dim=state.dim,
        max_cosine=max_cos,
        max_cosine_exact=max_exact,
        psd=psd,
        rank=rank,
        unit_norm_max_error=unit_norm_max_error,
        cosine_spectrum=spectrum_report(state, tols),
        contact_degrees=tuple(int(c) for c in contacts.sum(axis=1)),
        non_antipodal=not antipodal,
        verdict=verdict,
        fail_reason=fail_reason,
    )


def _upper_blocks(unit: np.ndarray):
    """Rows a..b-1 of the Gram of ``unit`` against rows a.., BLOCK_ROWS rows at
    a time, each with the mask of its strictly-upper entries."""
    m = len(unit)
    for a in range(0, m, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, m)
        yield a, b, unit[a:b] @ unit[a:].T, np.arange(a, m) > np.arange(a, b)[:, None]


def _verify_unit_rows(unit: np.ndarray, dim: int, tols: Tolerances,
                      unit_norm_max_error: float) -> Certificate:
    """Float certificate of unit rows in two passes over the Gram's upper
    triangle: one for the cap, antipodality and spectrum, one for the contact
    degrees at the maximal cosine."""
    m = len(unit)
    gmax, antipodal, parts = -np.inf, False, []
    for _, _, block, upper in _upper_blocks(unit):
        u, c = np.unique(block[upper], return_counts=True)
        if u.size:
            gmax = max(gmax, u[-1])
            antipodal = antipodal or bool(np.any(np.abs(u + 1.0) <= CONTACT_TOL))
            parts.append(_merge_clusters(u, u, c, u * c))
    degrees = np.zeros(m, dtype=np.int64)
    if m > 1:
        for a, b, block, upper in _upper_blocks(unit):
            block -= gmax
            hits = (np.abs(block, out=block) <= CONTACT_TOL) & upper
            degrees[a:b] += hits.sum(axis=1)
            degrees[a:] += hits.sum(axis=0)
    spectrum = _spectrum(_merge_clusters(*map(np.concatenate, zip(*parts)))) if parts else ()
    sigma = np.linalg.svd(unit, compute_uv=False)
    rank = int(np.count_nonzero(sigma * sigma > tols.rank))
    max_cos = float(gmax) if m > 1 else -1.0
    verdict, fail_reason = _verdict([], cap_violated=max_cos > COSINE_CAP + tols.cosine,
                                    psd=True, rank=rank, dim=dim,
                                    unit_norm_max_error=unit_norm_max_error)
    return Certificate(
        mode="float",
        sphere_count=m,
        dim=dim,
        max_cosine=max_cos,
        max_cosine_exact=None,
        psd=True,
        rank=rank,
        unit_norm_max_error=unit_norm_max_error,
        cosine_spectrum=spectrum,
        contact_degrees=tuple(degrees.tolist()),
        non_antipodal=not antipodal,
        verdict=verdict,
        fail_reason=fail_reason,
    )


def verify_vectors(vectors: np.ndarray, dim: int | None = None, mode: str = "float",
                   tols: Tolerances = DEFAULT_TOLS,
                   exact_rows: list[list[Fraction]] | None = None) -> Certificate:
    """Certify explicit coordinates: unit-norm residuals plus the Gram checks.

    Raises NonUnitVector when any coordinate vector misses unit norm by more
    than 1e-6 (or is not finite); smaller residuals are reported on the
    certificate.  Float mode works block by block from the coordinates and
    never builds the m x m Gram.
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
        return _verify_unit_rows(v / norms[:, None], dim, tols, max_err)
    if exact_rows is None:
        raise MixedModeEntries("rational verification needs exact coordinates")
    exact = exact_cosines(exact_rows)
    if exact is None:
        raise MixedModeEntries("pairwise cosines are not exactly rational")
    scale, numerators = exact
    state = GramState.from_exact(dim, numerators, scale)
    return verify_gram(state, mode=mode, tols=tols, unit_norm_max_error=max_err)
