"""Exact rational arithmetic: literal parsing and exact PSD/rank certification.

Exact data has one form: Python-int numerators N over one positive common
denominator D.  An exact matrix is an object array of numerators, so entry
(i, j) is N[i, j] / D.  D need not be the least denominator; a search fixes D
when its seed loads, and its columns are integer numerators over D.  Files
parse straight to that form (``parse_numerators``), with no per-entry
``fractions.Fraction``.  ``Fraction`` remains for scalars only: a parsed or
printed single literal (``parse_rational``, ``format_rational``), the cosine
lists of an action set, certificate labels and the exact maximum cosine,
cosine reports, and the tests' reference kernels.

The exact kernels compute on the numerators with fraction-free (Bareiss)
elimination, so every intermediate value is an integer minor and every
division is exact.  Arrays hold int64 where a bound stated at the
computation proves no overflow, and Python ints (object arrays) otherwise.
Rational coordinates need no m x m matrix: ``cosine_factors`` gives their
cosines as integer products that verification reads in row blocks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import MixedModeEntries, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


def parse_numerators(texts: Sequence[str]) -> tuple[list[int], int]:
    """Integer numerators N over the least common denominator D of rational
    literals ``p/q`` (optional sign, q > 0) or bare integers: literal k is
    N[k] / D.

    Each literal is reduced by its gcd first, so N and D are those of the
    literals' ``Fraction``s.  A literal that repeats is parsed once; lattice
    files hold few distinct values.
    """
    reduced = {}
    for text in dict.fromkeys(texts):
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"not a rational literal: {text!r}")
        p, _, q = text.partition("/")
        p, q = int(p), int(q or 1)
        g = math.gcd(p, q)
        reduced[text] = (p // g, q // g)
    scale = math.lcm(*(q for _, q in reduced.values()))
    numerator = {text: p * (scale // q) for text, (p, q) in reduced.items()}
    return [numerator[text] for text in texts], scale


def parse_rational(text: str) -> Fraction:
    """One literal as accepted by ``parse_numerators``, as a Fraction."""
    (numerator,), scale = parse_numerators([text.strip()])
    return Fraction(numerator, scale)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scaled_integers(values: Iterable, scale: int) -> list[int]:
    """``scale * x`` for each exact value x; each product must be an integer."""
    out = []
    for x in values:
        q, r = divmod(x.numerator * scale, x.denominator)
        if r:
            raise ValueError(f"{x} is not a multiple of 1/{scale}")
        out.append(q)
    return out


def integer_dtype(bound: int):
    """int64 when ``bound`` < 2^63, else object (Python ints).

    ``bound`` must bound the magnitude of every value, partial sums included,
    that the caller computes in the array; that is the whole overflow
    argument for int64.
    """
    return np.int64 if bound < 2**63 else object


def exact_ldlt(matrix) -> tuple[bool, int]:
    """Exact LDL^T of a symmetric integer matrix, pivoting on the largest remaining diagonal.

    Returns ``(certified_psd, rank)`` where rank counts the strictly positive
    pivots.  A zero maximal diagonal with any nonzero entry left in the
    active block certifies indefiniteness.  On a negative verdict the rank
    reported is the pivot count reached so far.  An exact Gram is passed as
    its numerators N = D G: a positive common scale changes no sign and no
    zero test, so verdict and rank are those of G.

    Runs fraction-free: after pivots P the active entry (i, j) is the integer
    minor det a[P+i, P+j], which is det a[P, P] > 0 times the Schur
    complement entry.  Every active entry shares that positive factor, so
    pivot choices, signs and zero tests are those of the rational elimination.
    """
    a = np.asarray(matrix)
    if a.dtype.kind not in "iO":
        raise MixedModeEntries(f"exact LDL^T needs integer entries, got dtype {a.dtype}")
    prev = 1  # det a[P, P], the previous pivot
    rank = 0
    while a.shape[0]:
        # d*a_ij - a_ip*a_pj is at most 2*max|a|^2 and the division by prev
        # is exact, so int64 holds the step when 2*max|a|^2 < 2^63.
        top = max(int(np.abs(a).max()), prev)
        a = a.astype(integer_dtype(2 * top * top))
        diag = a.diagonal()
        p = int(np.argmax(diag))  # first largest, as in ascending active order
        d = int(diag[p])
        if d < 0:
            return False, rank
        if d == 0:
            # All remaining diagonals are <= 0 here; PSD iff the block is zero.
            return not a.any(), rank
        rank += 1
        col = np.delete(a[p], p)
        rest = np.delete(np.delete(a, p, axis=0), p, axis=1)
        a = (d * rest - np.outer(col, col)) // prev
        prev = d
    return True, rank


def pd_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, np.ndarray] | None:
    """``(det M, adj M)`` of a symmetric integer matrix M, or None unless M is positive definite.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | I] without
    pivoting: the k-th pivot is the leading principal minor of order k, so
    all pivots are positive exactly when M is positive definite (Sylvester's
    criterion), and the elimination ends at [det M * I | adj M].  The
    entries are Python ints: M has at most dim rows, so no bound is needed.
    """
    n = len(matrix)
    work = np.zeros((n, 2 * n), dtype=object)
    work[:, :n] = np.array(matrix, dtype=object).reshape(n, n)
    work[:, n:] = np.identity(n, dtype=int).astype(object)
    prev = 1
    for k in range(n):
        d = work[k, k]
        if d <= 0:
            return None
        others = np.arange(n) != k
        work[others] = (d * work[others] - np.outer(work[others, k], work[k])) // prev
        prev = d
    return prev, work[:, n:]


def cosine_factors(rows: Sequence[Sequence[int]]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """Exact pairwise cosines of non-zero integer rows Z as ``(Z, left, right, D)``:
    cosine (i, j) = P_ij left_i right_j / D with P = Z Z^T.  None when some
    cosine is irrational (equal-norm lattice families never are).

    Rational coordinates are passed as their numerators over a common
    denominator: scaling every row by one positive number changes no cosine.
    Cosine (i, j) is P_ij / sqrt(P_ii P_jj).  All are rational iff every
    P_ii P_00 is a square r_i^2, since then P_ii P_jj = (r_i r_j / P_00)^2: an
    O(m) test.  With R = lcm(r) and w = R / r, cosine (i, j) is then
    P_ij (P_00 w_i) w_j / R^2.  The arrays are int64 when
    n max|Z|^2 max(left) max(right) < 2^63, which bounds every partial sum of
    a numerator and D itself (the value at i = j), and Python ints otherwise.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    z = np.array(rows, dtype=object).reshape(m, n)
    norms = (z * z).sum(axis=1).tolist()
    first = norms[0] if m else 1
    roots = [math.isqrt(v * first) for v in norms]
    if any(r * r != v * first for r, v in zip(roots, norms)):
        return None
    lcm = math.lcm(*roots)
    right = np.array([lcm // r for r in roots], dtype=object)
    left = first * right
    top = int(np.abs(z).max()) if z.size else 0
    dtype = integer_dtype(n * top * top * max(left, default=0) * max(right, default=0))
    return z.astype(dtype), left.astype(dtype), right.astype(dtype), lcm * lcm


def exact_cosines(rows: Sequence[Sequence[int]]) -> tuple[int, np.ndarray] | None:
    """``cosine_factors`` as a dense ``(D, N)``, cosine (i, j) = N[i, j] / D, with
    the common factor of all numerators (D among them) divided out."""
    factors = cosine_factors(rows)
    if factors is None:
        return None
    z, left, right, scale = factors
    num = ((z @ z.T) * np.outer(left, right)).astype(object)
    g = math.gcd(scale, *num.flat)
    return scale // g, num // g


# exact_inverse and exact_matvec are the Fraction reference kernels: the
# tests compare the integer kernels against them, and bench/spans.py traces
# them by name, so a run that calls them shows up in the benchmark.
def exact_inverse(matrix: Iterable[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a full-rank rational matrix via Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def exact_matvec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0)) for row in matrix)
