"""Exact rational arithmetic: scalar parsing and exact PSD/rank certification.

Rational entries are plain ``fractions.Fraction`` values, which are always
stored in lowest terms with a positive denominator.  Mixing float and
rational entries in a matrix handed to the exact routines is a checked
error, never a silent coercion.

The exact kernels do not compute with Fractions.  They scale a matrix by the
common denominator of its entries and run fraction-free (Bareiss)
elimination on the integer numerators, so every intermediate value is an
integer minor and every division is exact.  Arrays hold int64 where a bound
stated at the computation proves no overflow, and Python ints (object
arrays) otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import MixedModeEntries, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (optional sign, q > 0) or a bare integer such as ``0`` or ``-1``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational_matrix(rows: Iterable[Sequence]) -> RationalMatrix:
    """Validate that every entry is exact (Fraction or int) and freeze a copy.

    Raises MixedModeEntries on float contamination.
    """
    out = []
    for row in rows:
        checked = []
        for x in row:
            if isinstance(x, Fraction):
                checked.append(x)
            elif isinstance(x, int):
                checked.append(Fraction(x))
            else:
                raise MixedModeEntries(f"non-rational entry of type {type(x).__name__}: {x!r}")
        out.append(tuple(checked))
    matrix = tuple(out)
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ParseError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                raise ParseError(f"matrix is not symmetric at ({i}, {j})")
    return matrix


def common_denominator(values: Iterable) -> int:
    """Least common multiple of the denominators of exact values (1 when empty)."""
    return math.lcm(*(x.denominator for x in values))


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


def exact_ldlt(matrix: Iterable[Sequence]) -> tuple[bool, int]:
    """Exact LDL^T with symmetric pivoting on the largest remaining diagonal.

    Returns ``(certified_psd, rank)`` where rank counts the strictly positive
    pivots.  A zero maximal diagonal with any nonzero entry left in the
    active block certifies indefiniteness.  On a negative verdict the rank
    reported is the pivot count reached so far.

    Runs fraction-free on ``a = D * matrix`` with D the common denominator:
    after pivots P the active entry (i, j) is the integer minor
    det a[P+i, P+j], which is det a[P, P] > 0 times the Schur complement
    entry.  Every active entry shares that positive factor, so pivot
    choices, signs and zero tests are those of the rational elimination.
    """
    exact = as_rational_matrix(matrix)
    scale = common_denominator(x for row in exact for x in row)
    a = np.array([scaled_integers(row, scale) for row in exact], dtype=object).reshape(
        len(exact), len(exact))
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


@dataclass(frozen=True)
class RationalCheck:
    """Exact verdicts for a rational Gram matrix (a certificate fragment)."""

    max_off_diagonal: Fraction
    psd: bool
    rank: int


def rational_gram_check(matrix: Iterable[Sequence]) -> RationalCheck:
    """Exact max off-diagonal entry, PSD verdict and rank, all comparisons exact."""
    m = as_rational_matrix(matrix)
    n = len(m)
    max_off = Fraction(-1)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] > max_off:
                max_off = m[i][j]
    psd, rank = exact_ldlt(m)
    return RationalCheck(max_off_diagonal=max_off, psd=psd, rank=rank)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def exact_cosines(rows: Sequence[Sequence[Fraction]]) -> RationalMatrix | None:
    """Exact pairwise cosines of non-zero rational row vectors.

    Returns None when some pairwise norm product is not a perfect square,
    i.e. when a cosine is irrational (equal-norm lattice families never are).
    """
    m = len(rows)
    sq = [sum(x * x for x in row) for row in rows]
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        out[i][i] = Fraction(1)
        for j in range(i + 1, m):
            root = _rational_sqrt(sq[i] * sq[j])
            if root is None:
                return None
            dot = sum(a * b for a, b in zip(rows[i], rows[j]))
            out[i][j] = out[j][i] = dot / root
    return tuple(tuple(row) for row in out)


# exact_inverse and exact_matvec are the Fraction reference kernels: the
# tests compare the integer kernels against them, and bench/spans.py traces
# them by name, so a run that calls them shows up in the benchmark.
def exact_inverse(matrix: Iterable[Sequence]) -> RationalMatrix:
    """Exact inverse of a full-rank rational matrix via Gauss-Jordan elimination."""
    a = [list(row) for row in as_rational_matrix(matrix)]
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
