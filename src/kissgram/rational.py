"""Exact rational arithmetic: scalar parsing and exact PSD/rank certification.

Rational entries are plain ``fractions.Fraction`` values, which are always
stored in lowest terms with a positive denominator.  Mixing float and
rational entries in a matrix handed to the exact routines is a checked
error, never a silent coercion.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def exact_ldlt(matrix: Iterable[Sequence]) -> tuple[bool, int]:
    """Exact LDL^T with symmetric pivoting on the largest remaining diagonal.

    Returns ``(certified_psd, rank)`` where rank counts the strictly positive
    pivots.  A zero maximal diagonal with any nonzero entry left in the
    active block certifies indefiniteness.  On a negative verdict the rank
    reported is the pivot count reached so far.
    """
    a = [list(row) for row in as_rational_matrix(matrix)]
    active = list(range(len(a)))
    rank = 0
    while active:
        p = max(active, key=lambda i: a[i][i])
        d = a[p][p]
        if d < 0:
            return False, rank
        if d == 0:
            # All remaining diagonals are <= 0 here; PSD iff the block is zero.
            for i in active:
                for j in active:
                    if a[i][j] != 0:
                        return False, rank
            return True, rank
        active.remove(p)
        rank += 1
        for i in active:
            aip = a[i][p]
            if aip == 0:
                continue
            f = aip / d
            row_i = a[i]
            row_p = a[p]
            for j in active:
                apj = row_p[j]
                if apj != 0:
                    row_i[j] -= f * apj
    return True, rank


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


def exact_quadratic_form(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Fraction:
    return sum((vec[i] * x for i, x in enumerate(exact_matvec(matrix, vec))), Fraction(0))
