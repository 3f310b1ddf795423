"""Integer minimal vectors of E8 and the Barnes-Wall lattice, as rational unit rows.

Both sets are built offline from their standard descriptions (Conway & Sloane,
SPLAG ch. 4).  Coordinates stay integral until ``rational_unit_rows`` maps
them through a rational similarity, which keeps every cosine and gives each
row norm exactly 1 with dyadic entries, so the float and rational views of a
row agree bit for bit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def reed_muller_weight8() -> list[tuple[int, ...]]:
    """Supports of the 30 weight-8 words of RM(1,4): the affine hyperplanes of F_2^4."""
    points = list(itertools.product((0, 1), repeat=4))
    words = []
    for a in points[1:]:
        for b in (0, 1):
            support = tuple(i for i, x in enumerate(points)
                            if (sum(ai * xi for ai, xi in zip(a, x)) + b) % 2 == 1)
            words.append(support)
    return words


def lambda16_min_vectors() -> np.ndarray:
    """The 4320 minimal vectors of Barnes-Wall Lambda16, norm^2 8, as an int64 array.

    480 of shape (+-2)^2 0^14 and 3840 of shape (+-1)^8 0^8, the latter on
    the weight-8 Reed-Muller supports with an even number of minus signs.
    """
    rows = []
    for i, j in itertools.combinations(range(16), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 16
            v[i], v[j] = si, sj
            rows.append(v)
    for support in reed_muller_weight8():
        for signs in itertools.product((1, -1), repeat=8):
            if signs.count(-1) % 2:
                continue
            v = [0] * 16
            for pos, s in zip(support, signs):
                v[pos] = s
            rows.append(v)
    return np.array(rows, dtype=np.int64)


def e8_min_vectors() -> np.ndarray:
    """The 240 E8 roots scaled by 2 (norm^2 8) as an int64 array."""
    rows = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            rows.append(v)
    rows.extend(list(s) for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0)
    return np.array(rows, dtype=np.int64)


def check_min_vectors(vectors: np.ndarray, count: int, cosines: set[Fraction]) -> None:
    """Raise ValueError unless ``vectors`` are ``count`` distinct rows of one norm
    whose pairwise cosines are exactly ``cosines``."""
    if vectors.shape[0] != count or len({tuple(r) for r in vectors.tolist()}) != count:
        raise ValueError(f"expected {count} distinct rows, got {vectors.shape[0]}")
    dots = vectors @ vectors.T
    norm = int(dots[0, 0])
    if not np.all(np.diag(dots) == norm):
        raise ValueError("rows do not share one norm")
    off = dots[~np.eye(count, dtype=bool)]
    if int(off.max()) * 2 != norm:
        raise ValueError(f"largest off-diagonal dot {int(off.max())} is not half the norm {norm}")
    found = {Fraction(int(d), norm) for d in np.unique(off)}
    if found != cosines:
        raise ValueError(f"cosine set {sorted(found)} differs from {sorted(cosines)}")


LAMBDA16_COSINES = {Fraction(-1), Fraction(-1, 2), Fraction(-1, 4), Fraction(0),
                    Fraction(1, 4), Fraction(1, 2)}
E8_COSINES = {Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2)}


def rational_unit_rows(vectors: np.ndarray) -> list[list[Fraction]]:
    """Map integer rows of norm^2 2^(2k+1) to rational unit rows.

    Each coordinate pair (a, b) becomes (a - b, a + b) / 2^(k+1): a rotation
    by 45 degrees scaled by sqrt(2) / 2^(k+1), which preserves cosines and
    takes norm^2 2^(2k+1) to exactly 1.
    """
    norm = int(vectors[0] @ vectors[0])
    half = 1
    while 2 * half * half < norm:
        half *= 2
    if 2 * half * half != norm or vectors.shape[1] % 2:
        raise ValueError(f"norm^2 {norm} in dimension {vectors.shape[1]} has no dyadic unit map")
    out = []
    for row in vectors.tolist():
        mapped = []
        for a, b in zip(row[0::2], row[1::2]):
            mapped.append(Fraction(a - b, 2 * half))
            mapped.append(Fraction(a + b, 2 * half))
        out.append(mapped)
    return out
