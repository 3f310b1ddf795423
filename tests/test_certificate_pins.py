"""Pinned exact certificates: the sha256 of ``certificate_text`` for rational
inputs that reach the exact verifier by each route (rational vector files,
parsed rational Gram files and exact rows of unequal norms), so a change to
how exact Grams are built, stored or verified shows up as a digest change."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from kissgram.fileio import certificate_text, parse_gram_text
from kissgram.refconfigs import config_from_vectors
from kissgram.verify import verify_gram, verify_vectors


def _pair_roots(d: int) -> list[list[int]]:
    out = []
    for i, j in itertools.combinations(range(d), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * d
            v[i], v[j] = si, sj
            out.append(v)
    return out


def _e8_doubled() -> list[list[int]]:
    """2 * the E8 minimal vectors: integer rows of norm^2 8."""
    rows = [[2 * x for x in v] for v in _pair_roots(8)]
    rows += [list(s) for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    return rows


def dyadic_unit_rows(rows: list[list[int]], half: int) -> tuple[list[list[int]], int]:
    """Integer rows of norm^2 2 half^2 to exact unit rows, as integer numerators
    over D = 2 half: each coordinate pair (a, b) becomes (a - b, a + b) / D, a
    scaled 45-degree rotation."""
    return [[x for a, b in zip(row[0::2], row[1::2]) for x in (a - b, a + b)]
            for row in rows], 2 * half


def _floats(numerators, scale: int) -> np.ndarray:
    return np.array([[x / scale for x in row] for row in numerators])


def _vectors_cert(numerators, scale: int) -> str:
    return certificate_text(verify_vectors(_floats(numerators, scale), len(numerators[0]),
                                           mode="rational", exact=numerators))


def shuffled_e8() -> str:
    rows = _e8_doubled()
    order = np.random.default_rng(8).permutation(len(rows))
    return _vectors_cert(*dyadic_unit_rows([rows[i] for i in order], 2))


def d4() -> str:
    return _vectors_cert(*dyadic_unit_rows(_pair_roots(4), 1))


# Ten norm-4 rows with cosines in {-1, -3/4, 0, +-1/4, +-1/2}, then a row
# making a 3/4 cosine: the first file passes, the second fails the cap.
_QUARTER_ROWS = [
    (2, 0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0), (1, 1, -1, -1, 0, 0, 0, 0), (1, -1, 1, -1, 0, 0, 0, 0),
    (1, -1, -1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0, 0, 0), (1, 1, 0, 0, 1, 1, 0, 0),
    (0, -1, 1, 1, 1, 0, 0, 0),
]


def _gram_file_text(rows, dim: int) -> str:
    m = len(rows)
    lines = [f"kiss-gram v1 dim={dim} count={m} mode=rational"]
    for i in range(m):
        cells = []
        for j in range(i, m):
            c = Fraction(sum(a * b for a, b in zip(rows[i], rows[j])), 4)
            cells.append(str(c.numerator) if c.denominator == 1 else f"{c}")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def parsed_gram_pass() -> str:
    state = parse_gram_text(_gram_file_text(_QUARTER_ROWS, 8), "pinned")
    return certificate_text(verify_gram(state))


def parsed_gram_fail() -> str:
    rows = _QUARTER_ROWS + [(1, 1, 1, 0, 1, 0, 0, 0)]
    state = parse_gram_text(_gram_file_text(rows, 8), "pinned")
    return certificate_text(verify_gram(state))


def unequal_norms() -> str:
    """D4 roots times seeded multipliers 1-4: norm products are squares, norms differ."""
    rng = np.random.default_rng(4)
    rows = [[int(k) * x for x in v] for v, k in zip(_pair_roots(4), rng.integers(1, 5, 24))]
    built = config_from_vectors(_floats(rows, 1), 4, exact=rows)
    return certificate_text(verify_gram(built.gram))


PINS = {
    "verify-vectors-e8-shuffled": (
        shuffled_e8, "8163402f5a0572c8f1817b17d0bf4cfed5ee7b46060852225339d69a1ac6d341"),
    "verify-vectors-d4": (
        d4, "0488aec4b2f2cbdc0c1432c342980acb8e74e33bf2a39f6047193308e21bfc1b"),
    "parsed-gram-pass": (
        parsed_gram_pass, "feec58db0103cdc38b7d08bb0fede5864c48e432168132f7d7a977026b713afc"),
    "parsed-gram-fail": (
        parsed_gram_fail, "244721099cf7b40684f4e1268e5819e3db2a76f44a6e58a783ad109fc4c00f1c"),
    "config-from-vectors-unequal-norms": (
        unequal_norms, "f35b8f495359b85e49df2a0efa3518fbe584e6311627092b6b465d692e14f00f"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_exact_certificate_is_pinned(name):
    build, digest = PINS[name]
    assert hashlib.sha256(build().encode()).hexdigest() == digest
