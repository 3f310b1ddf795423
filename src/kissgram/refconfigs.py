"""Deterministic generators for known reference configurations.

These serve as seeds for the game, oracles for the test suite, and pattern
templates for round-boundary analysis.  Generated vectors are always unit
norm; the accompanying Gram states carry exact rational entries whenever the
construction's cosines are rational.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CosineCapViolation, NonUnitVector, ParseError
from .gram import COSINE_CAP, DEFAULT_TOLS, GramState, Tolerances, gram_from_vectors
from .rational import exact_cosines

_GENERATOR_RE = re.compile(r"^([A-Za-z0-9]+)(?:\(([^)]*)\))?$")


@dataclass(frozen=True)
class GeneratorId:
    """Parsed generator name, e.g. CrossPolytope(4) or E8Roots."""

    name: str
    n: int | None = None

    @staticmethod
    def parse(text: str) -> "GeneratorId":
        m = _GENERATOR_RE.match(text.strip())
        if not m:
            raise ParseError(f"bad generator name: {text!r}")
        name, arg = m.group(1), m.group(2)
        if name not in GENERATORS:
            raise ParseError(f"unknown generator: {name!r}")
        if not GENERATORS[name][1]:
            if arg is not None:
                raise ParseError(f"{name} takes no argument")
            return GeneratorId(name=name)
        if arg is None or not arg.strip().isdigit() or int(arg) < 1:
            raise ParseError(f"{name} needs a positive integer argument")
        return GeneratorId(name=name, n=int(arg))


@dataclass(frozen=True)
class GeneratedConfig:
    label: str
    vectors: np.ndarray
    gram: GramState


def cross_polytope(n: int) -> GeneratedConfig:
    """The 2n vectors +-e_i; pairwise cosines in {0, -1}."""
    eye = np.eye(n)
    vectors = np.vstack([eye, -eye])
    dots = (vectors @ vectors.T).astype(np.int64)  # = cosine, all in {1, 0, -1}
    return GeneratedConfig(f"CrossPolytope({n})", vectors, GramState.from_exact(n, dots, 1))


def simplex(n: int) -> GeneratedConfig:
    """n+1 unit vectors with all pairwise cosines equal to -1/n."""
    gram = GramState.from_exact(n, (n + 1) * np.eye(n + 1, dtype=np.int64) - 1, n)
    # Coordinates from the Cholesky factor of the leading n x n block; the
    # last vertex solves the remaining cosine constraints exactly.
    block = gram.entries[:n, :n]
    chol = np.linalg.cholesky(block)
    last = np.linalg.solve(chol, gram.entries[:n, n])
    vectors = np.vstack([chol, last[None, :]])
    return GeneratedConfig(f"Simplex({n})", vectors, gram)


def hexagon() -> GeneratedConfig:
    """Six planar unit vectors at 60-degree steps."""
    angles = [k * math.pi / 3 for k in range(6)]
    vectors = np.array([[math.cos(a), math.sin(a)] for a in angles])
    table = [2, 1, -1, -2, -1, 1]  # 2 * cosine at each step
    dots = [[table[(i - j) % 6] for j in range(6)] for i in range(6)]
    return GeneratedConfig("Hexagon", vectors, GramState.from_exact(2, dots, 2))


def icosahedron() -> GeneratedConfig:
    """Twelve vertices of the icosahedron; cosines {+-1/sqrt(5), -1}."""
    phi = (1 + math.sqrt(5)) / 2
    raw = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        raw.append((0.0, a, b * phi))
        raw.append((a, b * phi, 0.0))
        raw.append((a * phi, 0.0, b))
    vectors = np.array(raw) / math.sqrt(1 + phi * phi)
    return GeneratedConfig("Icosahedron", vectors, gram_from_vectors(vectors, 3))


def _pair_roots(d: int) -> list[list[int]]:
    """Two-axis roots ordered one sign class at a time across all pairs, so
    the first d rows are linearly independent (usable as a seed basis)."""
    out = []
    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for i, j in itertools.combinations(range(d), 2):
            v = [0] * d
            v[i], v[j] = si, sj
            out.append(v)
    return out


def d4_roots() -> GeneratedConfig:
    """The 24 normalized D4 minimal vectors (+-1, +-1, 0, 0) / sqrt(2)."""
    scaled = _pair_roots(4)  # integer coordinates of sqrt(2) * vector
    arr = np.array(scaled, dtype=float)
    vectors = arr / math.sqrt(2)
    dots = np.array(scaled) @ np.array(scaled).T  # = 2 * cosine
    return GeneratedConfig("D4Roots", vectors, GramState.from_exact(4, dots, 2))


def e8_roots() -> GeneratedConfig:
    """The 240 normalized E8 minimal vectors.

    112 integer-type roots (+-1, +-1, 0^6) and 128 half-integer roots
    (+-1/2)^8 with an even number of minus signs, all scaled to unit norm.
    Cosines land in {0, +-1/2, -1} exactly.
    """
    scaled = [[2 * x for x in v] for v in _pair_roots(8)]  # 2 * root, norm^2 = 8
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            scaled.append(list(signs))
    arr = np.array(scaled, dtype=np.int64)
    vectors = arr / (2 * math.sqrt(2))
    dots = arr @ arr.T  # = 8 * cosine
    return GeneratedConfig("E8Roots", vectors, GramState.from_exact(8, dots, 8))


def unit_rows(raw: np.ndarray) -> np.ndarray:
    """The rows of ``raw`` scaled to unit norm; a zero row raises NonUnitVector."""
    raw = np.asarray(raw, dtype=float)
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms < 1e-12):
        raise NonUnitVector("zero vector cannot be normalized")
    return raw / norms[:, None]


def config_from_vectors(raw: np.ndarray, dim: int, exact: np.ndarray | None = None,
                        tols: Tolerances = DEFAULT_TOLS) -> GeneratedConfig:
    """Normalize ingested vectors and validate the kissing constraints.

    When ``exact``, the rational coordinates as integer numerators over a
    common denominator, is supplied, the Gram entries are computed exactly
    whenever each pairwise norm product is a perfect square (true for
    equal-norm lattice families); otherwise the state is float.
    """
    vectors = unit_rows(raw)
    state = gram_from_vectors(vectors, dim)
    g = state.entries
    off_max = float(g[~np.eye(len(g), dtype=bool)].max()) if len(g) > 1 else -1.0
    if off_max > COSINE_CAP + tols.cosine:
        raise CosineCapViolation(f"max pairwise cosine {off_max} exceeds 1/2")
    cosines = exact_cosines(exact) if exact is not None else None
    if cosines is not None:
        state = GramState.from_exact(dim, cosines[1], cosines[0])
    return GeneratedConfig("vectors", vectors, state)


# Each generator's builder, and whether it takes the argument n.
GENERATORS = {
    "CrossPolytope": (cross_polytope, True),
    "Simplex": (simplex, True),
    "Hexagon": (hexagon, False),
    "Icosahedron": (icosahedron, False),
    "D4Roots": (d4_roots, False),
    "E8Roots": (e8_roots, False),
}


def generate(gid: GeneratorId | str) -> GeneratedConfig:
    """Build the named reference configuration (exact and deterministic)."""
    if isinstance(gid, str):
        gid = GeneratorId.parse(gid)
    if gid.name not in GENERATORS:
        raise ParseError(f"unknown generator: {gid.name!r}")
    build, takes_n = GENERATORS[gid.name]
    return build(gid.n) if takes_n else build()
