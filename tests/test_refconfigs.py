"""Reference configuration generators: exactness, counts, determinism."""

from fractions import Fraction

import numpy as np
import pytest

from kissgram.errors import CosineCapViolation, NonUnitVector, ParseError
from kissgram.gram import rank_of
from kissgram.refconfigs import GeneratorId, config_from_vectors, generate
from kissgram.verify import verify_gram

F = Fraction

# Optimal kissing numbers the generators must realize.
EXPECTED_COUNTS = {
    "Hexagon": 6,          # dimension 2
    "Icosahedron": 12,     # dimension 3
    "D4Roots": 24,         # dimension 4
    "E8Roots": 240,        # dimension 8
}


def test_generator_id_parsing():
    assert GeneratorId.parse("CrossPolytope(5)") == GeneratorId(name="CrossPolytope", n=5)
    assert GeneratorId.parse("Simplex(3)") == GeneratorId(name="Simplex", n=3)
    assert GeneratorId.parse("E8Roots") == GeneratorId(name="E8Roots")


@pytest.mark.parametrize("bad", ["", "Nope", "CrossPolytope", "CrossPolytope(0)",
                                 "Hexagon(2)", "Simplex(x)", "FromVectorFile(a/b.vec)"])
def test_generator_id_rejects(bad):
    with pytest.raises(ParseError):
        GeneratorId.parse(bad)


def test_cross_polytope_structure():
    built = generate("CrossPolytope(3)")
    assert built.vectors.shape == (6, 3)
    off = built.gram.entries[~np.eye(6, dtype=bool)]
    assert off.max() == 0.0
    assert sorted(set(off)) == [-1.0, 0.0]


def test_simplex_pairwise_cosines():
    for n in (2, 3, 5):
        built = generate(f"Simplex({n})")
        assert built.vectors.shape == (n + 1, n)
        gram = built.vectors @ built.vectors.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        assert np.abs(off + 1.0 / n).max() < 1e-12
        assert all(F(built.gram.exact[i, j], built.gram.exact_scale) == F(-1, n)
                   for i in range(n + 1) for j in range(i + 1, n + 1))


def test_hexagon_is_planar_sixty_degree_fan():
    built = generate("Hexagon")
    assert built.vectors.shape == (6, 2)
    for i in range(6):
        assert built.vectors[i] @ built.vectors[(i + 1) % 6] == pytest.approx(0.5)


def test_icosahedron_cosine_spectrum():
    built = generate("Icosahedron")
    assert built.vectors.shape == (12, 3)
    off = built.gram.entries[~np.eye(12, dtype=bool)]
    expected = 1 / np.sqrt(5)
    values = sorted(set(np.round(off, 9)))
    assert values == sorted({-1.0, round(-expected, 9), round(expected, 9)})


def test_d4_roots_exact():
    built = generate("D4Roots")
    assert built.vectors.shape == (24, 4)
    assert rank_of(built.gram, 1e-7) == 4
    values = {F(built.gram.exact[i, j], built.gram.exact_scale)
              for i in range(24) for j in range(i + 1, 24)}
    assert values == {F(-1), F(-1, 2), F(0), F(1, 2)}


def test_e8_roots_type_counts_and_spectrum():
    built = generate("E8Roots")
    assert built.vectors.shape == (240, 8)
    # Direct computation: 112 two-axis integer roots, 128 half-integer roots.
    integer_rows = int(np.sum(np.count_nonzero(built.vectors, axis=1) == 2))
    half_rows = int(np.sum(np.count_nonzero(built.vectors, axis=1) == 8))
    assert integer_rows == 112
    assert half_rows == 128
    assert rank_of(built.gram, 1e-7) == 8
    values = {F(built.gram.exact[i, j], built.gram.exact_scale)
              for i in range(240) for j in range(i + 1, 240)}
    assert values == {F(-1), F(-1, 2), F(0), F(1, 2)}
    norms = np.linalg.norm(built.vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


@pytest.mark.parametrize("name,count", sorted(EXPECTED_COUNTS.items()))
def test_generated_counts_match_known_optima(name, count):
    assert generate(name).vectors.shape[0] == count


@pytest.mark.parametrize("name", ["CrossPolytope(2)", "CrossPolytope(5)", "Simplex(4)",
                                  "Hexagon", "Icosahedron", "D4Roots", "E8Roots"])
def test_every_generator_passes_the_verifier(name):
    built = generate(name)
    cert = verify_gram(built.gram)
    assert cert.verdict == "Pass"
    assert cert.max_cosine <= 0.5


def test_generation_is_deterministic():
    a, b = generate("E8Roots"), generate("E8Roots")
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.gram.exact, b.gram.exact)
    assert a.gram.exact_scale == b.gram.exact_scale


def test_config_from_vectors_normalizes_and_validates():
    raw = np.array([[2.0, 0.0], [0.0, -3.0]])
    built = config_from_vectors(raw, 2)
    assert np.allclose(np.linalg.norm(built.vectors, axis=1), 1.0)
    with pytest.raises(CosineCapViolation):
        config_from_vectors(np.array([[1.0, 0.0], [0.9, 0.1]]), 2)
    with pytest.raises(NonUnitVector):
        config_from_vectors(np.array([[0.0, 0.0]]), 2)


def test_config_from_vectors_exact_gram_for_equal_norm_lattice_rows():
    rows = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
    built = config_from_vectors(np.array(rows, dtype=float), 4, exact=rows)
    assert built.gram.exact is not None
    assert F(built.gram.exact[0, 1], built.gram.exact_scale) == F(1, 2)


def test_config_from_vectors_irrational_cosine_falls_back_to_float():
    # Norm product 1 * 3 is not a square: the cosine -1/sqrt(3) is irrational.
    rows = [[1, 0, 0], [-1, 1, 1]]
    built = config_from_vectors(np.array(rows, dtype=float), 3, exact=rows)
    assert built.gram.exact is None
    assert built.gram.entries[0, 1] == pytest.approx(-1 / np.sqrt(3))
