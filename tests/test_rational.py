"""Exact rational arithmetic and exact PSD/rank certification."""

from fractions import Fraction

import numpy as np
import pytest

from kissgram.errors import MixedModeEntries, ParseError
from kissgram.rational import (
    exact_inverse,
    exact_ldlt,
    exact_quadratic_form,
    format_rational,
    parse_rational,
    rational_gram_check,
)

F = Fraction


def test_parse_rational_accepts_signed_fractions_and_integers():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("+1/2") == F(1, 2)
    assert parse_rational("0") == 0
    assert parse_rational("1") == 1
    assert parse_rational("-1") == -1


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/", "/2", "1 / 2", "0x3", "1/0", "-3/00"])
def test_parse_rational_rejects_non_literals(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        value = F(int(rng.integers(-500, 500)), int(rng.integers(1, 500)))
        assert parse_rational(format_rational(value)) == value


def test_exact_ldlt_two_by_two_positive_definite():
    # Pivots 1 and 3/4.
    assert exact_ldlt([[F(1), F(1, 2)], [F(1, 2), F(1)]]) == (True, 2)


def test_exact_ldlt_antipodal_pair_is_singular_psd():
    # Pivots 1 and 0.
    assert exact_ldlt([[F(1), F(-1)], [F(-1), F(1)]]) == (True, 1)


def test_exact_ldlt_three_mutual_negative_three_quarters_not_psd():
    c = F(-3, 4)
    matrix = [[F(1), c, c], [c, F(1), c], [c, c, F(1)]]
    # Independent float oracle: the smallest eigenvalue is negative.
    w = np.linalg.eigvalsh(np.array([[1, -0.75, -0.75], [-0.75, 1, -0.75],
                                     [-0.75, -0.75, 1]]))
    assert w[0] < -1e-9
    psd, _ = exact_ldlt(matrix)
    assert psd is False


def test_exact_ldlt_zero_diagonal_with_off_diagonal_is_indefinite():
    assert exact_ldlt([[F(0), F(1)], [F(1), F(0)]])[0] is False


def test_exact_ldlt_rejects_floats():
    with pytest.raises(MixedModeEntries):
        exact_ldlt([[1.0, 0.5], [0.5, 1.0]])


def test_exact_ldlt_rejects_asymmetric():
    with pytest.raises(ParseError):
        exact_ldlt([[F(1), F(1, 2)], [F(1, 3), F(1)]])


def _random_rational_gram(rng, rows, cols) -> list[list[Fraction]]:
    v = [[F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(cols)]
         for _ in range(rows)]
    return [[sum(v[i][k] * v[j][k] for k in range(cols)) for j in range(rows)]
            for i in range(rows)]


def test_exact_float_agreement_on_random_matrices():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        if rng.integers(2) == 0:
            matrix = _random_rational_gram(rng, n, int(rng.integers(1, n + 2)))
        else:
            matrix = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                matrix[i][i] = F(int(rng.integers(-2, 4)), int(rng.integers(1, 3)))
                for j in range(i + 1, n):
                    matrix[i][j] = matrix[j][i] = F(int(rng.integers(-2, 3)),
                                                    int(rng.integers(1, 3)))
        w = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in matrix]))
        if abs(w[0]) <= 1e-6:
            continue  # ties near zero are resolved by the exact path
        checked += 1
        psd, _ = exact_ldlt(matrix)
        assert psd == (w[0] > 0)
    assert checked > 60


def test_exact_rank_matches_float_rank_on_gram_matrices():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        matrix = _random_rational_gram(rng, n, int(rng.integers(1, n + 2)))
        _, rank = exact_ldlt(matrix)
        floats = np.array([[float(x) for x in row] for row in matrix])
        assert rank == np.linalg.matrix_rank(floats, tol=1e-9)


def test_rational_arithmetic_laws():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b, c = (F(int(rng.integers(-40, 40)), int(rng.integers(1, 40)))
                   for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a.denominator > 0


def test_rational_gram_check_hexagon():
    table = [F(1), F(1, 2), F(-1, 2), F(-1), F(-1, 2), F(1, 2)]
    hexagon = [[table[(i - j) % 6] for j in range(6)] for i in range(6)]
    check = rational_gram_check(hexagon)
    assert check.max_off_diagonal == F(1, 2)
    assert check.psd is True
    assert check.rank == 2


def test_rational_gram_check_cross_polytope_x4():
    m = [[F(0)] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = F(1)
        m[i][(i + 4) % 8] = F(-1)
    check = rational_gram_check(m)
    assert check.max_off_diagonal == F(0)
    assert check.psd is True
    assert check.rank == 4


def test_rational_gram_check_quarter_cosine_configuration():
    # Ten norm-2 integer vectors whose cosines land in {-1, -3/4, 0, +-1/4, +-1/2}:
    # both arithmetic paths must agree on the same submatrix.
    raw = [
        (2, 0, 0, 0, 0, 0, 0, 0),
        (0, 2, 0, 0, 0, 0, 0, 0),
        (0, 0, 2, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 0, 0, 0, 0),
        (1, 1, -1, -1, 0, 0, 0, 0),
        (1, -1, 1, -1, 0, 0, 0, 0),
        (1, -1, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 2, 0, 0, 0),
        (1, 1, 0, 0, 1, 1, 0, 0),
        (0, -1, 1, 1, 1, 0, 0, 0),
    ]
    m = len(raw)
    gram = [[F(sum(a * b for a, b in zip(raw[i], raw[j])), 4) for j in range(m)]
            for i in range(m)]
    values = {gram[i][j] for i in range(m) for j in range(i + 1, m)}
    assert values <= {F(-1), F(-3, 4), F(0), F(1, 4), F(-1, 4), F(1, 2), F(-1, 2)}
    assert F(1, 4) in values and F(-1, 2) in values
    check = rational_gram_check(gram)
    floats = np.array([[float(x) for x in row] for row in gram])
    w = np.linalg.eigvalsh(floats)
    assert check.psd == (w[0] >= -1e-9)
    assert check.rank == np.linalg.matrix_rank(floats, tol=1e-9)
    assert float(check.max_off_diagonal) == pytest.approx(
        floats[~np.eye(m, dtype=bool)].max())


def test_exact_inverse_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        while True:
            m = [[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                  for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
            if np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in m])) == n:
                break
        inv = exact_inverse(m)
        for i in range(n):
            for j in range(n):
                assert sum(m[i][k] * inv[k][j] for k in range(n)) == F(int(i == j))


def test_exact_quadratic_form():
    m = [[F(2), F(1)], [F(1), F(2)]]
    assert exact_quadratic_form(m, [F(1), F(-1)]) == F(2)
