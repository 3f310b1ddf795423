"""Exact rational arithmetic and exact PSD/rank certification.

The integer (fraction-free) kernels are checked against Fraction reference
implementations: ``fraction_ldlt`` and ``fraction_cosines`` below, and
``exact_inverse`` / ``exact_matvec`` from the package.  Rational matrices are
handed to the integer kernels as numerators over a common denominator.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import kissgram.rational as rational
from kissgram.errors import MixedModeEntries, ParseError
from kissgram.rational import (
    cosine_factors,
    exact_cosines,
    exact_inverse,
    exact_ldlt,
    exact_matvec,
    format_rational,
    parse_rational,
    pd_adjugate,
)

F = Fraction


def ints(matrix) -> np.ndarray:
    """Numerators of a rational matrix over the common denominator of its entries."""
    scale = math.lcm(*(F(x).denominator for row in matrix for x in row))
    return np.array([[int(F(x) * scale) for x in row] for row in matrix], dtype=object)


def exact_quadratic_form(matrix, vec) -> Fraction:
    return sum((vec[i] * x for i, x in enumerate(exact_matvec(matrix, vec))), Fraction(0))


def fraction_ldlt(matrix) -> tuple[bool, int]:
    """Reference LDL^T on Fractions, pivoting on the first largest remaining diagonal."""
    a = [[F(x) for x in row] for row in matrix]
    active = list(range(len(a)))
    rank = 0
    while active:
        p = max(active, key=lambda i: a[i][i])
        d = a[p][p]
        if d < 0:
            return False, rank
        if d == 0:
            return all(a[i][j] == 0 for i in active for j in active), rank
        active.remove(p)
        rank += 1
        for i in active:
            f = a[i][p] / d
            for j in active:
                a[i][j] -= f * a[p][j]
    return True, rank


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
    assert exact_ldlt(ints([[F(1), F(1, 2)], [F(1, 2), F(1)]])) == (True, 2)


def test_exact_ldlt_antipodal_pair_is_singular_psd():
    # Pivots 1 and 0.
    assert exact_ldlt(ints([[F(1), F(-1)], [F(-1), F(1)]])) == (True, 1)


def test_exact_ldlt_three_mutual_negative_three_quarters_not_psd():
    c = F(-3, 4)
    matrix = [[F(1), c, c], [c, F(1), c], [c, c, F(1)]]
    # Independent float oracle: the smallest eigenvalue is negative.
    w = np.linalg.eigvalsh(np.array([[1, -0.75, -0.75], [-0.75, 1, -0.75],
                                     [-0.75, -0.75, 1]]))
    assert w[0] < -1e-9
    psd, _ = exact_ldlt(ints(matrix))
    assert psd is False


def test_exact_ldlt_zero_diagonal_with_off_diagonal_is_indefinite():
    assert exact_ldlt(ints([[F(0), F(1)], [F(1), F(0)]]))[0] is False


def test_exact_ldlt_rejects_floats():
    with pytest.raises(MixedModeEntries):
        exact_ldlt([[1.0, 0.5], [0.5, 1.0]])


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
        psd, _ = exact_ldlt(ints(matrix))
        assert psd == (w[0] > 0)
    assert checked > 60


def test_exact_rank_matches_float_rank_on_gram_matrices():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        matrix = _random_rational_gram(rng, n, int(rng.integers(1, n + 2)))
        _, rank = exact_ldlt(ints(matrix))
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


def _random_symmetric(rng, n, num=3, den=4) -> list[list[Fraction]]:
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = F(int(rng.integers(-num, num + 1)), int(rng.integers(1, den)))
    return m


def _ldlt_cases(rng):
    """Seeded PSD, rank-deficient PSD and indefinite rational matrices."""
    for _ in range(80):
        n = int(rng.integers(1, 8))
        yield _random_rational_gram(rng, n, n + 1)                       # PSD, full rank
        yield _random_rational_gram(rng, n, int(rng.integers(1, n + 1)))  # PSD, rank <= n
        yield _random_symmetric(rng, n)                                  # mostly indefinite
        g = _random_rational_gram(rng, n, max(1, n - 2))
        g[-1][-1] -= F(1, 7)                                             # barely indefinite
        yield g


def test_integer_ldlt_matches_fraction_reference():
    rng = np.random.default_rng(2024)
    verdicts = set()
    for matrix in _ldlt_cases(rng):
        got = exact_ldlt(ints(matrix))
        assert got == fraction_ldlt(matrix)
        assert exact_ldlt(6 * ints(matrix)) == got  # a positive common scale changes nothing
        verdicts.add((got[0], got[1] < len(matrix)))
    assert verdicts == {(True, True), (True, False), (False, True)}


def test_integer_ldlt_python_int_fallback(monkeypatch):
    """Entries whose step bound 2 max|a|^2 exceeds int64 run on Python ints."""
    chosen = []
    real = rational.integer_dtype

    def recording(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(rational, "integer_dtype", recording)
    rng = np.random.default_rng(99)
    big = F(2**40 + 1, 3)
    for matrix in _ldlt_cases(rng):
        scaled = [[x * big for x in row] for row in matrix]
        assert exact_ldlt(ints(scaled)) == fraction_ldlt(scaled)
        # A 2^62 diagonal shift alone fails the int64 bound of the first step.
        tilted = [[x + F(2**62) * int(i == j) for i, x in enumerate(row)]
                  for j, row in enumerate(matrix)]
        assert exact_ldlt(ints(tilted)) == fraction_ldlt(tilted)
    assert object in chosen and np.int64 in chosen


def test_pd_adjugate_matches_fraction_inverse():
    rng = np.random.default_rng(31)
    seen_none = 0
    for _ in range(150):
        n = int(rng.integers(1, 7))
        v = rng.integers(-3, 4, size=(n, int(rng.integers(1, n + 3))))
        matrix = (v @ v.T).tolist()
        if rng.integers(4) == 0:
            matrix[0][0] = -matrix[0][0] - 1  # not positive definite
        factored = pd_adjugate(matrix)
        eig = np.linalg.eigvalsh(np.array(matrix, dtype=float))
        if factored is None:
            seen_none += 1
            assert eig[0] < 1e-6
            continue
        det, adj = factored
        assert det > 0 and eig[0] > 0
        inv = exact_inverse([[F(x) for x in row] for row in matrix])
        assert all(F(adj[i, j], det) == inv[i][j] for i in range(n) for j in range(n))
    assert seen_none > 10


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def fraction_cosines(rows) -> list[list[Fraction]] | None:
    """Reference: pairwise Fraction cosines, None when a norm product is not a square."""
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
    return out


# Integer vectors of square norm (1, 9, 49, 81, 25).
_SQUARE_NORM = [(1, 0, 0), (1, 2, 2), (2, 3, 6), (4, 4, 7), (0, 3, 4)]


def _cosine_cases(rng):
    """Seeded rational rows of mixed norms: norms sharing one square-free part
    (rational cosines) and arbitrary rows (mostly irrational)."""
    for _ in range(80):
        m = int(rng.integers(1, 8))
        kind = int(rng.integers(3))
        if kind == 0:    # signed permutations of square-norm vectors
            rows = [list(rng.permutation(_SQUARE_NORM[int(rng.integers(5))])
                         * rng.choice((-1, 1), 3)) for _ in range(m)]
        elif kind == 1:  # norm 2 (two +-1 entries) in dimension 4
            rows = []
            for _ in range(m):
                v = [0] * 4
                for k in rng.choice(4, 2, replace=False):
                    v[k] = int(rng.choice((-1, 1)))
                rows.append(v)
        else:            # arbitrary non-zero rows
            rows = [list(rng.integers(-3, 4, 3)) for _ in range(m)]
            rows = [r if any(r) else [1, 0, 0] for r in rows]
        # Mixed norms: each row times its own rational multiplier.
        mults = [F(int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in rows]
        yield [[int(x) * k for x in row] for row, k in zip(rows, mults)]


def test_exact_cosines_match_fraction_reference():
    rng = np.random.default_rng(13)
    outcomes = set()
    for rows in _cosine_cases(rng):
        expected = fraction_cosines(rows)
        got = exact_cosines(rows)
        outcomes.add(got is None)
        assert (got is None) == (expected is None)
        if got is None:
            continue
        scale, num = got
        assert scale > 0 and math.gcd(scale, *num.flat) == 1
        assert [[F(x, scale) for x in row] for row in num.tolist()] == expected
    assert outcomes == {True, False}


def test_exact_cosines_past_int64_match_fraction_reference():
    # Rotations by cos t = 3/5, sin t = 4/5 have denominators up to 5^14, so
    # n max|Z|^2 passes 2^63 and the factors are Python ints.  Row k is
    # scaled by k + 1, so the left and right factors differ between rows.
    rows, (c, s) = [], (F(1), F(0))
    for k in range(15):
        rows.append([(k + 1) * c, (k + 1) * s])
        c, s = c * F(3, 5) - s * F(4, 5), c * F(4, 5) + s * F(3, 5)
    assert cosine_factors(rows)[0].dtype == object
    scale, num = exact_cosines(rows)
    assert [[F(x, scale) for x in row] for row in num.tolist()] == fraction_cosines(rows)
