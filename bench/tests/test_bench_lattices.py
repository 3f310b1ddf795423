from fractions import Fraction

import numpy as np
import pytest

from lattices import (
    E8_COSINES,
    LAMBDA16_COSINES,
    check_min_vectors,
    e8_min_vectors,
    lambda16_min_vectors,
    rational_unit_rows,
    reed_muller_weight8,
)


def test_reed_muller_supports():
    words = reed_muller_weight8()
    assert len(words) == 30 and len(set(words)) == 30
    assert all(len(w) == 8 for w in words)
    meets = {len(set(a) & set(b)) for i, a in enumerate(words) for b in words[i + 1:]}
    assert meets == {0, 4}


def test_lambda16_minimal_vectors():
    v = lambda16_min_vectors()
    check_min_vectors(v, 4320, LAMBDA16_COSINES)
    support = np.count_nonzero(v, axis=1)
    assert np.count_nonzero(support == 2) == 480
    assert np.count_nonzero(support == 8) == 3840
    assert set(np.unique(v * v).tolist()) == {0, 1, 4}
    dots = v @ v.T
    assert set(np.diag(dots).tolist()) == {8}
    assert dots[~np.eye(4320, dtype=bool)].max() == 4


def test_e8_minimal_vectors():
    check_min_vectors(e8_min_vectors(), 240, E8_COSINES)


def test_check_rejects_a_wrong_set():
    v = lambda16_min_vectors()
    with pytest.raises(ValueError):
        check_min_vectors(v[:-1], 4320, LAMBDA16_COSINES)
    bad = v.copy()
    bad[0] = bad[1]
    with pytest.raises(ValueError):
        check_min_vectors(bad, 4320, LAMBDA16_COSINES)
    with pytest.raises(ValueError):
        check_min_vectors(v, 4320, E8_COSINES)


def test_rational_unit_rows_keep_cosines():
    v = lambda16_min_vectors()[::37]
    rows = rational_unit_rows(v)
    assert all(sum(x * x for x in r) == 1 for r in rows)
    assert all(x.denominator in (1, 2, 4) for r in rows for x in r)
    for i in range(0, len(rows), 7):
        for j in range(len(rows)):
            dot = sum(a * b for a, b in zip(rows[i], rows[j]))
            assert dot == Fraction(int(v[i] @ v[j]), 8)
    floats = np.array([[float(x) for x in r] for r in rows])
    assert np.all(np.sum(floats * floats, axis=1) == 1.0)
