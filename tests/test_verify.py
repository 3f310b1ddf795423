"""Certification: verdicts, spectra, contact degrees, antipodality."""

import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from kissgram import verify
from kissgram.cosines import snap_value
from kissgram.errors import MixedModeEntries, NonUnitVector
from kissgram.fileio import certificate_text
from kissgram.gram import DEFAULT_TOLS, GramState, is_psd
from kissgram.rational import cosine_factors, exact_cosines
from kissgram.refconfigs import generate
from kissgram.verify import (
    Certificate,
    SpectrumEntry,
    spectrum_report,
    verify_gram,
    verify_vectors,
)

F = Fraction


def brute_force_contact_degrees(vectors: np.ndarray) -> list[int]:
    """Neighbor counts at the maximal cosine, straight from coordinates."""
    g = vectors @ vectors.T
    m = len(g)
    off = ~np.eye(m, dtype=bool)
    gmax = g[off].max()
    return [int(np.sum(np.abs(g[i][np.arange(m) != i] - gmax) <= 1e-9)) for i in range(m)]


def test_e8_certificate_matches_brute_force():
    built = generate("E8Roots")
    cert = verify_gram(built.gram)
    assert cert.verdict == "Pass"
    assert cert.sphere_count == 240
    assert cert.mode == "rational"
    assert cert.max_cosine_text() == "1/2"
    assert cert.rank == 8
    expected = brute_force_contact_degrees(built.vectors)
    assert set(expected) == {56}
    assert cert.contact_degrees == tuple(expected)


def test_e8_spectrum_multiplicities_from_direct_tabulation():
    built = generate("E8Roots")
    cert = verify_gram(built.gram)
    got = {entry.cosine.display(): entry.multiplicity for entry in cert.cosine_spectrum}
    g = built.vectors @ built.vectors.T
    iu = np.triu_indices(240, k=1)
    vals, counts = np.unique(np.round(g[iu], 9), return_counts=True)
    expected = {"-1": 0, "-1/2": 0, "0": 0, "1/2": 0}
    for v, c in zip(vals, counts):
        label = {-1.0: "-1", -0.5: "-1/2", 0.0: "0", 0.5: "1/2"}[float(v)]
        expected[label] += int(c)
    assert got == expected


def test_corrupted_hexagon_fails_cap():
    bad = generate("Hexagon").gram.entries.copy()
    bad[0, 1] = bad[1, 0] = 0.6
    cert = verify_gram(GramState(dim=2, entries=bad))
    assert cert.verdict == "Fail"
    assert cert.fail_reason == "CosineCapViolation"


def test_cross_polytope_x24_certificate():
    built = generate("CrossPolytope(24)")
    cert = verify_gram(built.gram)
    assert cert.verdict == "Pass"
    assert cert.sphere_count == 48
    assert cert.max_cosine_text() == "0"


def test_verify_vectors_antipodal_pair():
    cert = verify_vectors(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert cert.verdict == "Pass"
    assert cert.sphere_count == 2
    assert cert.unit_norm_max_error == 0.0


def test_verify_vectors_icosahedron_max_cosine():
    built = generate("Icosahedron")
    cert = verify_vectors(built.vectors, 3)
    assert cert.verdict == "Pass"
    assert cert.max_cosine == pytest.approx(1 / math.sqrt(5), abs=1e-9)


def test_verify_vectors_random_twenty_in_three_dims_fails():
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((20, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    cert = verify_vectors(vs, 3)
    assert cert.verdict == "Fail"
    assert cert.fail_reason == "CosineCapViolation"


def test_verify_vectors_rejects_non_unit_rows():
    with pytest.raises(NonUnitVector):
        verify_vectors(np.array([[1.0, 0.0], [0.0, 1.1]]))


def test_spectrum_examples():
    hexagon = verify_gram(generate("Hexagon").gram)
    assert {(e.cosine.display(), e.multiplicity) for e in hexagon.cosine_spectrum} == {
        ("-1", 3), ("-1/2", 6), ("1/2", 6)}
    x4 = verify_gram(generate("CrossPolytope(4)").gram)
    assert {(e.cosine.display(), e.multiplicity) for e in x4.cosine_spectrum} == {
        ("-1", 4), ("0", 24)}


def test_spectrum_clusters_and_snaps_in_float_mode():
    g = np.eye(3)
    g[0, 1] = g[1, 0] = 0.5 + 4e-8   # within cluster tolerance of 1/2
    g[0, 2] = g[2, 0] = 0.5 - 4e-8
    g[1, 2] = g[2, 1] = -0.25
    entries = spectrum_report(GramState(dim=3, entries=g))
    assert [(e.cosine.display(), e.multiplicity) for e in entries] == [
        ("-1/4", 1), ("1/2", 2)]


def test_rational_and_float_verdicts_agree_on_rational_instances():
    for name in ("Hexagon", "CrossPolytope(4)", "D4Roots", "E8Roots", "Simplex(5)"):
        built = generate(name)
        exact_cert = verify_gram(built.gram, mode="rational")
        float_cert = verify_gram(built.gram.as_float(), mode="float")
        assert exact_cert.verdict == float_cert.verdict == "Pass"
        assert exact_cert.rank == float_cert.rank
        assert float(exact_cert.max_cosine) == pytest.approx(float_cert.max_cosine)


def test_float_verification_of_a_rational_gram_reads_floats_only(monkeypatch):
    import kissgram.gram

    def refuse(matrix):
        raise AssertionError("exact pivots in float mode")

    monkeypatch.setattr(kissgram.gram, "exact_ldlt", refuse)
    monkeypatch.setattr(verify, "exact_ldlt", refuse)
    state = generate("E8Roots").gram
    assert state.exact is not None
    assert verify_gram(state, mode="float") == verify_gram(state.as_float())


def exact_state(matrix: list[list[Fraction]], dim: int) -> GramState:
    """A rational state from a Fraction matrix, over its common denominator."""
    scale = math.lcm(*(x.denominator for row in matrix for x in row))
    return GramState.from_exact(dim, [[int(x * scale) for x in row] for row in matrix], scale)


def test_verify_gram_rational_hexagon():
    table = [F(1), F(1, 2), F(-1, 2), F(-1), F(-1, 2), F(1, 2)]
    hexagon = [[table[(i - j) % 6] for j in range(6)] for i in range(6)]
    cert = verify_gram(exact_state(hexagon, 2))
    assert cert.max_cosine_exact == F(1, 2)
    assert cert.psd is True
    assert cert.rank == 2


def test_verify_gram_rational_cross_polytope_x4():
    m = [[F(0)] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = F(1)
        m[i][(i + 4) % 8] = F(-1)
    cert = verify_gram(exact_state(m, 4))
    assert cert.max_cosine_exact == F(0)
    assert cert.psd is True
    assert cert.rank == 4


def test_verify_gram_rational_quarter_cosine_configuration():
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
    cert = verify_gram(exact_state(gram, 8))
    floats = np.array([[float(x) for x in row] for row in gram])
    w = np.linalg.eigvalsh(floats)
    assert cert.psd == (w[0] >= -1e-9)
    assert cert.rank == np.linalg.matrix_rank(floats, tol=1e-9)
    assert float(cert.max_cosine_exact) == pytest.approx(
        floats[~np.eye(m, dtype=bool)].max())


def test_rational_contact_degrees_need_exact_equality():
    # 1/2 - 10^-12 is within the float contact tolerance of 1/2, but it is not 1/2.
    near = F(1, 2) - F(1, 10**12)
    gram = [[F(1), F(1, 2), near], [F(1, 2), F(1), F(0)], [near, F(0), F(1)]]
    cert = verify_gram(exact_state(gram, 3))
    assert cert.verdict == "Pass"
    assert [(e.cosine.display(), e.multiplicity) for e in cert.cosine_spectrum][-1] == ("1/2", 1)
    assert cert.contact_degrees == (1, 1, 0)
    assert certificate_text(cert).endswith("contact-degrees: 1x2 0\n")


def test_rational_asymmetry_is_found_on_numerators():
    # Both off-diagonals round to the float 1/3; only the numerators differ.
    d = 3 * 10**20
    cert = verify_gram(GramState.from_exact(2, [[d, 10**20], [10**20 + 1, d]], d))
    assert cert.fail_reason == "NotSymmetric"


@pytest.mark.parametrize("huge", [4, 3 * 10**25])
@pytest.mark.parametrize("block_rows", [None, 1])
def test_rational_gram_numerators_beyond_the_scale(huge, block_rows, monkeypatch):
    # A Gram file may hold cosines outside [-1, 1], below -1 and past int64
    # too; they are certified as they stand, each counted once.
    if block_rows is not None:
        monkeypatch.setattr(verify, "BLOCK_ROWS", block_rows)
    g = [[2, -huge, 5, -huge], [-huge, 2, -3, 1], [5, -3, 2, -huge], [-huge, 1, -huge, 2]]
    cert = verify_gram(GramState.from_exact(2, g, 2))
    assert [(e.cosine.exact, e.multiplicity) for e in cert.cosine_spectrum] == [
        (F(-huge, 2), 3), (F(-3, 2), 1), (F(1, 2), 1), (F(5, 2), 1)]
    assert cert.max_cosine_exact == F(5, 2) and cert.contact_degrees == (1, 0, 1, 0)
    assert cert.fail_reason == "CosineCapViolation"


def test_rational_mode_requires_exact_entries():
    state = generate("Icosahedron").gram
    with pytest.raises(MixedModeEntries):
        verify_gram(state, mode="rational")


def test_rational_vectors_with_irrational_cosine_are_non_unit():
    # Norm product 1 * 3 is not a square: the cosine -1/sqrt(3) is irrational,
    # so the exact rows cannot all be unit.
    rows = [[1, 0, 0], [-1, 1, 1]]
    raw = np.array(rows, dtype=float)
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert verify_vectors(unit, 3).passed
    with pytest.raises(NonUnitVector):
        verify_vectors(unit, 3, mode="rational", exact=rows)


def test_antipodality_flag():
    assert verify_gram(generate("Hexagon").gram).non_antipodal is False
    assert verify_gram(generate("Simplex(4)").gram).non_antipodal is True


def test_certificate_is_reproducible():
    from kissgram.fileio import certificate_text

    built = generate("D4Roots")
    a = certificate_text(verify_gram(built.gram))
    b = certificate_text(verify_gram(built.gram))
    assert a == b


def test_unit_diagonal_violation_detected():
    g = np.eye(3)
    g[2, 2] = 0.5
    cert = verify_gram(GramState(dim=3, entries=g))
    assert cert.verdict == "Fail"
    assert cert.fail_reason == "UnitDiagonalViolation"


def test_verify_vectors_rejects_non_finite_rows():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonUnitVector):
            verify_vectors(np.array([[1.0, 0.0], [bad, 0.0]]))


# --- The blockwise float path against a dense reference ----------------------

def loop_spectrum(g: np.ndarray) -> tuple[SpectrumEntry, ...]:
    """Sort every upper-triangle value, split at gaps above 1e-7, snap each mean."""
    m = len(g)
    if m < 2:
        return ()
    values = np.sort(g[np.triu_indices(m, k=1)])
    entries = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > 1e-7:
            cluster = values[start:k]
            entries.append(SpectrumEntry(snap_value(float(cluster.mean())), len(cluster)))
            start = k
    return tuple(entries)


def dense_float_certificate(vectors: np.ndarray, dim: int | None = None) -> Certificate:
    """Float certificate from the dense m x m Gram, computed here without the
    verifier: the largest off-diagonal cosine, contact degrees and
    antipodality over the whole matrix, the Cholesky PSD check, the
    eigenvalue rank and the per-value clustering loop."""
    v = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(v, axis=1)
    max_err = float(np.abs(norms - 1.0).max()) if len(v) else 0.0
    unit = v / norms[:, None]
    g = unit @ unit.T
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)
    m = len(g)
    dim = dim if dim is not None else v.shape[1]
    off = g[~np.eye(m, dtype=bool)]
    top = float(off.max()) if m > 1 else -1.0
    contacts = np.abs(g - top) <= 1e-9
    np.fill_diagonal(contacts, False)
    psd = is_psd(g, DEFAULT_TOLS.psd)
    rank = int(np.count_nonzero(np.linalg.eigvalsh(g) > DEFAULT_TOLS.rank)) if m else 0
    reasons = [reason for reason, failed in (("CosineCapViolation", top > 0.5 + 1e-9),
                                             ("NotPositiveSemidefinite", not psd),
                                             ("RankExceedsDimension", rank > dim)) if failed]
    return Certificate(
        mode="float", sphere_count=m, dim=dim, max_cosine=top, max_cosine_exact=None,
        psd=psd, rank=rank, unit_norm_max_error=max_err, cosine_spectrum=loop_spectrum(g),
        contact_degrees=tuple(int(c) for c in contacts.sum(axis=1)),
        non_antipodal=not np.any(np.abs(off + 1.0) <= 1e-9),
        verdict="Fail" if reasons else "Pass", fail_reason=reasons[0] if reasons else None)


def _rotated(vectors: np.ndarray, seed: int, ambient: int | None = None) -> np.ndarray:
    """The rows in a random orthonormal frame of R^ambient (float noise on every cosine)."""
    n = vectors.shape[1]
    ambient = ambient or n
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((ambient, ambient)))
    return vectors @ q[:n]


def _separated(count: int, dim: int, seed: int) -> np.ndarray:
    """Random unit vectors, each kept only if its cosines to the earlier ones are <= 1/2."""
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    while len(rows) < count:
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        if all(x @ r <= 0.5 for r in rows):
            rows.append(x)
    return np.array(rows)


def _blocks_with_late_maximum() -> np.ndarray:
    """Twelve rows in R^12 whose largest cosine, 0.4, lies in the second and
    third 4-row blocks; the first block peaks at 0.2."""
    v = np.eye(12)
    for i, j, c in ((2, 3, 0.2), (5, 9, 0.4), (10, 11, 0.4)):
        v[j] = c * v[i] + math.sqrt(1 - c * c) * np.eye(12)[j]
    return v


def _noisy_e8(scale: float, seed: int) -> np.ndarray:
    """E8 roots jittered so that each exact cosine becomes a cloud of values
    whose sparse tails split off as clusters of their own."""
    v = generate("E8Roots").vectors
    v = v + scale * np.random.default_rng(seed).standard_normal(v.shape)
    return v / np.linalg.norm(v, axis=1)[:, None]


def _equivalence_cases():
    e8 = generate("E8Roots").vectors
    block = verify.BLOCK_ROWS
    rng = np.random.default_rng(5)
    twenty = rng.standard_normal((20, 3))
    return {
        "icosahedron": (generate("Icosahedron").vectors, 3),
        "e8": (e8, 8),
        "d4": (generate("D4Roots").vectors, 4),
        "rotated-e8": (_rotated(e8, 1), 8),
        "random-pass": (_separated(20, 6, 2), 6),
        "random-cap-violation": (twenty / np.linalg.norm(twenty, axis=1)[:, None], 3),
        "random-rank-exceeds-dimension": (_separated(20, 6, 3), 5),
        "rank-deficient": (_rotated(generate("Icosahedron").vectors, 4, ambient=6), 6),
        "antipodal-pair": (np.array([[1.0, 0.0], [-1.0, 0.0]]), 2),
        "rotated-antipodal-pair": (_rotated(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), 6), 3),
        "empty": (np.zeros((0, 3)), 3),
        "single": (np.array([[0.6, 0.8]]), 2),
        "block-minus-one": (_rotated(e8[:block - 1], 7), 8),
        "block": (_rotated(e8[:block], 8), 8),
        "block-plus-one": (_rotated(e8[:block + 1], 9), 8),
        "late-maximum": (_blocks_with_late_maximum(), 12),
        "noisy-e8": (_noisy_e8(1e-6, 10), 8),
    }


EQUIVALENCE_CASES = _equivalence_cases()


@pytest.mark.parametrize("block_rows", [None, 4])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_blockwise_certificate_equals_dense(name, block_rows, monkeypatch):
    vectors, dim = EQUIVALENCE_CASES[name]
    if block_rows is not None:
        monkeypatch.setattr(verify, "BLOCK_ROWS", block_rows)
    expected = certificate_text(dense_float_certificate(vectors, dim))
    assert certificate_text(verify_vectors(vectors, dim)) == expected


def test_equivalence_cases_cover_every_verdict():
    reasons = {dense_float_certificate(v, d).fail_reason for v, d in EQUIVALENCE_CASES.values()}
    assert reasons == {None, "CosineCapViolation", "RankExceedsDimension"}
    assert dense_float_certificate(*EQUIVALENCE_CASES["rank-deficient"]).rank == 3
    assert not dense_float_certificate(*EQUIVALENCE_CASES["rotated-antipodal-pair"]).non_antipodal
    spectrum = dense_float_certificate(*EQUIVALENCE_CASES["icosahedron"]).cosine_spectrum
    assert [e.cosine.display() for e in spectrum] == ["-1", "-0.447213595", "0.447213595"]
    # Jitter splits some clouds into several clusters, so the merge across
    # blocks has chains to follow.
    assert len(dense_float_certificate(*EQUIVALENCE_CASES["noisy-e8"]).cosine_spectrum) > 8


def test_spectrum_report_agrees_with_per_value_loop():
    # Cluster means are summed in another order, so they may differ in the
    # last bits; their rendering and the multiplicities may not.
    eps = 8 * np.finfo(float).eps
    for vectors, _ in EQUIVALENCE_CASES.values():
        v = vectors / np.linalg.norm(vectors, axis=1)[:, None] if len(vectors) else vectors
        g = v @ v.T
        np.fill_diagonal(g, 1.0)
        got = spectrum_report(GramState(dim=v.shape[1], entries=g))
        expected = loop_spectrum(g)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert (a.cosine.display(), a.multiplicity) == (b.cosine.display(), b.multiplicity)
            assert math.isclose(a.cosine.value, b.cosine.value, rel_tol=eps, abs_tol=eps)


def test_walker_produces_each_block_once_when_the_maximum_comes_first():
    # Distinct directions of {-1, 0, 1}^8; rows 0 and 1 hold the largest
    # cosine, 7 / sqrt(56), which later blocks may repeat but not exceed.
    block = verify.BLOCK_ROWS
    m = 3 * block + 5
    directions = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=8)
                           if any(d) and d[0] == 0.0])
    rng = np.random.default_rng(13)
    v = np.vstack([[1.0] * 8, [1.0] * 7 + [0.0],
                   directions[rng.choice(len(directions), size=m - 2, replace=False)]])
    v /= np.linalg.norm(v, axis=1)[:, None]
    produced = []

    def rows(a, b):
        produced.append((a, b))
        return v[a:b] @ v[a:].T

    cert = verify._certificate("float", rows, m, 8, 1.0, True, 8, DEFAULT_TOLS, [], None)
    assert produced == [(a, min(a + block, m)) for a in range(0, m, block)]
    dense = dense_float_certificate(v)
    assert cert.max_cosine == pytest.approx(7 / math.sqrt(56), abs=1e-12)
    assert cert.max_cosine_text() == dense.max_cosine_text()
    assert cert.contact_degrees == dense.contact_degrees
    assert ([(e.cosine.display(), e.multiplicity) for e in cert.cosine_spectrum]
            == [(e.cosine.display(), e.multiplicity) for e in dense.cosine_spectrum])


def _rise_within_tolerance(delta: float) -> np.ndarray:
    """Twelve unit rows in R^12 with cosine 0.4 in the first 4-row block
    (rows 1, 2) and 0.4 + delta in the second (rows 5, 6)."""
    v = np.eye(12)
    for i, j, c in ((1, 2, 0.4), (5, 6, 0.4 + delta)):
        v[j] = c * v[i] + math.sqrt(1 - c * c) * np.eye(12)[j]
    return v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("delta, again", [(0.0, []), (5e-10, [(0, 4)]), (1e-9, []),
                                          (2e-9, [])])
def test_walker_recounts_the_blocks_before_a_rise_within_tolerance(delta, again, monkeypatch):
    # Only a rise by at most CONTACT_TOL leaves the first block's 0.4 a
    # contact of the final maximum, so only then is that block produced again.
    monkeypatch.setattr(verify, "BLOCK_ROWS", 4)
    v = _rise_within_tolerance(delta)
    assert certificate_text(verify_vectors(v, 12)) == certificate_text(dense_float_certificate(v))
    produced = []

    def rows(a, b):
        produced.append((a, b))
        return v[a:b] @ v[a:].T

    verify._walk(rows, 12, 1.0, False)
    assert produced == [(0, 4), (4, 8), (8, 12)] + again


def test_float_contacts_count_as_the_subtract_and_abs_rule():
    # Row 0 holds the maximum and values 0-3 ulp either side of
    # top - CONTACT_TOL, for random tops and for tops that put that boundary
    # on a power of two or near zero; every other value lies far below.
    tol = verify.CONTACT_TOL
    rng = np.random.default_rng(31)
    tops = [*rng.uniform(-1.0, 1.0, 300), 0.0, 1.0, -1.0, tol, 0.5 + tol, 0.25 + tol, 0.4 + 5e-10]
    for top in map(float, tops):
        xs = [top - tol]
        for _ in range(3):
            xs = [math.nextafter(xs[0], -math.inf), *xs, math.nextafter(xs[-1], math.inf)]
        xs = np.array([x for x in xs if x <= top])
        block = np.full((len(xs) + 2, len(xs) + 2), top - 1.0)
        block[0, 1:] = top, *xs
        hits = (np.abs(xs - top) <= tol).astype(int)
        degrees = verify._walk(lambda a, b: block[a:b, a:].copy(), len(block), 1.0, False)[3]
        assert degrees.tolist() == [1 + hits.sum(), 1, *hits]


@pytest.mark.parametrize("block_rows", [None, 2])
def test_float_maximum_zero_prints_without_sign(block_rows, monkeypatch):
    # CrossPolytope(2), whose largest cosine is 0: a sort may put -0.0 before
    # or after 0.0, so every sign pattern of the zeros must read alike.
    if block_rows is not None:
        monkeypatch.setattr(verify, "BLOCK_ROWS", block_rows)
    pairs = ((0, 2), (0, 3), (1, 2), (1, 3))
    texts = set()
    for signs in itertools.product((0.0, -0.0), repeat=len(pairs)):
        g = np.array([[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0], [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]])
        for (i, j), zero in zip(pairs, signs):
            g[i, j] = g[j, i] = zero
        texts.add(certificate_text(verify_gram(GramState(dim=2, entries=g))))
    assert len(texts) == 1
    assert "max-cosine: 0\n" in texts.pop()


def test_blockwise_verification_allocates_no_dense_gram():
    # Random distinct directions of {-1, 0, 1}^8: the certificate lists every
    # distinct cosine, and this set has few, so the peak is working memory.
    directions = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=8) if any(d)])
    rng = np.random.default_rng(11)
    v = directions[rng.choice(len(directions), size=4000, replace=False)]
    v /= np.linalg.norm(v, axis=1)[:, None]
    dense_bytes = 8 * len(v) ** 2
    tracemalloc.start()
    try:
        cert = verify_vectors(v, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.sphere_count == 4000 and cert.rank == 8
    assert sum(e.multiplicity for e in cert.cosine_spectrum) == 4000 * 3999 // 2
    assert peak < dense_bytes / 4
    # Each block is used in place: the walk holds one block, not a copy beside it.
    assert peak < 1.5 * 8 * verify.BLOCK_ROWS * len(v)


# --- The streaming rational path against the dense exact Gram ----------------

def _dyadic_unit_rows(rows, half: int) -> tuple[list[list[int]], int]:
    """Integer rows of norm^2 2 half^2 to exact unit rows, as integer numerators
    over D = 2 half: each coordinate pair (a, b) becomes (a - b, a + b) / D, a
    scaled 45-degree rotation."""
    return [[x for a, b in zip(row[0::2], row[1::2]) for x in (a - b, a + b)]
            for row in rows], 2 * half


def _numerators(rows) -> tuple[list[list[int]], int]:
    """Exact rows as integer numerators over the least common denominator."""
    scale = math.lcm(*(F(x).denominator for row in rows for x in row))
    return [[int(F(x) * scale) for x in row] for row in rows], scale


def _lambda16_rows() -> list[list[int]]:
    """The 4320 minimal vectors of Barnes-Wall Lambda16, norm^2 8: (+-2)^2 0^14,
    and (+-1)^8 with an even number of minus signs on each support
    {x in F_2^4 : a.x + b = 1}, a != 0, of a weight-8 Reed-Muller word."""
    rows = []
    for i, j in itertools.combinations(range(16), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 16
            v[i], v[j] = si, sj
            rows.append(v)
    points = list(itertools.product((0, 1), repeat=4))
    for a in points[1:]:
        for b in (0, 1):
            support = [i for i, x in enumerate(points) if (np.dot(a, x) + b) % 2]
            for signs in itertools.product((1, -1), repeat=8):
                if signs.count(-1) % 2 == 0:
                    v = [0] * 16
                    for i, sign in zip(support, signs):
                        v[i] = sign
                    rows.append(v)
    return rows


def test_lambda16_float_file_reads_below_twice_its_array(tmp_path):
    # numpy's C reader holds no whole-file text, line list or per-token floats.
    from kissgram.fileio import read_vector_file, write_vector_file

    vectors = np.array(_lambda16_rows()) / math.sqrt(8)
    path = tmp_path / "l16.vec"
    write_vector_file(path, vectors)
    tracemalloc.start()
    try:
        doc = read_vector_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.vectors.tobytes() == vectors.tobytes()
    assert peak < 2 * vectors.nbytes


def _rotations(count: int) -> list[list[Fraction]]:
    """(cos kt, sin kt) for k < count, with cos t = 3/5 and sin t = 4/5: the
    last row has denominator 5^(count - 1)."""
    rows, (c, s) = [], (F(1), F(0))
    for _ in range(count):
        rows.append([c, s])
        c, s = c * F(3, 5) - s * F(4, 5), c * F(4, 5) + s * F(3, 5)
    return rows


def _rational_cases():
    block = verify.BLOCK_ROWS
    rng = np.random.default_rng(21)
    # The generators' unit roots, back on the integer lattices: norm^2 8 and 2.
    e8 = np.rint(math.sqrt(8) * generate("E8Roots").vectors).astype(int).tolist()
    d4 = np.rint(math.sqrt(2) * generate("D4Roots").vectors).astype(int).tolist()
    l16 = _lambda16_rows()

    def l16_subset(count):
        return _dyadic_unit_rows([l16[i] for i in np.sort(rng.choice(len(l16), count,
                                                                      replace=False))], 2)

    d4_unit = _dyadic_unit_rows(d4, 1)
    # (numerators, D, dim): the rows are numerators / D.
    return {
        "e8-shuffled": (*_dyadic_unit_rows([e8[i] for i in rng.permutation(240)], 2), 8),
        "d4": (*d4_unit, 4),
        "lambda16-subset": (*l16_subset(300), 16),
        "cap-violation": ([[5, 0, 0], [3, 4, 0], [0, 0, 5]], 5, 3),
        "empty": ([], 1, 3),
        "single": ([[3, 4]], 5, 2),
        "antipodal-pair": ([[1, 0], [-1, 0]], 1, 2),
        "block-minus-one": (*l16_subset(block - 1), 16),
        "block": (*l16_subset(block), 16),
        "block-plus-one": (*l16_subset(block + 1), 16),
        "python-ints": (*_numerators(_rotations(15)), 2),
        # Unit rows times 1 + (k mod 4) 10^-7: unit within 1e-6, norms not equal.
        "unequal-norms": ([[(10**7 + k % 4) * x for x in row] for k, row in enumerate(d4_unit[0])],
                          10**7 * d4_unit[1], 4),
    }


RATIONAL_CASES = _rational_cases()


def _floats(numerators, scale: int, dim: int) -> np.ndarray:
    """The float view: each numerator / D, correctly rounded."""
    return np.array([[x / scale for x in row] for row in numerators]).reshape(-1, dim)


def dense_exact_certificate(numerators, scale: int, dim: int) -> Certificate:
    """``verify_gram`` of the dense exact Gram that ``exact_cosines`` builds."""
    norms = np.linalg.norm(_floats(numerators, scale, dim), axis=1)
    max_err = float(np.abs(norms - 1.0).max()) if len(numerators) else 0.0
    gram_scale, gram = exact_cosines(numerators)
    cert = verify_gram(GramState.from_exact(dim, gram, gram_scale))
    return dataclasses.replace(cert, unit_norm_max_error=max_err)


@pytest.mark.parametrize("block_rows", [None, 4])
@pytest.mark.parametrize("name", sorted(RATIONAL_CASES))
def test_streaming_rational_certificate_equals_dense(name, block_rows, monkeypatch):
    numerators, scale, dim = RATIONAL_CASES[name]
    expected = certificate_text(dense_exact_certificate(numerators, scale, dim))
    if block_rows is not None:
        monkeypatch.setattr(verify, "BLOCK_ROWS", block_rows)
    got = verify_vectors(_floats(numerators, scale, dim), dim, mode="rational",
                         exact=numerators)
    assert certificate_text(got) == expected


def test_rational_cases_cover_verdicts_and_both_integer_paths():
    certs = {name: dense_exact_certificate(*case) for name, case in RATIONAL_CASES.items()}
    assert {c.fail_reason for c in certs.values()} == {None, "CosineCapViolation"}
    assert not certs["antipodal-pair"].non_antipodal
    assert certs["lambda16-subset"].rank == 16
    # Denominators 5^14 put n max|Z|^2 past 2^63: the blocks are Python ints.
    assert cosine_factors(RATIONAL_CASES["python-ints"][0])[0].dtype == object
    assert cosine_factors(RATIONAL_CASES["lambda16-subset"][0])[0].dtype == np.int64


def test_rational_maximum_rising_after_the_first_block(monkeypatch):
    # Twelve exact unit rows over D = 25 * 13 * 17; the largest cosine per
    # 4-row block rises from 7/25 to 5/13 to 8/17, which the last block holds twice.
    scale = 25 * 13 * 17
    rows = [[scale * (i == j) for j in range(12)] for i in range(12)]
    for i, j, (c, s) in ((2, 3, (F(7, 25), F(24, 25))), (5, 9, (F(5, 13), F(12, 13))),
                         (8, 10, (F(8, 17), F(15, 17))), (9, 11, (F(8, 17), F(15, 17)))):
        rows[j] = [int(scale * (c * F(x, scale) + s * (k == j))) for k, x in enumerate(rows[i])]
    cosines = {(i, j): F(sum(x * y for x, y in zip(rows[i], rows[j])), scale * scale)
               for i, j in itertools.combinations(range(12), 2)}
    top = max(cosines.values())
    assert top == F(8, 17) and max(cosines[p] for p in cosines if p[0] < 4) < top
    degrees = [sum(c == top for p, c in cosines.items() if i in p) for i in range(12)]
    spectrum = sorted(Counter(cosines.values()).items())
    monkeypatch.setattr(verify, "BLOCK_ROWS", 4)
    cert = verify_vectors(_floats(rows, scale, 12), 12, mode="rational", exact=rows)
    assert cert.max_cosine_exact == top
    assert cert.contact_degrees == tuple(degrees)
    assert [(e.cosine.exact, e.multiplicity) for e in cert.cosine_spectrum] == spectrum


def test_streaming_rational_verification_allocates_no_dense_gram():
    rng = np.random.default_rng(12)
    l16 = _lambda16_rows()
    rows, scale = _dyadic_unit_rows([l16[i] for i in rng.choice(len(l16), 4000, replace=False)], 2)
    floats = _floats(rows, scale, 16)
    dense_bytes = 8 * len(rows) ** 2  # the pointer array alone of an m x m object Gram
    tracemalloc.start()
    try:
        cert = verify_vectors(floats, 16, mode="rational", exact=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.sphere_count == 4000 and cert.rank == 16
    assert sum(e.multiplicity for e in cert.cosine_spectrum) == 4000 * 3999 // 2
    assert peak < dense_bytes / 4


def test_rational_blockwise_verification_holds_one_block():
    # The 1120 directions of {-1, 0, 1}^8 with four non-zero entries, exact over
    # D = 2.  Each rational block is scaled in place: no temporaries beside it.
    rows = [list(d) for d in itertools.product((-1, 0, 1), repeat=8)
            if sum(map(abs, d)) == 4]
    tracemalloc.start()
    try:
        verify_vectors(np.array(rows, dtype=float) / 2, 8, mode="rational", exact=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1120
    assert peak < 1.5 * 8 * verify.BLOCK_ROWS * len(rows)
