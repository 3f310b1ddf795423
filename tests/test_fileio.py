"""File formats: round trips, strict parsing, checkpoint integrity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kissgram.checkpoint import load_checkpoint, save_checkpoint
from kissgram.corrector import CorrectorPolicy
from kissgram.errors import CheckpointError, ConfigError, ParseError
from kissgram.fileio import (
    format_float,
    gram_text,
    parse_gram_text,
    read_cosine_report,
    read_certificate,
    read_gram_file,
    read_vector_file,
    write_certificate,
    write_cosine_report,
    write_gram_file,
    write_vector_file,
)
from kissgram.filler import SearchTree
from kissgram.game import GameConfig, train_loop
from kissgram.gram import gram_from_vectors
from kissgram.rational import cosine_factors, format_rational
from kissgram.refconfigs import generate
from kissgram.runconfig import echo_text, load_run_config
from kissgram.verify import verify_gram

F = Fraction


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = float(rng.uniform(-1, 1)) if rng.integers(2) else float(rng.standard_normal())
        assert float(format_float(x)) == x


def test_vector_file_round_trip_float(tmp_path):
    rng = np.random.default_rng(1)
    for _ in range(10):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        vs = rng.standard_normal((m, n))
        path = tmp_path / "v.vec"
        write_vector_file(path, vs)
        doc = read_vector_file(path)
        assert doc.dim == n and doc.count == m and doc.mode == "float"
        assert np.array_equal(doc.vectors, vs)


def test_vector_file_round_trip_rational(tmp_path):
    rows = [[F(1), F(1, 2)], [F(-1, 3), F(0)]]
    path = tmp_path / "r.vec"
    write_vector_file(path, np.array([[1.0, 0.5], [-1 / 3, 0.0]]), mode="rational",
                      exact_rows=rows)
    doc = read_vector_file(path)
    assert doc.mode == "rational"
    assert doc.exact.tolist() == [[6, 3], [-2, 0]] and doc.exact_scale == 6
    assert np.array_equal(doc.vectors, [[1.0, 0.5], [-1 / 3, 0.0]])


def _fraction_rows(rng, m: int, n: int) -> list[list[Fraction]]:
    """Seeded rational entries with varied and unreduced denominators."""
    return [[F(int(rng.integers(-10**12, 10**12)), int(rng.choice([1, 2, 3, 7, 10**9 + 7,
                                                                     3**30])))
             for _ in range(n)] for _ in range(m)]


def _fraction_reference(rows) -> tuple[np.ndarray, np.ndarray, int]:
    """Float view, numerators and D of exact rows, through ``Fraction``."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return (np.array([[float(x) for x in row] for row in rows]),
            np.array([[int(x * scale) for x in row] for row in rows], dtype=object), scale)


def test_rational_vector_and_gram_files_match_fraction_reference(tmp_path):
    rng = np.random.default_rng(23)
    for trial in range(20):
        m, n = int(rng.integers(0, 9)), int(rng.integers(1, 6))
        rows = _fraction_rows(rng, m, n)
        floats, numerators, scale = _fraction_reference(rows)
        path = tmp_path / "r.vec"
        write_vector_file(path, floats.reshape(m, n), mode="rational", exact_rows=rows)
        doc = read_vector_file(path)
        assert np.array_equal(doc.vectors, floats.reshape(m, n))
        assert doc.exact.shape == (m, n) and doc.exact_scale == scale
        assert doc.exact.tolist() == numerators.reshape(m, n).tolist()

        # A symmetric Gram file from the same entries, written by hand.
        sym = [[rows[min(i, j)][max(i, j) % n] for j in range(m)] for i in range(m)]
        floats, numerators, scale = _fraction_reference(sym)
        text = f"kiss-gram v1 dim={n} count={m} mode=rational\n" + "".join(
            " ".join(format_rational(x) for x in sym[i][i:]) + "\n" for i in range(m))
        state = parse_gram_text(text, "g")
        assert np.array_equal(state.entries, floats.reshape(m, m))
        assert state.exact_scale == scale
        assert state.exact.tolist() == numerators.reshape(m, m).tolist()


def test_rational_files_parse_and_factor_without_fraction(tmp_path, monkeypatch):
    built = generate("D4Roots")
    path = tmp_path / "d4.vec"
    rows = [[F(int(x)) for x in row] for row in np.rint(built.vectors * math.sqrt(2))]
    write_vector_file(path, built.vectors, mode="rational", exact_rows=rows)
    gram = gram_text(built.gram, "rational")
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    doc = read_vector_file(path)
    state = parse_gram_text(gram, "d4")
    assert made == []
    factors = cosine_factors(doc.exact)
    assert made == []
    assert factors is not None and np.array_equal(state.exact, built.gram.exact)


def test_vector_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.vec"
    path.write_text("kiss-vectors v1 dim=2 count=1 mode=float\n"
                    "# a comment line\n"
                    "1.0 0.0  # trailing comment\n")
    doc = read_vector_file(path)
    assert doc.vectors.tolist() == [[1.0, 0.0]]
    path.write_text("kiss-vectors v1 dim=2 count=2 mode=float\n1.0 0.0\n")
    with pytest.raises(ParseError):
        read_vector_file(path)
    path.write_text("wrong header\n")
    with pytest.raises(ParseError):
        read_vector_file(path)
    with pytest.raises(ParseError):
        read_vector_file(tmp_path / "missing.vec")


def test_gram_file_round_trip_float_and_rational(tmp_path):
    rng = np.random.default_rng(2)
    vs = rng.standard_normal((5, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    state = gram_from_vectors(vs, 3)
    path = tmp_path / "g.gram"
    write_gram_file(path, state)
    back = read_gram_file(path)
    assert back.dim == 3 and back.m == 5
    assert np.array_equal(back.entries, state.entries)

    exact_state = generate("D4Roots").gram
    write_gram_file(path, exact_state)
    back = read_gram_file(path)
    assert np.array_equal(back.exact, exact_state.exact)
    assert back.exact_scale == exact_state.exact_scale


def test_gram_file_stores_upper_triangle(tmp_path):
    state = generate("Hexagon").gram
    path = tmp_path / "h.gram"
    write_gram_file(path, state)
    lines = path.read_text().splitlines()
    assert len(lines) == 7
    assert len(lines[1].split()) == 6  # first row: diagonal plus 5 entries
    assert len(lines[6].split()) == 1  # last row: diagonal only


def test_cosine_report_round_trip(tmp_path):
    from kissgram.cosines import simulate_cosine_set

    result = simulate_cosine_set(2, np.array([[1.0, 0.0]]), budget=40,
                                 rng=np.random.default_rng(0))
    path = tmp_path / "c.rep"
    write_cosine_report(path, result, dim=2, budget=40)
    report = read_cosine_report(path)
    assert report.dim == 2 and report.budget == 40
    assert report.converged == result.converged
    assert report.cosine_set.values == result.cosine_set.values
    assert [e.display() for e in report.cosine_set.entries] == \
        [e.display() for e in result.cosine_set.entries]


def test_certificate_round_trip(tmp_path):
    cert = verify_gram(generate("E8Roots").gram)
    path = tmp_path / "e8.cert"
    write_certificate(path, cert)
    back = read_certificate(path)
    assert back["verdict"] == "Pass"
    assert back["sphere-count"] == "240"
    assert back["max-cosine"] == "1/2"
    assert back["spectrum"]["0"] == 15120
    assert back["contact-degrees"] == (56,) * 240


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    tree = SearchTree(exploration=1.25)
    tree.node_visits[b"0123456789abcdef"] = 4
    tree.edge_visits[(b"0123456789abcdef", b"fedcba9876543210")] = 4
    tree.edge_value[(b"0123456789abcdef", b"fedcba9876543210")] = 7.5
    policy = CorrectorPolicy(weights=np.array([0.5, -0.25]), temperature=1.5,
                             max_delete_fraction=0.25)
    from kissgram.filler import ActionSpec, DiscreteSet

    cfg = GameConfig(dim=2, action=ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.0, 0.5))),
                     rounds=2, rng_seed=7)
    trained = train_loop(cfg, episodes=2)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, config_echo="[run]\ndim = 2\n", rng=rng, tree=tree,
                    policy=policy, baseline=3.5, rewards=[5, 6],
                    best=trained.best)
    ck = load_checkpoint(path)
    assert ck.config_echo == "[run]\ndim = 2\n"
    assert ck.rng_state == rng.bit_generator.state
    assert ck.tree.summary() == tree.summary()
    assert np.array_equal(ck.policy.weights, policy.weights)
    assert ck.baseline == 3.5
    assert ck.rewards == [5, 6]
    assert ck.best.team_reward == trained.best.team_reward
    assert np.array_equal(ck.best.final_state.entries, trained.best.final_state.entries)


def test_checkpoint_detects_corruption(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, config_echo="x", rng=rng, tree=SearchTree(),
                    policy=CorrectorPolicy(weights=np.zeros(2)), baseline=0.0,
                    rewards=[], best=None)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.bin")


def test_run_config_defaults_and_strictness(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 3\n")
    run = load_run_config(path)
    assert run.game.dim == 3
    assert run.game.rounds == 5
    assert run.game.action.c1.values == (-1.0, -0.5, 0.0, 0.5)
    assert run.game.action.c1.exact is not None

    path.write_text("[run]\ndim = 3\nnosuchkey = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("[nosuchsection]\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("[run]\ndim = 3\ndim = 4\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("dim = 3\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_run_config_echo_reparses_identically(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 4\nrng-seed = 12\nepisodes = 7\n"
                    "[seed]\nsource = generator:D4Roots\nrows = 4\n"
                    "[action]\nc1 = -1, -1/2, 1/2\nc2 = cap:1/2\n"
                    "[corrector]\ntemperature = 0.5\n")
    run = load_run_config(path)
    echo = echo_text(run)
    path2 = tmp_path / "echo.cfg"
    path2.write_text(echo)
    run2 = load_run_config(path2)
    assert echo_text(run2) == echo
    assert run2.game == run.game


def test_run_config_seed_and_cap_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 8\n[seed]\nsource = generator:E8Roots\nrows = 120\n")
    run = load_run_config(path)
    assert run.game.seed.kind == "generator"
    assert run.game.seed.rows == 120
    path.write_text("[run]\ndim = 2\n[seed]\nsource = nonsense\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
