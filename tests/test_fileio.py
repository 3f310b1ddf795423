"""File formats: round trips, strict parsing, checkpoint integrity."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kissgram.checkpoint import load_checkpoint, save_checkpoint
from kissgram.corrector import CorrectorPolicy
from kissgram.errors import CheckpointError, ConfigError, ParseError
from kissgram.fileio import (
    VECTOR_MAGIC,
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
from kissgram.filler import ActionSpec, DiscreteSet, SearchTree
from kissgram.game import GameConfig, TrainResult, train_loop
from kissgram.gram import GramState, gram_from_vectors
from kissgram.rational import cosine_factors, format_rational
from kissgram.refconfigs import generate
from kissgram.runconfig import load_run_config
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


def _reference_vectors(dim: int, count: int, body: str):
    """A float vector file's rows by the documented grammar, one ``float()``
    per token: the array, or the ParseError message (after the path) that
    ``read_vector_file`` must raise."""
    rows = [line for line in (raw.split("#", 1)[0].strip() for raw in body.split("\n")) if line]
    if len(rows) != count:
        return f"header claims {count} rows, found {len(rows)}"
    values = []
    for i, row in enumerate(rows, 1):
        tokens = row.split()
        if len(tokens) != dim:
            return f"row {i} has {len(tokens)} entries, expected {dim}"
        for token in tokens:
            try:
                if "_" in token or not token.isascii():
                    raise ValueError
                values.append(float(token))
            except ValueError:
                return f"row {i}: could not convert string to float: {token!r}"
    vectors = np.array(values, dtype=float).reshape(count, dim)
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    return f"row {bad[0] + 1} has a non-finite entry" if bad.size else vectors


VECTOR_CORPUS = [  # (dim, count, body)
    (2, 2, "1 0\n0 1\n"),
    (2, 2, "# lead\n\n1 0   # trailing\n   \n# mid\n0 1\n# end"),
    (2, 2, "1 0\r\n0 1\r\n"),
    (2, 2, "1 0\n0 1"),
    (3, 1, "\t+1.5\t-2.25\t+0\t\n"),
    (2, 1, "0.0 -0.0\n"),
    (2, 1, "-0 +0.000\n"),
    (3, 1, "0.10000000000000001 0.30000000000000004 -0.70710678118654757\n"),
    (2, 1, "0.1234567890123456789012345678901234567890 "
           "-9007199254740993.000000000000000000000001\n"),
    (2, 1, "2.2250738585072011e-308 2.2250738585072012e-308\n"),
    (3, 1, "4.9406564584124654e-324 -1e-320 2.4703282292062328e-324\n"),
    (3, 1, "1e-400 1E5 .5\n"),
    (2, 1, "1e400 0\n"),
    (2, 2, "1 0\nnan 0\n"),
    (2, 2, "1 0\n0 -inf\n"),
    (2, 1, "Infinity 0\n"),
    (2, 1, "1 0\n0 1\n"),
    (2, 3, "1 0\n0 1\n"),
    (2, 3, ""),
    (2, 0, ""),
    (2, 0, "# only a comment\n\n"),
    (2, 0, "1 0\n"),
    (2, 2, "1 0\n0\n"),
    (2, 2, "1 0\n0 1 0\n"),
    (2, 1, "1 0 0\n"),
    (2, 1, "1 0x1\n"),
    (2, 1, "1 1d0\n"),
    (2, 1, "1 1,5\n"),
    (2, 1, "1 --1\n"),
    (2, 1, "1_0 1\n"),
    (2, 1, "1 0_5\n"),
    (2, 1, "\u0661 0\n"),
    (2, 1, "1 \uff10\n"),
    (2, 2, "1\x0c0\n0\x0b1\n"),
    (2, 2, "1 0\x0c\n\x0c\n0 1\n"),
    (2, 1, "1\x850\n"),
    (2, 1, "1\u20280\n"),
    (2, 2, "1\u20290\n0\x1c1\n"),
    (2, 1, "1\xa00\u3000\n"),
    (2, 1, "1\r0\n"),
    (2, 2, "1 0\r0 1\n"),
    (2, 1, "1 0\x00\n"),
]


def _write_vectors(path, dim: int, count: int, body: str) -> None:
    path.write_bytes(f"{VECTOR_MAGIC} dim={dim} count={count} mode=float\n{body}".encode())


def _assert_reads_as_reference(path, dim: int, count: int, body: str):
    expected = _reference_vectors(dim, count, body)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            read_vector_file(path)
        assert str(info.value) == f"{path}: {expected}"
        return
    doc = read_vector_file(path)
    assert doc.mode == "float" and doc.dim == dim and doc.count == count
    assert doc.vectors.shape == (count, dim) and doc.vectors.dtype == np.float64
    assert doc.vectors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim, count, body", VECTOR_CORPUS)
def test_float_vector_file_reads_as_the_per_token_reference(tmp_path, dim, count, body):
    path = tmp_path / "v.vec"
    _write_vectors(path, dim, count, body)
    _assert_reads_as_reference(path, dim, count, body)


def test_float_vector_files_with_mixed_separators_read_as_the_reference(tmp_path):
    # Random literals in every form the writer or a user may give, joined by
    # every in-row separator and line ending of the grammar.
    rng = np.random.default_rng(29)
    separators = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u3000",
                  "\r"]
    forms = [repr, format_float, "{:.40g}".format, "{:.3e}".format, "{:+.0f}".format]
    path = tmp_path / "v.vec"
    for _ in range(60):
        count, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        scale = 10.0 ** rng.integers(-320, 300, size=(count, dim))
        values = rng.standard_normal((count, dim)) * scale
        lines = []
        for row in values:
            tokens = [forms[rng.integers(len(forms))](float(x)) for x in row]
            line = "".join(separators[rng.integers(len(separators))] + t for t in tokens)
            lines.append(line + ("\r\n" if rng.integers(2) else "\n"))
        body = "".join(lines)
        _write_vectors(path, dim, count, body)
        _assert_reads_as_reference(path, dim, count, body)


def test_read_vector_file_parses_each_float_token_in_c(tmp_path, monkeypatch):
    # A well-formed float file never reaches the per-row reader.
    import kissgram.fileio as fileio

    def refused(*args):
        raise AssertionError("per-row reader used")

    monkeypatch.setattr(fileio, "_table_rows", refused)
    path = tmp_path / "v.vec"
    vectors = np.random.default_rng(3).standard_normal((50, 7))
    write_vector_file(path, vectors)
    assert read_vector_file(path).vectors.tobytes() == vectors.tobytes()


def test_unreadable_vector_file_is_a_parse_error(tmp_path):
    path = tmp_path / "v.vec"
    path.write_bytes(f"{VECTOR_MAGIC} dim=2 count=1 mode=float\n1 \xff\n".encode("latin-1"))
    with pytest.raises(ParseError, match="can't decode"):
        read_vector_file(path)
    with pytest.raises(ParseError):
        read_vector_file(tmp_path)


def test_repeated_header_key_is_a_parse_error(tmp_path):
    path = tmp_path / "v.vec"
    path.write_text(f"{VECTOR_MAGIC} dim=2 count=1 mode=float dim=3\n1 0 0\n")
    with pytest.raises(ParseError, match="repeated header key 'dim'"):
        read_vector_file(path)
    with pytest.raises(ParseError, match="repeated header key 'mode'"):
        parse_gram_text("kiss-gram v1 dim=1 count=1 mode=float mode=float\n1\n", "g")


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


def test_float_gram_text_labels_signed_zeros_apart():
    # -0.0 == 0.0 as a dict key, but the two format differently.
    entries = np.array([[1.0, 0.0, -0.0, 0.5],
                        [0.0, 1.0, -0.5, -0.0],
                        [-0.0, -0.5, 1.0, 0.1 + 0.2],
                        [0.5, -0.0, 0.1 + 0.2, 1.0]])
    state = GramState(dim=4, entries=entries)
    rows = gram_text(state, "float").splitlines()[1:]
    assert rows == [" ".join(format_float(float(x)) for x in entries[i, i:]) for i in range(4)]
    assert rows[0].split()[1:3] == ["0.0000000000000000e+00", "-0.0000000000000000e+00"]
    assert np.array_equal(np.signbit(parse_gram_text(gram_text(state, "float"), "g").entries),
                          np.signbit(entries))


def test_float_gram_text_leaves_numpy_ma_unimported():
    # np.unique without counts imports numpy.ma on first use, a cost every float
    # search would pay once when it writes its best Gram.
    code = ("import sys\n"
            "from kissgram.fileio import gram_text\n"
            "from kissgram.refconfigs import generate\n"
            "gram_text(generate('D4Roots').gram.as_float(), 'float')\n"
            "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    cfg = GameConfig(dim=2, action=ActionSpec(c1=DiscreteSet((-1.0, -0.5, 0.0, 0.5))),
                     rounds=2, rng_seed=7)
    trained = train_loop(cfg, episodes=2)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, config_echo="[run]\ndim = 2\n", rng=rng,
                    run=TrainResult(tree=tree, policy=policy, best=trained.best, baseline=3.5,
                                    rewards=[5, 6]))
    ck = load_checkpoint(path)
    assert ck.config_echo == "[run]\ndim = 2\n"
    assert ck.rng_state == rng.bit_generator.state
    assert ck.tree.summary() == tree.summary()
    assert np.array_equal(ck.weights, policy.weights)
    assert ck.baseline == 3.5
    assert ck.rewards == [5, 6]
    assert ck.best.team_reward == trained.best.team_reward
    assert np.array_equal(ck.best.final_state.entries, trained.best.final_state.entries)


def test_checkpoint_detects_corruption(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, config_echo="x", rng=rng,
                    run=TrainResult(tree=SearchTree(), policy=CorrectorPolicy(weights=np.zeros(2))))
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


def test_run_config_defaults_are_the_dataclass_defaults(tmp_path):
    # runconfig._SCHEMA and the dataclasses each write every default.
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 3\n")
    assert load_run_config(path).game == GameConfig(
        dim=3, action=ActionSpec(c1=DiscreteSet.from_exact([-2, -1, 0, 1], 2)))


def test_run_config_echo_reparses_identically(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 4\nrng-seed = 12\nepisodes = 7\n"
                    "[seed]\nsource = generator:D4Roots\nrows = 4\n"
                    "[action]\nc1 = -1, -1/2, 1/2\nc2 = cap:1/2\n"
                    "[corrector]\ntemperature = 0.5\n")
    run = load_run_config(path)
    echo = run.echo
    path2 = tmp_path / "echo.cfg"
    path2.write_text(echo)
    run2 = load_run_config(path2)
    assert run2.echo == echo
    assert run2.game == run.game


def test_run_config_echo_is_pinned(tmp_path):
    # Every key set away from its default, several in a form the echo
    # canonicalizes.  Rational mode rules out a membership list, so ``mode``
    # and ``cstar`` leave their defaults in two configs that share the rest.
    write_vector_file(tmp_path / "allowed.vec", np.eye(3))
    run = ("rng-seed = 11\nepisodes = 7\nrounds = 2\nfill-budget = 9\n"
           "rollouts-per-move = 64\nstagnation-window = 4\nexploration = 0.75\n"
           "checkpoint-every = 3\nreassemble = on\ndebug-revalidate = true\n"
           "out-dir = elsewhere/out\n"
           "[seed]\nsource = generator:CrossPolytope(3)\nrows = 4\n")
    rest = ("[corrector]\ntemperature = 0.5\nmax-delete-fraction = 1e-1\n"
            "learning-rate = 0.125\nprotect-seed = off\n"
            "[tolerances]\npsd = 2e-9\nrank = 1E-6\ncosine = 3e-10\nsnap = 5e-8\n")
    echo_run = ("rng-seed = 11\nepisodes = 7\nrounds = 2\nfill-budget = 9\n"
                "rollouts-per-move = 64\nstagnation-window = 4\nexploration = 0.75\n"
                "checkpoint-every = 3\nreassemble = on\ndebug-revalidate = on\n"
                "out-dir = elsewhere/out\n"
                "[seed]\nsource = generator:CrossPolytope(3)\nrows = 4\n")
    echo_rest = ("[corrector]\ntemperature = 0.5\nmax-delete-fraction = 0.1\n"
                 "learning-rate = 0.125\nprotect-seed = off\n"
                 "[tolerances]\npsd = 2e-09\nrank = 1e-06\ncosine = 3e-10\nsnap = 5e-08\n")
    cases = [
        ("[run]\ndim = 3\nmode = rational\n" + run
         + "[action]\nc1 = -1, 0/3, 2/4\nc2 = -1, -1/2, 0, 1/2\n" + rest,
         "[run]\ndim = 3\nmode = rational\n" + echo_run
         + "[action]\nc1 = -1, 0, 1/2\nc2 = -1, -1/2, 0, 1/2\ncstar = none\n" + echo_rest),
        ("[run]\ndim = 3\n" + run
         + "[action]\nc1 = -1, -0.5, 0.0, 0.5\nc2 = cap:1/4\ncstar = file:allowed.vec\n" + rest,
         "[run]\ndim = 3\nmode = float\n" + echo_run
         + "[action]\nc1 = -1.0, -0.5, 0.0, 0.5\nc2 = cap:0.25\ncstar = file:allowed.vec\n"
         + echo_rest),
    ]
    path = tmp_path / "run.cfg"
    for text, echo in cases:
        path.write_text(text)
        assert load_run_config(path).echo == echo


def test_readme_run_configuration_lists_the_schema(tmp_path):
    from kissgram.runconfig import _SCHEMA

    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Run configuration", 1)[1]
    block = section.split("```\n", 2)[1]
    path = tmp_path / "run.cfg"
    path.write_text(block)
    load_run_config(path)
    listed, current = [], None
    for raw in block.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            current = line[1:-1]
        elif line:
            listed.append((current, line.split("=", 1)[0].strip()))
    assert listed == [(section, key) for section, keys in _SCHEMA.items() for key in keys]


def test_run_config_seed_and_cap_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ndim = 8\n[seed]\nsource = generator:E8Roots\nrows = 120\n")
    run = load_run_config(path)
    assert run.game.seed.kind == "generator"
    assert run.game.seed.rows == 120
    path.write_text("[run]\ndim = 2\n[seed]\nsource = nonsense\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
