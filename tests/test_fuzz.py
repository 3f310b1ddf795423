"""Seeded corruption of input files: byte flips and truncations must end in a
documented exit code, never in a traceback.

``verify`` on a corrupted rational Gram or vector file may pass (0), fail (1)
or reject the file (2); a corrupted checkpoint makes ``search --resume``
exit 4; reading a corrupted cosine report or certificate returns a value or
raises ParseError.  Every mutant differs from the original: a flip XORs a
non-zero byte in, and a truncation drops at least the last byte.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from kissgram.cli import main
from kissgram.cosines import simulate_cosine_set
from kissgram.errors import ParseError
from kissgram.fileio import (
    read_certificate,
    read_cosine_report,
    write_certificate,
    write_cosine_report,
    write_gram_file,
    write_vector_file,
)
from kissgram.refconfigs import generate
from kissgram.verify import verify_gram


def mutants(data: bytes, seed: int, flips: int, cuts: int):
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        blob = bytearray(data)
        blob[int(rng.integers(len(blob)))] ^= int(rng.integers(1, 256))
        yield bytes(blob)
    for _ in range(cuts):
        yield data[: int(rng.integers(len(data)))]


def _d4_unit_rows() -> list[list[Fraction]]:
    """D4 roots (+-1, +-1, 0, 0) rotated by 45 degrees in coordinate pairs and
    scaled to exact unit norm: (a, b) -> (a - b, a + b) / 2."""
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * 4
            v[i], v[j] = si, sj
            rows.append([Fraction(x, 2) for a, b in zip(v[0::2], v[1::2])
                         for x in (a - b, a + b)])
    return rows


def _rational_gram(path):
    write_gram_file(path, generate("D4Roots").gram)


def _rational_vectors(path):
    rows = _d4_unit_rows()
    write_vector_file(path, np.array([[float(x) for x in r] for r in rows]), mode="rational",
                      exact_rows=rows)


@pytest.mark.parametrize("write", [_rational_gram, _rational_vectors], ids=["gram", "vectors"])
def test_corrupted_rational_file_verifies_or_exits_2(tmp_path, capsys, write):
    original = tmp_path / "original.txt"
    write(original)
    assert main(["verify", "--in", str(original)]) == 0
    path = tmp_path / "mutant.txt"
    codes = set()
    for blob in mutants(original.read_bytes(), 5, flips=150, cuts=30):
        path.write_bytes(blob)
        codes.add(main(["verify", "--in", str(path)]))
        assert "Traceback" not in capsys.readouterr().err
    assert codes <= {0, 1, 2} and 2 in codes


def _cosine_report(path):
    result = simulate_cosine_set(2, np.array([[1.0, 0.0]]), budget=40,
                                 rng=np.random.default_rng(0))
    write_cosine_report(path, result, dim=2, budget=40)


def _certificate(path):
    write_certificate(path, verify_gram(generate("Hexagon").gram))


@pytest.mark.parametrize("write, read", [(_cosine_report, read_cosine_report),
                                         (_certificate, read_certificate)],
                         ids=["cosine-report", "certificate"])
def test_corrupted_report_or_certificate_reads_or_raises_parse_error(tmp_path, write, read):
    original = tmp_path / "original.txt"
    write(original)
    read(original)
    path = tmp_path / "mutant.txt"
    outcomes = set()
    for blob in mutants(original.read_bytes(), 7, flips=300, cuts=40):
        path.write_bytes(blob)
        try:
            read(path)
            outcomes.add("value")
        except ParseError:
            outcomes.add("ParseError")
    assert outcomes == {"value", "ParseError"}


def test_corrupted_checkpoint_resume_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nmode = rational\nepisodes = 2\nrounds = 2\nout-dir = out\n")
    assert main(["search", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    original = ckpt.read_bytes()
    for blob in mutants(original, 6, flips=40, cuts=20):
        ckpt.write_bytes(blob)
        assert main(["search", "--config", str(cfg), "--resume", str(ckpt)]) == 4
        assert "Traceback" not in capsys.readouterr().err
