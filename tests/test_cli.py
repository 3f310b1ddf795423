"""Command-line surface: subcommands, exit codes, reproducibility."""

import hashlib
import itertools
import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from kissgram.checkpoint import MAGIC
from kissgram.cli import build_parser, main
from kissgram.errors import ConfigError, KissError, ParseError
from kissgram.fileio import (
    CERT_MAGIC,
    read_certificate,
    read_cosine_report,
    read_gram_file,
    read_vector_file,
    write_gram_file,
    write_vector_file,
)
from kissgram.refconfigs import _pair_roots, generate
from kissgram.runconfig import load_run_config


def run_cli(*argv) -> int:
    return main(list(argv))


def test_generate_and_verify_cross_polytope(tmp_path, capsys):
    out = tmp_path / "x5.vec"
    assert run_cli("generate", "--name", "CrossPolytope(5)", "--out", str(out)) == 0
    doc = read_vector_file(out)
    assert doc.count == 10 and doc.dim == 5
    assert run_cli("verify", "--in", str(out)) == 0
    report = capsys.readouterr().out
    assert "verdict: Pass" in report


def test_generate_e8_and_verify(tmp_path):
    out = tmp_path / "e8.vec"
    gram_out = tmp_path / "e8.gram"
    assert run_cli("generate", "--name", "E8Roots", "--out", str(out),
                   "--gram-out", str(gram_out)) == 0
    assert read_vector_file(out).count == 240
    assert run_cli("verify", "--in", str(out)) == 0
    assert run_cli("verify", "--in", str(gram_out), "--mode", "rational") == 0


def test_generate_bad_name_exits_3(tmp_path):
    assert run_cli("generate", "--name", "NoSuchThing", "--out", str(tmp_path / "x")) == 3


def test_verify_tampered_file_exits_1(tmp_path):
    out = tmp_path / "hex.vec"
    assert run_cli("generate", "--name", "Hexagon", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    parts = lines[2].split()
    parts[0] = "9.0e-01"  # drag one vector toward another: cap violation
    parts[1] = "4.3589e-01"
    lines[2] = " ".join(parts)
    out.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--in", str(out)) == 1


def test_verify_gram_with_negative_zero_cosines_prints_max_cosine_0(tmp_path, capsys):
    # CrossPolytope(2) as gram_text writes it when its zero cosines are -0.0.
    path = tmp_path / "x2.gram"
    path.write_text("kiss-gram v1 dim=2 count=4 mode=float\n"
                    "1 -1 -0.0 -0.0\n1 -0.0 -0.0\n1 -1\n1\n")
    assert run_cli("verify", "--in", str(path)) == 0
    assert "max-cosine: 0\n" in capsys.readouterr().out


def test_verify_missing_file_exits_2(tmp_path):
    assert run_cli("verify", "--in", str(tmp_path / "nope.vec")) == 2


def test_simulate_cosines_dim_zero_exits_3(tmp_path):
    assert run_cli("simulate-cosines", "--dim", "0", "--budget", "5",
                   "--out", str(tmp_path / "r")) == 3


def test_simulate_cosines_dim2_report(tmp_path):
    out = tmp_path / "c2.rep"
    assert run_cli("simulate-cosines", "--dim", "2", "--budget", "50",
                   "--out", str(out), "--rng-seed", "3") == 0
    report = read_cosine_report(out)
    assert [e.display() for e in report.cosine_set.entries] == ["-1", "-1/2", "1/2"]


def test_search_writes_artifacts_and_certificate(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 6\nrounds = 3\nrng-seed = 2\n"
                   "out-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    out = tmp_path / "out"
    cert = read_certificate(out / "best.cert")
    assert cert["verdict"] == "Pass"
    assert cert["sphere-count"] == "6"
    assert (out / "best.gram").exists()
    assert (out / "best.vectors").exists()
    assert (out / "checkpoint.bin").exists()
    log = (out / "run.log").read_text()
    assert "# effective configuration" in log
    assert "episode 6" in log


def test_run_log_echo_equals_the_checkpoint_echo(tmp_path):
    from kissgram.checkpoint import load_checkpoint

    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 2\nrounds = 2\nrng-seed = 5\nout-dir = out\n"
                   "[action]\nc2 = cap:1/2\n[corrector]\nlearning-rate = 1e-1\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    log = (tmp_path / "out" / "run.log").read_text()
    echo = log.split("# effective configuration\n", 1)[1].split("# episodes\n", 1)[0]
    assert echo == load_checkpoint(tmp_path / "out" / "checkpoint.bin").config_echo


def test_search_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("frobnicate = yes", "norm-convention = inverse"):
        cfg.write_text(f"[run]\ndim = 2\n{line}\n")
        assert run_cli("search", "--config", str(cfg)) == 3


def test_search_corrupted_checkpoint_exits_4(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 4\nrounds = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 0xFF
    ckpt.write_bytes(bytes(blob))
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 4


def test_search_refuses_a_version_1_checkpoint(tmp_path, capsys):
    # Version 1 keyed its tree on another state fingerprint, which no state
    # of a resumed run would match.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 4\nrounds = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    raw = ckpt.read_bytes()[:-32]
    body = MAGIC + struct.pack("<I", 1) + raw[len(MAGIC) + 4:]
    ckpt.write_bytes(body + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 4
    assert "unsupported checkpoint version 1" in capsys.readouterr().err

def test_search_resume_with_different_config_exits_3(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 4\nrounds = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    other = tmp_path / "other.cfg"
    other.write_text("[run]\ndim = 2\nepisodes = 4\nrounds = 3\nout-dir = out2\n")
    assert run_cli("search", "--config", str(other),
                   "--resume", str(tmp_path / "out" / "checkpoint.bin")) == 3


def _search_artifacts(out_dir) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in ("best.gram", "best.cert", "best.vectors", "checkpoint.bin")}


def test_search_is_bit_reproducible(tmp_path):
    blobs = []
    for run in ("a", "b"):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text("[run]\ndim = 3\nepisodes = 8\nrounds = 4\nrng-seed = 5\n"
                       f"out-dir = out_{run}\n")
        assert run_cli("search", "--config", str(cfg)) == 0
        art = _search_artifacts(tmp_path / f"out_{run}")
        art.pop("checkpoint.bin")  # differs only through the echoed out-dir
        blobs.append(art)
    assert blobs[0] == blobs[1]


def test_resume_after_kill_equals_uninterrupted(tmp_path):
    config_text = ("[run]\ndim = 3\nepisodes = 14\nrounds = 4\nrng-seed = 6\n"
                   "checkpoint-every = 2\nout-dir = out\n")
    straight = tmp_path / "straight"
    straight.mkdir()
    (straight / "run.cfg").write_text(config_text)
    assert run_cli("search", "--config", str(straight / "run.cfg")) == 0

    killed = tmp_path / "killed"
    killed.mkdir()
    (killed / "run.cfg").write_text(config_text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kissgram.cli", "search", "--config",
         str(killed / "run.cfg")],
        cwd=str(killed), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ckpt = killed / "out" / "checkpoint.bin"
    deadline = time.time() + 60
    while time.time() < deadline and not ckpt.exists():
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    assert ckpt.exists(), "no checkpoint was written before the kill"
    assert run_cli("search", "--config", str(killed / "run.cfg"),
                   "--resume", str(ckpt)) == 0

    left = _search_artifacts(straight / "out")
    right = _search_artifacts(killed / "out")
    left.pop("checkpoint.bin")
    right.pop("checkpoint.bin")
    assert left == right
    # Both configs write out-dir = out, so the checkpoints agree section by section.
    from kissgram.checkpoint import load_checkpoint

    a = load_checkpoint(straight / "out" / "checkpoint.bin")
    b = load_checkpoint(killed / "out" / "checkpoint.bin")
    assert a.rewards == b.rewards
    assert a.rng_state == b.rng_state
    assert a.tree.summary() == b.tree.summary()
    assert np.array_equal(a.weights, b.weights)
    assert a.best.team_reward == b.best.team_reward
    assert np.array_equal(a.best.final_state.entries, b.best.final_state.entries)


def test_copied_run_directory_resumes(tmp_path):
    # The echo a checkpoint must match holds the paths as written, so a run
    # directory moved elsewhere resumes from its own checkpoint.
    import shutil

    from kissgram.checkpoint import save_checkpoint
    from kissgram.game import train_loop
    from kissgram.runconfig import load_run_config

    first = tmp_path / "a"
    first.mkdir()
    write_vector_file(first / "seed.vec", np.eye(3)[:2])
    cfg = first / "r.cfg"
    cfg.write_text("[run]\ndim = 3\nepisodes = 6\nrounds = 3\nrng-seed = 4\n"
                   "checkpoint-every = 2\nout-dir = runs/out\n[seed]\nsource = file:seed.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    straight = _search_artifacts(first / "runs" / "out")
    run = load_run_config(cfg)
    rng = np.random.default_rng(run.game.rng_seed)
    half = train_loop(run.game, 2, rng=rng)
    for name in ("best.gram", "best.cert", "best.vectors"):
        (first / "runs" / "out" / name).unlink()
    save_checkpoint(first / "runs" / "out" / "checkpoint.bin", config_echo=run.echo,
                    rng=rng, run=half)
    copy = tmp_path / "b"
    shutil.copytree(first, copy)
    shutil.rmtree(first)  # the copy must not reach back into the original
    assert run_cli("search", "--config", str(copy / "r.cfg"),
                   "--resume", str(copy / "runs" / "out" / "checkpoint.bin")) == 0
    assert _search_artifacts(copy / "runs" / "out") == straight


def test_thread_count_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("KISSGRAM_THREADS", "not-a-number")
    assert run_cli("generate", "--name", "Hexagon", "--out", str(tmp_path / "h.vec")) == 3
    monkeypatch.setenv("KISSGRAM_THREADS", "2")
    assert run_cli("generate", "--name", "Hexagon", "--out", str(tmp_path / "h.vec")) == 0


def test_search_with_membership_constraint_config(tmp_path):
    # The high-dimension pipeline shape: seed rows and candidate columns both
    # anchored to a supplied vector file.
    assert run_cli("generate", "--name", "E8Roots", "--out", str(tmp_path / "e8.vec")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 8\nepisodes = 1\nrounds = 2\nrng-seed = 1\n"
                   "out-dir = out\n"
                   "[seed]\nsource = file:e8.vec\nrows = 60\n"
                   "[action]\nc1 = -1, -1/2, 0, 1/2\ncstar = file:e8.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    cert = read_certificate(tmp_path / "out" / "best.cert")
    assert cert["verdict"] == "Pass"
    assert cert["sphere-count"] == "240"


def test_member_list_search_is_unchanged_by_debug_revalidation(tmp_path):
    # The seed [r0, -r0, r4] has a singular leading 3x3 block, and a
    # member-list run never reorders its rows into a basis: revalidation
    # must check the extended state without factorizing that block.
    roots = np.array(_pair_roots(3), dtype=float) / np.sqrt(2)
    write_vector_file(tmp_path / "allowed.vec", roots)
    write_vector_file(tmp_path / "seed.vec", np.array([roots[0], -roots[0], roots[4]]))
    grams = []
    for flag in ("off", "on"):
        cfg = tmp_path / f"{flag}.cfg"
        cfg.write_text("[run]\ndim = 3\nepisodes = 2\nrounds = 2\nrng-seed = 1\n"
                       f"out-dir = out-{flag}\ndebug-revalidate = {flag}\n"
                       "[seed]\nsource = file:seed.vec\n"
                       "[action]\nc1 = -1, -1/2, 0, 1/2\ncstar = file:allowed.vec\n")
        assert run_cli("search", "--config", str(cfg)) == 0
        cert = read_certificate(tmp_path / f"out-{flag}" / "best.cert")
        assert (cert["verdict"], cert["sphere-count"]) == ("Pass", "12")
        grams.append((tmp_path / f"out-{flag}" / "best.gram").read_bytes())
    assert grams[0] == grams[1]


def test_search_checks_the_cstar_file_before_any_episode(tmp_path, capsys):
    (tmp_path / "zero.vec").write_text("kiss-vectors v1 dim=2 count=2\n1 0\n0 0\n")
    write_vector_file(tmp_path / "d3.vec", np.eye(3))
    cfg = tmp_path / "run.cfg"
    for name, code, message in (
            ("zero.vec", 1, "verification failure: zero vector cannot be normalized"),
            ("d3.vec", 3, "config error: cstar file dimension 3 disagrees with dim 2")):
        cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 1\nout-dir = out\n"
                       f"[action]\ncstar = file:{name}\n")
        assert run_cli("search", "--config", str(cfg)) == code
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "out").exists()


def test_search_from_a_seed_whose_smallest_eigenvalue_is_below_the_rank_tolerance(tmp_path,
                                                                                  capsys):
    # Rows (1, 0) and (c, sqrt(1 - c^2)) with c = -1 + 7e-8: the smallest
    # eigenvalue is 7.0e-8, below the rank tolerance 1e-7, but the squared
    # Cholesky pivots are 1 and 1.4e-7.  factorize and full_rank_prefix apply
    # the same pivot rule, so the lifted fill phase accepts this basis.
    c = -1 + 7e-8
    (tmp_path / "near.vec").write_text(
        f"kiss-vectors v1 dim=2 count=2\n1.0 0.0\n{c!r} {math.sqrt(1 - c * c)!r}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 2\nout-dir = out\n"
                   "[seed]\nsource = file:near.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["best team reward: 2",
                                                        "certificate: Pass"]


def test_search_from_a_seed_path_with_parentheses(tmp_path):
    (tmp_path / "seeds (v2)").mkdir()
    write_vector_file(tmp_path / "seeds (v2)" / "hex(1).vec", np.eye(2)[:1])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 2\nout-dir = out\n"
                   "[seed]\nsource = file:seeds (v2)/hex(1).vec\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    assert read_certificate(tmp_path / "out" / "best.cert")["sphere-count"] == "6"


def test_search_generator_seeded_e8_reaches_240(tmp_path):
    cfg = tmp_path / "e8.cfg"
    cfg.write_text("[run]\ndim = 8\nepisodes = 1\nrounds = 4\nrng-seed = 3\n"
                   "out-dir = out\n"
                   "[seed]\nsource = generator:E8Roots\nrows = 120\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    cert = read_certificate(tmp_path / "out" / "best.cert")
    assert cert["sphere-count"] == "240"
    assert cert["verdict"] == "Pass"


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_search_with_reassembly_from_120_e8_rows_reaches_240(tmp_path, mode):
    grams = []
    for run in range(2):
        cfg = tmp_path / f"e8-{run}.cfg"
        cfg.write_text(f"[run]\ndim = 8\nmode = {mode}\nepisodes = 2\nrounds = 4\n"
                       f"reassemble = on\nout-dir = out-{run}\n"
                       "[seed]\nsource = generator:E8Roots\nrows = 120\n")
        assert run_cli("search", "--config", str(cfg)) == 0
        cert = read_certificate(tmp_path / f"out-{run}" / "best.cert")
        assert (cert["verdict"], cert["sphere-count"]) == ("Pass", "240")
        grams.append((tmp_path / f"out-{run}" / "best.gram").read_bytes())
    assert grams[0] == grams[1]


def test_simulate_cosines_seed_file_dimension_check(tmp_path):
    assert run_cli("generate", "--name", "Hexagon", "--out", str(tmp_path / "h.vec")) == 0
    assert run_cli("simulate-cosines", "--dim", "3", "--budget", "5",
                   "--seed-file", str(tmp_path / "h.vec"),
                   "--out", str(tmp_path / "r")) == 3
    assert run_cli("simulate-cosines", "--dim", "2", "--budget", "10",
                   "--seed-file", str(tmp_path / "h.vec"),
                   "--out", str(tmp_path / "r")) == 0


@pytest.mark.parametrize("kind", ["vectors", "gram"])
def test_verify_float_file_in_rational_mode_exits_3(tmp_path, capsys, kind):
    from kissgram.fileio import write_gram_file
    from kissgram.gram import GramState

    path = tmp_path / f"eye.{kind}"
    if kind == "vectors":
        write_vector_file(path, np.eye(2))
    else:
        write_gram_file(path, GramState(dim=2, entries=np.eye(2)), mode="float")
    assert run_cli("verify", "--in", str(path), "--mode", "rational") == 3
    noun = kind.rstrip("s")
    assert capsys.readouterr().err == (f"config error: {path}: float {noun} file cannot be "
                                       f"verified rationally\n")


def test_search_rational_mode_writes_exact_artifacts(tmp_path):
    cfg = tmp_path / "rat.cfg"
    cfg.write_text("[run]\ndim = 2\nmode = rational\nepisodes = 4\nrounds = 3\n"
                   "rng-seed = 0\nout-dir = out\n"
                   "[action]\nc1 = -1, -1/2, 0, 1/2\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    cert = read_certificate(tmp_path / "out" / "best.cert")
    assert cert["mode"] == "rational"
    assert cert["sphere-count"] == "6"
    assert cert["max-cosine"] == "1/2"
    gram_head = (tmp_path / "out" / "best.gram").read_text().splitlines()[0]
    assert "mode=rational" in gram_head


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["vectors", "gram"])
def test_verify_non_finite_entry_exits_2(tmp_path, capsys, kind, token):
    from kissgram.fileio import write_gram_file
    from kissgram.refconfigs import generate

    path = tmp_path / f"hex.{kind}"
    if kind == "vectors":
        assert run_cli("generate", "--name", "Hexagon", "--out", str(path)) == 0
    else:
        write_gram_file(path, generate("Hexagon").gram, mode="float")
    lines = path.read_text().splitlines()
    parts = lines[2].split()
    parts[-1] = token
    lines[2] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--in", str(path)) == 2
    assert "row 2 has a non-finite entry" in capsys.readouterr().err


def test_python_m_kissgram_verifies_e8(tmp_path):
    out = tmp_path / "e8.vec"
    assert run_cli("generate", "--name", "E8Roots", "--out", str(out)) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run([sys.executable, "-m", "kissgram", "verify", "--in", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: Pass" in proc.stdout
    assert "sphere-count: 240" in proc.stdout


def test_importing_main_module_runs_nothing():
    # Tools that import every submodule (pkgutil walks) must not start the CLI.
    import importlib

    assert importlib.import_module("kissgram.__main__").main is main


@pytest.mark.parametrize("kind", ["gram", "vectors"])
def test_verify_unknown_header_mode_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "exact.txt"
    path.write_text(f"kiss-{kind} v1 dim=2 count=2 mode=exact\n1 0\n" +
                    ("1\n" if kind == "gram" else "0 1\n"))
    assert run_cli("verify", "--in", str(path)) == 2
    assert "unknown mode 'exact'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "kiss-vectors v1 dim=-2 count=0\n",
    "kiss-vectors v1 dim=0 count=0\n",
    "kiss-gram v1 dim=-1 count=1\n1\n",
    "kiss-gram v1 dim=2 count=-1\n",
])
def test_verify_bad_header_dim_or_count_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run_cli("verify", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert "needs dim >= 1 and count >= 0" in err and "Traceback" not in err


HEADER_CLAIMS = [  # (file text, the row-width error it must raise)
    ("kiss-vectors v1 dim=99999999999999999999 count=1 mode=float\n1 0\n",
     "row 1 has 2 entries, expected 99999999999999999999"),
    ("kiss-vectors v1 dim=3000000000 count=1 mode=float\n1 0\n",
     "row 1 has 2 entries, expected 3000000000"),
    ("kiss-gram v1 dim=1 count=100000 mode=float\n" + "1\n" * 100000,
     "row 1 has 1 entries, expected 100000"),
]


@pytest.mark.parametrize("text, message", HEADER_CLAIMS,
                         ids=["dim-1e20", "dim-3e9", "gram-1e5"])
def test_header_claims_never_size_an_allocation(tmp_path, capsys, text, message):
    path = tmp_path / "claim.txt"
    path.write_text(text)
    assert run_cli("verify", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_file_seed_header_claims_never_size_an_allocation(tmp_path, capsys):
    (tmp_path / "s.vec").write_text(HEADER_CLAIMS[1][0])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 1\nout-dir = out\n"
                   "[seed]\nsource = file:s.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 2
    assert HEADER_CLAIMS[1][1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", ["99999999999999999999", "9223372036854775807"])
def test_verify_empty_file_with_unshapeable_dim_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "empty.vec"
    path.write_text(f"kiss-vectors v1 dim={dim} count=0\n")
    assert run_cli("verify", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert f"dim={dim} exceeds numpy's array limits" in err and "Traceback" not in err


def _write_input(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _verifies(header):
    """A site run by ``verify`` on a file with the literal in its header."""
    return lambda tmp_path, literal, twin: run_cli(
        "verify", "--in", str(_write_input(tmp_path, header(literal, int(twin)))))


def _reads(read, text):
    """A site run by ``read`` on a file with the literal in ``text``."""
    def site(tmp_path, literal, twin):
        read(_write_input(tmp_path, text.format(literal)))
        return 0
    return site


def _threads(tmp_path, literal, twin):
    with mock.patch.dict(os.environ, {"KISSGRAM_THREADS": literal}):
        return run_cli("generate", "--name", "Hexagon", "--out", str(tmp_path / "h.vec"))


def _argument(option):
    def site(tmp_path, literal, twin):
        argv = {"--dim": "2", "--budget": "1", "--rng-seed": "0", "--ucb-c": "1", option: literal}
        build_parser().parse_args(["simulate-cosines", "--out", "r.rep",
                                   *itertools.chain(*argv.items())])
        return 0
    return site


_REPORT_HEADER = "kiss-cosines v1 dim=2 budget={} samples=1 best=1 converged=1\n"
# Each site that reads a number from a file, config, argument or the
# environment: how to run it on a literal, and what a malformed literal ends in.
LITERAL_SITES = {
    "vector-header": (_verifies(lambda v, n: f"kiss-vectors v1 dim={v} count=1\n"
                                             f"1{' 0' * (n - 1)}\n"), 2),
    "gram-header": (_verifies(lambda v, n: f"kiss-gram v1 dim={v} count=1\n1\n"), 2),
    "report-header": (_reads(read_cosine_report, _REPORT_HEADER), ParseError),
    "gram-row": (_reads(read_gram_file, "kiss-gram v1 dim=1 count=1\n{}\n"), ParseError),
    "report-value": (_reads(read_cosine_report, _REPORT_HEADER.format(1) +
                            "{} exact=- freq=1.000000 stable=1\n"), ParseError),
    "run-length": (_reads(read_certificate, f"{CERT_MAGIC}\ncontact-degrees: 2x{{}}\n"),
                   ParseError),
    "multiplicity": (_reads(read_certificate, f"{CERT_MAGIC}\nspectrum:\n  1/2: {{}}\n"),
                     ParseError),
    "config-int": (_reads(load_run_config, "[run]\nrng-seed = {}\n"), ConfigError),
    "config-float": (_reads(load_run_config, "[run]\nexploration = {}\n"), ConfigError),
    "generator": (lambda tmp_path, literal, twin: run_cli(
        "generate", "--name", f"Simplex({literal})", "--out", str(tmp_path / "s.vec")), 3),
    "threads": (_threads, 3),
    **{option: (_argument(option), 3)
       for option in ("--dim", "--budget", "--rng-seed", "--ucb-c")},
}


def _outcome(site, *args):
    try:
        return site(*args)
    except SystemExit as exc:
        return exc.code
    except KissError as exc:
        return type(exc)


@pytest.mark.parametrize("literal, twin", [("1_0", "10"), ("\u0662", "2"), ("\u00b2", "2"),
                                           ("\uff15", "5")], ids=["underscore", "arabic-indic",
                                                                   "superscript", "fullwidth"])
@pytest.mark.parametrize("name", LITERAL_SITES)
def test_every_number_site_takes_ascii_literals_only(tmp_path, capsys, name, literal, twin):
    site, failure = LITERAL_SITES[name]
    assert _outcome(site, tmp_path, twin, twin) == 0
    assert _outcome(site, tmp_path, literal, twin) == failure
    assert "Traceback" not in capsys.readouterr().err


def _table_files(tmp_path):
    """A float and a rational vector file and Gram file of the 3-dim cross polytope."""
    built = generate("CrossPolytope(3)")
    exact_rows = [[Fraction(int(x)) for x in row] for row in built.vectors]
    write_vector_file(tmp_path / "float.vec", built.vectors)
    write_vector_file(tmp_path / "rational.vec", built.vectors, "rational", exact_rows)
    write_gram_file(tmp_path / "float.gram", built.gram, "float")
    write_gram_file(tmp_path / "rational.gram", built.gram, "rational")
    return [tmp_path / name for name in ("float.vec", "rational.vec", "float.gram",
                                         "rational.gram")]


def test_verify_finds_the_header_after_comments_and_blank_lines(tmp_path, capsys):
    for path in _table_files(tmp_path):
        assert run_cli("verify", "--in", str(path)) == 0
        certificate = capsys.readouterr().out
        commented = tmp_path / f"commented-{path.name}"
        commented.write_text("# published configuration\n\n" + path.read_text())
        assert run_cli("verify", "--in", str(commented)) == 0
        assert capsys.readouterr().out == certificate


def test_non_utf8_run_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"[run]\ndim = 2\xff\n")
    assert run_cli("search", "--config", str(cfg)) == 3
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["simulate-cosines", "--dim", "x", "--budget", "1",
                                   "--out", "r.rep"], ["verify"], ["no-such-command"]])
def test_usage_errors_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 0


@pytest.mark.parametrize("kind", ["gram", "vectors"])
def test_verify_repeated_header_key_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "twice.txt"
    path.write_text(f"kiss-{kind} v1 dim=2 count=1 mode=float dim=3\n" +
                    ("1\n" if kind == "gram" else "1 0 0\n"))
    assert run_cli("verify", "--in", str(path)) == 2
    assert "repeated header key 'dim'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "kiss-vectors v1 dim=2 count=1 mode=rational\n0 \u0661\n",
    "kiss-gram v1 dim=1 count=2 mode=rational\n\u0661 0\n1\n",
])
def test_verify_non_ascii_rational_digit_exits_2(tmp_path, capsys, text):
    path = tmp_path / "arabic.txt"
    path.write_text(text, encoding="utf-8")
    assert run_cli("verify", "--in", str(path)) == 2
    assert "not a rational literal: '\u0661'" in capsys.readouterr().err


def test_search_non_ascii_rational_cosine_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 1\nout-dir = out\n"
                   "[action]\nc1 = -1, -\u0661/2, 0, 1/2\n", encoding="utf-8")
    assert run_cli("search", "--config", str(cfg)) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["1/0", "1" + "0" * 400])
@pytest.mark.parametrize("text", [
    "kiss-vectors v1 dim=2 count=2 mode=rational\n1 0\n{} 1\n",
    "kiss-gram v1 dim=2 count=2 mode=rational\n1 {}\n1\n",
])
def test_verify_unrepresentable_rational_entry_exits_2(tmp_path, capsys, text, token):
    path = tmp_path / "bad.txt"
    path.write_text(text.format(token))
    assert run_cli("verify", "--in", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rational_vectors_with_irrational_cosine_exits_1(tmp_path, capsys):
    # The second row's squared norm is within 1e-6 of 1 but is not a rational
    # square, so its cosine with the first, 1/2 over that norm, is irrational.
    # Exactly unit rational rows have rational cosines: the claim fails.
    path = tmp_path / "irrational.vec"
    path.write_text("kiss-vectors v1 dim=2 count=2 mode=rational\n1 0\n"
                    "1/2 866025403784439/1000000000000000\n")
    assert run_cli("verify", "--in", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure:") and "irrational" in err


def _rewrite_checkpoint_section(path, tag, edit):
    """Replace one section payload by ``edit(payload)``, with a valid checksum."""
    raw = path.read_bytes()[:-32]
    offset = len(MAGIC) + 4
    out = [raw[:offset]]
    while offset < len(raw):
        name = raw[offset:offset + 4]
        (length,) = struct.unpack_from("<Q", raw, offset + 4)
        payload = raw[offset + 12:offset + 12 + length]
        offset += 12 + length
        if name.decode("ascii") == tag:
            payload = edit(payload)
        out += [name, struct.pack("<Q", len(payload)), payload]
    body = b"".join(out)
    path.write_bytes(body + hashlib.sha256(body).digest())


def _edit_json(change):
    def edit(payload):
        doc = json.loads(payload)
        return json.dumps(change(doc)).encode("utf-8")
    return edit


def _extra_gram_row(doc):
    doc["gram"] += "1\n"
    return doc


def _nodes_as_list(doc):
    doc["nodes"] = list(doc["nodes"])
    return doc


def _rational_entry_x(doc):
    lines = doc["gram"].splitlines()
    lines[1] = lines[1].replace("1", "x/2", 1)
    doc["gram"] = "\n".join(lines) + "\n"
    return doc


@pytest.mark.parametrize("mode, tag, edit", [
    ("float", "BEST", _edit_json(_extra_gram_row)),
    ("float", "BEST", lambda payload: b"[1, 2]"),
    ("float", "TREE", _edit_json(_nodes_as_list)),
    ("rational", "BEST", _edit_json(_rational_entry_x)),
    ("float", "RNGS", lambda payload: b"[1]"),
], ids=["gram-rows-over-count", "best-json-list", "tree-nodes-list", "rational-entry-x",
        "rng-state-list"])
def test_search_malformed_checkpoint_payload_exits_4(tmp_path, capsys, mode, tag, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\ndim = 2\nmode = {mode}\nepisodes = 2\nrounds = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    _rewrite_checkpoint_section(ckpt, tag, edit)
    capsys.readouterr()
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "Traceback" not in err



def _checkpoint_after(tmp_path, episodes: int):
    """A d3 run of 4 episodes: its config, the artifacts of the uninterrupted
    run, and a checkpoint written after its first ``episodes``."""
    from kissgram.checkpoint import save_checkpoint
    from kissgram.game import train_loop
    from kissgram.runconfig import load_run_config

    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 3\nepisodes = 4\nrounds = 3\nrng-seed = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    straight = _search_artifacts(tmp_path / "out")
    run = load_run_config(cfg)
    rng = np.random.default_rng(run.game.rng_seed)
    half = train_loop(run.game, episodes, rng=rng)
    ckpt = tmp_path / "half.bin"
    save_checkpoint(ckpt, config_echo=run.echo, rng=rng, run=half)
    return cfg, ckpt, straight


def test_resume_accepts_a_policy_section_with_protected_prefix(tmp_path):
    # Earlier checkpoints wrote the policy's protected_prefix (always 0) into POLI.
    cfg, ckpt, straight = _checkpoint_after(tmp_path, 2)
    _rewrite_checkpoint_section(ckpt, "POLI",
                                _edit_json(lambda doc: {**doc, "protected_prefix": 0}))
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 0
    assert _search_artifacts(tmp_path / "out") == straight


def test_resume_takes_the_policy_settings_from_the_config(tmp_path):
    # Earlier checkpoints also copied the policy's settings into POLI; a
    # resume reads only the weights and the baseline, whatever those say.
    cfg, ckpt, straight = _checkpoint_after(tmp_path, 1)
    _rewrite_checkpoint_section(ckpt, "POLI", _edit_json(
        lambda doc: {**doc, "temperature": math.nan, "max_delete_fraction": 0.9}))
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 0
    assert _search_artifacts(tmp_path / "out") == straight


@pytest.mark.parametrize("tag, edit, message", [
    ("POLI", _edit_json(lambda doc: {**doc, "weights": [math.nan] + doc["weights"][1:]}),
     "not finite"),
    ("POLI", _edit_json(lambda doc: {**doc, "baseline": math.nan}), "not finite"),
    ("BEST", _edit_json(lambda doc: {**doc, "team_reward": 999}), "best team reward 999"),
    ("TREE", _edit_json(lambda doc: {**doc, "exploration": 0.5}), "exploration 0.5"),
    ("TREE", _edit_json(lambda doc: {**doc, "edges": [[*doc["edges"][0][:2], 0, 1.0],
                                                       *doc["edges"][1:]]}), "below 1"),
    ("TREE", _edit_json(lambda doc: {**doc, "edges": [[*doc["edges"][0][:2], -3, 1.0],
                                                       *doc["edges"][1:]]}), "below 1"),
    ("TREE", _edit_json(lambda doc: {**doc, "nodes": {k: 0 for k in doc["nodes"]}}), "below 1"),
    ("TREE", _edit_json(lambda doc: {**doc, "edges": [[*doc["edges"][0][:3], math.nan],
                                                       *doc["edges"][1:]]}), "not finite"),
    ("TREE", _edit_json(lambda doc: {**doc, "edges": [[*doc["edges"][0][:3], -math.inf],
                                                       *doc["edges"][1:]]}), "not finite"),
], ids=["weight-nan", "baseline-nan", "best-reward-999", "tree-exploration",
        "edge-visits-0", "edge-visits-negative", "node-visits-0", "edge-value-nan",
        "edge-value-inf"])
def test_resume_refuses_learned_values_that_cannot_hold(tmp_path, capsys, tag, edit, message):
    cfg, ckpt, _ = _checkpoint_after(tmp_path, 1)
    _rewrite_checkpoint_section(ckpt, tag, edit)
    capsys.readouterr()
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("weights", [[0.0], [[0.0] * 7]])
def test_search_resume_with_wrong_policy_shape_exits_4(tmp_path, capsys, weights):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 2\nrounds = 2\nout-dir = out\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    _rewrite_checkpoint_section(ckpt, "POLI", _edit_json(lambda doc: {**doc, "weights": weights}))
    capsys.readouterr()
    assert run_cli("search", "--config", str(cfg), "--resume", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "corrector weights" in err


@pytest.mark.parametrize("text", [
    "[run]\ndim = 2\n[action]\nc1 = -1, 0.7\n",
    "[run]\ndim = 2\n[action]\nc2 = cap:0.9\n",
    "[run]\ndim = 2\n[action]\nc1 = -1, nan, 1/2\n",
    "[run]\ndim = 2\n[action]\nc2 = cap:nan\n",
    # A repeated cosine value, which would offer each column through it twice.
    "[run]\ndim = 2\nmode = rational\n[action]\nc1 = -1, -1/2, 0, 1/2, 1/2\n",
    "[run]\ndim = 2\nmode = rational\n[action]\nc1 = -1, -1/2, -2/4, 0, 1/2\n",
    "[run]\ndim = 2\n[action]\nc1 = -1, -1/2, 0, 1/2, 1/2\n",
    "[run]\ndim = 2\n[action]\nc1 = -1, -0.5, 0, 0.5, 0.5\n",
    "[run]\ndim = 2\nmode = rational\n[action]\nc2 = -1, -1/2, 0, 1/2, -1/2\n",
    "[run]\ndim = 2\n[action]\nc2 = -1, -0.5, 0.0, 0, 0.5\n",
    "[run]\ndim = 2\n[corrector]\ntemperature = 0\n",
    "[run]\ndim = 2\n[corrector]\nmax-delete-fraction = 1.5\n",
    "[run]\ndim = 2\ncheckpoint-every = 0\n",
    "[run]\ndim = 2\nepisodes = 0\n",
    "[run]\ndim = 2\nepisodes = -1\n",
    "[run]\ndim = 2\n[seed]\nrows = 7\n",
    "[run]\ndim = 2\nrollouts-per-move = -1\n",
    "[run]\ndim = 2\nrollouts-per-move = 0\n",
    "[run]\ndim = 2\n[corrector]\nlearning-rate = nan\n",
    "[run]\ndim = 2\nexploration = inf\n",
    "[run]\ndim = 2\nrng-seed = -1\n",
    # A nan snap tolerance would turn every snap check off.
    "[run]\ndim = 3\n[tolerances]\nsnap = nan\n",
    "[run]\ndim = 2\n[tolerances]\npsd = -1e-9\n",
    "[run]\ndim = 2\nfill-budget = 0\n",
    "[run]\ndim = 2\nfill-budget = -1\n",
    "[run]\ndim = 2\nstagnation-window = 0\n",
    "[run]\ndim = 2\nexploration = -5\n",
    "[run]\ndim = 2\n[corrector]\nlearning-rate = -1\n",
    # A placed member-list vector has cosine 1 with its own row, which the
    # cap rejects only while the cosine tolerance stays below 1/2.
    "[run]\ndim = 2\n[tolerances]\ncosine = 0.5\n",
    "[run]\ndim = 2\n[tolerances]\ncosine = 0.7\n",
    # Seed rows are range-checked when the config loads, not in the first episode.
    "[run]\ndim = 8\n[seed]\nsource = generator:E8Roots\nrows = 0\n",
    "[run]\ndim = 8\n[seed]\nsource = generator:E8Roots\nrows = -3\n",
    "[run]\ndim = 8\n[seed]\nsource = generator:E8Roots\nrows = 300\n",
    "[run]\ndim = 4\n[seed]\nsource = generator:CrossPolytope(4)\nrows = 9\n",
    # Generator names are parsed when the config loads, not in the first episode.
    "[run]\ndim = 2\n[seed]\nsource = generator:Nope\n",
    "[run]\ndim = 2\n[seed]\nsource = generator:CrossPolytope(0)\n",
])
def test_search_rejects_out_of_range_config_values(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli("search", "--config", str(cfg)) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "runs").exists()  # rejected before any episode runs


def test_search_rejects_file_seed_rows_above_its_header_count(tmp_path, capsys):
    write_vector_file(tmp_path / "seed.vec", np.eye(3)[:2])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 3\nout-dir = out\n[seed]\nsource = file:seed.vec\nrows = 3\n")
    assert run_cli("search", "--config", str(cfg)) == 3
    assert capsys.readouterr().err == "config error: seed rows = 3 exceeds the seed's 2 rows\n"
    assert not (tmp_path / "out").exists()


def test_search_empty_seed_file_exits_3(tmp_path, capsys):
    (tmp_path / "x.vec").write_text("kiss-vectors v1 dim=2 count=0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 1\n[seed]\nsource = file:x.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 3
    assert capsys.readouterr().err == "config error: seed holds no rows\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text, code, message", [
    ("dim = 3\n[seed]\nsource = generator:E8Roots\n", 3,
     "config error: seed dimension 8 disagrees with config dim 3"),
    ("dim = 4\n[seed]\nsource = file:d3.vec\n", 3,
     "config error: seed dimension 3 disagrees with config dim 4"),
    ("dim = 3\nmode = rational\n[seed]\nsource = file:d3.vec\n", 3,
     "config error: rational mode needs a seed with exact rational cosines"),
    ("dim = 3\nmode = rational\n[seed]\nsource = generator:Icosahedron\n", 3,
     "config error: rational mode needs a seed with exact rational cosines"),
    ("dim = 3\n[action]\ncstar = file:d3.vec\n", 3,
     "config error: membership constraint needs a coordinate-anchored seed"),
    ("dim = 3\n[seed]\nsource = file:missing.vec\n", 2, "error: "),
    ("dim = 3\n[seed]\nsource = file:close.vec\n", 1,
     "verification failure: max pairwise cosine "),
])
def test_search_checks_its_seed_before_any_output(tmp_path, capsys, text, code, message):
    write_vector_file(tmp_path / "d3.vec", np.eye(3))
    (tmp_path / "close.vec").write_text("kiss-vectors v1 dim=3 count=2\n1 0 0\n1 0.1 0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nepisodes = 1\nrounds = 1\nout-dir = out\n" + text)
    assert run_cli("search", "--config", str(cfg)) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _two_row_seed(tmp_path, cosine: float, tolerance: str, psd: str | None = None):
    """A float seed file of two rows at ``cosine`` and a dim-2 run from it,
    with the PSD tolerance ``psd`` when given."""
    (tmp_path / "s.vec").write_text(f"kiss-vectors v1 dim=2 count=2\n1 0\n"
                                    f"{cosine!r} {math.sqrt(1 - cosine * cosine)!r}\n")
    cfg = tmp_path / "run.cfg"
    psd_line = "" if psd is None else f"psd = {psd}\n"
    cfg.write_text("[run]\ndim = 2\nepisodes = 4\nrounds = 3\nout-dir = out\n"
                   f"[tolerances]\ncosine = {tolerance}\n{psd_line}"
                   "[seed]\nsource = file:s.vec\n")
    return cfg


def test_file_seed_above_the_run_cosine_tolerance_exits_1(tmp_path, capsys):
    # Within the default cosine tolerance (1e-9), but not within the run's.
    cfg = _two_row_seed(tmp_path, 0.5000000005, "0")
    assert run_cli("search", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: max pairwise cosine ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_file_seed_within_the_run_cosine_tolerance_is_searched(tmp_path):
    # Beyond the default cosine tolerance (1e-9), but within the run's.
    cfg = _two_row_seed(tmp_path, 0.500000005, "1e-8")
    code = run_cli("search", "--config", str(cfg))
    out = tmp_path / "out"
    assert "episode 4" in (out / "run.log").read_text()
    assert code == (0 if read_certificate(out / "best.cert")["verdict"] == "Pass" else 1)


def test_final_certificate_takes_the_run_tolerances(tmp_path):
    # The best state keeps the seed pair at 0.500000005, which the run's
    # cosine tolerance admits.  Its antipodes' entries snap to -1/2, which
    # leaves the smallest eigenvalue at -2.5e-9, within the run's PSD
    # tolerance.  So the certificate passes under the run's tolerances.
    cfg = _two_row_seed(tmp_path, 0.500000005, "1e-8", psd="1e-8")
    assert run_cli("search", "--config", str(cfg)) == 0
    assert read_certificate(tmp_path / "out" / "best.cert")["verdict"] == "Pass"


@pytest.mark.parametrize("temperature", ["1e-300", "1e-200"])
def test_search_with_overflowing_corrector_temperature_exits_3(tmp_path, temperature):
    # The config is valid, but the deletion softmax overflows once the
    # corrector has learned: one config error line, no traceback, no warning.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 3\nepisodes = 30\nrounds = 8\nrng-seed = 9\nout-dir = out\n"
                   f"[corrector]\ntemperature = {temperature}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run([sys.executable, "-m", "kissgram", "search", "--config", str(cfg)],
                          cwd=str(tmp_path), env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == (f"config error: corrector temperature {float(temperature):g} "
                           "overflows the deletion softmax\n")


@pytest.mark.parametrize("flag, value", [("--rng-seed", "-1"), ("--ucb-c", "inf"),
                                         ("--ucb-c", "nan")])
def test_simulate_cosines_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "r"
    assert run_cli("simulate-cosines", "--dim", "2", "--budget", "5", "--out", str(out),
                   flag, value) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}") and "Traceback" not in err
    assert not out.exists()


def test_simulate_cosines_zero_seed_row_exits_1(tmp_path, capsys):
    # The same outcome as search from that seed file.
    (tmp_path / "z.vec").write_text("kiss-vectors v1 dim=2 count=2\n1 0\n0 0\n")
    assert run_cli("simulate-cosines", "--dim", "2", "--budget", "5",
                   "--seed-file", str(tmp_path / "z.vec"), "--out", str(tmp_path / "r")) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 2\nepisodes = 1\nrounds = 1\n[seed]\nsource = file:z.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["verification failure: zero vector cannot be normalized"] * 2
    # Two rows at cosine 0.995 overlap; taken as a seed they would let the
    # game report 13 spheres in dimension 3, above K(3) = 12.
    (tmp_path / "close.vec").write_text("kiss-vectors v1 dim=3 count=2\n1 0 0\n1 0.1 0\n")
    assert run_cli("simulate-cosines", "--dim", "3", "--budget", "3",
                   "--seed-file", str(tmp_path / "close.vec"),
                   "--out", str(tmp_path / "r")) == 1
    cfg.write_text("[run]\ndim = 3\nepisodes = 1\nrounds = 1\n[seed]\nsource = file:close.vec\n")
    assert run_cli("search", "--config", str(cfg)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("verification failure: max pairwise cosine ")
    assert err[0].endswith(" exceeds 1/2")
    assert not (tmp_path / "r").exists()
