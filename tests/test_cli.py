"""Command-line surface: subcommands, exit codes, reproducibility."""

import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from kissgram.checkpoint import MAGIC
from kissgram.cli import main
from kissgram.fileio import read_certificate, read_cosine_report, read_vector_file


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
    # Checkpoints agree on everything except the echoed output path.
    from kissgram.checkpoint import load_checkpoint

    a = load_checkpoint(straight / "out" / "checkpoint.bin")
    b = load_checkpoint(killed / "out" / "checkpoint.bin")
    assert a.rewards == b.rewards
    assert a.rng_state == b.rng_state
    assert a.tree.summary() == b.tree.summary()
    assert np.array_equal(a.policy.weights, b.policy.weights)
    assert a.best.team_reward == b.best.team_reward
    assert np.array_equal(a.best.final_state.entries, b.best.final_state.entries)


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


def test_search_generator_seeded_e8_reaches_240(tmp_path):
    cfg = tmp_path / "e8.cfg"
    cfg.write_text("[run]\ndim = 8\nepisodes = 1\nrounds = 4\nrng-seed = 3\n"
                   "out-dir = out\n"
                   "[seed]\nsource = generator:E8Roots\nrows = 120\n")
    assert run_cli("search", "--config", str(cfg)) == 0
    cert = read_certificate(tmp_path / "out" / "best.cert")
    assert cert["sphere-count"] == "240"
    assert cert["verdict"] == "Pass"


def test_simulate_cosines_seed_file_dimension_check(tmp_path):
    assert run_cli("generate", "--name", "Hexagon", "--out", str(tmp_path / "h.vec")) == 0
    assert run_cli("simulate-cosines", "--dim", "3", "--budget", "5",
                   "--seed-file", str(tmp_path / "h.vec"),
                   "--out", str(tmp_path / "r")) == 3
    assert run_cli("simulate-cosines", "--dim", "2", "--budget", "10",
                   "--seed-file", str(tmp_path / "h.vec"),
                   "--out", str(tmp_path / "r")) == 0


def test_verify_float_gram_in_rational_mode_exits_3(tmp_path):
    cfg_out = tmp_path / "g.gram"
    import numpy as np

    from kissgram.fileio import write_gram_file
    from kissgram.gram import GramState

    write_gram_file(cfg_out, GramState(dim=2, entries=np.eye(2)), mode="float")
    assert run_cli("verify", "--in", str(cfg_out), "--mode", "rational") == 3


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
