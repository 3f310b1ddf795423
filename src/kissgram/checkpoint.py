"""Versioned binary checkpoints with an integrity checksum.

Layout: an 8-byte magic, a u32 version, then length-prefixed sections
(4-byte ascii tag, u64 payload length, payload), and a trailing sha256 over
all prior bytes.  Restoring a checkpoint restores the RNG cursor, the tree
statistics, the policy and the best result, so a resumed run reproduces the
uninterrupted one bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .corrector import CorrectorPolicy
from .errors import CheckpointError, ParseError
from .fileio import gram_text, parse_gram_text
from .filler import SearchTree
from .game import EpisodeResult, TrainResult

MAGIC = b"KISSCKPT"
VERSION = 2  # 2: TREE keys are fingerprints of sorted row digests

_SECTIONS = ("CFGE", "RNGS", "TREE", "POLI", "PROG", "BEST")


@dataclass
class Checkpoint:
    """A loaded checkpoint: the config echo it must match, the RNG cursor, and
    the run state that ``train_loop(config, n, run=checkpoint.run, rng=...)``
    continues."""

    config_echo: str
    rng_state: dict
    run: TrainResult


def _best_payload(best: EpisodeResult | None) -> bytes:
    if best is None:
        return b""
    state = best.final_state
    doc = {
        "team_reward": best.team_reward,
        "per_round_sizes": list(best.per_round_sizes),
        "gram": gram_text(state, state.mode),
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _best_from_payload(payload: bytes) -> EpisodeResult | None:
    if not payload:
        return None
    doc = json.loads(payload.decode("utf-8"))
    return EpisodeResult(
        final_state=parse_gram_text(doc["gram"], "BEST gram"),
        team_reward=int(doc["team_reward"]),
        per_round_sizes=tuple(doc["per_round_sizes"]),
        trajectory=(),
    )


def save_checkpoint(path, *, config_echo: str, rng: np.random.Generator, run: TrainResult):
    """Write ``run`` and the RNG cursor to ``path``, atomically."""
    policy = run.policy
    payloads = {
        "CFGE": config_echo.encode("utf-8"),
        "RNGS": json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8"),
        "TREE": json.dumps(run.tree.summary(), sort_keys=True).encode("utf-8"),
        "POLI": json.dumps({
            "weights": [float(w) for w in policy.weights],
            "temperature": policy.temperature,
            "max_delete_fraction": policy.max_delete_fraction,
            "baseline": run.baseline,
        }, sort_keys=True).encode("utf-8"),
        "PROG": json.dumps({"rewards": run.rewards}, sort_keys=True).encode("utf-8"),
        "BEST": _best_payload(run.best),
    }
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(struct.pack("<I", VERSION))
    for tag in _SECTIONS:
        payload = payloads[tag]
        body.write(tag.encode("ascii"))
        body.write(struct.pack("<Q", len(payload)))
        body.write(payload)
    raw = body.getvalue()
    digest = hashlib.sha256(raw).digest()
    # Atomic replace: a run killed mid-write never leaves a torn checkpoint.
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(raw + digest)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 4 + 32:
        raise CheckpointError(f"{path}: truncated checkpoint")
    raw, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(raw).digest() != digest:
        raise CheckpointError(f"{path}: integrity checksum mismatch")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = len(MAGIC) + 4
    payloads: dict[str, bytes] = {}
    while offset < len(raw):
        if offset + 12 > len(raw):
            raise CheckpointError(f"{path}: truncated section header")
        tag = raw[offset:offset + 4].decode("ascii", errors="replace")
        (length,) = struct.unpack_from("<Q", raw, offset + 4)
        offset += 12
        if offset + length > len(raw):
            raise CheckpointError(f"{path}: truncated section {tag}")
        payloads[tag] = raw[offset:offset + length]
        offset += length
    missing = [tag for tag in _SECTIONS if tag not in payloads]
    if missing:
        raise CheckpointError(f"{path}: missing sections {missing}")
    try:
        poli = json.loads(payloads["POLI"].decode("utf-8"))
        policy = CorrectorPolicy(
            weights=np.array(poli["weights"], dtype=float),
            temperature=float(poli["temperature"]),
            max_delete_fraction=float(poli["max_delete_fraction"]),
        )
        rng_state = json.loads(payloads["RNGS"].decode("utf-8"))
        np.random.PCG64().state = rng_state  # rejects a state a resume could not restore
        run = TrainResult(
            tree=SearchTree.from_summary(json.loads(payloads["TREE"].decode("utf-8"))),
            policy=policy,
            best=_best_from_payload(payloads["BEST"]),
            baseline=float(poli["baseline"]),
            rewards=[int(r) for r in json.loads(payloads["PROG"].decode("utf-8"))["rewards"]],
        )
        return Checkpoint(payloads["CFGE"].decode("utf-8"), rng_state, run)
    except (KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
        # A payload of the wrong shape is as corrupt as one that fails to parse.
        raise CheckpointError(f"{path}: malformed section payload: {exc}") from exc
