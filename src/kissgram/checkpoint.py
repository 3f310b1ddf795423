"""Versioned binary checkpoints with an integrity checksum.

Layout: an 8-byte magic, a u32 version, then length-prefixed sections
(4-byte ascii tag, u64 payload length, payload), and a trailing sha256 over
all prior bytes.  A checkpoint holds what the run learned: the RNG cursor,
the tree statistics, the policy weights with their reward baseline, the
rewards and the best result.  Every setting comes from the configuration
the resume runs under, so a resumed run reproduces the uninterrupted one bit
for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CheckpointError, ParseError
from .fileio import gram_text, parse_gram_text
from .filler import SearchTree
from .game import EpisodeResult, GameConfig, TrainResult, default_policy

MAGIC = b"KISSCKPT"
VERSION = 2  # 2: TREE keys are fingerprints of sorted row digests

_SECTIONS = ("CFGE", "RNGS", "TREE", "POLI", "PROG", "BEST")


@dataclass
class Checkpoint:
    """A loaded checkpoint: the config echo it must match, the RNG cursor, and
    what the run learned, which ``resume`` turns into the run state that
    ``train_loop(config, n, run=checkpoint.resume(config), rng=...)`` continues."""

    config_echo: str
    rng_state: dict
    tree: SearchTree
    weights: np.ndarray
    baseline: float
    rewards: list[int]
    best: EpisodeResult | None

    def resume(self, config: GameConfig) -> TrainResult:
        """The run state under ``config``: its policy is ``default_policy(config)``
        with the learned weights.  Raises CheckpointError when the weights or
        the tree's exploration constant do not fit ``config``."""
        policy = default_policy(config)
        if self.weights.shape != policy.weights.shape:
            raise CheckpointError(f"corrector weights have shape {self.weights.shape}, "
                                  f"the configuration needs {policy.weights.shape}")
        if self.tree.exploration != config.exploration:
            raise CheckpointError(f"search tree exploration {self.tree.exploration} "
                                  f"disagrees with the configuration's {config.exploration}")
        return TrainResult(tree=self.tree, policy=replace(policy, weights=self.weights),
                           best=self.best, baseline=self.baseline, rewards=list(self.rewards))


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
    """Write what ``run`` learned and the RNG cursor to ``path``, atomically."""
    payloads = {
        "CFGE": config_echo.encode("utf-8"),
        "RNGS": json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8"),
        "TREE": json.dumps(run.tree.summary(), sort_keys=True).encode("utf-8"),
        "POLI": json.dumps({
            "weights": [float(w) for w in run.policy.weights],
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
        # Files written before POLI held only what training learned also
        # carry the policy's settings; those come from the configuration.
        poli = json.loads(payloads["POLI"].decode("utf-8"))
        rng_state = json.loads(payloads["RNGS"].decode("utf-8"))
        np.random.PCG64().state = rng_state  # rejects a state a resume could not restore
        ckpt = Checkpoint(
            config_echo=payloads["CFGE"].decode("utf-8"),
            rng_state=rng_state,
            tree=SearchTree.from_summary(json.loads(payloads["TREE"].decode("utf-8"))),
            weights=np.array(poli["weights"], dtype=float),
            baseline=float(poli["baseline"]),
            rewards=[int(r) for r in json.loads(payloads["PROG"].decode("utf-8"))["rewards"]],
            best=_best_from_payload(payloads["BEST"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
        # A payload of the wrong shape is as corrupt as one that fails to parse.
        raise CheckpointError(f"{path}: malformed section payload: {exc}") from exc
    if not (np.isfinite(ckpt.weights).all() and math.isfinite(ckpt.baseline)):
        raise CheckpointError(f"{path}: corrector weights or baseline are not finite")
    tree = ckpt.tree
    if min([*tree.node_visits.values(), *tree.edge_visits.values()], default=1) < 1:
        raise CheckpointError(f"{path}: a tree visit count is below 1")
    if not all(map(math.isfinite, tree.edge_value.values())):
        raise CheckpointError(f"{path}: a tree edge value is not finite")
    best = ckpt.best
    if best is not None and best.team_reward != best.final_state.m:
        raise CheckpointError(f"{path}: best team reward {best.team_reward} disagrees with "
                              f"its {best.final_state.m}-row Gram")
    return ckpt
