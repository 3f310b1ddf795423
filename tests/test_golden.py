"""Golden artifacts: fixed-seed searches must reproduce pinned bytes.

The determinism tests elsewhere compare two runs of the same code; these pin
the sha256 of what a fixed-seed ``search`` writes, so a change to the RNG
stream, the enumeration order or a serializer shows up as a digest change.
``best.vectors`` is left out: it comes from an eigendecomposition whose last
bits may differ between BLAS builds.  So is the checkpoint's ``POLI`` section,
whose float weights pass through ``exp`` and BLAS dot products, and ``CFGE``,
which echoes the absolute output path.  ``TREE`` is pinned because only it
records the states reached after the corrector's deletions.
"""

import hashlib
import struct

import pytest

from kissgram.checkpoint import MAGIC
from kissgram.cli import main

GOLDEN = {
    "d3-float": (
        "[run]\ndim = 3\nepisodes = 8\nrounds = 4\nrng-seed = 5\nout-dir = out\n",
        {
            "best.gram": "525e95d59feb7a6178df74841019a6dabc941d659742f42327926a6999605951",
            "best.cert": "cb72f34dba194a6d3d0fabbbcb4f4ba0b5c38736631c83a3ef4892186067b1aa",
            "BEST": "c425029f5240eced806fcee07dc71d7eb8df831d84d42e794a33e4648855c619",
            "PROG": "2a39b4216eb0b851ff0b3b22b97cb99fd30946fc20c52d78ff48a5ad26745040",
            "RNGS": "c3b1225b6fbb57ede6aba87134e682b9c445b9698b4fbf1a788d6eca0df98019",
            "TREE": "ccc02d3595ff651c89769ac3a055896241c3807965d9b29eb5400673ab06bc73",
        },
    ),
    "d3-rational": (
        "[run]\ndim = 3\nmode = rational\nepisodes = 6\nrounds = 3\nrng-seed = 11\n"
        "out-dir = out\n",
        {
            "best.gram": "76216c23c471e03c5c81be3f49365c52911f66ce71c7f05c585f1678df84b5d4",
            "best.cert": "3c749d61aef92535393d12d8da1636d2c03bde9a54b3d08020a68c22e9be882f",
            "BEST": "4f51757c5d806b70fa21ff92ac4d375becc62aa840356aa56ac8c75bfe709551",
            "PROG": "6e62dd1bed9a84dc5a1bf071049c502b7f41db6128745a6c1c82a8d62dd440ce",
            "RNGS": "cbb353ba42ba38b02b0091ca1f90170e33311b830d99b89ae678f4521ededa7a",
            "TREE": "3febf30df61ddea2df0d13e2293f410c144e63778750c9038534b96318e5a39e",
        },
    ),
    "d4-float": (
        "[run]\ndim = 4\nepisodes = 6\nrounds = 3\nrng-seed = 7\nout-dir = out\n",
        {
            "best.gram": "1d30db7387b0c10d123cdbe3e290c9438e783a02fbe9243b92fae0f309fca714",
            "best.cert": "1df0f4e154e4614dde794a5e8f37fa970cba406f7a63e57bc65d3da004bc32c9",
            "BEST": "e4141b08108993bbdac2392510727e673047af7b63097cbd5ef1610834835c46",
            "PROG": "355bf2665823dc70f1dc70f04aa608eb78aa9a30434a0a443584315923cd27ee",
            "RNGS": "af6a2afc4f6e853a0cb3047ea36e4f812571853e9b8ba8944a8efddaffab3839",
            "TREE": "29c854d73cd107e57b90ec01e9cef282e636aa7ba51626dc8dde413d4d41611a",
        },
    ),
    "d4-rational": (
        "[run]\ndim = 4\nmode = rational\nepisodes = 6\nrounds = 3\nrng-seed = 7\n"
        "out-dir = out\n",
        {
            "best.gram": "d0e7297dfd80ce37219423810027d5426ccb017959c8ff08e3f61f0d005ab873",
            "best.cert": "f35b8f495359b85e49df2a0efa3518fbe584e6311627092b6b465d692e14f00f",
            "BEST": "0b93a16320aa9b7e8208af7787af7fa3908f4e0750cef9b65fe382d20d3f02dc",
            "PROG": "355bf2665823dc70f1dc70f04aa608eb78aa9a30434a0a443584315923cd27ee",
            "RNGS": "af6a2afc4f6e853a0cb3047ea36e4f812571853e9b8ba8944a8efddaffab3839",
            "TREE": "29c854d73cd107e57b90ec01e9cef282e636aa7ba51626dc8dde413d4d41611a",
        },
    ),
    # The last 8 of E8's 240 rows come from lifted enumeration with exact
    # confirmation against a 232-row rational seed.
    "e8-seeded-rational": (
        "[run]\ndim = 8\nmode = rational\nepisodes = 1\nrounds = 1\nrng-seed = 3\n"
        "out-dir = out\n[seed]\nsource = generator:E8Roots\nrows = 232\n",
        {
            "best.gram": "bfd7b5b5abb1df82a291e0db7b255942a8467eca2bb42318090a873561e8fe82",
            "best.cert": "e0b47d51a0abd7c34fd70db12bd65674d634c85b699a5c8f38463b2c43c0c6a8",
            "BEST": "ce0bc8e78d9089ba113a685350a295861fa4aff42f3512b5bfa15856ba5ea0c3",
            "PROG": "b0ae990a32f207ff3086dc93c4d41e1366b3ba6f6c14144e65ba60d57a31d5ba",
            "RNGS": "372b1e70436699a7068016e03913efc95c66f7a1a743a9534a63761c3933d1b5",
            "TREE": "59aff71508e0b029349ca45d23cb02e00c0b41233577df10b0957fe127ff6736",
        },
    ),
}


def checkpoint_sections(blob: bytes) -> dict[str, bytes]:
    """Section payloads of a checkpoint, read straight from its bytes."""
    raw = blob[:-32]
    offset = len(MAGIC) + 4
    out = {}
    while offset < len(raw):
        tag = raw[offset:offset + 4].decode("ascii")
        (length,) = struct.unpack_from("<Q", raw, offset + 4)
        offset += 12
        out[tag] = raw[offset:offset + length]
        offset += length
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_search_artifacts_are_pinned(tmp_path, name):
    config, expected = GOLDEN[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(["search", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    got = {f: _sha((out / f).read_bytes()) for f in ("best.gram", "best.cert")}
    sections = checkpoint_sections((out / "checkpoint.bin").read_bytes())
    got.update({tag: _sha(sections[tag]) for tag in ("BEST", "PROG", "RNGS", "TREE")})
    assert got == expected
