"""Golden artifacts: fixed-seed searches must reproduce pinned bytes.

The determinism tests elsewhere compare two runs of the same code; these pin
the sha256 of what a fixed-seed ``search`` writes, so a change to the RNG
stream, the enumeration order or a serializer shows up as a digest change.
``best.vectors`` is left out: it comes from an eigendecomposition whose last
bits may differ between BLAS builds.  So is the checkpoint's ``POLI`` section,
whose float weights pass through ``exp`` and BLAS dot products, and ``CFGE``,
the configuration echo, which the CLI resume tests cover.  ``TREE`` is pinned
because only it records the states reached after the corrector's deletions.
Its bytes hold the state fingerprints themselves, so a change of fingerprint
function re-pins it; ``TREE_SHAPES`` pins what such a change must keep: each
tree's node and edge counts and its visit counts.

Each config runs once per module, with every fingerprint that a fill phase
computes from its kept row digests checked against one computed from scratch.
"""

import hashlib
import json
import struct
from collections import Counter

import pytest

from kissgram import filler
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
            "TREE": "2ebeaff947425d96b96f3dd53d717532ae01866bd4281ab6dc6850db0d3ac116",
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
            "TREE": "27f04c989fd083042053a2f763ebc4af2dbda88f2cd911db0bc4a862e836ab1c",
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
            "TREE": "6685dd3c0dd577cc92fb72c5fc1b9e9b2cd884518500d135bdc4b2f1e14150b8",
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
            "TREE": "6685dd3c0dd577cc92fb72c5fc1b9e9b2cd884518500d135bdc4b2f1e14150b8",
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
            "TREE": "31bd126f731e9889df007405464ddfe1aff3ab87062d1e6259261c96226f282f",
        },
    ),
    # Member-list moves: candidates come from the D4 list, from a 3-row seed.
    "d4-member-list": (
        "[run]\ndim = 4\nepisodes = 6\nrounds = 3\nrng-seed = 7\nout-dir = out\n"
        "[seed]\nsource = file:d4.vec\nrows = 3\n[action]\ncstar = file:d4.vec\n",
        {
            "best.gram": "eb263d5da6fb1525c9dfdd50284934e90bcb47900a5297f4a87e30f9ed66d459",
            "best.cert": "1df0f4e154e4614dde794a5e8f37fa970cba406f7a63e57bc65d3da004bc32c9",
            "BEST": "1f8f2152da522819b9424a95d7d6d779ba769fab08333c8dca44ef78d5368903",
            "PROG": "28bb936b2f440fbf4d67c8c56d7884df88583a6140d061dea6308db15a289d9a",
            "RNGS": "850a29ebfa245b7d64a699197ac0ac96707ca4006df748f631d654557830b5df",
            "TREE": "920104dcdace0d6a4b9925cec0e207575f15812f7a7fd43672bd80673c0c6289",
        },
    ),
    # Member-list moves at list scale: from 8 rows of the E8 list to its 240.
    "e8-member-list": (
        "[run]\ndim = 8\nepisodes = 4\nrounds = 3\nrng-seed = 3\nout-dir = out\n"
        "[seed]\nsource = file:e8.vec\nrows = 8\n[action]\ncstar = file:e8.vec\n",
        {
            "best.gram": "3ec4393288c3cc03fd308d5d752e3f4d2dce35415ced44e9b74edbf97a4375c0",
            "best.cert": "79adcac52805eeff91f35fe44fba1398ad294247b3dadae59534b59375f46339",
            "BEST": "b68a35e71b3bf7f8410d1b6c66e9b1a2d5f27a032c09db5013e21089cc61e7c2",
            "PROG": "c66f5316af7b6a0cb58e5bbf320beecc9275b9d701f7ca9b017987af124fdc5b",
            "RNGS": "6766ee7948f2fb16eb1c9e18d56634c0474314826355cb4a71af5dbdc7173d18",
            "TREE": "9ce4a00db550e70070257cddeba994ea8fb9f20b8b7f61f5d28f64d47340366c",
        },
    ),
    # A capped tail is written into the Gram as lifted, unsnapped.
    "d4-cap-only": (
        "[run]\ndim = 4\nepisodes = 6\nrounds = 3\nrng-seed = 7\nout-dir = out\n"
        "[action]\nc2 = cap:1/2\n",
        {
            "best.gram": "b8aa51fba95bfd4409ba9e7953721e3328c82a2c3bf25b16e24e0c30ebe564fa",
            "best.cert": "1df0f4e154e4614dde794a5e8f37fa970cba406f7a63e57bc65d3da004bc32c9",
            "BEST": "6d35614866d061a14c96b05d0f18cea318102e54d5691c853e3d3583259723c8",
            "PROG": "355bf2665823dc70f1dc70f04aa608eb78aa9a30434a0a443584315923cd27ee",
            "RNGS": "af6a2afc4f6e853a0cb3047ea36e4f812571853e9b8ba8944a8efddaffab3839",
            "TREE": "6685dd3c0dd577cc92fb72c5fc1b9e9b2cd884518500d135bdc4b2f1e14150b8",
        },
    ),
    # Fewer rollouts per move than candidates: each move offers a sorted sample.
    "d4-rollout-cap": (
        "[run]\ndim = 4\nepisodes = 6\nrounds = 3\nrng-seed = 7\nrollouts-per-move = 3\n"
        "out-dir = out\n",
        {
            "best.gram": "c9551bb4129829c98ff87708b1f986301f1b8503eafc1d331d6e7ad2c21f8cf1",
            "best.cert": "1df0f4e154e4614dde794a5e8f37fa970cba406f7a63e57bc65d3da004bc32c9",
            "BEST": "d2c3d12e76054e744419b048b1d62029de0da3d536084bf213b5db35d4a75d1b",
            "PROG": "313cd7173f36307ce117b559654dd32543219724e23fc0364d5cb83d536a5783",
            "RNGS": "af0263ab1cc061d16dc16abf1af2b9a489f105468577a19ff8abf094d528e3a0",
            "TREE": "0e01dc5bd7d602bc0ee4a0733dceef08183a5b71759b3469d483879b8d949874",
        },
    ),
    # A capped pool created on 192 held cross rows, six blocks: its tails are
    # written unsnapped, so the lift's bits are pinned across the blocks.
    "e8-seeded-cap-only": (
        "[run]\ndim = 8\nepisodes = 1\nrounds = 1\nrng-seed = 3\nout-dir = out\n"
        "[seed]\nsource = generator:E8Roots\nrows = 200\n[action]\nc2 = cap:1/2\n",
        {
            "best.gram": "f282a8fbf687d0e31c1448b659051b04488ad111d93c0c0ebfb37b0546cccec1",
            "best.cert": "79adcac52805eeff91f35fe44fba1398ad294247b3dadae59534b59375f46339",
            "BEST": "6221b790a045fa523817af7e83938eda642276745d31456561f36556cd66574e",
            "PROG": "b0ae990a32f207ff3086dc93c4d41e1366b3ba6f6c14144e65ba60d57a31d5ba",
            "RNGS": "372b1e70436699a7068016e03913efc95c66f7a1a743a9534a63761c3933d1b5",
            "TREE": "5b9ec43f8eb07780458f15f4e232904ff62cddec3890ec9659e52dabeef4ae8e",
        },
    ),
}

# Each run's tree as (nodes, edges, {visits: nodes}, {visits: edges}), computed
# with the sort-and-lexsort fingerprint that the row digests replaced.
TREE_SHAPES = {
    "d3-float": (38, 110, {1: 15, 2: 10, 3: 6, 4: 2, 7: 2, 8: 1, 10: 1, 24: 1},
                 {1: 106, 2: 1, 3: 3}),
    "d3-rational": (33, 78, {1: 14, 2: 10, 3: 4, 4: 1, 5: 2, 6: 1, 15: 1}, {1: 75, 2: 3}),
    "d4-cap-only": (111, 164, {1: 81, 2: 21, 3: 4, 4: 2, 6: 1, 9: 2}, {1: 161, 2: 3}),
    "d4-float": (111, 164, {1: 81, 2: 21, 3: 4, 4: 2, 6: 1, 9: 2}, {1: 161, 2: 3}),
    "d4-member-list": (54, 166, {1: 21, 2: 9, 3: 9, 4: 2, 5: 3, 6: 7, 7: 1, 10: 1, 18: 1},
                       {1: 166}),
    "d4-rational": (111, 164, {1: 81, 2: 21, 3: 4, 4: 2, 6: 1, 9: 2}, {1: 161, 2: 3}),
    "d4-rollout-cap": (113, 142, {1: 100, 2: 6, 3: 2, 4: 2, 6: 2, 7: 1}, {1: 141, 4: 1}),
    "e8-member-list": (537, 1249, {1: 299, 2: 7, 3: 5, 4: 223, 7: 1, 10: 1, 12: 1},
                       {1: 1249}),
    "e8-seeded-cap-only": (40, 40, {1: 40}, {1: 40}),
    "e8-seeded-rational": (8, 8, {1: 8}, {1: 8}),
}

# Vector files a config reads, written next to it by ``generate``.
INPUTS = {"d4-member-list": {"d4.vec": "D4Roots"}, "e8-member-list": {"e8.vec": "E8Roots"}}


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


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``run(name)``: the output directory of the config's search and, per
    fingerprint computed from kept digests, whether it equals the one from
    scratch.  Each config runs once per module."""
    runs = {}
    matches: list[bool] = []
    scratch = filler.fingerprint_state

    def checked(state, digests=None):
        fp = scratch(state, digests)
        if digests is not None:
            matches.append(fp == scratch(state))
        return fp

    def run(name):
        if name not in runs:
            config, _ = GOLDEN[name]
            root = tmp_path_factory.mktemp(name)
            for file, generator in INPUTS.get(name, {}).items():
                assert main(["generate", "--name", generator, "--out", str(root / file)]) == 0
            (root / "run.cfg").write_text(config)
            matches.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(filler, "fingerprint_state", checked)
                assert main(["search", "--config", str(root / "run.cfg")]) == 0
            runs[name] = (root / "out", list(matches))
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_search_artifacts_are_pinned(golden_run, name):
    out, _ = golden_run(name)
    expected = GOLDEN[name][1]
    got = {f: _sha((out / f).read_bytes()) for f in ("best.gram", "best.cert")}
    sections = checkpoint_sections((out / "checkpoint.bin").read_bytes())
    got.update({tag: _sha(sections[tag]) for tag in ("BEST", "PROG", "RNGS", "TREE")})
    assert got == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_kept_row_digests_fingerprint_as_from_scratch(golden_run, name):
    _, matches = golden_run(name)
    assert matches and all(matches)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tree_shape_is_pinned(golden_run, name):
    out, _ = golden_run(name)
    tree = json.loads(checkpoint_sections((out / "checkpoint.bin").read_bytes())["TREE"])
    nodes = list(tree["nodes"].values())
    edges = [visits for _, _, visits, _ in tree["edges"]]
    assert (len(nodes), len(edges), dict(Counter(nodes)), dict(Counter(edges))) == \
        TREE_SHAPES[name]
