"""The benchmark's span tracer must find every kissgram function it wraps.

``bench/spans.py`` looks each traced function up by name with no fallback, so
renaming or deleting one breaks every traced benchmark run.  This test makes
such a change fail the unit suite instead.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("kissgram_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    spans = _load_spans()
    spans.kissgram_modules()
    originals = {(mod, fn): getattr(sys.modules[mod], fn) for mod, fn, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        assert tracer.install() >= len(spans.TARGETS)
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules[mod], fn) is not original
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[mod], fn) is original


def _traced_search(tmp_path, mode: str) -> dict:
    from kissgram.cli import main

    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\ndim = 3\nmode = {mode}\nepisodes = 4\nrounds = 4\nrng-seed = 5\n"
                   "out-dir = out\n")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["search", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_traced_search_feeds_every_hooked_counter(tmp_path):
    # The hooks read arguments by position; a signature change that moves one
    # fails here rather than in a traced benchmark run.
    summary = _traced_search(tmp_path, "float")
    for key in ("corrector.rows_deleted", "filler.offered", "filler.candidates",
                "corrector.row_features.calls"):
        assert summary.get(key, 0) > 0, key
    # No d3 move has more candidates than rollouts-per-move, so every
    # enumerated candidate is offered to select_action, one batch per move.
    assert summary["filler.candidates"] == summary["filler.offered"] == 242
    assert summary["gram.extend.calls"] == 58
    # One state fingerprint per move: the one select_action takes.
    assert summary["filler.fingerprint_state.calls"] == summary["gram.extend.calls"]
    # The seed is built once per run and replayed by each of the 4 episodes.
    assert summary["game.load_seed.calls"] == 1
    assert summary["game.play_episode.calls"] == 4
    # The run's basis table factors each distinct basis block once; a fill
    # phase that bypassed it would factor at least once per lifted phase.
    assert summary["gram.factorize.calls"] < summary["game.fill_phase.calls"]


def test_traced_rational_search_feeds_exact_confirmation(tmp_path):
    summary = _traced_search(tmp_path, "rational")
    assert summary["filler.exact_confirm.calls"] > 0
    assert summary["filler.exact_confirm.accepted"] > 0
    assert summary["gram.factorize.calls"] > 0
    # A lifted move lifts the one row it placed, and a pool's creation its
    # held rows, one block per call; every d3 phase holds fewer than a block.
    assert 0 < summary["gram.extend_cache.calls"] <= (summary["gram.extend.calls"]
                                                     + summary["game.fill_phase.calls"])
