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


def test_traced_search_feeds_every_hooked_counter(tmp_path):
    # The hooks read arguments by position; a signature change that moves one
    # fails here rather than in a traced benchmark run.
    from kissgram.cli import main

    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndim = 3\nepisodes = 4\nrounds = 4\nrng-seed = 5\nout-dir = out\n")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["search", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for key in ("corrector.rows_deleted", "filler.offered", "filler.candidates",
                "corrector.row_features.calls"):
        assert summary.get(key, 0) > 0, key
    # No d3 move has more candidates than rollouts-per-move, so every
    # enumerated candidate is offered to select_action, one batch per move.
    assert summary["filler.candidates"] == summary["filler.offered"] == 242
    assert summary["gram.extend.calls"] == 58
