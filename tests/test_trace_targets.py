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
