"""Span tracing of kissgram functions, installed from outside the package.

A ``Tracer`` replaces a module-level function by a wrapper in every
``kissgram.*`` namespace that binds the same object, so calls through
``from .filler import enumerate_lifted`` in another module are traced as
well.  Each call records one span (name, start, end, parent span) in flat
in-memory arrays; hooks add named counts at the same boundary, and
``summary`` reduces the spans to per-name calls and self time.  The wrapper
touches no random generator and never changes arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_len(counter: str) -> Callable:
    def hook(counts, args, kwargs, result):
        counts[counter] += len(result)
    return hook


def _tail_entries(counts, args, kwargs, result):
    counts["filler.tail_filter.entries"] += _arg(args, kwargs, 0, "tails").size


def _exact_accepts(counts, args, kwargs, result):
    counts["filler.exact_confirm.accepted"] += result is not None


def _offered(counts, args, kwargs, result):
    counts["filler.offered"] += len(_arg(args, kwargs, 2, "candidates"))


def _tree_size(counts, args, kwargs, result):
    # Trees grow monotonically; keep the latest edge count of each tree.
    tree = _arg(args, kwargs, 0, "tree")
    counts[("tree_edges", id(tree))] = len(tree.edge_visits)


def _rows_deleted(counts, args, kwargs, result):
    counts["corrector.rows_deleted"] += len(set(_arg(args, kwargs, 1, "delete_set")))


def _pairs(counts, args, kwargs, result):
    m = _arg(args, kwargs, 0, "state").m
    counts["verify.pairs"] += m * (m - 1) // 2


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (defining module, function, span name, count hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("kissgram.filler", "enumerate_lifted", "filler.enumerate_lifted",
     _count_len("filler.candidates")),
    ("kissgram.filler", "enumerate_small", "filler.enumerate_small",
     _count_len("filler.candidates")),
    ("kissgram.filler", "_expand_columns", "filler.expand_columns", None),
    ("kissgram.filler", "_tail_filter", "filler.tail_filter", _tail_entries),
    ("kissgram.filler", "_confirm_exact_lifted", "filler.exact_confirm", _exact_accepts),
    ("kissgram.filler", "fingerprint_state", "filler.fingerprint_state", None),
    ("kissgram.filler", "select_action", "filler.select_action", _offered),
    ("kissgram.filler", "backpropagate", "filler.backpropagate", _tree_size),
    ("kissgram.gram", "extend", "gram.extend", None),
    ("kissgram.gram", "extend_cache", "gram.extend_cache", None),
    ("kissgram.gram", "factorize", "gram.factorize", None),
    ("kissgram.gram", "check_invariants", "gram.check_invariants", None),
    ("kissgram.gram", "is_psd", "gram.is_psd", None),
    ("kissgram.gram", "rank_of", "gram.rank_of", None),
    ("kissgram.gram", "reconstruct_vectors", "gram.reconstruct_vectors", None),
    ("kissgram.rational", "exact_ldlt", "rational.exact_ldlt", None),
    ("kissgram.rational", "exact_inverse", "rational.exact_inverse", None),
    ("kissgram.rational", "exact_matvec", "rational.exact_matvec", None),
    ("kissgram.corrector", "row_features", "corrector.row_features", None),
    ("kissgram.corrector", "sample_index_set", "corrector.sample_index_set", None),
    ("kissgram.corrector", "apply_correction", "corrector.apply_correction", _rows_deleted),
    ("kissgram.corrector", "policy_gradient_update", "corrector.policy_gradient_update", None),
    ("kissgram.game", "play_episode", "game.play_episode", None),
    ("kissgram.game", "_fill_phase", "game.fill_phase", None),
    ("kissgram.game", "load_seed", "game.load_seed", None),
    ("kissgram.refconfigs", "generate", "refconfigs.generate", None),
    ("kissgram.verify", "verify_vectors", "verify.verify_vectors", None),
    ("kissgram.verify", "verify_gram", "verify.verify_gram", _pairs),
    ("kissgram.verify", "spectrum_report", "verify.spectrum_report", None),
    ("kissgram.fileio", "read_vector_file", "fileio.read_vector_file", None),
    ("kissgram.fileio", "write_vector_file", "fileio.write", None),
    ("kissgram.fileio", "write_gram_file", "fileio.write", None),
    ("kissgram.fileio", "write_certificate", "fileio.write", None),
    ("kissgram.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _checkpoint_bytes),
)


def kissgram_modules() -> list:
    """Import and return the package and every submodule."""
    package = importlib.import_module("kissgram")
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"kissgram.{info.name}"))
    return mods


class Tracer:
    """In-memory span recorder with namespace-wide install and uninstall."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self._name_ids.setdefault(span, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(span)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack, counts, clock = self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> int:
        """Wrap every target in every kissgram namespace binding it; returns bindings patched."""
        mods = kissgram_modules()
        for module_name, func_name, span, hook in targets:
            fn = getattr(sys.modules[module_name], func_name)
            wrapped = self.wrap(span, fn, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        return len(self._patched)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Per-span calls and self time (duration minus the time children cover), plus counts."""
        start = np.frombuffer(self.starts, dtype=np.float64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - start
        parent = np.frombuffer(self.parents, dtype=np.int64)
        name = np.frombuffer(self.name_ids, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for nid, span in enumerate(self.span_names):
            out[f"{span}.calls"] = int(calls[nid])
            out[f"{span}.self_s"] = float(self_s[nid])
        for key, value in self.counts.items():
            if isinstance(key, tuple):
                out["filler.tree_edges"] = out.get("filler.tree_edges", 0) + value
            else:
                out[key] = value
        return out
