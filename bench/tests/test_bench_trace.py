import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kissgram
import kissgram.filler
import kissgram.game
import kissgram.gram
import kissgram.rational
from spans import TARGETS, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {
        "lifted": kissgram.filler.enumerate_lifted,
        "matvec": kissgram.rational.exact_matvec,
        "ldlt": kissgram.rational.exact_ldlt,
    }
    tracer = Tracer()
    try:
        assert tracer.install() > len(TARGETS)
        assert kissgram.game.enumerate_lifted is kissgram.filler.enumerate_lifted
        assert kissgram.filler.enumerate_lifted.__wrapped__ is originals["lifted"]
        assert kissgram.gram.exact_matvec is kissgram.rational.exact_matvec
        assert kissgram.gram.exact_matvec.__wrapped__ is originals["matvec"]
        assert kissgram.exact_ldlt.__wrapped__ is originals["ldlt"]
        # A call through another module's name binding is traced.
        kissgram.gram.exact_matvec(((1,),), (2,))
        assert tracer.summary()["rational.exact_matvec.calls"] == 1
    finally:
        tracer.uninstall()
    assert kissgram.game.enumerate_lifted is originals["lifted"]
    assert kissgram.gram.exact_matvec is originals["matvec"]
    assert kissgram.exact_ldlt is originals["ldlt"]


def test_self_time_excludes_children_and_hooks_count():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return [x] * x

    hooked = tracer.wrap("leaf", leaf,
                         lambda counts, args, kwargs, result: counts.__setitem__(
                             "items", counts["items"] + len(result)))

    def outer():
        return hooked(2) + hooked(3)

    tracer.wrap("outer", outer)()
    out = tracer.summary()
    # outer: 0..5 (duration 5), leaves 1..2 and 3..4 (duration 1 each).
    assert out["outer.calls"] == 1 and out["leaf.calls"] == 2
    assert out["outer.self_s"] == 3.0 and out["leaf.self_s"] == 2.0
    assert out["items"] == 5


def _job(tmp: Path, traced: bool) -> tuple[str, dict, list[str]]:
    tmp.mkdir()
    (tmp / "run.cfg").write_text("[run]\ndim = 3\nepisodes = 12\nrounds = 4\nrng-seed = 5\n"
                                 "checkpoint-every = 5\nout-dir = out\n")
    cmd = [sys.executable, str(BENCH / "job.py"), "--result", str(tmp / "r.json")]
    if traced:
        cmd.append("--trace")
    cmd += ["--", "search", "--config", "run.cfg"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blobs = {name: (tmp / "out" / name).read_bytes()
             for name in ("best.gram", "best.cert", "best.vectors")}
    episodes = [line for line in (tmp / "out" / "run.log").read_text().splitlines()
                if line.startswith("episode ")]
    return proc.stdout, blobs, episodes


def test_traced_search_matches_untraced(tmp_path):
    plain = _job(tmp_path / "plain", traced=False)
    traced = _job(tmp_path / "traced", traced=True)
    assert plain == traced
    assert len(plain[2]) == 12
    layers = json.loads((tmp_path / "traced" / "r.json").read_text())["layers"]
    assert layers["game.play_episode.calls"] == 12
    assert layers["checkpoint.save_checkpoint.calls"] == 3
    assert layers["filler.candidates"] > 0
    assert "layers" not in json.loads((tmp_path / "plain" / "r.json").read_text())


def test_benchmark_file_lists_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.LAYER_METRICS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "float_s", "exact_s", "float_rss_mb", "exact_rss_mb"}


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _record(seconds, digest="a", label="j", mode="float", rss=10.0):
    return {"label": label, "mode": mode, "problems": [], "time_s": seconds, "setup_s": 0.2,
            "rss_mb": rss, "layers": {}, "digests": {"best.gram": digest}}


def test_overhead_pairs_each_traced_cycle_with_its_own_untraced_cycle():
    import run

    # The machine slows threefold between cycles 0 and 1 of the traced runs.
    cycles = {False: [[_record(1.0)], [_record(1.0)], [_record(3.0)]],
              True: [[_record(1.1)], [_record(3.3)], [_record(3.3)]]}
    metrics, problems, _ = run.summarize(cycles, trace=True)
    assert problems == []
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(0.1)

    cycles[True][2] = [_record(3.3, digest="b")]
    _, problems, _ = run.summarize(cycles, trace=True)
    assert problems == ["j: artifact digests differ between runs"]


def test_mode_figures_sum_each_jobs_median_over_its_repeats():
    import run

    # A float job repeated three times per cycle, one float and one rational job once.
    cycles = {False: [
        [_record(1.0, label="a"), _record(9.0, label="a"), _record(1.2, label="a"),
         _record(5.0, label="b", rss=30.0), _record(20.0, label="c", mode="rational", rss=7.0)],
        [_record(1.1, label="a"), _record(1.3, label="a"), _record(1.4, label="a"),
         _record(6.0, label="b", rss=32.0), _record(22.0, label="c", mode="rational", rss=9.0)],
    ], True: []}
    metrics, problems, counts = run.summarize(cycles, trace=False)
    assert problems == [] and counts is None
    assert metrics["float_s"]["value"] == pytest.approx(1.25 + 5.5)
    assert metrics["exact_s"]["value"] == pytest.approx(21.0)
    assert metrics["float_rss_mb"]["value"] == pytest.approx(31.0)
    assert metrics["exact_rss_mb"]["value"] == pytest.approx(8.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def test_search_float_jobs_repeat_and_share_the_rational_config(tmp_path):
    import run

    jobs = {job.label: job for job in run.build_workload("search", 1, tmp_path)}
    assert sorted(jobs) == ["d3-float", "d3-rational", "d4-float", "d4-rational",
                            "e8-float", "e8-rational"]
    for tag in ("d3", "d4", "e8"):
        float_job, rational_job = jobs[f"{tag}-float"], jobs[f"{tag}-rational"]
        assert float_job.repeats == run.SEARCH_FLOAT_REPEATS > 1
        assert rational_job.repeats == 1
        (float_cfg,) = float_job.files.values()
        (rational_cfg,) = rational_job.files.values()
        assert float_cfg.replace("float", "MODE") == rational_cfg.replace("rational", "MODE")
    assert "rows = 216\n" in jobs["e8-float"].files["e8-float.cfg"]


def test_verify_rational_jobs_repeat_and_run_first(tmp_path):
    import run

    jobs = run.build_workload("verify", 1, tmp_path)
    reps = run.VERIFY_RATIONAL_REPEATS
    assert reps > 1
    assert [(job.label, job.repeats) for job in jobs] == [
        ("e8-rational", reps), ("l16-rational", reps), ("e8-float", 1), ("l16-float", 1)]
