"""kissgram benchmark: user commands in fresh processes, timed end to end.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (``src/kissgram`` must exist).  Every
input, config and RNG seed is derived from ``--seed``.  A run repeats cycles
over the workload's jobs until ``--seconds`` is spent, ending as near it as
whole cycles allow (at least one); each job is one ``kissgram`` command in its
own process (``bench/job.py``).  With ``--trace 0`` each end-to-end metric is
built from every job's median over its runs.  With ``--trace 1`` each job runs
untraced and then traced, the per-layer metrics come from the traced runs and
``trace.overhead_ratio`` compares the two.  Every job is checked against its
sentinels (exit code, reward K(n), verdict Pass) and its artifact digests
must repeat across its runs.  The last stdout line is the result
object; the line before it holds the environment record, the digests and
every job's figures.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread in every process, as kissgram itself runs one worker
# (KISSGRAM_THREADS defaults to 1).  With OpenBLAS's default of one thread per
# vCPU, on a 2-vCPU host, a quarter of the runs of a float E8 search took 2.5x
# as long, and the float E8 verification 0.67 s against 0.03 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (reads OPENBLAS_NUM_THREADS when it loads)

import lattices

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

KISSING = {3: 12, 4: 24, 8: 240}
C1 = "-1, -1/2, 0, 1/2"
# Jobs still running this long after --seconds are killed and count as failed.
DEADLINE_GRACE_S = 120.0

# Sizing (see bench/README.md for the reasoning and the measured costs).
SCRATCH_CONFIGS = ((3, 5, 40), (4, 8, 30))      # (dim, rounds, episodes), from scratch
E8_SEED_ROWS, E8_ROUNDS, E8_EPISODES = 216, 1, 1
# Runs per cycle of a search's float job.  Float jobs are 3-10x cheaper than
# their rational twins; repeating them lets float_s sample a larger share of
# the run, which steadies it on a host whose speed drifts.
SEARCH_FLOAT_REPEATS = 3
# Runs per cycle of a verification's rational jobs.  The float Lambda16 job
# takes 13 s of a 19 s cycle; without repeats the rational jobs, 1.5-2.5 s
# each, sampled too little of the run (IQR / median of exact_s up to 0.30).
VERIFY_RATIONAL_REPEATS = 2
# Exact Lambda16 subset: rows per support size, in the full set's 480 : 3840 proportion,
# so that every seed's subset has the same mix of entry denominators.
LAMBDA16_EXACT_ROWS = {2: 22, 8: 178}


@dataclass
class Job:
    label: str
    mode: str                     # "float" | "rational"
    argv: list[str]               # kissgram arguments, run from the run directory
    artifacts: list[str]          # files in the run directory whose digests are recorded
    check: Callable[[Path, str], list[str]]  # (run_dir, stdout) -> problems
    files: dict[str, str] = field(default_factory=dict)  # configs written into the run directory
    repeats: int = 1              # runs per cycle


def derived_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def read_certificate(path: Path) -> dict[str, str]:
    """Top-level ``key: value`` fields, parsed here so the check does not rely on kissgram."""
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if ":" in line and not line.startswith(" "):
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    return fields


def certificate_check(cert: str, count: int):
    def check(run_dir: Path, stdout: str) -> list[str]:
        path = run_dir / cert
        if not path.is_file():
            return [f"{cert} missing"]
        fields = read_certificate(path)
        problems = []
        if fields.get("verdict") != "Pass":
            problems.append(f"verdict {fields.get('verdict')!r}")
        if fields.get("sphere-count") != str(count):
            problems.append(f"sphere-count {fields.get('sphere-count')!r}, expected {count}")
        return problems
    return check


def search_check(out_dir: str, dim: int):
    cert_check = certificate_check(f"{out_dir}/best.cert", KISSING[dim])

    def check(run_dir: Path, stdout: str) -> list[str]:
        problems = cert_check(run_dir, stdout)
        if f"best team reward: {KISSING[dim]}\n" not in stdout:
            problems.append(f"reward is not K({dim}) = {KISSING[dim]}")
        return problems
    return check


def search_jobs(tag: str, dim: int, rounds: int, episodes: int, rng_seed: int,
                seed_section: str = "") -> list[Job]:
    """The same search config in float and in rational mode."""
    jobs = []
    for mode in ("float", "rational"):
        label = f"{tag}-{mode}"
        config = (f"[run]\ndim = {dim}\nmode = {mode}\nrng-seed = {rng_seed}\n"
                  f"episodes = {episodes}\nrounds = {rounds}\nout-dir = {label}\n"
                  f"{seed_section}[action]\nc1 = {C1}\n")
        jobs.append(Job(label, mode, ["search", "--config", f"{label}.cfg"],
                        [f"{label}/best.gram", f"{label}/best.cert", f"{label}/best.vectors"],
                        search_check(label, dim), {f"{label}.cfg": config},
                        SEARCH_FLOAT_REPEATS if mode == "float" else 1))
    return jobs


def verify_job(label: str, mode: str, vec_file: str, count: int) -> Job:
    return Job(label, mode,
               ["verify", "--in", f"../inputs/{vec_file}", "--mode", mode,
                "--out", f"{label}.cert"],
               [f"{label}.cert"], certificate_check(f"{label}.cert", count),
               repeats=VERIFY_RATIONAL_REPEATS if mode == "rational" else 1)


def write_vectors(path: Path, int_rows, mode: str):
    """Write integer lattice rows as unit kiss-vectors through kissgram's own writer."""
    from kissgram.fileio import write_vector_file

    exact = lattices.rational_unit_rows(int_rows)
    floats = np.array([[float(x) for x in row] for row in exact])
    write_vector_file(path, floats, mode=mode, exact_rows=exact if mode == "rational" else None)


def build_workload(name: str, seed: int, inputs: Path) -> list[Job]:
    """Generate the workload's input files from ``seed`` and return its jobs."""
    if name == "search":
        jobs = []
        for salt, (dim, rounds, episodes) in enumerate(SCRATCH_CONFIGS):
            jobs += search_jobs(f"d{dim}", dim, rounds, episodes, derived_seed(seed, salt))
        section = f"[seed]\nsource = generator:E8Roots\nrows = {E8_SEED_ROWS}\n"
        return jobs + search_jobs("e8", 8, E8_ROUNDS, E8_EPISODES, derived_seed(seed, 10),
                                  section)
    if name == "verify":
        rng = np.random.default_rng([seed, 7])
        e8 = lattices.e8_min_vectors()
        lattices.check_min_vectors(e8, 240, lattices.E8_COSINES)
        l16 = lattices.lambda16_min_vectors()
        lattices.check_min_vectors(l16, 4320, lattices.LAMBDA16_COSINES)
        support = np.count_nonzero(l16, axis=1)
        subset = np.sort(np.concatenate([
            rng.choice(np.flatnonzero(support == k), size=n, replace=False)
            for k, n in LAMBDA16_EXACT_ROWS.items()]))
        write_vectors(inputs / "e8-float.vec", e8[rng.permutation(240)], "float")
        write_vectors(inputs / "l16-float.vec", l16[rng.permutation(4320)], "float")
        write_vectors(inputs / "e8-rational.vec", e8[rng.permutation(240)], "rational")
        write_vectors(inputs / "l16-rational.vec", l16[subset], "rational")
        # Rational jobs first: a cycle then runs them before and after the long
        # float Lambda16 job, which spreads their runs over the whole run.
        return [
            verify_job("e8-rational", "rational", "e8-rational.vec", 240),
            verify_job("l16-rational", "rational", "l16-rational.vec", len(subset)),
            verify_job("e8-float", "float", "e8-float.vec", 240),
            verify_job("l16-float", "float", "l16-float.vec", 4320),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "verify")


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.is_file() else None


def run_job(job: Job, run_dir: Path, traced: bool, env: dict, deadline: float) -> dict:
    for name, text in job.files.items():
        (run_dir / name).write_text(text, encoding="utf-8")
    result_path = run_dir / f"{job.label}.result.json"
    cmd = [sys.executable, str(BENCH_DIR / "job.py"), "--result", str(result_path)]
    if traced:
        cmd.append("--trace")
    cmd += ["--", *job.argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        return {"label": job.label, "mode": job.mode, "problems": ["timed out"]}
    record = {"label": job.label, "mode": job.mode, "problems": []}
    if proc.returncode != 0 or not result_path.is_file():
        record["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return record
    result = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(setup_s=result["ready"] - spawned, time_s=result["done"] - result["ready"],
                  rss_mb=result["rss_mb"], layers=result.get("layers"))
    record["problems"] += job.check(run_dir, proc.stdout)
    record["digests"] = {a: digest(run_dir / a) for a in job.artifacts}
    return record


def by_job(records: list[dict]) -> dict[str, list[dict]]:
    """The finished runs of each job, by label."""
    jobs: dict[str, list[dict]] = {}
    for r in records:
        if "time_s" in r:
            jobs.setdefault(r["label"], []).append(r)
    return jobs


def mode_figures(records: list[dict]) -> dict[str, float]:
    """Per mode: each job's median time summed over the jobs, and the largest median peak RSS."""
    out = {}
    for mode, key in (("float", "float"), ("rational", "exact")):
        runs = [rs for rs in by_job(records).values() if rs[0]["mode"] == mode]
        if runs:
            out[f"{key}_s"] = sum(statistics.median(r["time_s"] for r in rs) for rs in runs)
            out[f"{key}_rss_mb"] = max(statistics.median(r["rss_mb"] for r in rs) for rs in runs)
    return out


LAYER_METRICS = """
filler.enumerate_lifted.calls filler.enumerate_lifted.self_s filler.enumerate_small.self_s
filler.expand_columns.self_s filler.tail_filter.self_s filler.tail_filter.entries
filler.exact_confirm.calls filler.exact_confirm.self_s filler.exact_confirm.accept_ratio
filler.candidates filler.sampled_ratio filler.fingerprint_state.calls
filler.fingerprint_state.self_s filler.select_action.self_s filler.tree_edges
gram.extend.calls gram.extend.self_s gram.extend_cache.self_s gram.factorize.calls
gram.factorize.self_s gram.check_invariants.self_s gram.is_psd.self_s gram.rank_of.self_s
gram.reconstruct_vectors.self_s
rational.exact_ldlt.calls rational.exact_ldlt.self_s rational.exact_inverse.calls
rational.exact_inverse.self_s rational.exact_matvec.calls rational.exact_matvec.self_s
corrector.row_features.self_s corrector.sample_index_set.self_s
corrector.apply_correction.self_s corrector.policy_gradient_update.self_s
corrector.rows_deleted
game.episodes game.fill_phase.self_s game.load_seed.self_s refconfigs.generate.self_s
verify.verify_vectors.self_s verify.verify_gram.self_s verify.spectrum_report.self_s
verify.pairs
fileio.read_vector_file.self_s fileio.write.self_s
checkpoint.save_checkpoint.calls checkpoint.save_checkpoint.self_s
checkpoint.save_checkpoint.bytes
trace.overhead_ratio
""".split()


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


RATIOS = {
    "filler.exact_confirm.accept_ratio": ("filler.exact_confirm.accepted",
                                          "filler.exact_confirm.calls", 1),
    "filler.sampled_ratio": ("filler.offered", "filler.candidates", 1),
}


def layer_figures(records: list[dict]) -> dict[str, float]:
    """Each job's median of every layer figure over its traced runs, summed over the
    jobs, with ratios formed from the summed counts."""
    total: dict[str, float] = {}
    for runs in by_job(records).values():
        for key in {k for r in runs for k in r["layers"]}:
            total[key] = total.get(key, 0) + statistics.median(r["layers"].get(key, 0)
                                                               for r in runs)
    for name, (num, den, scale) in RATIOS.items():
        total[name] = total.get(num, 0) / (scale * total[den]) if total.get(den) else 0.0
    total["game.episodes"] = total.get("game.play_episode.calls", 0)
    return total


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kissgram").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through its C API when it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(jobs: list[Job], seconds: float, trace: bool, env: dict, work: Path):
    """Run cycles until ``seconds`` is spent; per kind (traced or not), the records of each cycle.

    A cycle runs every job ``job.repeats`` times: its round r runs, in
    order, the jobs with more than r repeats, each round in its own
    directory.  When tracing, each untraced run of a job is followed at once
    by its traced run, so that the two sit next to each other in time.
    Another cycle starts when the time left exceeds half a cycle, so a run
    ends as near ``seconds`` as whole cycles allow.  A job still running
    ``DEADLINE_GRACE_S`` after ``seconds`` is killed and fails.
    """
    kinds = [False, True] if trace else [False]
    cycles: dict[bool, list[list[dict]]] = {False: [], True: []}
    start = time.monotonic()
    deadline = start + seconds + DEADLINE_GRACE_S
    while True:
        began = time.monotonic()
        for traced in kinds:
            cycles[traced].append([])
        for rnd in range(max(job.repeats for job in jobs)):
            dirs = {}
            for traced in kinds:
                dirs[traced] = work / f"cycle{len(cycles[False]) - 1}.{rnd}{'-traced' * traced}"
                dirs[traced].mkdir()
            for job in jobs:
                if job.repeats > rnd:
                    for traced in kinds:
                        cycles[traced][-1].append(
                            run_job(job, dirs[traced], traced, env, deadline))
        now = time.monotonic()
        if seconds - (now - start) <= (now - began) / 2:
            return cycles


# Raw layer counts that repeat exactly for a fixed input: the trajectory fingerprints.
EXACT_COUNTS = ("filler.candidates", "filler.tree_edges", "corrector.rows_deleted",
                "game.play_episode.calls", "verify.pairs", "filler.tail_filter.entries")


def summarize(cycles: dict[bool, list[list[dict]]], trace: bool):
    """Metrics of the run, the problems that make it incorrect, and each job's trajectory counts."""
    every = [r for group in cycles.values() for c in group for r in c]
    problems = [f"{r['label']}: {'; '.join(r['problems'])}" for r in every if r["problems"]]
    for label, runs in by_job(every).items():
        if any(r["digests"] != runs[0]["digests"] for r in runs):
            problems.append(f"{label}: artifact digests differ between runs")
    traced_runs = by_job([r for c in cycles[True] for r in c])
    counts = {label: {k: runs[0]["layers"].get(k, 0) for k in EXACT_COUNTS}
              for label, runs in traced_runs.items()}
    for label, runs in traced_runs.items():
        if any({k: r["layers"].get(k, 0) for k in EXACT_COUNTS} != counts[label] for r in runs):
            problems.append(f"{label}: trajectory counts differ between traced runs")

    metrics: dict[str, dict] = {}
    if trace:
        layers = layer_figures([r for c in cycles[True] for r in c])
        for name in LAYER_METRICS[:-1]:
            metrics[name] = {"value": layers.get(name, 0), "unit": layer_unit(name)}
        # Each traced cycle against its untraced twin, whose runs alternate
        # with it job by job, so that drift of the machine's speed cancels.
        ratios = [sum(r["time_s"] for r in t) / sum(r["time_s"] for r in u) - 1.0
                  for u, t in zip(cycles[False], cycles[True])
                  if all("time_s" in r for r in u + t)]
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(ratios) if ratios else 0.0, "unit": "ratio"}
    else:
        setups = [r["setup_s"] for r in every if "setup_s" in r]
        metrics["setup_s"] = {"value": statistics.median(setups) if setups else 0.0, "unit": "s"}
        figures = mode_figures(every)
        for name, unit in (("float_s", "s"), ("exact_s", "s"),
                           ("float_rss_mb", "MB"), ("exact_rss_mb", "MB")):
            metrics[name] = {"value": figures.get(name, 0.0), "unit": unit}
    return metrics, problems, counts or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kissgram benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kissgram" / "cli.py").is_file():
        print(f"error: no kissgram sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        jobs = build_workload(args.workload, args.seed, inputs)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), str(BENCH_DIR)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
        cycles = measure(jobs, args.seconds, bool(args.trace), env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics, problems, counts = summarize(cycles, bool(args.trace))
    every = [r for group in cycles.values() for c in group for r in c]
    failed = sum(1 for r in every if r["problems"])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "jobs": len(every), "failed_frac": failed / len(every), "problems": problems,
        "cycles": {("traced" if k else "untraced"): [
            [{key: r.get(key) for key in ("label", "setup_s", "time_s", "rss_mb", "digests")}
             for r in c] for c in group] for k, group in cycles.items() if group},
        "counts": counts,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(every), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
