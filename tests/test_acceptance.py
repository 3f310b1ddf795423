"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line for its criterion (visible with -s, or
in captured output on failure).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from kissgram.checkpoint import load_checkpoint, save_checkpoint
from kissgram.cli import main as cli_main
from kissgram.corrector import CorrectorPolicy, grad_log_prob, log_prob
from kissgram.cosines import simulate_cosine_set
from kissgram.filler import ActionSpec, DiscreteSet, enumerate_lifted, enumerate_small
from kissgram.game import KNOWN_OPTIMAL, GameConfig, SeedSpec, team_reward, train_loop
from kissgram.gram import (
    GramState,
    Tolerances,
    extend,
    factorize,
    gram_from_vectors,
)
from kissgram.refconfigs import generate
from kissgram.verify import verify_gram, verify_vectors

SEEDS = (101, 202, 303, 404, 505)
C1 = (-1.0, -0.5, 0.0, 0.5)
SPEC = ActionSpec(c1=DiscreteSet(C1))
TOLS = Tolerances()

_observed_rewards: list[tuple[int, int]] = []  # (dim, reward) across the suite


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _search(dim: int, seed: int, episodes: int, rounds: int,
            seed_spec: SeedSpec = SeedSpec()) -> tuple[int, float]:
    cfg = GameConfig(dim=dim, action=SPEC, seed=seed_spec, rounds=rounds, rng_seed=seed)
    start = time.perf_counter()
    result = train_loop(cfg, episodes=episodes)
    elapsed = time.perf_counter() - start
    _observed_rewards.append((dim, max(result.rewards)))
    return result.best.team_reward, elapsed


def test_criterion_oracle_reproduction_dim2():
    for seed in SEEDS:
        reward, elapsed = _search(2, seed, episodes=5, rounds=3)
        assert elapsed < 10.0, f"dim 2 run took {elapsed:.1f}s (limit 10s)"
        assert reward == 6
    _report("oracle reproduction dim 2 = 6 (5/5 seeds, <10s each)", True)


def test_criterion_oracle_reproduction_dim3():
    for seed in SEEDS:
        reward, elapsed = _search(3, seed, episodes=40, rounds=5)
        assert elapsed < 120.0, f"dim 3 run took {elapsed:.1f}s (limit 120s)"
        assert reward == 12
    _report("oracle reproduction dim 3 = 12 (5/5 seeds, <2min each)", True)


def test_criterion_oracle_reproduction_dim4():
    for seed in SEEDS:
        reward, elapsed = _search(4, seed, episodes=80, rounds=8)
        assert elapsed < 600.0, f"dim 4 run took {elapsed:.1f}s (limit 10min)"
        assert reward == 24
    _report("oracle reproduction dim 4 = 24 (5/5 seeds, <10min each)", True)


def test_criterion_oracle_reproduction_dim8_seeded():
    seed_spec = SeedSpec(kind="generator", name="E8Roots", rows=120)
    for seed in SEEDS:
        reward, elapsed = _search(8, seed, episodes=2, rounds=6, seed_spec=seed_spec)
        assert elapsed < 600.0, f"dim 8 run took {elapsed:.1f}s (limit 10min)"
        assert reward == 240
    _report("oracle reproduction dim 8 seeded (120 E8 rows) = 240 (<10min)", True)


def test_criterion_never_exceed_soundness():
    # A from-scratch run in dimension 1 completes the observations.
    reward, _ = _search(1, 7, episodes=2, rounds=2)
    assert reward == 2
    assert _observed_rewards, "soundness check needs the searches above"
    for dim, observed in _observed_rewards:
        bound = KNOWN_OPTIMAL.get(dim)
        assert bound is None or observed <= bound, \
            f"reward {observed} exceeds the optimal {bound} in dimension {dim}"
    _report("never-exceed soundness across all observed runs", True,
            f"{len(_observed_rewards)} runs checked")


def test_criterion_cosine_set_recovery():
    for seed in SEEDS:
        res2 = simulate_cosine_set(2, np.array([[1.0, 0.0]]), budget=50,
                                   rng=np.random.default_rng(seed))
        assert [e.display() for e in res2.cosine_set.entries] == ["-1", "-1/2", "1/2"]
    for seed in SEEDS:
        res4 = simulate_cosine_set(4, np.array([[1.0, 0, 0, 0]]), budget=400,
                                   rng=np.random.default_rng(seed))
        assert [e.display() for e in res4.cosine_set.entries] == ["-1", "-1/2", "0", "1/2"]
    _report("cosine-set recovery: dim 2 {-1,-1/2,1/2} and dim 4 {-1,-1/2,0,1/2} "
            "(5/5 seeds)", True)


def _oracle_small(state: GramState, values) -> set[tuple[float, ...]]:
    m = state.m
    out = set()
    for tup in itertools.product(values, repeat=m):
        g = np.zeros((m + 1, m + 1))
        g[:m, :m] = state.entries
        g[m, :m] = tup
        g[:m, m] = tup
        g[m, m] = 1.0
        w = np.linalg.eigvalsh(g)
        if w[0] >= -TOLS.psd and int(np.count_nonzero(w > TOLS.rank)) == m + 1:
            out.add(tup)
    return out


def _oracle_lifted(state: GramState, values) -> set[tuple[float, ...]]:
    n = state.dim
    chol = np.linalg.cholesky(state.entries[:n, :n])
    pinv = np.linalg.pinv(state.entries[:n, :n])
    cross = state.entries[n:, :n]
    out = set()
    for head in itertools.product(values, repeat=n):
        h = np.array(head)
        if abs(np.linalg.norm(np.linalg.inv(chol) @ h) - 1.0) > TOLS.psd:
            continue
        tail = cross @ pinv @ h
        snapped = []
        ok = True
        for t in tail:
            dist = [abs(t - v) for v in values]
            k = int(np.argmin(dist))
            if dist[k] > TOLS.snap:
                ok = False
                break
            snapped.append(values[k])
        if ok:
            out.add(tuple(h.tolist()) + tuple(snapped))
    return out


def _grow_by_oracle(rng, n, target_m, values) -> GramState | None:
    state = GramState.single(n)
    while state.m < target_m:
        if state.m < n:
            options = sorted(_oracle_small(state, values))
        else:
            try:
                options = sorted(_oracle_lifted(state, values))
            except np.linalg.LinAlgError:
                return None
        if not options:
            return state
        state = extend(state, np.array(options[int(rng.integers(len(options)))]))
    return state


def test_criterion_brute_force_equivalence():
    rng = np.random.default_rng(99)
    pool = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5)
    cases = 0
    while cases < 200:
        n = int(rng.integers(2, 4))
        size = int(rng.integers(2, 6))
        values = tuple(sorted(rng.choice(pool, size=size, replace=False)))
        target_m = int(rng.integers(1, 7))
        state = _grow_by_oracle(rng, n, target_m, values)
        if state is None:
            continue
        spec = ActionSpec(c1=DiscreteSet(values))
        if state.m < n:
            got = {tuple(c.full.tolist()) for c in enumerate_small(state, spec)}
            want = _oracle_small(state, values)
        else:
            try:
                cache = factorize(state)
            except Exception:
                continue
            got = {tuple(c.full.tolist()) for c in enumerate_lifted(state, cache, spec)}
            want = _oracle_lifted(state, values)
        assert got == want, f"mismatch on n={n}, m={state.m}, values={values}"
        cases += 1
    _report("brute-force equivalence of filler enumeration", True, f"{cases} cases")


def test_criterion_exact_certification():
    rational_names = ["Hexagon", "CrossPolytope(2)", "CrossPolytope(4)",
                      "CrossPolytope(13)", "CrossPolytope(24)", "Simplex(3)",
                      "Simplex(8)", "D4Roots", "E8Roots"]
    for name in rational_names + ["Icosahedron"]:
        built = generate(name)
        cert = verify_gram(built.gram)
        assert cert.verdict == "Pass", f"{name} failed: {cert.fail_reason}"
    # E8 contact degrees against a brute-force neighbor count from coordinates.
    e8 = generate("E8Roots")
    g = e8.vectors @ e8.vectors.T
    counts = [int(np.sum(np.abs(g[i][np.arange(240) != i] - 0.5) <= 1e-9))
              for i in range(240)]
    cert = verify_gram(e8.gram)
    assert cert.contact_degrees == tuple(counts)
    assert set(counts) == {56}
    # Rational-mode and float-mode verdicts agree on every rational instance.
    for name in rational_names:
        built = generate(name)
        exact_cert = verify_gram(built.gram, mode="rational")
        float_cert = verify_gram(built.gram.as_float(), mode="float")
        assert exact_cert.verdict == float_cert.verdict
        assert exact_cert.rank == float_cert.rank
    _report("exact certification of reference configurations", True,
            f"{len(rational_names) + 1} configurations, E8 contacts all 56")


def test_criterion_gradient_check():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        n_features = int(rng.integers(2, 7))
        m = int(rng.integers(3, 9))
        policy = CorrectorPolicy(weights=rng.standard_normal(n_features),
                                 temperature=float(rng.uniform(0.4, 2.5)))
        feats = rng.standard_normal((m, n_features))
        k = int(rng.integers(1, min(m, 4)))
        seq = tuple(int(i) for i in rng.choice(m, size=k, replace=False))
        from kissgram.corrector import CorrectionDraw

        draw = CorrectionDraw(indices=tuple(sorted(seq)), sequence=seq,
                              eligible=tuple(range(m)), features=feats)
        grad = grad_log_prob(policy, draw)
        eps = 1e-6
        for j in range(n_features):
            wp, wm = policy.weights.copy(), policy.weights.copy()
            wp[j] += eps
            wm[j] -= eps
            fd = (log_prob(CorrectorPolicy(weights=wp, temperature=policy.temperature), draw)
                  - log_prob(CorrectorPolicy(weights=wm, temperature=policy.temperature), draw)) / (2 * eps)
            rel = abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-5
    _report("corrector gradient matches central finite differences", True,
            f"50 instances, worst relative error {worst:.2e} < 1e-5")


def test_criterion_reward_identity():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        assert team_reward(gram_from_vectors(vs, n)) == m
    _report("team reward equals sphere count", True, "10000 random states")


def test_criterion_determinism(tmp_path):
    # End-to-end CLI runs are byte-identical under a fixed seed.
    sim_blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}.rep"
        assert cli_main(["simulate-cosines", "--dim", "2", "--budget", "40",
                         "--out", str(out), "--rng-seed", "12"]) == 0
        sim_blobs.append(out.read_bytes())
    assert sim_blobs[0] == sim_blobs[1]

    search_blobs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"run_{tag}.cfg"
        cfg.write_text("[run]\ndim = 3\nepisodes = 10\nrounds = 4\nrng-seed = 8\n"
                       f"out-dir = out_{tag}\n")
        assert cli_main(["search", "--config", str(cfg)]) == 0
        root = tmp_path / f"out_{tag}"
        search_blobs.append(tuple((root / f).read_bytes()
                                  for f in ("best.gram", "best.cert", "best.vectors")))
    assert search_blobs[0] == search_blobs[1]

    verify_blobs = []
    e8_path = tmp_path / "e8.vec"
    assert cli_main(["generate", "--name", "E8Roots", "--out", str(e8_path)]) == 0
    for tag in ("a", "b"):
        out = tmp_path / f"cert_{tag}.txt"
        assert cli_main(["verify", "--in", str(e8_path), "--out", str(out)]) == 0
        verify_blobs.append(out.read_bytes())
    assert verify_blobs[0] == verify_blobs[1]

    # Checkpoint resume reproduces the uninterrupted run bit for bit.
    cfg = GameConfig(dim=3, action=SPEC, rounds=4, rng_seed=31)
    straight = train_loop(cfg, episodes=12)
    rng = np.random.default_rng(cfg.rng_seed)
    stage1 = train_loop(cfg, episodes=5, rng=rng)
    ck_path = tmp_path / "stage.bin"
    save_checkpoint(ck_path, config_echo="echo", rng=rng, tree=stage1.tree,
                    policy=stage1.policy, baseline=stage1.baseline,
                    rewards=stage1.rewards, best=stage1.best)
    ck = load_checkpoint(ck_path)
    rng2 = np.random.default_rng(0)
    rng2.bit_generator.state = ck.rng_state
    resumed = train_loop(cfg, episodes=7, tree=ck.tree, policy=ck.policy, rng=rng2,
                         baseline=ck.baseline, best=ck.best, rewards=ck.rewards)
    assert resumed.rewards == straight.rewards
    assert resumed.tree.summary() == straight.tree.summary()
    assert np.array_equal(resumed.policy.weights, straight.policy.weights)
    assert np.array_equal(resumed.best.final_state.entries,
                          straight.best.final_state.entries)
    _report("fixed-seed determinism and checkpoint-resume equality", True)


def test_criterion_large_dimension_ingestion_path(tmp_path):
    # The high-dimensional records are represented by ingestion plus
    # verification only; a supplied vector file must come back with a Pass
    # certificate carrying its claimed count and cosine spectrum.
    e8_path = tmp_path / "supplied.vec"
    assert cli_main(["generate", "--name", "E8Roots", "--out", str(e8_path)]) == 0
    from kissgram.fileio import read_vector_file

    doc = read_vector_file(e8_path)
    cert = verify_vectors(doc.vectors, doc.dim)
    assert cert.verdict == "Pass"
    assert cert.sphere_count == 240
    spectrum = {e.cosine.display(): e.multiplicity for e in cert.cosine_spectrum}
    assert spectrum == {"-1": 120, "-1/2": 6720, "0": 15120, "1/2": 6720}

    # Rational ingestion path: exact certification of a supplied rational set.
    x13 = generate("CrossPolytope(13)")
    rows = [[Fraction(int(x)) for x in row] for row in x13.vectors]
    rational_path = tmp_path / "x13.vec"
    from kissgram.fileio import write_vector_file

    write_vector_file(rational_path, x13.vectors, mode="rational", exact_rows=rows)
    doc = read_vector_file(rational_path)
    cert = verify_vectors(doc.vectors, doc.dim, mode="rational", exact=doc.exact)
    assert cert.verdict == "Pass"
    assert cert.sphere_count == 26
    assert cert.max_cosine_exact == 0

    # The README states which published results are out of desk-scale reach.
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "25" in text and "31" in text and "1146" in text
    _report("large-dimension records live behind the ingestion-plus-verification "
            "path only", True)
