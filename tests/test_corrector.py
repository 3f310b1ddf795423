"""Deletion policy: sampling, correction, and the REINFORCE gradient."""

import numpy as np
import pytest

from kissgram.corrector import (
    CorrectionDraw,
    CorrectorPolicy,
    FEATURE_BASE,
    apply_correction,
    policy_gradient_update,
    row_features,
    sample_index_set,
)
from kissgram.errors import ConfigError, ProtectedRow
from kissgram.filler import DiscreteSet
from kissgram.gram import GramState, gram_from_vectors, is_psd, rank_of
from kissgram.refconfigs import generate


def _uniform_policy(n_features, **kw):
    return CorrectorPolicy.zeros(n_features, **kw)


def _reference_features(state, c1_values, ages, conflicts, rounds):
    """Row-by-row loop that ``row_features`` vectorizes, kept as its oracle."""
    g = state.entries
    m = state.m
    vals = np.asarray(c1_values, dtype=float)
    gmax = g[~np.eye(m, dtype=bool)].max() if m > 1 else -1.0
    rows = []
    for i in range(m):
        row = g[i][np.arange(m) != i]
        counts = np.zeros(len(vals), dtype=int)
        if row.size and len(vals):
            for k in np.argmin(np.abs(row[:, None] - vals[None, :]), axis=1):
                counts[k] += 1
        rows.append((int(np.count_nonzero(np.abs(row - gmax) <= 1e-9)) if row.size else 0,
                     float(row.mean()) if row.size else 0.0,
                     counts, int(ages[i]), int(conflicts[i])))
    out = np.zeros((m, FEATURE_BASE + len(vals)))
    denom = max(m - 1, 1)
    conflict_total = max(sum(r[4] for r in rows), 1)
    for i, (degree, mean, counts, age, conflict) in enumerate(rows):
        out[i, 0] = degree / denom
        out[i, 1] = mean
        out[i, 2] = age / max(rounds, 1)
        out[i, 3] = conflict / conflict_total
        out[i, 4:] = np.asarray(counts, dtype=float) / denom
    return out


def _feature_cases():
    c1 = (-1.0, -0.5, 0.0, 0.5)
    for name in ("Hexagon", "D4Roots", "E8Roots"):
        yield name, generate(name).gram.as_float(), c1
    yield "single", GramState.single(3), c1
    rng = np.random.default_rng(17)
    for case in range(8):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 30))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        yield f"random-{case}", gram_from_vectors(vs, n), (-1.0, -1 / 3, 0.0, 0.25, 0.5)


@pytest.mark.parametrize("name, state, c1",
                         [pytest.param(*case, id=case[0]) for case in _feature_cases()])
def test_row_features_match_the_row_loop(name, state, c1):
    rng = np.random.default_rng(state.m)
    ages = rng.integers(0, 6, size=state.m)
    conflicts = rng.integers(0, 4, size=state.m)
    for a, c in ((ages, conflicts), (np.zeros(state.m, dtype=int), np.zeros(state.m, dtype=int))):
        got = row_features(state, DiscreteSet(c1), a, c, 5)
        assert np.array_equal(got, _reference_features(state, c1, a, c, 5))


def test_row_features_histogram_sums_to_m_minus_one():
    state = generate("Hexagon").gram.as_float()
    feats = row_features(state, DiscreteSet((-1.0, -0.5, 0.0, 0.5)), [0] * 6, [0] * 6, 1)
    assert np.array_equal(feats[:, FEATURE_BASE:].sum(axis=1) * 5, np.full(6, 5.0))
    assert np.isfinite(feats[:, 1]).all()
    # Every hexagon row touches two neighbors at the maximal cosine 1/2.
    assert np.array_equal(feats[:, 0] * 5, np.full(6, 2.0))


def test_sample_cap_zero_returns_empty_set():
    state = GramState(dim=2, entries=np.eye(2))
    feats = np.zeros((2, 3))
    policy = CorrectorPolicy(weights=np.zeros(3), max_delete_fraction=0.2)
    draw = sample_index_set(policy, state, feats, np.random.default_rng(0))
    assert draw.indices == ()  # cap = floor(0.2 * 2) = 0


def test_sampling_respects_protected_rows():
    state = generate("Hexagon").gram.as_float()
    feats = np.zeros((6, 2))
    policy = CorrectorPolicy(weights=np.zeros(2), max_delete_fraction=0.5)
    rng = np.random.default_rng(1)
    for _ in range(200):
        draw = sample_index_set(policy, state, feats, rng, protected=range(4))
        assert all(i >= 4 for i in draw.indices)


def test_high_temperature_sampling_is_uniform():
    state = generate("CrossPolytope(5)").gram.as_float()  # 10 rows
    m = state.m
    feats = np.zeros((m, 1))
    feats[:, 0] = np.arange(m)  # scores vary, but T -> inf flattens them
    policy = CorrectorPolicy(weights=np.ones(1), temperature=1e9,
                             max_delete_fraction=0.3)
    rng = np.random.default_rng(7)
    counts = np.zeros(m)
    draws = 10_000
    total = 0
    for _ in range(draws):
        draw = sample_index_set(policy, state, feats, rng)
        for i in draw.indices:
            counts[i] += 1
        total += len(draw.indices)
    expected = total / m
    # Chi-squared against uniform: 9 dof, 99.9th percentile ~ 27.9.
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 27.9


def test_low_temperature_concentrates_on_high_score():
    state = generate("Hexagon").gram.as_float()
    feats = np.zeros((6, 1))
    feats[3, 0] = 5.0  # one row with a dominating conflict-style feature
    policy = CorrectorPolicy(weights=np.ones(1), temperature=0.05,
                             max_delete_fraction=0.2)
    rng = np.random.default_rng(3)
    hits = draws = 0
    for _ in range(1000):
        draw = sample_index_set(policy, state, feats, rng)
        if draw.indices:
            draws += 1
            hits += int(3 in draw.indices)
    assert draws > 100
    assert hits / draws > 0.95


def test_apply_correction_identity_and_principal_submatrix():
    state = generate("Hexagon").gram.as_float()
    assert apply_correction(state, []).entries.tolist() == state.entries.tolist()
    smaller = apply_correction(state, [5])
    assert smaller.m == 5
    assert is_psd(smaller, 1e-9)
    assert rank_of(smaller, 1e-7) == 2


def test_apply_correction_protected_row_raises():
    state = generate("Hexagon").gram.as_float()
    with pytest.raises(ProtectedRow):
        apply_correction(state, [0, 5], protected=range(2))
    with pytest.raises(ProtectedRow):
        apply_correction(state, [3], protected=[3])


def test_deletion_preserves_invariants_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 9))
        vs = rng.standard_normal((m, n))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        state = gram_from_vectors(vs, n)
        keep_from = int(rng.integers(0, m))
        dels = [i for i in range(keep_from, m) if rng.integers(2) == 0]
        if len(dels) == m:
            dels = dels[:-1]
        out = apply_correction(state, dels)
        assert out.m == m - len(dels)
        assert is_psd(out, 1e-9)
        assert rank_of(out, 1e-7) <= rank_of(state, 1e-7)
        assert np.all(np.diag(out.entries) == 1.0)


def _replayed_log_prob(weights, temperature, features, eligible, sequence):
    """Log-likelihood of the drawn order, up to the weight-independent size
    term: the softmax steps replayed from the features, as the reference the
    recorded score is the gradient of."""
    scores = features @ weights / temperature
    remaining = list(eligible)
    total = 0.0
    for pick in sequence:
        logits = scores[remaining] - scores[remaining].max()
        total += float(logits[remaining.index(pick)] - np.log(np.exp(logits).sum()))
        remaining.remove(pick)
    return total


def _random_draw(rng, policy, m, protected=()):
    """Random features and a nonempty draw sampled from them under ``policy``."""
    feats = rng.standard_normal((m, policy.weights.size))
    state = GramState(dim=m, entries=np.eye(m))
    while True:
        draw = sample_index_set(policy, state, feats, rng, protected=protected)
        if draw.sequence:
            return feats, draw


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_features = int(rng.integers(2, 6))
        m = int(rng.integers(3, 8))
        protected = tuple(range(int(rng.integers(0, m - 1))))
        policy = CorrectorPolicy(weights=rng.standard_normal(n_features),
                                 temperature=float(rng.uniform(0.5, 2.0)),
                                 max_delete_fraction=0.5)
        feats, draw = _random_draw(rng, policy, m, protected)
        assert not set(draw.sequence) & set(protected)
        assert not draw.score.flags.writeable
        eligible = range(len(protected), m)
        eps = 1e-6
        for j in range(n_features):
            w_plus = policy.weights.copy()
            w_minus = policy.weights.copy()
            w_plus[j] += eps
            w_minus[j] -= eps
            fd = (_replayed_log_prob(w_plus, policy.temperature, feats, eligible, draw.sequence)
                  - _replayed_log_prob(w_minus, policy.temperature, feats, eligible,
                                       draw.sequence)) / (2 * eps)
            scale = max(abs(fd), abs(draw.score[j]), 1e-8)
            assert abs(fd - draw.score[j]) / scale < 1e-5


def _choice_sequence(policy, features, rng, protected=()):
    """The deletion order ``sample_index_set`` draws, each pick made by
    ``Generator.choice``: the reference for its inline draw."""
    m = len(features)
    remaining = [i for i in range(m) if i not in protected]
    cap = int(policy.max_delete_fraction * m)
    k = 0
    if remaining and cap > 0:
        k = min(int(rng.binomial(len(remaining), policy.max_delete_fraction)), cap, len(remaining))
    scores = features @ policy.weights
    sequence = []
    for _ in range(k):
        logits = scores[remaining] / policy.temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        sequence.append(remaining.pop(int(rng.choice(len(remaining), p=probs))))
    return tuple(sequence)


def test_sampling_draws_as_generator_choice():
    # 2*10^4 picks; low temperatures give probabilities that underflow to 0.
    rng = np.random.default_rng(8)
    drawn = 0
    while drawn < 20_000:
        m = int(rng.integers(2, 40))
        policy = CorrectorPolicy(weights=rng.standard_normal(3),
                                 temperature=float(10 ** rng.uniform(-3, 2)),
                                 max_delete_fraction=float(rng.uniform(0.1, 0.9)))
        feats = rng.standard_normal((m, 3))
        protected = tuple(range(int(rng.integers(0, m))))
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = sample_index_set(policy, GramState(dim=m, entries=np.eye(m)), feats, ours,
                                protected=protected)
        assert draw.sequence == _choice_sequence(policy, feats, theirs, protected)
        assert ours.bit_generator.state == theirs.bit_generator.state
        drawn += len(draw.sequence)


def test_update_with_zero_advantage_keeps_weights():
    rng = np.random.default_rng(4)
    policy = CorrectorPolicy(weights=np.array([0.3, -0.2]))
    draw = CorrectionDraw(indices=(0, 2), sequence=(2, 0), score=rng.standard_normal(2))
    updated, _ = policy_gradient_update(policy, (draw,), 7.0, learning_rate=0.1, baseline=7.0)
    assert np.array_equal(updated.weights, policy.weights)


def test_update_adds_the_advantage_weighted_scores():
    policy = CorrectorPolicy(weights=np.array([0.3, -0.2]))
    draws = (CorrectionDraw(indices=(1,), sequence=(1,), score=np.array([1.0, 2.0])),
             CorrectionDraw(indices=(), sequence=(), score=np.zeros(2)),
             CorrectionDraw(indices=(0, 3), sequence=(3, 0), score=np.array([-0.5, 4.0])))
    updated, baseline = policy_gradient_update(policy, draws, 5.0, learning_rate=0.25,
                                               baseline=3.0)
    assert np.array_equal(updated.weights, [0.3 + 0.25 * 2.0 * 0.5, -0.2 + 0.25 * 2.0 * 6.0])
    assert baseline == 0.9 * 3.0 + 0.1 * 5.0


def test_overflowing_policy_is_a_config_error():
    state = GramState(dim=4, entries=np.eye(4))
    feats = np.ones((4, 1))
    feats[0, 0] = 2.0
    tiny = CorrectorPolicy(weights=np.ones(1), temperature=1e-308, max_delete_fraction=0.5)
    with pytest.raises(ConfigError, match="corrector temperature"):
        sample_index_set(tiny, state, feats, np.random.default_rng(0))  # a nonempty draw
    draw = CorrectionDraw(indices=(0,), sequence=(0,), score=np.array([1e308]))
    with pytest.raises(ConfigError, match="corrector learning-rate"):
        policy_gradient_update(CorrectorPolicy(weights=np.ones(1)), (draw,), 10.0,
                               learning_rate=100.0, baseline=0.0)


def test_synthetic_bandit_weight_increases():
    # One feature marks the "bad" row; deleting it earns a higher reward.
    rng = np.random.default_rng(8)
    feats = np.zeros((4, 1))
    feats[2, 0] = 1.0
    policy = CorrectorPolicy(weights=np.zeros(1), temperature=1.0,
                             max_delete_fraction=0.3)
    baseline = 0.0
    state = GramState(dim=4, entries=np.eye(4))
    weights_history = [float(policy.weights[0])]
    for _ in range(100):
        draw = sample_index_set(policy, state, feats, rng)
        reward = 2.0 if 2 in draw.indices else 1.0
        if not draw.sequence:
            baseline = 0.9 * baseline + 0.1 * reward
            continue
        policy, baseline = policy_gradient_update(policy, (draw,), reward,
                                                  learning_rate=0.3, baseline=baseline)
        weights_history.append(float(policy.weights[0]))
    assert weights_history[-1] > 0.5
    # The learned policy now prefers the bad row.
    hits = draws = 0
    for _ in range(500):
        draw = sample_index_set(policy, state, feats, rng)
        if draw.indices:
            draws += 1
            hits += int(2 in draw.indices)
    assert hits / draws > 0.8


def test_feature_matrix_shape_and_normalization():
    state = generate("Hexagon").gram.as_float()
    matrix = row_features(state, DiscreteSet((-1.0, -0.5, 0.0, 0.5)),
                          ages=[0, 1, 2, 3, 4, 5], conflicts=[0, 0, 10, 0, 0, 0], rounds=5)
    assert matrix.shape == (6, 4 + 4)
    assert matrix[2, 3] == pytest.approx(1.0)  # all conflict mass on row 2
    assert np.isfinite(matrix).all()
