import numpy as np
import pytest

from gmgan.errors import ContractError
from gmgan.generator import GenerationTrace
from gmgan.rewards import (RewardBaseline, compute_reward_trace,
                           discounted_cumulative, feature_matching_reward,
                           q_values)


def make_trace(features, predictions):
    big_t = len(predictions)
    return GenerationTrace(tokens=[4] * (big_t - 1) + [2],
                           features=list(features),
                           predictions=list(predictions),
                           init_feature=np.zeros(len(features[0])))


def np_cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b) / (na * nb)


# ---------------------------------------------------------------------------
# feature-matching reward
# ---------------------------------------------------------------------------

def test_oracle_guider_gives_unit_reward_on_full_windows():
    rng = np.random.default_rng(0)
    c, big_t = 3, 9
    feats = [np.abs(rng.normal(size=6)) + 0.05 for _ in range(big_t + 1)]
    # prediction made after consuming f_k lands exactly on f_{k+c}
    preds = [feats[min(k + c, big_t)] for k in range(big_t)]
    r = feature_matching_reward(make_trace(feats, preds), c)
    for t in range(c, big_t + 1):
        assert abs(r[t - 1] - 1.0) < 1e-12


def test_orthogonal_prediction_gives_zero_reward():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    feats = [np.zeros(2), e1]
    preds = [e2]
    r = feature_matching_reward(make_trace(feats, preds), 1)
    assert r.shape == (1,)
    assert r[0] == 0.0


def test_reward_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for case in range(50):
        c = int(rng.integers(1, 5))
        big_t = int(rng.integers(1, 9))
        feats = [rng.normal(size=5) for _ in range(big_t + 1)]
        preds = [rng.normal(size=5) for _ in range(big_t)]
        got = feature_matching_reward(make_trace(feats, preds), c)
        # independent direct summation
        for t in range(1, big_t + 1):
            window = min(t, c)
            pred = preds[max(t - c, 0)]
            total = 0.0
            for i in range(1, window + 1):
                total += np_cos(feats[t], pred)
                total += np_cos(feats[t] - feats[t - i], pred - feats[t - i])
            assert abs(got[t - 1] - total / (2 * window)) < 1e-12


def test_reward_bounds():
    rng = np.random.default_rng(2)
    for _ in range(30):
        big_t = int(rng.integers(1, 8))
        feats = [rng.normal(size=4) for _ in range(big_t + 1)]
        preds = [rng.normal(size=4) for _ in range(big_t)]
        r = feature_matching_reward(make_trace(feats, preds), 2)
        assert np.all(r >= -1.0 - 1e-12)
        assert np.all(r <= 1.0 + 1e-12)


def test_reward_requires_aligned_trace():
    trace = make_trace([np.ones(3)] * 4, [np.ones(3)] * 3)
    trace.predictions = None
    with pytest.raises(ContractError):
        feature_matching_reward(trace, 2)
    with pytest.raises(ContractError):   # a trace of no steps
        feature_matching_reward(
            GenerationTrace([], [np.ones(3)], [], np.zeros(3)), 2)


# ---------------------------------------------------------------------------
# discounted returns
# ---------------------------------------------------------------------------

def test_hand_worked_return_values():
    r = discounted_cumulative([0.5, 0.5, 0.5], 0.25)
    assert r.tolist() == [0.65625, 0.625, 0.5]


def test_gamma_zero_is_identity():
    rng = np.random.default_rng(3)
    r_g = rng.normal(size=6)
    assert np.array_equal(discounted_cumulative(r_g, 0.0), r_g)


def test_geometric_series_limit():
    r = discounted_cumulative(np.ones(40), 0.25)
    assert abs(r[0] - 4.0 / 3.0) < 1e-9


def test_gamma_domain_checked():
    with pytest.raises(ContractError):
        discounted_cumulative([1.0], 1.0)
    with pytest.raises(ContractError):
        discounted_cumulative([1.0], -0.1)


def test_recursion_property_random_traces():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        gamma = float(rng.uniform(0.0, 0.99))
        r_g = rng.normal(size=n)
        ret = discounted_cumulative(r_g, gamma)
        for t in range(n - 1):
            assert abs(ret[t] - gamma * ret[t + 1] - r_g[t]) < 1e-12
        assert abs(ret[-1] - r_g[-1]) < 1e-12


def test_absolute_convention_scales_by_position():
    r_g = [1.0, 1.0, 1.0]
    rel = discounted_cumulative(r_g, 0.5)
    absolute = discounted_cumulative(r_g, 0.5, convention="absolute")
    assert np.allclose(absolute, rel * 0.5 ** np.arange(1, 4), atol=1e-15)


def test_brute_force_equivalence_direct_summation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        gamma = float(rng.uniform(0.0, 0.99))
        r_g = rng.normal(size=n)
        got = discounted_cumulative(r_g, gamma)
        brute = np.array([sum(gamma ** (i - t) * r_g[i] for i in range(t, n))
                          for t in range(n)])
        assert np.max(np.abs(got - brute)) < 1e-12


# ---------------------------------------------------------------------------
# Q values
# ---------------------------------------------------------------------------

def test_q_hand_values():
    q = q_values(np.array([0.65625, 0.625, 0.5]), 0.8)
    assert q.tolist() == [0.525, 0.5, 0.4]


def test_q_discriminator_veto_and_identity():
    r = np.array([0.3, -0.2, 0.9])
    assert np.all(q_values(r, 0.0) == 0.0)
    assert np.array_equal(q_values(r, 1.0), r)


def test_q_linear_in_final_reward():
    rng = np.random.default_rng(6)
    r = rng.normal(size=5)
    assert np.allclose(q_values(r, 0.6), 0.75 * q_values(r, 0.8), atol=1e-15)


def test_q_range_checked():
    with pytest.raises(ContractError):
        q_values(np.ones(3), 1.5)


# ---------------------------------------------------------------------------
# pipeline, ablations, baseline, export
# ---------------------------------------------------------------------------

def test_compute_reward_trace_modes():
    rng = np.random.default_rng(7)
    feats = [np.abs(rng.normal(size=4)) for _ in range(5)]
    preds = [rng.normal(size=4) for _ in range(4)]
    trace = make_trace(feats, preds)
    both = compute_reward_trace(trace, 0.8, c=2, gamma=0.25)
    final_only = compute_reward_trace(trace, 0.8, c=2, gamma=0.25,
                                      mode="final-only")
    stepwise = compute_reward_trace(trace, 0.8, c=2, gamma=0.25,
                                    mode="stepwise-only")
    assert np.allclose(both.q, both.returns * 0.8, atol=1e-15)
    assert np.all(final_only.q == 0.8)
    assert np.array_equal(stepwise.q, stepwise.returns)
    with pytest.raises(ContractError):
        compute_reward_trace(trace, 0.8, c=2, gamma=0.25, mode="bogus")


def test_baseline_cold_start_and_ema():
    base = RewardBaseline(momentum=0.9)
    q1 = [np.array([1.0, 3.0])]
    advs = base.advantages(q1)
    assert np.array_equal(advs[0], q1[0])
    assert abs(base.value - 0.1 * 2.0) < 1e-15
    base.advantages([np.array([4.0])])
    expected = 0.9 * 0.2 + 0.1 * 4.0
    assert abs(base.value - expected) < 1e-15


def test_baseline_converges_on_constant_stream():
    base = RewardBaseline(momentum=0.9)
    last = None
    for _ in range(200):
        last = base.advantages([np.full(3, 2.0)])[0]
    assert np.max(np.abs(last)) < 1e-8
