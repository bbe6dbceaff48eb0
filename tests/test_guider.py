import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import guider as gui_mod
from gmgan.encoder import ModelProfile
from gmgan.errors import ContractError
from gmgan.guider import (GuiderParams, guider_loss_batch, guider_step,
                          initial_state, initial_state_for_labels,
                          objective_cosines)
from helpers import check_grads
from test_rewards import np_cos

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_guider(seed=0, num_labels=0):
    return GuiderParams(TINY, np.random.default_rng(seed), num_labels=num_labels)


def feature(rng):
    """One (1, F) feature row."""
    return ad.constant(np.abs(rng.normal(size=(1, TINY.feature_dim))))


def test_zero_params_prediction_is_head_bias():
    params = tiny_guider()
    for _, t in params.tensors():
        t.values[:] = 0.0
    params.head_b.values[:] = np.arange(TINY.feature_dim, dtype=float)
    pred, _ = guider_step(zero_init(), feature(np.random.default_rng(1)),
                          params)
    assert np.array_equal(pred.values[0], params.head_b.values)


def test_deterministic_trajectory():
    params = tiny_guider()
    f = feature(np.random.default_rng(2))

    def run():
        state = zero_init()
        out = []
        for _ in range(5):
            pred, state = guider_step(state, f, params)
            out.append(pred.values.copy())
        return out

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_gradient_through_three_steps():
    params = tiny_guider()
    rng = np.random.default_rng(3)
    feats = [np.abs(rng.normal(size=(1, TINY.feature_dim))) for _ in range(3)]
    w = rng.normal(size=TINY.feature_dim)

    def graph():
        state = zero_init()
        pred = None
        for f in feats:
            pred, state = guider_step(state, ad.constant(f), params)
        return ad.tsum(ad.mul(pred, ad.constant(w)))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, [t for _, t in params.tensors()], tol=1e-4,
                max_coords=8, rng=np.random.default_rng(4))


def test_label_contract():
    plain = tiny_guider()
    styled = tiny_guider(num_labels=2)
    state = zero_init()
    f = feature(np.random.default_rng(5))
    with pytest.raises(ContractError):
        guider_step(state, f, plain, labels=np.array([1]))
    with pytest.raises(ContractError):
        guider_step(state, f, styled)
    pred, _ = guider_step(state, f, styled, labels=np.array([1]))
    assert pred.shape == (1, TINY.feature_dim)
    with pytest.raises(ContractError):
        initial_state_for_labels(plain, np.array([0]))
    st = initial_state_for_labels(styled, np.array([1]))
    assert np.array_equal(st.hidden.values, styled.label_init.values[[1]])


def one_sequence(feats):
    """A single feature sequence f_0..f_T as a B=1 guider_loss_batch input:
    (step features, lengths)."""
    rows = [ad.constant(np.reshape(f, (1, -1))) for f in feats]
    return rows, [len(feats) - 1]


def zero_init(batch=1):
    return initial_state(ad.constant(np.zeros((batch, TINY.hidden_dim))))


def lookup_step(seq, predict):
    """guider_step stand-in: on consuming seq[k] it predicts predict(k)."""
    def step(state, f, params, labels=None):
        for k, stored in enumerate(seq):
            if np.array_equal(f.values[0], stored):
                return ad.constant(np.reshape(predict(k), (1, -1))), state
        raise AssertionError("unknown feature")
    return step


def test_matching_terms_oracle_prediction(monkeypatch):
    # predicting exactly the feature c steps ahead scores 2 on every term
    rng = np.random.default_rng(6)
    c = 2
    seq = [np.abs(rng.normal(size=6)) + 0.1 for _ in range(7)]
    monkeypatch.setattr(gui_mod, "guider_step",
                        lookup_step(seq, lambda k: seq[k + c]))
    feats, lengths = one_sequence(seq)
    loss = gui_mod.guider_loss_batch(feats, lengths, c, None, zero_init(1))
    assert abs(loss.item() + 2.0) < 1e-12


def test_matching_terms_degenerate_direction(monkeypatch):
    rng = np.random.default_rng(7)
    seq = [np.abs(rng.normal(size=6)) + 0.1 for _ in range(4)]
    c = 2
    # prediction equals the anchor: no movement, the direction term is 0
    monkeypatch.setattr(gui_mod, "guider_step",
                        lookup_step(seq, lambda k: seq[k]))
    feats, lengths = one_sequence(seq)
    loss = gui_mod.guider_loss_batch(feats, lengths, c, None, zero_init(1))
    expected = np.mean([np_cos(seq[t + c], seq[t]) for t in range(len(seq) - c)])
    assert abs(loss.item() + expected) < 1e-12


def test_matching_terms_scale_invariance_per_term():
    rng = np.random.default_rng(8)
    feats = np.abs(rng.normal(size=(5, 6))) + 0.1
    preds = rng.normal(size=(3, 6))
    c = 2
    moved, predicted = feats[c:] - feats[:3], preds - feats[:3]
    base = ad.row_cosine(ad.constant(moved), ad.constant(predicted)).values
    for alpha in (0.5, 3.0):
        scaled = ad.row_cosine(ad.constant(alpha * moved),
                               ad.constant(predicted)).values
        assert np.max(np.abs(base - scaled)) < 1e-12


def test_guider_loss_matches_numpy_oracle():
    # standalone recomputation of the loss with a plain-numpy cosine
    params = tiny_guider(seed=9)
    rng = np.random.default_rng(10)
    feats_np = [np.abs(rng.normal(size=TINY.feature_dim)) for _ in range(6)]
    c = 2
    feats, lengths = one_sequence(feats_np)
    loss = guider_loss_batch(feats, lengths, c, params, zero_init(1))

    state, preds = zero_init(), []
    for f in feats_np:
        pred, state = guider_step(state, ad.constant(f[None]), params)
        preds.append(pred.values[0])

    terms = []
    for t in range(len(feats_np) - c):
        p = preds[t]
        terms.append(np_cos(feats_np[t + c], p)
                     + np_cos(feats_np[t + c] - feats_np[t], p - feats_np[t]))
    assert abs(loss.item() - (-float(np.mean(terms)))) < 1e-10


def test_guider_loss_requires_lookahead_room():
    params = tiny_guider()
    rng = np.random.default_rng(11)
    feats, lengths = one_sequence([feature(rng).values for _ in range(3)])
    with pytest.raises(ContractError):
        guider_loss_batch(feats, lengths, 3, params, zero_init(1))
    with pytest.raises(ContractError):
        guider_loss_batch(feats, lengths, 0, params, zero_init(1))


def test_guider_loss_trains_guider_params_only():
    params = tiny_guider()
    rng = np.random.default_rng(12)
    feats, lengths = one_sequence([feature(rng).values for _ in range(5)])
    with ad.tape():
        loss = guider_loss_batch(feats, lengths, 2, params, zero_init(1))
    ad.backward(loss)
    assert any(t.grad is not None and np.abs(t.grad).max() > 0
               for _, t in params.tensors())


def test_objective_cosines_matches_manual_composition():
    params = tiny_guider(seed=13)
    rng = np.random.default_rng(14)
    feats = [feature(rng) for _ in range(6)]
    c = 2
    direct, direction = objective_cosines(feats, params, zero_init(), c)

    state, preds = zero_init(), []
    for f in feats:
        pred, state = guider_step(state, f, params)
        preds.append(pred.values[0])
    f_np = [f.values[0] for f in feats]
    n = len(feats) - c
    assert abs(direct - np.mean([np_cos(f_np[t + c], preds[t])
                                 for t in range(n)])) < 1e-12
    assert abs(direction - np.mean([np_cos(f_np[t + c] - f_np[t],
                                           preds[t] - f_np[t])
                                    for t in range(n)])) < 1e-12


def test_predict_ahead_oracle_indexing(monkeypatch):
    # a lookup oracle validates that the prediction consuming f[k] targets
    # f[k+c]: with c=1, a guider answering f[k+1] scores the maximum 2, and
    # one answering f[k+2] does not
    rng = np.random.default_rng(15)
    seq = [np.abs(rng.normal(size=4)) for _ in range(5)]
    feats, lengths = one_sequence(seq)
    monkeypatch.setattr(gui_mod, "guider_step",
                        lookup_step(seq, lambda k: seq[k + 1]))
    loss = gui_mod.guider_loss_batch(feats, lengths, 1, None, zero_init(1))
    assert abs(loss.item() + 2.0) < 1e-12
    monkeypatch.setattr(gui_mod, "guider_step",
                        lookup_step(seq, lambda k: seq[min(k + 2, 4)]))
    loss = gui_mod.guider_loss_batch(feats, lengths, 1, None, zero_init(1))
    assert loss.item() > -2.0 + 1e-6


def test_objective_cosines_needs_lookahead_room():
    feats = [feature(np.random.default_rng(17)) for _ in range(2)]
    with pytest.raises(ContractError):
        objective_cosines(feats, tiny_guider(), zero_init(), c=2)


def test_objective_cosines_range():
    params = tiny_guider()
    rng = np.random.default_rng(16)
    feats = [feature(rng) for _ in range(8)]
    direct, direction = objective_cosines(feats, params, zero_init(), c=2)
    assert -1.0 <= direct <= 1.0
    assert -1.0 <= direction <= 1.0
