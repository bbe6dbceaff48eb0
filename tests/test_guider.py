import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import guider as gui_mod
from gmgan.encoder import ModelProfile
from gmgan.errors import ContractError, DimensionError
from gmgan.guider import (GuiderParams, guider_loss_batch, guider_step,
                          initial_state)
from helpers import check_grads, objective_cosines, rel_err
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
        return ad.tsum(ad.mul(pred, ad.constant(w[None])))

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
    labelled = gui_mod.GuiderState(state.hidden, state.cell, np.array([1]))
    f = feature(np.random.default_rng(5))
    with pytest.raises(ContractError):
        guider_step(labelled, f, plain)
    with pytest.raises(ContractError):
        guider_step(state, f, styled)
    pred, after = guider_step(labelled, f, styled)
    assert pred.shape == (1, TINY.feature_dim)
    assert np.array_equal(after.labels, [1])   # the labels ride along
    with pytest.raises(ContractError):
        initial_state(plain, state.hidden, np.array([0]))
    st = initial_state(styled, state.hidden, np.array([1]))
    assert np.array_equal(st.hidden.values, styled.label_init.values[[1]])
    assert np.array_equal(st.labels, [1])


def test_state_needs_one_label_per_row():
    rows = ad.constant(np.zeros((4, TINY.hidden_dim)))
    for labels in (np.zeros(8, int), np.zeros(3, int), np.zeros((4, 1), int)):
        with pytest.raises(DimensionError):
            gui_mod.GuiderState(rows, rows, labels)
    # a multi-step state's hidden holds T*B rows; the labels follow the cell
    steps = ad.constant(np.zeros((12, TINY.hidden_dim)))
    assert gui_mod.GuiderState(steps, rows, np.zeros(4, int)).labels.shape \
        == (4,)


def one_sequence(feats):
    """A single feature sequence f_0..f_T as a B=1 guider_loss_batch input:
    (step features (T+1, 1, F), lengths)."""
    return np.reshape(feats, (len(feats), 1, -1)), [len(feats) - 1]


def zero_init(batch=1):
    return initial_state(None, ad.constant(np.zeros((batch, TINY.hidden_dim))))


def lookup_step(seq, predict):
    """guider_step stand-in: on consuming seq[k] in any row it predicts
    predict(k) in that row."""
    def lookup(row):
        for k, stored in enumerate(seq):
            if np.array_equal(row, stored):
                return predict(k)
        raise AssertionError("unknown feature")

    def step(state, f, params, batch_sizes=None):
        return ad.constant(np.array([lookup(row) for row in f.values])), state
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
    base = ad.row_cosine(moved, ad.constant(predicted)).values
    for alpha in (0.5, 3.0):
        scaled = ad.row_cosine(alpha * moved, ad.constant(predicted)).values
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


@pytest.mark.parametrize("num_labels", [0, 2], ids=["plain", "labelled"])
def test_guider_loss_batch_of_mixed_lengths_equals_pooled_sequences(
        num_labels):
    # rows of 1 and 2 < c features contribute no term; the others are packed
    params = tiny_guider(seed=21, num_labels=num_labels)
    rng = np.random.default_rng(22)
    c, lengths = 3, np.array([5, 1, 9, 3, 2, 9, 4, 0, 7])
    n = len(lengths)
    feats = np.abs(rng.normal(size=(lengths.max() + 1, n, TINY.feature_dim)))
    feats[np.arange(lengths.max() + 1)[:, None] > lengths] = np.nan  # unread
    labels = rng.integers(2, size=n) if num_labels else None
    hidden = ad.Tensor(rng.normal(size=(n, TINY.hidden_dim)),
                       requires_grad=True)

    def init(rows):
        return initial_state(params, ad.gather_rows(hidden, rows),
                             None if labels is None else labels[rows])

    with ad.no_grad():
        pooled = guider_loss_batch(feats, lengths, c, params,
                                   init(np.arange(n))).item()
        total, count = 0.0, 0
        for i in np.nonzero(lengths >= c)[0]:
            seq = feats[:lengths[i] + 1, i:i + 1]
            total += guider_loss_batch(seq, lengths[i:i + 1], c, params,
                                       init(np.array([i]))).item() \
                * (lengths[i] + 1 - c)
            count += lengths[i] + 1 - c
    assert abs(pooled - total / count) < 1e-13


def test_guider_loss_batch_refuses_rows_that_do_not_fit():
    params = tiny_guider(num_labels=2)
    rng = np.random.default_rng(23)
    feats = np.abs(rng.normal(size=(5, 4, TINY.feature_dim)))
    lengths = [4, 2, 3, 4]
    good = initial_state(params, None, np.array([0, 1, 0, 1]))
    guider_loss_batch(feats, lengths, 2, params, good)
    for bad_feats, init in [
            (feats, initial_state(params, None, np.zeros(8, int))),  # 8 rows
            (feats[:, :3], good),
            (feats[:4], good)]:  # no feature at t = 4
        with pytest.raises(DimensionError):
            guider_loss_batch(bad_feats, lengths, 2, params, init)


def test_guider_loss_requires_lookahead_room():
    params = tiny_guider()
    rng = np.random.default_rng(11)
    feats, lengths = one_sequence([feature(rng).values for _ in range(3)])
    with pytest.raises(ContractError):
        guider_loss_batch(feats, lengths, 3, params, zero_init(1))


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


def test_objective_cosines_range():
    params = tiny_guider()
    rng = np.random.default_rng(16)
    feats = [feature(rng) for _ in range(8)]
    direct, direction = objective_cosines(feats, params, zero_init(), c=2)
    assert -1.0 <= direct <= 1.0
    assert -1.0 <= direction <= 1.0


DESK = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)


def _guider_run(params, feats, h0, labels, steps):
    """Predictions, last state and input gradients of a pass over the
    (T*B, F) features, as one multi-step call (steps=None) or T calls."""
    f = ad.Tensor(feats, requires_grad=True)
    hidden = ad.Tensor(h0, requires_grad=True)
    cell = ad.Tensor(np.zeros_like(h0), requires_grad=True)
    batch = h0.shape[0]
    rows = ([f] if steps is None else
            [ad.Tensor(feats[s * batch:(s + 1) * batch], requires_grad=True)
             for s in range(steps)])
    with ad.tape():
        state, preds = gui_mod.GuiderState(hidden, cell, labels), []
        for x in rows:
            pred, state = guider_step(state, x, params)
            preds.append(pred)
        pred = ad.concat(preds)
        w = np.random.default_rng(7).normal(size=pred.shape)
        ad.backward(ad.add(ad.tsum(ad.mul(pred, ad.constant(w))),
                           ad.tsum(state.cell)))
    f_grad = np.concatenate([x.grad for x in rows])
    weights = [t.grad for _, t in params.tensors()]
    for _, t in params.tensors():
        t.zero_grad()
    return (pred.values, state.cell.values,
            [f_grad, hidden.grad, cell.grad], weights)


@pytest.mark.parametrize("num_labels", [0, 2], ids=["plain", "labelled"])
def test_multi_step_guider_step_equals_one_step_calls(num_labels):
    params = GuiderParams(DESK, np.random.default_rng(18),
                          num_labels=num_labels)
    rng = np.random.default_rng(19)
    steps, batch = 9, 32
    feats = np.abs(rng.normal(size=(steps * batch, DESK.feature_dim)))
    h0 = rng.normal(size=(batch, DESK.hidden_dim))
    labels = rng.integers(2, size=batch) if num_labels else None
    got = _guider_run(params, feats, h0, labels, None)
    want = _guider_run(params, feats, h0, labels, steps)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for a, b in zip(got[2], want[2]):
        assert np.array_equal(a, b)
    for a, b in zip(got[3], want[3]):
        assert (a is None) == (b is None)
        # each weight's gradient is one product over all steps, not T
        assert a is None or rel_err(a, b) < 1e-12


def test_stepping_on_from_a_multi_step_state_raises():
    params = tiny_guider(num_labels=2)
    rng = np.random.default_rng(20)
    init = initial_state(params, None, np.array([0, 1]))
    feats = ad.constant(np.abs(rng.normal(size=(6, TINY.feature_dim))))
    pred, state = guider_step(init, feats, params)
    assert pred.shape == (6, TINY.feature_dim)
    with pytest.raises(DimensionError):
        guider_step(state, ad.constant(feats.values[:2]), params)
    with pytest.raises(DimensionError):   # 5 rows are not steps of 2 rows
        guider_step(init, ad.constant(feats.values[:5]), params)
