import math

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import generator as gen_mod
from gmgan.corpus import BOS, EOS, PAD, UNK
from gmgan.encoder import EncoderParams, ModelProfile, encode_batch, pad_rows
from gmgan.errors import ContractError
from gmgan.generator import (GenerationTrace, GeneratorParams, gated_logits,
                             mle_loss, sample_sequence, teacher_force_trace)
from gmgan.guider import GuiderParams
from helpers import check_grads

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_models(vocab_size=12, seed=0):
    rng = np.random.default_rng(seed)
    enc = EncoderParams(vocab_size, TINY, rng)
    gen = GeneratorParams(vocab_size, TINY, rng, enc.embedding)
    gui = GuiderParams(TINY, rng)
    return enc, gen, gui


def zero_models(vocab_size=12):
    enc, gen, gui = tiny_models(vocab_size)
    for _, t in enc.tensors() + gen.tensors() + gui.tensors():
        t.values[:] = 0.0
    return enc, gen, gui


def step_distribution(dec_state, guider_pred, gen):
    """Next-token probabilities: softmax of the gated logits."""
    return ad.softmax(gated_logits(dec_state[0], guider_pred, gen))


def rand_state(rng, batch=1):
    shape = (batch, TINY.hidden_dim)
    return (ad.constant(rng.normal(size=shape)),
            ad.constant(rng.normal(size=shape)))


def test_all_ones_gate_equals_ungated_pipeline():
    enc, gen, gui = tiny_models()
    gen.gate_w.values[:] = 0.0
    gen.gate_b.values[:] = 1.0
    rng = np.random.default_rng(1)
    state = rand_state(rng)
    pred = ad.constant(rng.normal(size=(1, TINY.feature_dim)))
    gated = step_distribution(state, pred, gen)
    out_feat = ad.add(ad.matmul(state[0], gen.out_w), gen.out_b)
    plain = ad.softmax(ad.add(ad.matmul(out_feat, gen.vocab_w), gen.action_mask))
    assert np.array_equal(gated.values, plain.values)


def test_zero_gate_gives_uniform_over_actions():
    enc, gen, gui = tiny_models()
    gen.gate_w.values[:] = 0.0
    gen.gate_b.values[:] = 0.0
    rng = np.random.default_rng(2)
    probs = step_distribution(
        rand_state(rng), ad.constant(rng.normal(size=(1, TINY.feature_dim))),
        gen).values[0]
    allowed = gen.vocab_size - 3  # PAD, BOS, UNK are masked
    assert probs[PAD] == 0.0 and probs[BOS] == 0.0 and probs[UNK] == 0.0
    active = np.delete(probs, [PAD, BOS, UNK])
    assert np.allclose(active, 1.0 / allowed, atol=1e-15)


def test_step_distribution_is_probability_vector():
    enc, gen, gui = tiny_models()
    rng = np.random.default_rng(3)
    for _ in range(25):
        probs = step_distribution(
            rand_state(rng),
            ad.constant(rng.normal(size=(1, TINY.feature_dim))), gen).values[0]
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs.min() >= 0.0


def test_step_log_prob_gradient_vs_finite_differences():
    enc, gen, gui = tiny_models()
    rng = np.random.default_rng(4)
    x_emb = rng.normal(size=(1, TINY.embed_dim))
    pred = rng.normal(size=(1, TINY.feature_dim))
    token = 5

    def graph():
        hidden, cell = (ad.constant(np.zeros((1, TINY.hidden_dim))),
                        ad.constant(np.zeros((1, TINY.hidden_dim))))
        hidden, cell = ad.lstm_cell(ad.constant(x_emb), hidden, cell,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
        logits = gated_logits(hidden, ad.constant(pred), gen)
        return ad.reshape(ad.log_softmax(logits), (gen.vocab_size,))

    with ad.tape():
        logp = graph()
        loss = ad.tsum(ad.mul(logp, ad.constant(np.eye(gen.vocab_size)[token])))
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return float(graph().values[token])

    tensors = [gen.dec_w_x, gen.dec_w_h, gen.dec_b, gen.gate_w, gen.gate_b,
               gen.out_w, gen.out_b, gen.vocab_w]
    check_grads(forward, tensors, tol=1e-4, max_coords=6,
                rng=np.random.default_rng(5))


def test_degenerate_vocab_forces_eos():
    enc, gen, gui = tiny_models(vocab_size=4)  # specials only: EOS is the
    trace = sample_sequence(np.zeros(TINY.feature_dim), gen, gui, enc,
                            np.random.default_rng(0))
    assert trace.tokens == [EOS]
    assert trace.length == 1
    assert len(trace.features) == 2


def test_greedy_determinism():
    enc, gen, gui = tiny_models()
    init = np.abs(np.random.default_rng(6).normal(size=TINY.feature_dim))
    # a greedy decode is one without an rng: it draws nothing, so two
    # decodes give one result
    t1 = sample_sequence(init, gen, gui, enc, None)
    t2 = sample_sequence(init, gen, gui, enc, None)
    assert t1.tokens == t2.tokens
    assert all(np.array_equal(a, b)
               for a, b in zip(t1.predictions, t2.predictions))


def test_sampling_determinism_under_seed():
    enc, gen, gui = tiny_models()
    init = np.abs(np.random.default_rng(7).normal(size=TINY.feature_dim))
    t1 = sample_sequence(init, gen, gui, enc, np.random.default_rng(11))
    t2 = sample_sequence(init, gen, gui, enc, np.random.default_rng(11))
    assert t1.tokens == t2.tokens
    assert all(np.array_equal(a, b)
               for a, b in zip(t1.predictions, t2.predictions))


def test_peaked_distribution_matches_argmax():
    logits = np.zeros(8)
    logits[5] = 20.0
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    rng = np.random.default_rng(8)
    hits = sum(gen_mod._draw(probs, rng) == 5 for _ in range(10000))
    assert hits >= 9999
    assert gen_mod._draw(probs, None) == 5   # no rng: the argmax


def test_trace_ends_at_max_len():
    enc, gen, gui = tiny_models()
    gen.action_mask.values[EOS] = -1e30  # ban EOS so the rollout cannot stop
    init = np.zeros(TINY.feature_dim)
    trace = sample_sequence(init, gen, gui, enc, np.random.default_rng(3))
    assert trace.length == TINY.max_len
    sent = trace.sentence(TINY.max_len)
    assert sent[-1] == EOS and len(sent) <= TINY.max_len


def test_uniform_model_loss_is_log_action_count():
    enc, gen, gui = zero_models(vocab_size=12)
    loss = mle_loss([[EOS]], enc, gen, gui)
    assert abs(loss.item() - math.log(12 - 3)) < 1e-12


def test_batch_loss_decomposes_over_equal_length_sentences():
    enc, gen, gui = tiny_models(seed=9)
    batch = [[4, 5, EOS], [6, 7, EOS], [8, 9, EOS]]
    with ad.no_grad():
        whole = mle_loss(batch, enc, gen, gui).item()
        parts = [mle_loss([s], enc, gen, gui).item() for s in batch]
    assert abs(whole - float(np.mean(parts))) < 1e-10


def test_batch_loss_token_weighted_for_mixed_lengths():
    enc, gen, gui = tiny_models(seed=10)
    batch = [[4, EOS], [5, 6, 7, 8, EOS]]
    with ad.no_grad():
        whole = mle_loss(batch, enc, gen, gui).item()
        parts = [mle_loss([s], enc, gen, gui).item() for s in batch]
    lens = [len(s) for s in batch]
    expected = sum(l * p for l, p in zip(lens, parts)) / sum(lens)
    assert abs(whole - expected) < 1e-10


def test_mle_empty_batch_rejected():
    enc, gen, gui = tiny_models()
    with pytest.raises(ContractError):
        mle_loss([], enc, gen, gui)


def test_teacher_forced_trace_consistent_with_batch_path():
    enc, gen, gui = tiny_models(seed=11)
    sent = [4, 5, 6, 7, EOS]
    trace = teacher_force_trace(sent, enc, gen, gui)
    assert trace.tokens == sent
    # the last prefix is the whole sentence, which the batch encoder encodes
    # as the trace's initial feature
    assert np.max(np.abs(trace.features[-1] - trace.init_feature)) < 1e-12
    with pytest.raises(ContractError):
        teacher_force_trace([4, EOS, 5, EOS], enc, gen, gui)


def test_trace_invariants_enforced():
    with pytest.raises(ContractError):
        GenerationTrace([4, EOS], [np.zeros(2)] * 2, [np.zeros(2)] * 2,
                        np.zeros(2))


def test_memorizes_two_token_grammar():
    # deterministic corpus: the unique sentence "a b" is memorized quickly
    from gmgan.optim import Adam
    enc, gen, gui = tiny_models(vocab_size=6, seed=12)
    a, b = 4, 5
    batch = [[a, b, EOS]] * 4
    opt = Adam(enc.tensors() + gen.tensors(), lr=0.02,
               frozen_rows={"encoder.embedding": [PAD]})
    for _ in range(200):
        loss_val = opt.minimize(lambda: mle_loss(batch, enc, gen, gui))
    assert loss_val < 0.01
    greedy = sample_sequence(
        encode_batch(pad_rows([[BOS, a, b, EOS]], TINY.pad_width), enc).values,
        gen, gui, enc, None)
    assert greedy.tokens == [a, b, EOS]
