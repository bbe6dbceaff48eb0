"""The shared decode loop against the two loops it replaced.

`oracle_decode` (the per-sentence loop behind sampling, greedy decoding and
reward traces) and `oracle_teacher_forced_log_probs` (the batched MLE and
policy-gradient pass) are kept here as they were written before the merge.
Every comparison of sampled traces and of log-probs is exact: tokens,
features, predictions and every gradient, except the parameter gradients
that teacher forcing now sums over all steps in one product (TIME_SUMMED
below). A forced trace reads every prefix from `prefix_features`, whose
products run over many rows, so its features and predictions are compared
to 1e-14 relative.
"""

import functools

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import BOS, EOS, PAD
from gmgan.encoder import (EncoderParams, ModelProfile, encode_batch, pad_rows,
                           prefix_features)
from gmgan.errors import ContractError, DimensionError
from gmgan.generator import (GenerationTrace, GeneratorParams, _draw,
                             gated_logits, initial_hidden, sample_sequence,
                             teacher_force_trace, teacher_forced_log_probs)
from gmgan.guider import (GuiderParams, guider_step, initial_state,
                          initial_state_for_labels)

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)
DESK = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)


def encode_one(prefix, enc):
    """(1, F) feature of one token prefix."""
    return encode_batch(pad_rows([list(prefix)], enc.profile.pad_width), enc)


def oracle_decode(init_t, gen, gui, enc, label, steps, choose):
    """One sentence as a batch of one: init_t is (1, F)."""
    prof = enc.profile
    labels = None if label is None else np.array([label])
    with ad.no_grad():
        s0 = initial_hidden(init_t, gen)
        dec_h, dec_c = s0, ad.constant(np.zeros((1, prof.hidden_dim)))
        if label is None:
            gui_state = initial_state(s0)
        else:
            gui_state = initial_state_for_labels(gui, labels)
        prefix = [BOS]
        tokens, features, predictions = [], [], []
        for t in range(steps):
            f = encode_one(prefix, enc)
            features.append(f.values[0].copy())
            pred, gui_state = guider_step(gui_state, f, gui, labels=labels)
            predictions.append(pred.values[0].copy())
            logits = gated_logits(dec_h, pred, gen)
            token = choose(t, logits)
            tokens.append(token)
            prefix.append(token)
            if token == EOS:
                break
            emb = ad.gather_rows(gen.embedding, np.array([token]))
            dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                        gen.dec_w_x, gen.dec_w_h, gen.dec_b)
        features.append(encode_one(prefix, enc).values[0].copy())
    return GenerationTrace(tokens, features, predictions,
                           init_t.values[0].copy())


def oracle_sample(init, gen, gui, enc, rng, mode, label):
    def choose(t, logits):
        return _draw(ad.softmax(logits).values[0], rng, mode)
    return oracle_decode(ad.constant(init.reshape(1, -1)), gen, gui, enc,
                         label, enc.profile.max_len, choose)


def oracle_force(sentence, gen, gui, enc, label):
    with ad.no_grad():
        init = encode_one([BOS] + list(sentence), enc)
    return oracle_decode(init, gen, gui, enc, label, len(sentence),
                         lambda t, logits: sentence[t])


def oracle_teacher_forced_log_probs(batch, enc, gen, gui, labels=None,
                                    init_features=None, known=None):
    """known: (T, B, F) prefix features to read instead of encoding."""
    n = len(batch)
    t_max = max(len(s) for s in batch)
    prof = enc.profile
    tgt = np.full((n, t_max), PAD, dtype=np.intp)
    for i, s in enumerate(batch):
        tgt[i, : len(s)] = s
    full_rows = pad_rows([[BOS] + list(s) for s in batch], prof.pad_width)
    if init_features is None:
        init_features = encode_batch(full_rows, enc)
    s0 = initial_hidden(init_features, gen)
    dec_h = s0
    dec_c = ad.constant(np.zeros((n, prof.hidden_dim)))
    with ad.no_grad():
        if labels is None:
            gui_state = initial_state(s0.detach())
        else:
            gui_state = initial_state_for_labels(gui, labels)
    cols = []
    rows_t = np.full_like(full_rows, PAD)
    for t in range(t_max):
        rows_t[:, : t + 1] = full_rows[:, : t + 1]
        f_t = (encode_batch(rows_t, enc, stop_gradient=True) if known is None
               else ad.constant(known[t]))
        with ad.no_grad():
            pred, gui_state = guider_step(gui_state, f_t, gui, labels=labels)
        logp = ad.log_softmax(gated_logits(dec_h, pred.detach(), gen))
        cols.append(ad.reshape(ad.pick(logp, np.arange(n), tgt[:, t]), (n, 1)))
        emb = ad.gather_rows(gen.embedding, tgt[:, t])
        dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
    return ad.concat(cols, axis=1), tgt


def build(profile, vocab_size, labelled, seed):
    rng = np.random.default_rng(seed)
    enc = EncoderParams(vocab_size, profile, rng)
    gen = GeneratorParams(vocab_size, profile, rng, enc.embedding)
    gui = GuiderParams(profile, rng, num_labels=2 if labelled else 0)
    # a sharper output head spreads sampled lengths over 1..max_len
    gen.vocab_w.values *= 8.0
    return enc, gen, gui


def assert_traces_equal(got, want, rel=0.0):
    """Tokens and init exact; features and predictions within rel of each
    array's largest entry (exact at rel=0)."""
    assert got.tokens == want.tokens
    assert len(got.features) == len(want.features)
    assert len(got.predictions) == len(want.predictions)
    for a, b in zip(got.features + got.predictions,
                    want.features + want.predictions):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))
    assert np.array_equal(got.init_feature, want.init_feature)


def random_sentence(rng, vocab_size, max_len, eos=True):
    length = int(rng.integers(1, max_len + 1))
    words = rng.integers(4, vocab_size, size=length - 1 if eos else length)
    return [int(w) for w in words] + ([EOS] if eos else [])


CASES = [(TINY, 12, 30), (DESK, 40, 12)]


@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("profile,vocab_size,n", CASES, ids=["tiny", "desk"])
def test_sampled_traces_equal_oracle(profile, vocab_size, n, mode, labelled):
    enc, gen, gui = build(profile, vocab_size, labelled, seed=21)
    noise = np.random.default_rng(22)
    rng_new, rng_old = np.random.default_rng(23), np.random.default_rng(23)
    ends = set()
    for k in range(n):
        init = noise.normal(size=profile.feature_dim)
        label = k % 2 if labelled else None
        got = sample_sequence(init, gen, gui, enc, rng=rng_new, mode=mode,
                              style_label=label)
        want = oracle_sample(init, gen, gui, enc, rng_old, mode, label)
        assert_traces_equal(got, want)
        ends.add("eos-only" if got.tokens == [EOS]
                 else "max-len" if got.tokens[-1] != EOS else "eos")
    assert rng_new.random() == rng_old.random()
    if mode == "sample":
        assert ends == {"eos-only", "max-len", "eos"}


@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
@pytest.mark.parametrize("profile,vocab_size,n", CASES, ids=["tiny", "desk"])
def test_forced_traces_equal_oracle(profile, vocab_size, n, labelled):
    enc, gen, gui = build(profile, vocab_size, labelled, seed=31)
    rng = np.random.default_rng(32)
    for k in range(n):
        sent = random_sentence(rng, vocab_size, profile.max_len,
                               eos=k % 5 != 0)
        label = k % 2 if labelled else None
        assert_traces_equal(teacher_force_trace(sent, enc, gen, gui, label),
                            oracle_force(sent, gen, gui, enc, label),
                            rel=1e-14)


@pytest.mark.parametrize("stop", ["eos-only", "max-len"])
def test_stopping_rules_equal_oracle(stop):
    enc, gen, gui = build(TINY, 12, False, seed=41)
    if stop == "eos-only":
        gen.action_mask.values[4:] = -1e30    # EOS is the only action
    else:
        gen.action_mask.values[EOS] = -1e30   # EOS can never be drawn
    init = np.random.default_rng(42).normal(size=TINY.feature_dim)
    for mode in ("sample", "greedy"):
        got = sample_sequence(init, gen, gui, enc, seed=5, mode=mode)
        want = oracle_sample(init, gen, gui, enc, np.random.default_rng(5),
                             mode, None)
        assert_traces_equal(got, want)
        assert got.length == (1 if stop == "eos-only" else TINY.max_len)
        assert (got.tokens[-1] == EOS) == (stop == "eos-only")


def grads_after(run, tensors):
    """(log-probs, every tensor's gradient) of one backward through run()."""
    for _, t in tensors:
        t.zero_grad()
    with ad.tape():
        logp, loss = run()
        ad.backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for _, t in tensors]
    for _, t in tensors:
        t.zero_grad()
    return logp.values, grads


# Parameters whose gradient the time-batched pass sums in another order: one
# product over every (step, row) pair, or one gather of every step's
# targets, where the per-step loop added one term per step.
TIME_SUMMED = {"encoder.embedding", "generator.dec.w_x", "generator.dec.w_h",
               "generator.dec.b", "generator.out.w", "generator.out.b",
               "generator.gate.w", "generator.gate.b", "generator.vocab.w"}


@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
@pytest.mark.parametrize("init", ["encoded", "given"])
@pytest.mark.parametrize("profile,vocab_size,batch", [(TINY, 12, 7),
                                                      (DESK, 40, 32)],
                         ids=["tiny", "desk"])
def test_teacher_forced_batch_equals_oracle(profile, vocab_size, batch, init,
                                            labelled):
    enc, gen, gui = build(profile, vocab_size, labelled, seed=51)
    rng = np.random.default_rng(52)
    for _ in range(3):
        # sampled traces may stop at max_len without EOS
        sents = [random_sentence(rng, vocab_size, profile.max_len,
                                 eos=bool(rng.random() < 0.8))
                 for _ in range(batch)]
        labels = rng.integers(2, size=batch) if labelled else None
        init_feats = (ad.Tensor(rng.normal(size=(batch, profile.feature_dim)),
                                requires_grad=True)
                      if init == "given" else None)
        tensors = enc.tensors() + gen.tensors() + gui.tensors()
        if init_feats is not None:   # a non-leaf input: its gradient is exact
            tensors.append(("init_features", init_feats))
        t_max = max(len(s) for s in sents)
        weights = ad.constant(rng.normal(size=(batch, t_max)))

        def loss(fn):
            def run():
                out = fn(sents, enc, gen, gui, labels=labels,
                         init_features=init_feats)
                return out[0], ad.tsum(ad.mul(out[0], weights))
            return run

        oracle = oracle_teacher_forced_log_probs
        if profile is TINY:
            # TINY's products are not row-subset exact (tests/test_encoder.py
            # bounds prefix_features there), so the oracle reads the same
            # features; at DESK it encodes every prefix itself
            rows = pad_rows([[BOS] + s for s in sents], profile.pad_width)
            oracle = functools.partial(
                oracle, known=prefix_features(rows, enc, t_max))
        got, got_grads = grads_after(loss(teacher_forced_log_probs), tensors)
        want, want_grads = grads_after(loss(oracle), tensors)
        assert np.array_equal(got, want)
        for (name, _), a, b in zip(tensors, got_grads, want_grads):
            assert (a is None) == (b is None), name
            if a is None:
                continue
            if name in TIME_SUMMED:
                # measured <= 2e-15 of the largest entry
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
            else:
                assert np.array_equal(a, b), name
        assert any(g is not None for g in got_grads)


def test_teacher_forcing_refuses_mid_sentence_eos_and_overlong_input():
    enc, gen, gui = build(TINY, 12, False, seed=61)
    with pytest.raises(ContractError):
        teacher_forced_log_probs([[4, 5, EOS], [4, EOS, 5, EOS]], enc, gen,
                                 gui)
    with pytest.raises(DimensionError):
        teacher_forced_log_probs([[4] * (TINY.max_len + 1)], enc, gen, gui,
                                 init_features=ad.constant(
                                     np.zeros((1, TINY.feature_dim))))
    with pytest.raises(DimensionError):
        teacher_force_trace([], enc, gen, gui)
    with pytest.raises(DimensionError):
        teacher_force_trace([4] * (TINY.max_len + 1), enc, gen, gui)
    with pytest.raises(DimensionError):
        sample_sequence(np.zeros(TINY.feature_dim), gen, gui, enc, seed=0,
                        max_len=0)
