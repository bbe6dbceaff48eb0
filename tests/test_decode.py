"""The shared decode loop against the three loops it replaced.

`oracle_decode` (the per-sentence loop behind sampling, greedy decoding and
reward traces), `oracle_teacher_forced_log_probs` (the batched MLE and
policy-gradient pass) and `oracle_soft_transfer_rollout` (the style
transfer's soft-argmax rollout) are kept here as they were written before
the merge. The soft rollout's loss and gradients are compared exactly.
Every comparison of sampled traces and of log-probs is exact: tokens,
features, predictions and the log-probs of real tokens (teacher forcing
returns only the real pairs). Gradients are exact
except where teacher forcing now sums over all steps in one product
(TIME_SUMMED below) or runs a packed step's backward over fewer rows
(INITIAL_STATE). A forced trace reads every prefix from
`prefix_features`, whose products run over many rows, so its features and
predictions are compared to 1e-14 relative.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import BOS, EOS, PAD
from gmgan.encoder import (EncoderParams, ModelProfile, encode_batch, pad_rows,
                           prefix_features)
from gmgan.errors import ContractError, DimensionError
from gmgan.generator import (GenerationTrace, GeneratorParams, _draw,
                             decode, gated_logits, initial_hidden, mle_loss,
                             sample_sequence, scored_tokens,
                             teacher_force_trace, teacher_forced_log_probs)
from gmgan.guider import GuiderParams, guider_step, initial_state
from gmgan.style import (StyleClassifierParams, soft_argmax,
                         soft_transfer_rollout)
from gmgan.trainer import TrainConfig

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
        gui_state = initial_state(gui, s0, labels)
        prefix = [BOS]
        tokens, features, predictions = [], [], []
        for t in range(steps):
            f = encode_one(prefix, enc)
            features.append(f.values[0].copy())
            pred, gui_state = guider_step(gui_state, f, gui)
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


def oracle_sample(init, gen, gui, enc, rng, label):
    def choose(t, logits):
        return _draw(ad.softmax(logits).values[0], rng)
    return oracle_decode(ad.constant(init.reshape(1, -1)), gen, gui, enc,
                         label, enc.profile.max_len, choose)


def oracle_force(sentence, gen, gui, enc):
    with ad.no_grad():
        init = encode_one([BOS] + list(sentence), enc)
    return oracle_decode(init, gen, gui, enc, None, len(sentence),
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
        gui_state = initial_state(gui, ad.constant(s0.values), labels)
    cols = []
    rows_t = np.full_like(full_rows, PAD)
    for t in range(t_max):
        rows_t[:, : t + 1] = full_rows[:, : t + 1]
        if known is None:
            with ad.no_grad():
                f_t = encode_batch(rows_t, enc)
        else:
            f_t = ad.constant(known[t])
        with ad.no_grad():
            pred, gui_state = guider_step(gui_state, f_t, gui)
        logp = ad.log_softmax(gated_logits(dec_h, ad.constant(pred.values),
                                           gen))
        cols.append(ad.reshape(ad.pick(logp, np.arange(n), tgt[:, t]), (n, 1)))
        emb = ad.gather_rows(gen.embedding, tgt[:, t])
        dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
    return ad.concat(cols, axis=1), tgt


def oracle_soft_transfer_rollout(init_feats, target_labels, models,
                                 classifier, config):
    """The soft rollout with its own loop; returns the loss and the number
    of steps taken."""
    n = init_feats.shape[0]
    prof = models.profile
    width = prof.pad_width
    tau = config.soft_argmax_temperature
    target_labels = np.asarray(target_labels, dtype=np.intp)

    dec_h = initial_hidden(init_feats, models.generator)
    dec_c = ad.constant(np.zeros((n, prof.hidden_dim)))
    with ad.no_grad():  # the guider gates the decoder as a constant
        gui_state = initial_state(models.guider, dec_h, target_labels)

    bos_emb = models.encoder.embedding.values[BOS]
    enc_prefix = np.zeros((n, width, prof.embed_dim))
    enc_prefix[:, 0, :] = bos_emb

    cls_steps = []
    alive = np.ones(n)
    for t in range(prof.max_len):
        with ad.no_grad():
            f_t = models.encoder.apply(ad.constant(enc_prefix))
            pred, gui_state = guider_step(gui_state, f_t, models.guider)
        logits = gated_logits(dec_h, pred, models.generator)
        alive_mask = ad.constant(np.repeat(alive[:, None], prof.embed_dim,
                                           axis=1))
        soft = soft_argmax(logits, tau)
        soft_gen = ad.mul(ad.matmul(soft, models.generator.embedding),
                          alive_mask)
        soft_cls = ad.mul(ad.matmul(soft, classifier.embedding), alive_mask)
        cls_steps.append(ad.reshape(soft_cls, (n, 1, prof.embed_dim)))
        picked = logits.values.argmax(axis=1)
        enc_prefix[:, t + 1, :] = soft_gen.values
        dec_h, dec_c = ad.lstm_cell(soft_gen, dec_h, dec_c,
                                    models.generator.dec_w_x,
                                    models.generator.dec_w_h,
                                    models.generator.dec_b)
        alive = alive * (picked != EOS)
        if not alive.any():
            break
    pad_cols = width - len(cls_steps)
    cls_steps.append(ad.constant(np.zeros((n, pad_cols, prof.embed_dim))))
    cls_input = ad.concat(cls_steps, axis=1)
    loss = ad.cross_entropy(ad.log_softmax(classifier.apply(cls_input)),
                            target_labels)
    return loss, t + 1


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
    if mode == "greedy":   # a greedy decode is one without an rng
        rng_new = rng_old = None
    ends = set()
    for k in range(n):
        init = noise.normal(size=profile.feature_dim)
        label = k % 2 if labelled else None
        got = sample_sequence(init, gen, gui, enc, rng=rng_new,
                              style_label=label)
        want = oracle_sample(init, gen, gui, enc, rng_old, label)
        assert_traces_equal(got, want)
        ends.add("eos-only" if got.tokens == [EOS]
                 else "max-len" if got.tokens[-1] != EOS else "eos")
    if mode == "sample":
        assert rng_new.random() == rng_old.random()
        assert ends == {"eos-only", "max-len", "eos"}


@pytest.mark.parametrize("profile,vocab_size,n", CASES, ids=["tiny", "desk"])
def test_forced_traces_equal_oracle(profile, vocab_size, n):
    enc, gen, gui = build(profile, vocab_size, False, seed=31)
    rng = np.random.default_rng(32)
    for k in range(n):
        sent = random_sentence(rng, vocab_size, profile.max_len,
                               eos=k % 5 != 0)
        assert_traces_equal(teacher_force_trace(sent, enc, gen, gui),
                            oracle_force(sent, gen, gui, enc), rel=1e-14)


@pytest.mark.parametrize("stop", ["eos-only", "max-len"])
def test_stopping_rules_equal_oracle(stop):
    enc, gen, gui = build(TINY, 12, False, seed=41)
    if stop == "eos-only":
        gen.action_mask.values[4:] = -1e30    # EOS is the only action
    else:
        gen.action_mask.values[EOS] = -1e30   # EOS can never be drawn
    init = np.random.default_rng(42).normal(size=TINY.feature_dim)
    for greedy in (False, True):
        def rng():
            return None if greedy else np.random.default_rng(5)
        got = sample_sequence(init, gen, gui, enc, rng())
        want = oracle_sample(init, gen, gui, enc, rng(), None)
        assert_traces_equal(got, want)
        assert got.length == (1 if stop == "eos-only" else TINY.max_len)
        assert (got.tokens[-1] == EOS) == (stop == "eos-only")


def grads_after(run, tensors):
    """(log-probs, every tensor's gradient) of one backward through run(),
    which returns the (B, T) log-prob values and the loss."""
    for _, t in tensors:
        t.zero_grad()
    with ad.tape():
        logp, loss = run()
        ad.backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for _, t in tensors]
    for _, t in tensors:
        t.zero_grad()
    return logp, grads


# Parameters whose gradient the time-batched, packed pass sums in another
# order: one product over every real (step, row) pair, or one gather of
# every step's targets, where the per-step loop added one term per step
# and a zero term for each padded pair.
TIME_SUMMED = {"encoder.embedding", "generator.dec.w_x", "generator.dec.w_h",
               "generator.dec.b", "generator.out.w", "generator.out.b",
               "generator.gate.w", "generator.gate.b", "generator.vocab.w"}
# Gradients that flow back into the initial state. Packing gives a late
# step only the rows still running, and OpenBLAS multiplies fewer than
# about 18 rows by a transposed weight (the backward's g @ W.T) with
# another kernel, so these bits also move (measured <= 7e-16 of the
# largest entry).
INITIAL_STATE = {"encoder.conv0.kernel", "encoder.conv0.bias",
                 "encoder.conv1.kernel", "encoder.conv1.bias",
                 "encoder.mlp.w", "encoder.mlp.b", "generator.init.w",
                 "generator.init.b", "init_features"}


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
        if init_feats is not None:   # a non-leaf input
            tensors.append(("init_features", init_feats))
        t_max = max(len(s) for s in sents)
        real = np.arange(t_max) < np.array([len(s) for s in sents])[:, None]
        # padded pairs are not computed, so they carry no weight
        weights = rng.normal(size=(batch, t_max)) * real
        pairs = []

        def forced():   # the packed pairs, scattered to the oracle's layout
            logp, rows, steps = teacher_forced_log_probs(
                sents, enc, gen, gui, labels=labels, init_features=init_feats)
            pairs.append(list(zip(rows.tolist(), steps.tolist())))
            mat = np.zeros((batch, t_max))
            mat[rows, steps] = logp.values
            return mat, ad.tsum(ad.mul(logp, ad.constant(weights[rows,
                                                                 steps])))

        # TINY's products are not row-subset exact (tests/test_encoder.py
        # bounds prefix_features there), so the oracle reads the same
        # features; at DESK it encodes every prefix itself
        known = (prefix_features(pad_rows([[BOS] + s for s in sents],
                                          profile.pad_width), enc, t_max)
                 if profile is TINY else None)

        def oracle():
            logp = oracle_teacher_forced_log_probs(
                sents, enc, gen, gui, labels=labels, init_features=init_feats,
                known=known)[0]
            return logp.values, ad.tsum(ad.mul(logp, ad.constant(weights)))

        got, got_grads = grads_after(forced, tensors)
        want, want_grads = grads_after(oracle, tensors)
        # each real (row, step) pair exactly once, and no padded one
        assert sorted(pairs[0]) == [tuple(p) for p in np.argwhere(real)]
        assert (~real).any()
        assert np.array_equal(got[real], want[real])
        for (name, _), a, b in zip(tensors, got_grads, want_grads):
            assert (a is None) == (b is None), name
            if a is None:
                continue
            if name in TIME_SUMMED | INITIAL_STATE:
                # measured <= 3e-15 of the largest entry
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
            else:
                assert np.array_equal(a, b), name
        assert any(g is not None for g in got_grads)


def test_batch_with_empty_sentences_scores_as_before():
    # an empty sentence never steps: it has no pair and adds nothing to the
    # loss, as its all-PAD row did when padded pairs were computed
    enc, gen, gui = build(DESK, 40, False, seed=55)
    rng = np.random.default_rng(56)
    sents = [[], random_sentence(rng, 40, DESK.max_len), [],
             random_sentence(rng, 40, DESK.max_len), [EOS]]
    with ad.no_grad():
        got, rows, steps = teacher_forced_log_probs(sents, enc, gen, gui)
        want, tgt = oracle_teacher_forced_log_probs(sents, enc, gen, gui)
        loss = mle_loss(sents, enc, gen, gui).item()
    mask = scored_tokens(tgt)
    assert sorted(set(rows.tolist())) == [1, 3, 4]
    assert len(rows) == sum(len(s) for s in sents)
    assert np.array_equal(got.values, want.values[rows, steps])
    # mle_loss sums the scored pairs in packed order
    assert loss == -float((want.values * mask)[rows, steps].sum()) / mask.sum()
    with pytest.raises(DimensionError):   # no sentence has a step
        teacher_forced_log_probs([[], []], enc, gen, gui)


def test_teacher_forcing_refuses_rows_that_are_not_the_batch():
    enc, gen, gui = build(TINY, 12, True, seed=57)
    batch = [[4, 5, EOS], [6, EOS], [EOS], [4, EOS]]
    labels = np.array([0, 1, 1, 0])
    teacher_forced_log_probs(batch, enc, gen, gui, labels=labels)
    with pytest.raises(DimensionError):   # 8 initial features for 4
        teacher_forced_log_probs(batch, enc, gen, gui, labels=labels,
                                 init_features=ad.constant(
                                     np.zeros((8, TINY.feature_dim))))
    with pytest.raises(DimensionError):   # 8 guider initial rows for 4
        teacher_forced_log_probs(batch, enc, gen, gui,
                                 labels=np.zeros(8, dtype=int))


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

    def never(logits, alive):
        raise AssertionError("a refused decode chose an input")
    with pytest.raises(DimensionError):   # a decode runs 1..max_len steps
        decode(ad.constant(np.zeros((1, TINY.feature_dim))), gen, gui, enc,
               None, 0, never)


def soft_rollout_case(batch, stop):
    """Style models, a frozen classifier, sources and target labels at TINY.
    At seed 82 the rows' argmax picks EOS at steps 4, 1, 1 and 2; "max-len"
    masks EOS out, so every row runs all max_len steps."""
    enc, gen, gui = build(TINY, 12, True, seed=82)
    if stop == "max-len":
        gen.action_mask.values[EOS] = -1e30
    classifier = StyleClassifierParams(12, TINY, np.random.default_rng(83))
    for _, t in classifier.tensors():
        t.requires_grad = False
    rng = np.random.default_rng(182)
    sources = pad_rows([[BOS] + random_sentence(rng, 12, TINY.max_len)
                        for _ in range(4)], TINY.pad_width)[:batch]
    targets = rng.integers(2, size=4)[:batch]
    models = SimpleNamespace(profile=TINY, encoder=enc, generator=gen,
                             guider=gui)
    return models, classifier, sources, targets


@pytest.mark.parametrize("stop", ["eos", "max-len"])
@pytest.mark.parametrize("batch", [1, 4])
def test_soft_rollout_equals_oracle(batch, stop):
    models, classifier, sources, targets = soft_rollout_case(batch, stop)
    config = TrainConfig()
    tensors = (models.encoder.tensors() + models.generator.tensors()
               + models.guider.tensors())
    steps = []

    def rollout():
        feats = encode_batch(sources, models.encoder)   # the encoder trains
        loss = soft_transfer_rollout(feats, targets, models, classifier,
                                     config)
        return loss.item(), loss

    def oracle():
        feats = encode_batch(sources, models.encoder)
        loss, n = oracle_soft_transfer_rollout(feats, targets, models,
                                               classifier, config)
        steps.append(n)
        return loss.item(), loss

    got, got_grads = grads_after(rollout, tensors)
    want, want_grads = grads_after(oracle, tensors)
    assert (steps[0] == TINY.max_len) == (stop == "max-len")
    assert got == want
    for (name, _), a, b in zip(tensors, got_grads, want_grads):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name
    assert all(g is not None for (name, _), g in zip(tensors, got_grads)
               if not name.startswith("guider."))


@pytest.mark.parametrize("stop", ["eos", "max-len"])
def test_soft_rollout_takes_no_decoder_step_that_nothing_reads(stop,
                                                               monkeypatch):
    # the decoder steps between emitted steps only: after the last one
    # (every row at EOS, or max_len) no step reads its output
    models, classifier, sources, targets = soft_rollout_case(4, stop)
    config = TrainConfig()
    with ad.no_grad():
        steps = oracle_soft_transfer_rollout(
            encode_batch(sources, models.encoder), targets, models,
            classifier, config)[1]
    calls, original = [], ad.lstm_cell

    def counted(x, hidden, cell, w_x, *args, **kwargs):
        calls.append(w_x is models.generator.dec_w_x)
        return original(x, hidden, cell, w_x, *args, **kwargs)

    monkeypatch.setattr(ad, "lstm_cell", counted)
    with ad.tape():
        soft_transfer_rollout(encode_batch(sources, models.encoder), targets,
                              models, classifier, config)
    assert sum(calls) == steps - 1
    assert steps == (4 if stop == "eos" else TINY.max_len)
