import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gmgan
from gmgan import autodiff as ad
from gmgan import encoder, generator, style, trainer
from gmgan.corpus import BOS, EOS, PAD, UNK, desk_grammar, sample_grammar
from gmgan.encoder import ModelProfile, prefix_features, sentence_rows
from gmgan.errors import ContractError
from gmgan.generator import LOGIT_MASK, gated_logits, sample_sequence
from gmgan.guider import guider_loss_batch, initial_state
from gmgan.rewards import RewardTrace
from gmgan.trainer import (Models, Optimizers, TrainConfig, mle_step,
                           policy_gradient_step, pretrain_mle, rollout_traces,
                           run_gmgan, sample_from_noise, stream_rng,
                           validation_mle_loss)
from helpers import check_grads

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_config(**kw):
    base = dict(seed=3, profile=TINY, max_len=12, c=2, batch_size=8,
                mle_epochs=2, rl_epochs=2, guider_extra_epochs=0,
                rollout_batch=4, eval_samples=8, lr_generator=1e-3,
                lr_guider=1e-3)
    base.update(kw)
    return TrainConfig(**base)


def tiny_corpus(n=40, seed=0):
    g = desk_grammar()
    vocab = g.vocabulary()
    sents = sample_grammar(g, n, seed=seed, vocab=vocab, max_len=12)
    return g, vocab, sents


def snapshot(models):
    return {name: t.values.copy() for name, t in models.all_tensors()}


def assert_snapshots_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), "parameter %s changed" % k


# ---------------------------------------------------------------------------
# config and plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ContractError):
        tiny_config(gamma=1.0)
    with pytest.raises(ContractError):
        tiny_config(lr_generator=0.0)
    with pytest.raises(ContractError):
        tiny_config(c=7)
    with pytest.raises(ContractError):
        tiny_config(ablation="everything")
    with pytest.raises(ContractError):
        tiny_config(rl_mix=1.5)


def test_stream_rng_deterministic_and_separated():
    a = stream_rng(5, "mle_batch", 2).integers(1000, size=4)
    b = stream_rng(5, "mle_batch", 2).integers(1000, size=4)
    c = stream_rng(5, "rollout", 2).integers(1000, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_models_clone_is_independent_and_keeps_sharing():
    _, vocab, _ = tiny_corpus()
    models = Models(len(vocab), tiny_config())
    twin = models.clone()
    assert twin.generator.embedding is twin.encoder.embedding
    twin.encoder.embedding.values[4, 0] += 1.0
    assert models.encoder.embedding.values[4, 0] != twin.encoder.embedding.values[4, 0]


def test_guider_loss_batch_matches_per_sequence():
    _, vocab, sents = tiny_corpus(n=6)
    config = tiny_config()
    models = Models(len(vocab), config)
    batch = sents[:5]
    rows = sentence_rows(batch, TINY.pad_width)
    feats = prefix_features(rows, models.encoder, max(map(len, batch)) + 1)
    lengths = np.array([len(s) for s in batch])
    with ad.no_grad():
        from gmgan.generator import initial_hidden
        init_h = initial_hidden(ad.constant(feats[-1]), models.generator)
        pooled = guider_loss_batch(feats, lengths, config.c, models.guider,
                                   initial_state(init_h)).item()
        total, count = 0.0, 0
        for i, s in enumerate(batch):
            # sequence i alone, as a B=1 batch
            seq = feats[: len(s) + 1, i:i + 1]
            init = initial_state(ad.constant(init_h.values[i:i + 1]))
            n_terms = len(s) + 1 - config.c
            loss_i = guider_loss_batch(seq, [len(s)], config.c, models.guider,
                                       init).item()
            total += loss_i * n_terms
            count += n_terms
    assert abs(pooled - total / count) < 1e-10


def count_encode_batch(monkeypatch):
    """Shapes of the row matrices passed to encode_batch through any gmgan
    module's binding."""
    calls, original = [], encoder.encode_batch

    def counted(rows, *args, **kwargs):
        calls.append(rows.shape)
        return original(rows, *args, **kwargs)

    for mod in (encoder, generator, trainer, style):
        if getattr(mod, "encode_batch", None) is original:
            monkeypatch.setattr(mod, "encode_batch", counted)
    return calls


def test_known_prefixes_are_not_encoded_per_step(monkeypatch):
    _, vocab, sents = tiny_corpus(n=8)
    config = tiny_config()
    models = Models(len(vocab), config)
    optimizers = Optimizers(models, config)
    calls = count_encode_batch(monkeypatch)
    mle_step(sents, models, optimizers)
    # the initial states, encoded with gradients; no prefix goes through it
    assert calls == [(8, TINY.pad_width)]
    calls.clear()
    trainer._guider_phase(sents, models, optimizers, config, 0)
    assert calls == []

    labelled = [(s, i % 2) for i, s in enumerate(sents)]
    models = Models(len(vocab), tiny_config(style_mode=True), style_labels=2)
    style._style_guider_phase(labelled, models, Optimizers(models, config),
                              config, 0)
    assert calls == []


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_is_deterministic_and_learns():
    _, vocab, sents = tiny_corpus(n=48)
    config = tiny_config(mle_epochs=3)
    train, val = sents[:40], sents[40:]

    models_a = Models(len(vocab), config)
    hist_a = pretrain_mle(train, val, models_a, config)
    models_b = Models(len(vocab), config)
    hist_b = pretrain_mle(train, val, models_b, config)

    assert hist_a == hist_b
    assert_snapshots_equal(snapshot(models_a), snapshot(models_b))
    assert hist_a[-1]["train_loss"] < hist_a[0]["train_loss"]
    assert models_a.pretrained
    assert models_a.feature_norm > 0


def test_pretrain_refuses_an_empty_corpus_before_training():
    _, vocab, sents = tiny_corpus(n=16)
    config = tiny_config(mle_epochs=1)
    models = Models(len(vocab), config)
    before = snapshot(models)
    with pytest.raises(ContractError, match="empty validation corpus"):
        pretrain_mle(sents, [], models, config)
    with pytest.raises(ContractError, match="empty training corpus"):
        pretrain_mle([], sents, models, config)
    assert_snapshots_equal(snapshot(models), before)
    assert not models.pretrained

def test_pad_embedding_row_stays_zero_through_training():
    _, vocab, sents = tiny_corpus(n=24)
    config = tiny_config(mle_epochs=1)
    models = Models(len(vocab), config)
    pretrain_mle(sents[:20], sents[20:], models, config)
    assert np.array_equal(models.encoder.embedding.values[PAD],
                          np.zeros(TINY.embed_dim))


def test_guider_updates_do_not_touch_generator_group():
    _, vocab, sents = tiny_corpus(n=16)
    config = tiny_config(mle_epochs=1)
    models = Models(len(vocab), config)
    opt = Optimizers(models, config)
    from gmgan.trainer import _guider_phase
    before = {n: t.values.copy() for n, t in models.generator_tensors()}
    _guider_phase(sents, models, opt, config, epoch=0)
    for n, t in models.generator_tensors():
        assert np.array_equal(before[n], t.values), n


_FAULTS_PER_STEP_PAIR = textwrap.dedent("""
    import resource, sys
    sys.path.insert(0, sys.argv[1])
    from gmgan.corpus import desk_grammar, sample_grammar
    from gmgan.encoder import ModelProfile
    from gmgan.trainer import (Models, Optimizers, TrainConfig,
                               guider_update, mle_step)
    profile = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)
    grammar = desk_grammar()
    vocab = grammar.vocabulary()
    sents = sample_grammar(grammar, 320, seed=7, vocab=vocab, max_len=16)
    config = TrainConfig(seed=7, profile=profile, max_len=16, batch_size=32)
    models = Models(len(vocab), config)
    optimizers = Optimizers(models, config)

    def step_pair(i):
        batch = sents[32 * i:32 * (i + 1)]
        mle_step(batch, models, optimizers)
        guider_update(batch, models, optimizers, config.c)

    for i in range(3):
        step_pair(i)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(3, 10):
        step_pair(i)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) / 7)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are pinned only on glibc")
def test_mle_and_guider_steps_do_not_page_fault_after_warm_up():
    # every tape block frees its batch graph at once; the heap must keep
    # that memory for the next batch instead of returning it to the OS.
    # A fresh process counts only these steps' faults.
    src = str(Path(gmgan.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP_PAIR, src],
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) < 100


# ---------------------------------------------------------------------------
# policy gradient
# ---------------------------------------------------------------------------

def make_reward_trace(q):
    q = np.asarray(q, dtype=np.float64)
    return RewardTrace(q.copy(), 1.0, q.copy(), q.copy(), 0.25, 2)


def test_zero_advantage_batch_is_bit_noop():
    _, vocab, sents = tiny_corpus(n=8)
    config = tiny_config()
    models = Models(len(vocab), config)
    opt = Optimizers(models, config)
    traces = rollout_traces(sents[:3], models, np.random.default_rng(0))
    rtraces = [make_reward_trace(np.zeros(t.length)) for t in traces]
    before = snapshot(models)
    out = policy_gradient_step(traces, rtraces, models, opt)
    assert out["skipped"]
    assert_snapshots_equal(before, snapshot(models))


def test_single_step_gradient_is_q_times_logp_grad():
    _, vocab, _ = tiny_corpus()
    config = tiny_config()
    models = Models(len(vocab), config)
    trace = sample_sequence(np.abs(np.random.default_rng(1).normal(
        size=TINY.feature_dim)), models.generator, models.guider,
        models.encoder, seed=5, max_len=1)
    assert trace.length == 1
    q = 0.7
    token = trace.tokens[0]
    init = ad.constant(trace.init_feature)

    def surrogate():
        from gmgan.generator import teacher_forced_log_probs
        logp, _, _ = teacher_forced_log_probs(
            [[token]], models.encoder, models.generator, models.guider,
            init_features=ad.reshape(init, (1, TINY.feature_dim)))
        return ad.scale(ad.tsum(logp), -q)

    with ad.tape():
        loss = surrogate()
        ad.backward(loss)
    grads_surrogate = {n: t.grad.copy() for n, t in models.generator.tensors()
                       if t.grad is not None}
    for _, t in models.all_tensors():
        t.zero_grad()
    with ad.tape():
        plain = ad.scale(surrogate(), 1.0 / q)  # pure -log p
        ad.backward(plain)
    for n, t in models.generator.tensors():
        if t.grad is not None and n in grads_surrogate:
            assert np.allclose(grads_surrogate[n], q * t.grad, atol=1e-12)

    # and the surrogate gradient agrees with finite differences
    for _, t in models.all_tensors():
        t.zero_grad()
    with ad.tape():
        loss = surrogate()
        ad.backward(loss)

    def forward():
        with ad.no_grad():
            return surrogate().item()

    check_grads(forward, [models.generator.gate_w, models.generator.out_w],
                tol=1e-4, max_coords=4, rng=np.random.default_rng(2))


def test_policy_step_moves_generator_not_guider():
    _, vocab, sents = tiny_corpus(n=8)
    config = tiny_config()
    models = Models(len(vocab), config)
    opt = Optimizers(models, config)
    traces = rollout_traces(sents[:4], models, np.random.default_rng(3))
    rtraces = [make_reward_trace(np.linspace(1.0, 0.5, t.length))
               for t in traces]
    guider_before = {n: t.values.copy() for n, t in models.guider.tensors()}
    gen_before = {n: t.values.copy() for n, t in models.generator.tensors()}
    out = policy_gradient_step(traces, rtraces, models, opt)
    assert not out["skipped"]
    for n, t in models.guider.tensors():
        assert np.array_equal(guider_before[n], t.values), n
    assert any(not np.array_equal(gen_before[n], t.values)
               for n, t in models.generator.tensors())


def test_three_arm_bandit_reinforce():
    config = tiny_config(lr_generator=0.05)
    models = Models(7, config)  # specials + words A=4, B=5, C=6
    models.generator.action_mask.values[EOS] = LOGIT_MASK  # exactly 3 arms
    opt = Optimizers(models, config)
    init = np.zeros(TINY.feature_dim)
    rng = np.random.default_rng(4)

    def p_best():
        with ad.no_grad():
            trace = sample_sequence(init, models.generator, models.guider,
                                    models.encoder, seed=0, mode="greedy",
                                    max_len=1)
            from gmgan.generator import teacher_forced_log_probs
            logp, _, _ = teacher_forced_log_probs(
                [[4]], models.encoder, models.generator, models.guider,
                init_features=ad.constant(init.reshape(1, -1)))
            return float(np.exp(logp.values[0, 0]))

    p0 = p_best()
    p_final = None
    for step in range(500):
        traces = [sample_sequence(init, models.generator, models.guider,
                                  models.encoder, rng=rng, max_len=1)
                  for _ in range(8)]
        rtraces = [make_reward_trace(np.array([1.0 if t.tokens[0] == 4 else 0.0]))
                   for t in traces]
        policy_gradient_step(traces, rtraces, models, opt)
        p_final = p_best()
        if p_final > 0.9:
            break
    assert p_final > 0.9
    assert p_final > p0


# ---------------------------------------------------------------------------
# adversarial loop
# ---------------------------------------------------------------------------

def test_gmgan_requires_pretraining():
    _, vocab, sents = tiny_corpus(n=8)
    config = tiny_config()
    models = Models(len(vocab), config)
    with pytest.raises(ContractError):
        run_gmgan(sents, sents, models, config)


def test_gmgan_with_zero_mix_matches_pretrain_continuation():
    _, vocab, sents = tiny_corpus(n=32)
    config = tiny_config(mle_epochs=2, rl_epochs=2, rl_mix=0.0)
    train, val = sents[:28], sents[28:]
    base = Models(len(vocab), config)
    pretrain_mle(train, val, base, config)

    run_a = base.clone()
    opt_a = Optimizers(run_a, config)
    hist_a = run_gmgan(train, val, run_a, config, optimizers=opt_a)

    run_b = base.clone()
    opt_b = Optimizers(run_b, config)
    hist_b = pretrain_mle(train, val, run_b, config, optimizers=opt_b,
                          start_epoch=config.mle_epochs, epochs=2,
                          include_guider=False)

    for ea, eb in zip(hist_a, hist_b):
        assert ea["epoch"] == eb["epoch"]
        assert ea["mle_loss"] == eb["train_loss"]
        assert ea["val_loss"] == eb["val_loss"]
    for (na, ta), (nb, tb) in zip(run_a.generator_tensors(),
                                  run_b.generator_tensors()):
        assert na == nb
        assert np.array_equal(ta.values, tb.values), na


def test_gmgan_runs_all_ablations_and_logs():
    _, vocab, sents = tiny_corpus(n=24)
    train, val = sents[:20], sents[20:]
    for mode in ("both", "final-only", "stepwise-only"):
        config = tiny_config(mle_epochs=1, rl_epochs=2, ablation=mode)
        models = Models(len(vocab), config)
        pretrain_mle(train, val, models, config)
        hist = run_gmgan(train, val, models, config)
        assert len(hist) == 2
        assert all("val_loss" in h for h in hist)


def test_sample_from_noise_deterministic():
    _, vocab, sents = tiny_corpus(n=16)
    config = tiny_config(mle_epochs=1)
    models = Models(len(vocab), config)
    pretrain_mle(sents[:12], sents[12:], models, config)
    a = sample_from_noise(models, 5, seed=9)
    b = sample_from_noise(models, 5, seed=9)
    assert a == b
    for s in a:
        assert s[-1] == EOS


def test_validation_loss_matches_mle_loss_on_single_batch():
    _, vocab, sents = tiny_corpus(n=10)
    config = tiny_config()
    models = Models(len(vocab), config)
    from gmgan.generator import mle_loss
    with ad.no_grad():
        direct = mle_loss(sents, models.encoder, models.generator,
                          models.guider).item()
    assert abs(validation_mle_loss(sents, models, batch_size=64) - direct) < 1e-12
    # UNKs are not scored, so chunks must be weighted by their scored tokens
    # for several chunks to agree with one pooled batch
    with_unk = [list(s) for s in sents]
    for s in with_unk[::2]:
        s[0] = UNK
    with_unk[1][:2] = [UNK, UNK]
    with ad.no_grad():
        pooled = mle_loss(with_unk, models.encoder, models.generator,
                          models.guider).item()
    assert abs(validation_mle_loss(with_unk, models, batch_size=3)
               - pooled) < 1e-12
