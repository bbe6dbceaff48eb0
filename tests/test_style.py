import math

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import encoder, generator, style, trainer
from gmgan.corpus import EOS, desk_style_grammar, sample_grammar_styled, style_oracle
from gmgan.encoder import ModelProfile, encode_batch, pad_rows, sentence_rows
from gmgan.errors import ContractError
from gmgan.style import (LatentProbe, check_binary_labels, probe_entropy,
                         run_style_transfer, soft_argmax,
                         soft_transfer_rollout, train_style_classifier,
                         transfer_greedy, unigram_precision)
from gmgan.trainer import Models, TrainConfig

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def style_setup(n=60, seed=0):
    g = desk_style_grammar()
    vocab = g.vocabulary()
    labelled = sample_grammar_styled(g, n, seed=seed, vocab=vocab, max_len=12)
    config = TrainConfig(seed=2, profile=TINY, max_len=12, c=2, batch_size=8,
                         mle_epochs=1, style_epochs=1, classifier_epochs=2,
                         guider_extra_epochs=0, lr_generator=1e-3,
                         lr_guider=1e-3, style_mode=True)
    return g, vocab, labelled, config


def test_binary_label_contract():
    with pytest.raises(ContractError):
        check_binary_labels([])
    with pytest.raises(ContractError):
        check_binary_labels([([4, EOS], 2)])
    check_binary_labels([([4, EOS], 0), ([5, EOS], 1)])


def test_probe_entropy_maximum_at_uniform():
    probe = LatentProbe(TINY.feature_dim, np.random.default_rng(0))
    probe.w.values[:] = 0.0
    probe.b.values[:] = 0.0
    feats = ad.constant(np.abs(np.random.default_rng(1).normal(size=(5, 10))))
    h = probe_entropy(feats, probe).item()
    assert abs(h - math.log(2.0)) < 1e-12


def test_soft_argmax_converges_to_hard_lookup():
    rng = np.random.default_rng(2)
    table = ad.constant(rng.normal(size=(9, 6)))
    logits = np.zeros(9)
    logits[3] = 1.0  # peaked distribution
    soft = ad.matmul(soft_argmax(ad.constant(logits.reshape(1, -1)), 1e-4),
                     table)
    hard = table.values[3]
    assert np.linalg.norm(soft.values.reshape(-1) - hard) < 1e-6


def test_classifier_learns_lexicon_split():
    g, vocab, labelled, config = style_setup(n=120)
    clf = train_style_classifier(labelled, len(vocab), TINY, seed=3,
                                 epochs=4, batch_size=16)
    rows = pad_rows([list(s) for s, _ in labelled], TINY.pad_width)
    with ad.no_grad():
        pred = clf.apply_rows(rows).values.argmax(axis=1)
    assert np.mean(pred == [label for _, label in labelled]) > 0.9


def test_soft_rollout_produces_gradients():
    g, vocab, labelled, config = style_setup(n=20)
    models = Models(len(vocab), config, style_labels=2)
    clf = train_style_classifier(labelled, len(vocab), TINY, seed=4, epochs=1)
    sources = sentence_rows([s for s, _ in labelled[:4]], TINY.pad_width)
    targets = 1 - np.array([l for _, l in labelled[:4]])
    with ad.tape():
        feats = encode_batch(sources, models.encoder)
        loss = soft_transfer_rollout(feats, targets, models, clf, config)
        ad.backward(loss)
    assert math.isfinite(loss.item())
    gen_grads = [t.grad for _, t in models.generator.tensors()]
    assert any(g is not None and np.abs(g).max() > 0 for g in gen_grads)
    for _, t in models.guider.tensors():
        assert t.grad is None or not t.grad.any()
    for _, t in clf.tensors():
        t.zero_grad()


def test_soft_rollout_records_nothing_fed_by_the_label_rows():
    # the guider runs as a constant, so its label rows stay off the tape:
    # handing every node a zero gradient must leave label_init untouched
    g, vocab, labelled, config = style_setup(n=8)
    models = Models(len(vocab), config, style_labels=2)
    clf = train_style_classifier(labelled, len(vocab), TINY, seed=4, epochs=1)
    sources = sentence_rows([s for s, _ in labelled[:4]], TINY.pad_width)
    targets = 1 - np.array([l for _, l in labelled[:4]])
    label_init = models.guider.label_init
    label_init.zero_grad()
    with ad.tape() as tp:
        feats = encode_batch(sources, models.encoder)
        soft_transfer_rollout(feats, targets, models, clf, config)
    assert tp.nodes
    for out, backward_fn in reversed(tp.nodes):
        backward_fn(np.zeros_like(out.values))
    assert label_init.grad is None


def test_unigram_precision_hand_cases():
    assert unigram_precision([4, 5, 6, EOS], [4, 5, 6, EOS]) == 1.0
    assert unigram_precision([4, 4, 7, EOS], [4, 5, 6, EOS]) == pytest.approx(1 / 3)
    assert unigram_precision([9, 9, EOS], [4, 5, EOS]) == 0.0


def test_transfer_greedy_emits_sentence():
    g, vocab, labelled, config = style_setup(n=12)
    models = Models(len(vocab), config, style_labels=2)
    out = transfer_greedy(labelled[0][0], 1, models)
    assert out[-1] == EOS
    assert len(out) <= TINY.max_len


def test_run_style_transfer_smoke_and_history():
    g, vocab, labelled, config = style_setup(n=40)
    models = Models(len(vocab), config, style_labels=2)
    oracle = lambda ids: style_oracle(g, ids, vocab)
    clf, probe, history = run_style_transfer(labelled[:32], labelled[32:],
                                             models, config, oracle=oracle)
    stages = {h["stage"] for h in history}
    assert stages == {"style_mle", "style_joint"}
    joint = [h for h in history if h["stage"] == "style_joint"][-1]
    assert {"rec_loss", "cls_loss", "entropy", "transfer_accuracy",
            "source_overlap"} <= set(joint)
    assert models.pretrained


def test_run_style_transfer_freezes_its_scorers_and_leaves_no_gradient():
    # the fitted classifier and probe take no gradient from the joint
    # losses, and every step clears the group it updates
    g, vocab, labelled, config = style_setup(n=24)
    models = Models(len(vocab), config, style_labels=2)
    clf, probe, _ = run_style_transfer(labelled[:16], labelled[16:], models,
                                       config)
    scorers = clf.tensors() + probe.tensors()
    assert not any(t.requires_grad for _, t in scorers)
    assert [n for n, t in models.all_tensors() + scorers
            if t.grad is not None] == []


def test_run_style_requires_style_models():
    g, vocab, labelled, config = style_setup(n=8)
    plain = Models(len(vocab), config)  # no label machinery
    with pytest.raises(ContractError):
        run_style_transfer(labelled, labelled, plain, config)


def test_joint_step_encodes_its_sources_once(monkeypatch):
    g, vocab, labelled, config = style_setup(n=24)
    config = TrainConfig(**{**vars(config), "mle_epochs": 0})
    models = Models(len(vocab), config, style_labels=2)
    original, recorded = encoder.encode_batch, []

    def counted(rows, *args, **kwargs):
        out = original(rows, *args, **kwargs)
        recorded.append(out.requires_grad)
        return out

    for mod in (encoder, generator, style, trainer):
        if getattr(mod, "encode_batch", None) is original:
            monkeypatch.setattr(mod, "encode_batch", counted)
    run_style_transfer(labelled[:16], labelled[16:], models, config)
    # no warm-start epoch and one joint epoch of two batches: reconstruction,
    # the soft rollout and the entropy term share each batch's encode
    assert sum(recorded) == 2
