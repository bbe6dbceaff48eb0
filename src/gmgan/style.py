"""Label-conditioned style transfer.

The guider receives the target label (learned initial state plus a per-step
one-hot) and steers word choice; the generator reconstructs content from the
encoded source. Three losses train it: same-style reconstruction, a frozen
classifier applied to soft-argmax embeddings of transferred rollouts, and an
entropy regularizer that scrubs style information out of the encoded latent.
"""

import json

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, PAD
from .encoder import (TokenCNN, encode_batch, mean_feature_norm, pad_rows,
                      sentence_rows)
from .errors import ContractError
from .generator import gated_logits, initial_hidden, mle_loss, sample_sequence
from .guider import guider_step, initial_state_for_labels
from .metrics import ngrams, strip_eos
from .optim import Adam
from .trainer import (Optimizers, check_finite, guider_update, mle_step,
                      shuffled_batches, stream_rng)


def check_binary_labels(labelled):
    if not labelled:
        raise ContractError("empty labelled corpus")
    if any(label not in (0, 1) for _, label in labelled):
        raise ContractError("style transfer requires binary labels")


# ---------------------------------------------------------------------------
# frozen style classifier (CNN over sentences) and latent probe
# ---------------------------------------------------------------------------

class StyleClassifierParams(TokenCNN):
    def __init__(self, vocab_size, profile, rng):
        super().__init__(vocab_size, profile, 2, rng, "classifier",
                         final_relu=False)


def classifier_accuracy(classifier, labelled):
    rows = pad_rows([list(s) for s, _ in labelled], classifier.profile.pad_width)
    with ad.no_grad():
        pred = classifier.apply_rows(rows).values.argmax(axis=1)
    return float(np.mean(pred == np.array([l for _, l in labelled])))


def train_style_classifier(labelled, vocab_size, profile, seed, epochs=4,
                           lr=3e-3, batch_size=32):
    """Fit the sentence-level style classifier; the caller freezes it."""
    check_binary_labels(labelled)
    classifier = StyleClassifierParams(vocab_size, profile,
                                       stream_rng(seed, "classifier_init"))
    opt = Adam(classifier.tensors(), lr=lr,
               frozen_rows={"classifier.embedding": [PAD]})
    for epoch in range(epochs):
        rng = stream_rng(seed, "classifier_batch", epoch)
        for idx in shuffled_batches(len(labelled), batch_size, rng):
            batch = [labelled[i] for i in idx]
            rows = pad_rows([list(s) for s, _ in batch], profile.pad_width)
            labels = np.array([l for _, l in batch])
            with ad.tape():
                logp = ad.log_softmax(classifier.apply_rows(rows))
                picked = ad.pick(logp, np.arange(len(batch)), labels)
                loss = ad.scale(ad.tsum(picked), -1.0 / len(batch))
                check_finite(loss)
                ad.backward(loss)
            opt.step()
            opt.zero_grad()
    return classifier


class LatentProbe:
    """Logistic read-out of the style label from an initial feature."""

    def __init__(self, feature_dim, rng):
        self.w = ad.init_matrix(rng, feature_dim, 2)
        self.b = ad.init_vector(2)

    def tensors(self):
        return [("probe.w", self.w), ("probe.b", self.b)]

    def log_probs(self, feats):
        return ad.log_softmax(ad.add(ad.matmul(feats, self.w), self.b))


def train_latent_probe(labelled, models, seed, epochs=6, lr=0.01,
                       batch_size=64):
    probe = LatentProbe(models.profile.feature_dim,
                        stream_rng(seed, "probe_init"))
    opt = Adam(probe.tensors(), lr=lr)
    for epoch in range(epochs):
        rng = stream_rng(seed, "probe_batch", epoch)
        for idx in shuffled_batches(len(labelled), batch_size, rng):
            batch = [labelled[i] for i in idx]
            rows = sentence_rows([s for s, _ in batch],
                                 models.profile.pad_width)
            feats = encode_batch(rows, models.encoder, stop_gradient=True)
            labels = np.array([l for _, l in batch])
            with ad.tape():
                logp = probe.log_probs(feats)
                loss = ad.scale(ad.tsum(ad.pick(logp, np.arange(len(batch)),
                                                labels)), -1.0 / len(batch))
                ad.backward(loss)
            opt.step()
            opt.zero_grad()
    return probe


def probe_entropy(feats, probe):
    """Mean entropy (nats) of the probe's posterior; maximum ln 2."""
    logp = probe.log_probs(feats)
    p = ad.exp(logp)
    neg_h = ad.tsum(ad.mul(p, logp))  # sum of p log p over rows and labels
    return ad.scale(neg_h, -1.0 / feats.shape[0])


# ---------------------------------------------------------------------------
# soft-argmax transfer rollout
# ---------------------------------------------------------------------------

def soft_argmax_embedding(logits, table, temperature):
    """Differentiable token selection: expected embedding under the
    temperature-sharpened distribution. At temperature -> 0 this converges to
    the embedding of the argmax token."""
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    soft = ad.softmax(ad.scale(logits, 1.0 / temperature))
    return ad.matmul(soft, table)


def soft_transfer_rollout(init_feats, target_labels, models, classifier,
                          config):
    """Generate with soft tokens under the target label from the sources'
    (B, F) encoded features; returns the classifier cross-entropy toward
    that label."""
    n = init_feats.shape[0]
    prof = models.profile
    width = prof.pad_width
    tau = config.soft_argmax_temperature
    target_labels = np.asarray(target_labels, dtype=np.intp)

    dec_h = initial_hidden(init_feats, models.generator)
    dec_c = ad.constant(np.zeros((n, prof.hidden_dim)))
    with ad.no_grad():  # the guider gates the decoder as a constant
        gui_state = initial_state_for_labels(models.guider, target_labels)

    bos_emb = models.encoder.embedding.values[BOS]
    enc_prefix = np.zeros((n, width, prof.embed_dim))
    enc_prefix[:, 0, :] = bos_emb

    cls_steps = []
    alive = np.ones(n)
    for t in range(prof.max_len):
        with ad.no_grad():
            f_t = models.encoder.apply(ad.constant(enc_prefix))
            pred, gui_state = guider_step(gui_state, f_t, models.guider,
                                          labels=target_labels)
        logits = gated_logits(dec_h, pred, models.generator)
        alive_mask = ad.constant(np.repeat(alive[:, None], prof.embed_dim,
                                           axis=1))
        soft_gen = ad.mul(soft_argmax_embedding(logits, models.generator.embedding,
                                                tau), alive_mask)
        soft_cls = ad.mul(soft_argmax_embedding(logits, classifier.embedding,
                                                tau), alive_mask)
        cls_steps.append(ad.reshape(soft_cls, (n, 1, prof.embed_dim)))
        picked = logits.values.argmax(axis=1)
        if t + 1 < width:
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
    logp = ad.log_softmax(classifier.apply(cls_input))
    return ad.scale(ad.tsum(ad.pick(logp, np.arange(n), target_labels)),
                    -1.0 / n)


def transfer_greedy(source, target_label, models):
    """Hard transfer at inference: greedy decode under the flipped label."""
    rows = sentence_rows([source], models.profile.pad_width)
    init = encode_batch(rows, models.encoder, stop_gradient=True).values
    trace = sample_sequence(init, models.generator, models.guider,
                            models.encoder, seed=0, mode="greedy",
                            style_label=int(target_label))
    return trace.sentence(models.profile.max_len)


def unigram_precision(candidate, source):
    """Clipped unigram overlap of a transfer with its source (EOS ignored)."""
    cand = strip_eos(candidate)
    src = ngrams(strip_eos(source), 1)
    if not cand:
        return 0.0
    cand_counts = ngrams(cand, 1)
    matches = sum(min(cnt, src[g]) for g, cnt in cand_counts.items())
    return matches / len(cand)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def evaluate_transfer(labelled, models, oracle):
    """Oracle accuracy and mean source overlap of greedy transfers."""
    hits, overlaps = [], []
    for source, label in labelled:
        target = 1 - label
        out = transfer_greedy(source, target, models)
        hits.append(1.0 if oracle(out) == target else 0.0)
        overlaps.append(unigram_precision(out, source))
    return float(np.mean(hits)), float(np.mean(overlaps))


def run_style_transfer(labelled_train, labelled_val, models, config,
                       oracle=None, log=None):
    """Full style-transfer training; returns (classifier, probe, history).

    Pretrains the classifier and reconstruction, fits the latent probe, then
    optimizes reconstruction + classifier-on-transfer + entropy jointly with
    per-epoch guider updates on labelled real features.
    """
    check_binary_labels(labelled_train)
    if models.guider.num_labels != 2:
        raise ContractError("models were not built in style mode")
    classifier = train_style_classifier(
        labelled_train, models.vocab_size, models.profile, config.seed,
        epochs=config.classifier_epochs, batch_size=config.batch_size)

    optimizers = Optimizers(models, config)
    history = []
    sentences = [s for s, _ in labelled_train]
    labels_all = [l for _, l in labelled_train]

    # reconstruction-only warm start plus guider passes on labelled features
    for epoch in range(config.mle_epochs):
        rng = stream_rng(config.seed, "style_mle", epoch)
        losses = []
        for idx in shuffled_batches(len(labelled_train), config.batch_size,
                                    rng):
            batch = [sentences[i] for i in idx]
            labs = np.array([labels_all[i] for i in idx])
            losses.append(mle_step(batch, models, optimizers, labels=labs))
        _style_guider_phase(labelled_train, models, optimizers, config, epoch)
        entry = {"stage": "style_mle", "epoch": epoch,
                 "train_loss": float(np.mean(losses))}
        history.append(entry)
        if log is not None:
            log.write(json.dumps(entry) + "\n")

    probe = train_latent_probe(labelled_train, models, config.seed)
    models.feature_norm = mean_feature_norm(sentences, models.encoder)
    models.pretrained = True

    for epoch in range(config.style_epochs):
        rng = stream_rng(config.seed, "style_joint", epoch)
        stats = {"rec": [], "cls": [], "ent": []}
        for idx in shuffled_batches(len(labelled_train), config.batch_size,
                                    rng):
            batch = [sentences[i] for i in idx]
            labs = np.array([labels_all[i] for i in idx])
            flipped = 1 - labs
            with ad.tape():
                # the sources, encoded once; all three losses train the
                # encoder through these features
                feats = encode_batch(sentence_rows(batch,
                                                   models.profile.pad_width),
                                     models.encoder)
                rec = mle_loss(batch, models.encoder, models.generator,
                               models.guider, labels=labs,
                               init_features=feats)
                cls_loss = soft_transfer_rollout(feats, flipped, models,
                                                 classifier, config)
                ent = probe_entropy(feats, probe)
                total = ad.add(
                    ad.add(ad.scale(rec, config.weight_reconstruction),
                           ad.scale(cls_loss, config.weight_classifier)),
                    ad.scale(ent, -config.weight_entropy))
                check_finite(total)
                ad.backward(total)
            optimizers.generator.step()
            optimizers.zero_all()
            stats["rec"].append(rec.item())
            stats["cls"].append(cls_loss.item())
            stats["ent"].append(ent.item())
        _style_guider_phase(labelled_train, models, optimizers, config,
                            config.mle_epochs + epoch)
        entry = {"stage": "style_joint", "epoch": epoch,
                 "rec_loss": float(np.mean(stats["rec"])),
                 "cls_loss": float(np.mean(stats["cls"])),
                 "entropy": float(np.mean(stats["ent"]))}
        if oracle is not None:
            acc, overlap = evaluate_transfer(labelled_val, models, oracle)
            entry.update({"transfer_accuracy": acc, "source_overlap": overlap})
        history.append(entry)
        if log is not None:
            log.write(json.dumps(entry) + "\n")
    return classifier, probe, history


def _style_guider_phase(labelled, models, optimizers, config, epoch):
    rng = stream_rng(config.seed, "style_guider", epoch)
    for idx in shuffled_batches(len(labelled), config.batch_size, rng):
        guider_update([labelled[i][0] for i in idx], models, optimizers,
                      config.c, labels=np.array([labelled[i][1] for i in idx]))
