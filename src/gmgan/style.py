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
from .guider import guider_step, initial_state
from .metrics import ngrams, strip_eos
from .optim import Adam
from .trainer import (Optimizers, guider_update, mle_step, shuffled_batches,
                      stream_rng)


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


def _fit_cross_entropy(labelled, log_probs, opt, seed, domain, epochs,
                      batch_size):
    """Minimise the mean cross-entropy of `log_probs(sentences) -> (B, 2)`
    against the labels: per epoch one pass over `labelled` in batches drawn
    from the (seed, domain, epoch) stream, one `opt` step per batch."""
    for epoch in range(epochs):
        rng = stream_rng(seed, domain, epoch)
        for idx in shuffled_batches(len(labelled), batch_size, rng):
            opt.minimize(lambda: ad.cross_entropy(
                log_probs([labelled[i][0] for i in idx]),
                np.array([labelled[i][1] for i in idx])))


def train_style_classifier(labelled, vocab_size, profile, seed, epochs=4,
                           batch_size=32):
    """Fit the sentence-level style classifier; the caller freezes it."""
    classifier = StyleClassifierParams(vocab_size, profile,
                                       stream_rng(seed, "classifier_init"))
    opt = Adam(classifier.tensors(), lr=3e-3,
               frozen_rows={"classifier.embedding": [PAD]})
    _fit_cross_entropy(
        labelled, lambda sents: ad.log_softmax(classifier.apply_rows(
            pad_rows([list(s) for s in sents], profile.pad_width))),
        opt, seed, "classifier_batch", epochs, batch_size)
    return classifier


class LatentProbe:
    """Logistic read-out of the style label from an initial feature."""

    def __init__(self, feature_dim, rng):
        self.w = ad.init_matrix(rng, feature_dim, 2)
        self.b = ad.init_vector(2)

    def tensors(self):
        return [("probe.w", self.w), ("probe.b", self.b)]

    def log_probs(self, feats):
        return ad.log_softmax(ad.linear(feats, self.w, self.b))


def train_latent_probe(labelled, models, seed):
    probe = LatentProbe(models.profile.feature_dim,
                        stream_rng(seed, "probe_init"))

    def log_probs(sents):
        with ad.no_grad():   # the encoder is frozen here
            feats = encode_batch(sentence_rows(sents, models.profile.pad_width),
                                 models.encoder)
        return probe.log_probs(feats)

    _fit_cross_entropy(labelled, log_probs, Adam(probe.tensors(), lr=0.01),
                       seed, "probe_batch", 6, 64)
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

def soft_argmax(logits, temperature):
    """Differentiable token selection: the temperature-sharpened distribution
    over tokens. Times an embedding table it gives the expected embedding,
    which converges to the argmax token's as temperature -> 0."""
    return ad.softmax(ad.scale(logits, 1.0 / temperature))


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
    return ad.cross_entropy(ad.log_softmax(classifier.apply(cls_input)),
                            target_labels)


def transfer_greedy(source, target_label, models):
    """Hard transfer at inference: greedy decode under the flipped label."""
    rows = sentence_rows([source], models.profile.pad_width)
    with ad.no_grad():
        init = encode_batch(rows, models.encoder).values
    trace = sample_sequence(init, models.generator, models.guider,
                            models.encoder, rng=None,
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
    for _, t in classifier.tensors() + probe.tensors():
        t.requires_grad = False      # fitted: the joint losses only read them
    models.feature_norm = mean_feature_norm(sentences, models.encoder)
    models.pretrained = True

    for epoch in range(config.style_epochs):
        rng = stream_rng(config.seed, "style_joint", epoch)
        stats = {"rec": [], "cls": [], "ent": []}
        for idx in shuffled_batches(len(labelled_train), config.batch_size,
                                    rng):
            batch = [sentences[i] for i in idx]
            labs = np.array([labels_all[i] for i in idx])

            def joint_loss():
                # the sources, encoded once; all three losses train the
                # encoder through these features
                feats = encode_batch(sentence_rows(batch,
                                                   models.profile.pad_width),
                                     models.encoder)
                rec = mle_loss(batch, models.encoder, models.generator,
                               models.guider, labels=labs,
                               init_features=feats)
                cls_loss = soft_transfer_rollout(feats, 1 - labs, models,
                                                 classifier, config)
                ent = probe_entropy(feats, probe)
                stats["rec"].append(rec.item())
                stats["cls"].append(cls_loss.item())
                stats["ent"].append(ent.item())
                return ad.add(
                    ad.add(ad.scale(rec, config.weight_reconstruction),
                           ad.scale(cls_loss, config.weight_classifier)),
                    ad.scale(ent, -config.weight_entropy))

            optimizers.generator.minimize(joint_loss)
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
