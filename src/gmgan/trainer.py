"""Training orchestration: MLE pretraining, policy-gradient fine-tuning with
feature-matching rewards, and the full adversarial loop.

Parameter groups are disjoint: the generator group owns the encoder, the
shared embedding, the decoder side and the initial-state projection; the
guider group owns the guider LSTM and head; the discriminator owns itself.
Every update is one `Adam.minimize` on one group, which clears only that
group's gradients, so no loss may reach a tensor of another group. The
guider trains only on its own dual-cosine objective and runs under
`no_grad` while the generator updates (its predictions enter generator
losses as constants), and generator losses never push gradients into the
encoder through the guider's inputs. The style classifier and latent probe
are frozen by `requires_grad` once fitted.
"""

import json
import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .corpus import PAD
from .discriminator import DiscriminatorParams, score_batch, train_step
from .encoder import (EncoderParams, ModelProfile, draw_initial_noise,
                      encode_batch, get_profile, mean_feature_norm,
                      prefix_features, sentence_rows)
from .errors import ContractError
from .generator import (GeneratorParams, initial_hidden, mle_loss,
                        sample_sequence, scored_tokens,
                        teacher_forced_log_probs)
from .guider import GuiderParams, guider_loss_batch, initial_state
from .optim import Adam
from .rewards import RewardBaseline, compute_reward_trace

VALID_C = (2, 3, 4, 5, 8)
# a field takes the JSON kinds of its default's type (bools apart)
_KINDS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


@dataclass
class TrainConfig:
    seed: int = 0
    profile: str = "paper"
    max_len: int = 25
    c: int = 4
    gamma: float = 0.25
    discount_convention: str = "relative"
    baseline: bool = True
    baseline_momentum: float = 0.99
    lr_generator: float = 2e-4
    lr_guider: float = 2e-4
    lr_discriminator: float = 1e-3
    batch_size: int = 32
    mle_epochs: int = 10
    rl_epochs: int = 2
    g_steps: int = 1
    d_steps: int = 1
    guider_extra_epochs: int = 2
    rollout_batch: int = 16
    ablation: str = "both"
    rl_mix: object = "ramp"          # "ramp" or a fixed float in [0, 1]
    eval_samples: int = 64
    style_mode: bool = False
    style_epochs: int = 6
    classifier_epochs: int = 4
    weight_reconstruction: float = 1.0
    # measured gradient scales: the soft-argmax classifier term is ~40x the
    # reconstruction term, so its weight is small for reconstruction to lead
    weight_classifier: float = 0.03
    weight_entropy: float = 0.1
    soft_argmax_temperature: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            if f.name == "rl_mix" or (f.name == "profile"
                                      and isinstance(value, ModelProfile)):
                continue
            if (isinstance(value, bool) != isinstance(default, bool)
                    or not isinstance(value, _KINDS[type(default)])):
                raise ContractError("%s must be of type %s, got %r"
                                    % (f.name, type(default).__name__, value))
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError("%s must be finite, got %r"
                                    % (f.name, value))
        if min(self.batch_size, self.max_len, self.rollout_batch) < 1:
            raise ContractError("batch_size, max_len and rollout_batch must "
                                "be positive")
        if min(self.seed, self.mle_epochs, self.rl_epochs, self.g_steps,
               self.d_steps, self.guider_extra_epochs, self.eval_samples,
               self.style_epochs, self.classifier_epochs) < 0:
            raise ContractError("seed and counts must be >= 0")
        if min(self.lr_generator, self.lr_guider, self.lr_discriminator) <= 0:
            raise ContractError("learning rates must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ContractError("gamma must lie in [0, 1)")
        if not 0.0 <= self.baseline_momentum <= 1.0:
            raise ContractError("baseline_momentum must lie in [0, 1]")
        if self.soft_argmax_temperature <= 0:
            raise ContractError("soft_argmax_temperature must be positive")
        if self.c not in VALID_C:
            raise ContractError("c must be one of %r" % (VALID_C,))
        if self.discount_convention not in ("relative", "absolute"):
            raise ContractError("unknown discount convention")
        if self.ablation not in ("both", "final-only", "stepwise-only"):
            raise ContractError("unknown ablation mode")
        if self.rl_mix != "ramp" and not (type(self.rl_mix) in (int, float)
                                          and 0.0 <= self.rl_mix <= 1.0):
            raise ContractError("rl_mix must be 'ramp' or a float in [0, 1]")
        get_profile(self.profile, max_len=self.max_len)  # the stack must fit


def stream_rng(seed, domain, *indices):
    """Independent deterministic rng stream per concern and epoch/step."""
    key = (zlib.crc32(domain.encode("utf-8")),) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=key))


class Models:
    """Encoder, generator, guider and discriminator built over one profile.

    The parameters are drawn from the seed's "init" stream, or from
    `init_rng` when given: a checkpoint load passes one that draws nothing
    and leaves each parameter zero until its section is read in."""

    def __init__(self, vocab_size, config, style_labels=0, init_rng=None):
        self.config = config
        self.profile = get_profile(config.profile, max_len=config.max_len)
        self.vocab_size = vocab_size
        rng = init_rng or stream_rng(config.seed, "init")
        self.encoder = EncoderParams(vocab_size, self.profile, rng)
        self.generator = GeneratorParams(vocab_size, self.profile, rng,
                                         self.encoder.embedding)
        self.guider = GuiderParams(self.profile, rng, num_labels=style_labels)
        self.discriminator = DiscriminatorParams(vocab_size, self.profile, rng)
        self.feature_norm = 1.0
        self.pretrained = False

    def generator_tensors(self):
        return self.encoder.tensors() + self.generator.tensors()

    def all_tensors(self):
        return sum(self.optimizer_groups().values(), [])

    def optimizer_groups(self):
        """Each optimizer group's named tensors, by group name."""
        return {"generator": self.generator_tensors(),
                "guider": self.guider.tensors(),
                "discriminator": self.discriminator.tensors()}


class Optimizers:
    def __init__(self, models, config):
        groups = models.optimizer_groups()
        self.generator = Adam(groups["generator"], lr=config.lr_generator,
                              frozen_rows={"encoder.embedding": [PAD]})
        self.guider = Adam(groups["guider"], lr=config.lr_guider)
        self.discriminator = Adam(groups["discriminator"],
                                  lr=config.lr_discriminator,
                                  frozen_rows={"discriminator.embedding": [PAD]})


def shuffled_batches(n, batch_size, rng):
    """Index batches covering range(n) once, in an rng-drawn order."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def mle_step(batch, models, optimizers, labels=None):
    """One generator update on the teacher-forced MLE loss; returns the loss."""
    return optimizers.generator.minimize(lambda: mle_loss(
        batch, models.encoder, models.generator, models.guider, labels=labels))


def guider_update(batch, models, optimizers, c, labels=None):
    """One guider step on the dual-cosine loss of a batch of real sentences,
    seeded from their projected features or, given (B,) style labels, from
    the labels' embeddings. Returns the loss, or None when no sentence
    reaches length c."""
    lengths = np.array([len(s) for s in batch])
    if lengths.max() < c:
        return None
    # constant (t, b) features of every [BOS]+prefix; a prefix past the end
    # of sentence b holds its ids, so feats[t >= lengths[b], b] and
    # feats[-1] are its whole feature
    rows = sentence_rows(batch, models.profile.pad_width)
    feats = prefix_features(rows, models.encoder, lengths.max() + 1)
    hidden = initial_hidden(ad.constant(feats[-1]), models.generator)
    # off the tape, hidden is a constant; label_init, in style mode, trains
    # with the guider
    return optimizers.guider.minimize(lambda: guider_loss_batch(
        feats, lengths, c, models.guider,
        initial_state(models.guider, hidden, labels)))


def _guider_phase(sentences, models, optimizers, config, epoch):
    rng = stream_rng(config.seed, "guider_batch", epoch)
    losses = [guider_update([sentences[i] for i in idx], models, optimizers,
                            config.c)
              for idx in shuffled_batches(len(sentences), config.batch_size,
                                          rng)]
    losses = [loss for loss in losses if loss is not None]
    return float(np.mean(losses)) if losses else None


def validation_mle_loss(sentences, models):
    """mle_loss over all sentences, computed in chunks of 64; each chunk's
    mean is weighted by its scored tokens, so the result matches one pooled
    batch."""
    total, count = 0.0, 0
    with ad.no_grad():
        for i in range(0, len(sentences), 64):
            chunk = sentences[i:i + 64]
            n_tokens = sum(int(scored_tokens(s).sum()) for s in chunk)
            total += mle_loss(chunk, models.encoder, models.generator,
                              models.guider).item() * n_tokens
            count += n_tokens
    return total / count


def pretrain_mle(train_sentences, val_sentences, models, config,
                 optimizers=None, start_epoch=0, epochs=None, log=None):
    """Alternate generator MLE passes and guider dual-cosine passes.

    Returns the per-epoch history. Deterministic: batch order comes from
    per-epoch seed streams, so continuing a run reproduces it exactly.
    """
    if not train_sentences:
        raise ContractError("empty training corpus")
    if not val_sentences:
        raise ContractError("empty validation corpus")
    optimizers = optimizers or Optimizers(models, config)
    epochs = config.mle_epochs if epochs is None else epochs
    history = []
    for i in range(epochs):
        epoch = start_epoch + i
        rng = stream_rng(config.seed, "mle_batch", epoch)
        gen_losses = []
        for idx in shuffled_batches(len(train_sentences), config.batch_size,
                                    rng):
            batch = [train_sentences[i] for i in idx]
            gen_losses.append(mle_step(batch, models, optimizers))
        entry = {"epoch": epoch,
                 "train_loss": float(np.mean(gen_losses)),
                 "guider_loss": _guider_phase(train_sentences, models,
                                              optimizers, config, epoch),
                 "val_loss": validation_mle_loss(val_sentences, models)}
        history.append(entry)
        if log is not None:
            log.write(json.dumps({"stage": "mle", **entry}) + "\n")
    for j in range(config.guider_extra_epochs):
        _guider_phase(train_sentences, models, optimizers, config,
                      start_epoch + epochs + j)
    models.feature_norm = mean_feature_norm(train_sentences, models.encoder)
    models.pretrained = True
    return history


# ---------------------------------------------------------------------------
# policy gradient
# ---------------------------------------------------------------------------

def rollout_traces(init_sentences, models, rng):
    """Sample one trace per initial sentence (training-mode initial states)."""
    rows = sentence_rows(init_sentences, models.profile.pad_width)
    with ad.no_grad():
        init_feats = encode_batch(rows, models.encoder).values
    return [sample_sequence(f, models.generator, models.guider,
                            models.encoder, rng=rng) for f in init_feats]


def _scored_rollouts(train_sentences, models, config, rng):
    """Roll out from rollout_batch random real sentences, score the samples
    with the discriminator and compute their Q arrays.

    Returns (traces, Q arrays).
    """
    init_idx = rng.integers(len(train_sentences), size=config.rollout_batch)
    traces = rollout_traces([train_sentences[k] for k in init_idx], models,
                            rng)
    with ad.no_grad():   # r_f: the probability of real, exp of its column
        finals = np.exp(score_batch(
            [t.sentence(models.profile.max_len) for t in traces],
            models.discriminator).values[:, 1])
    return traces, [compute_reward_trace(t, float(finals[k]), config.c,
                                         config.gamma,
                                         config.discount_convention,
                                         mode=config.ablation)
                    for k, t in enumerate(traces)]


def sample_from_noise(models, n, seed, mode="sample"):
    """Testing-mode sampling: initial states are scaled nonnegative noise."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    sentences = []
    for _ in range(n):
        noise = draw_initial_noise(rng, models.profile.feature_dim,
                                   scale=models.feature_norm)
        trace = sample_sequence(noise, models.generator, models.guider,
                                models.encoder,
                                rng=None if mode == "greedy" else rng)
        sentences.append(trace.sentence(models.profile.max_len))
    return sentences


def policy_gradient_step(traces, advantages, models, optimizers,
                         mle_batch=None, lam=1.0):
    """One generator update from sampled traces and their per-step
    advantages (Q arrays, or Q less a baseline).

    The surrogate is -sum_t adv[t] * log p(y_t), averaged over traces, mixed
    with the MLE loss as (1-lam)*MLE + lam*PG when an MLE batch is supplied.
    A batch whose advantages are all exactly zero (and no MLE part) is a
    guaranteed no-op. Only generator-side parameters move.
    """
    if (len(traces) != len(advantages)
            or any(len(a) != t.length for t, a in zip(traces, advantages))):
        raise ContractError("advantages do not match the traces' lengths")
    flat_max = max((float(np.abs(a).max()) for a in advantages
                    if len(a)), default=0.0)
    if flat_max == 0.0 and mle_batch is None:
        return {"pg_loss": 0.0, "skipped": True}

    lengths = np.array([t.length for t in traces])
    token_batch = [t.tokens for t in traces]
    init_feats = ad.constant(np.stack([t.init_feature for t in traces]))

    stats = {"skipped": False}

    def loss():
        logp, rows, steps = teacher_forced_log_probs(
            token_batch, models.encoder, models.generator, models.guider,
            init_features=init_feats)
        # each pair's advantage, read from the traces' flattened Q arrays
        weights = np.concatenate(advantages)[(np.cumsum(lengths)
                                              - lengths)[rows] + steps]
        # per-token normalization keeps the gradient scale commensurate with
        # the MLE term it is blended with
        pg = ad.scale(ad.tsum(ad.mul(logp, ad.constant(weights))),
                      -1.0 / lengths.sum())
        stats["pg_loss"] = pg.item()
        if mle_batch is None or lam >= 1.0:
            return pg
        mle = mle_loss(mle_batch, models.encoder, models.generator,
                       models.guider)
        stats["mle_loss"] = mle.item()
        return ad.add(ad.scale(mle, 1.0 - lam), ad.scale(pg, lam))

    optimizers.generator.minimize(loss)
    assert all(t.grad is None for _, t in models.guider.tensors()), \
        "guider must stay frozen"
    return stats


# ---------------------------------------------------------------------------
# adversarial loop
# ---------------------------------------------------------------------------

def _mix_value(config, epoch_index):
    if config.rl_mix != "ramp":
        return float(config.rl_mix)
    half = max(1, config.rl_epochs // 2)
    return min(1.0, epoch_index / half)


def run_gmgan(train_sentences, val_sentences, models, config,
              optimizers=None, evaluator=None, log=None,
              checkpoint_fn=None):
    """Adversarial fine-tuning of pretrained models: per epoch one corpus
    sweep of generator updates (MLE blended with policy gradient by the
    ramp schedule), then discriminator steps on fresh fake samples; metrics
    recorded per epoch.
    """
    optimizers = optimizers or Optimizers(models, config)
    baseline = RewardBaseline(config.baseline_momentum) if config.baseline else None
    history = []
    for j in range(1, config.rl_epochs + 1):
        epoch = config.mle_epochs + j - 1
        lam = _mix_value(config, j - 1)
        rng_batches = stream_rng(config.seed, "mle_batch", epoch)
        rng_roll = stream_rng(config.seed, "rollout", epoch)
        rng_disc = stream_rng(config.seed, "disc", epoch)
        warm_baseline = (lam == 0.0 and config.rl_mix == "ramp"
                         and baseline is not None)
        gen_stats = []
        for idx in shuffled_batches(len(train_sentences), config.batch_size,
                                    rng_batches):
            batch = [train_sentences[i] for i in idx]
            if lam == 0.0:
                loss = mle_step(batch, models, optimizers)
                gen_stats.append({"mle_loss": loss, "pg_loss": 0.0})
                if warm_baseline:
                    # pre-ramp epochs feed the EMA baseline so the first real
                    # policy updates see centered advantages
                    baseline.advantages(_scored_rollouts(
                        train_sentences, models, config, rng_roll)[1])
                continue
            for _ in range(config.g_steps):
                traces, qs = _scored_rollouts(train_sentences, models, config,
                                              rng_roll)
                advs = qs if baseline is None else baseline.advantages(qs)
                stats = policy_gradient_step(
                    traces, advs, models, optimizers,
                    mle_batch=batch if lam < 1.0 else None, lam=lam)
                stats["mean_q"] = float(np.mean([q.mean() for q in qs]))
                gen_stats.append(stats)
        d_losses = []
        for _ in range(config.d_steps):
            idx = rng_disc.integers(len(train_sentences),
                                    size=config.batch_size)
            real = [train_sentences[k] for k in idx]
            fake_inits = [train_sentences[k]
                          for k in rng_disc.integers(len(train_sentences),
                                                     size=config.batch_size)]
            fake = [t.sentence(models.profile.max_len)
                    for t in rollout_traces(fake_inits, models, rng_disc)]
            d_losses.append(train_step(real, fake, models.discriminator,
                                       optimizers.discriminator))
        mle_vals = [s["mle_loss"] for s in gen_stats if "mle_loss" in s]
        entry = {"epoch": epoch, "lambda": lam,
                 "mle_loss": float(np.mean(mle_vals)) if mle_vals else None,
                 "pg_loss": float(np.mean([s.get("pg_loss", 0.0)
                                           for s in gen_stats])),
                 "mean_q": float(np.mean([s["mean_q"] for s in gen_stats]))
                           if lam > 0 else None,
                 "d_loss": float(np.mean(d_losses)) if d_losses else None,
                 "val_loss": validation_mle_loss(val_sentences, models)}
        if evaluator is not None:
            entry.update(evaluator(models, epoch))
        history.append(entry)
        if log is not None:
            log.write(json.dumps({"stage": "adversarial", **entry}) + "\n")
        if checkpoint_fn is not None:
            checkpoint_fn(models, optimizers, epoch)
    return history
