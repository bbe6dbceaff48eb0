"""LSTM decoder with plan-ahead guider gating.

At every step the decoder's output feature is modulated element-wise by a
transform of the guider's lookahead prediction before the vocabulary softmax.
The decoder never consumes a BOS embedding; BOS only anchors the encoder's
view of the empty prefix. PAD, BOS and UNK are masked out of the action
space, so the usable vocabulary is the word set plus EOS.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, PAD, UNK
from .encoder import encode, encode_batch, pad_rows
from .errors import ContractError, DimensionError
from .guider import guider_step, initial_state, initial_state_for_labels

LOGIT_MASK = -1e30


class GeneratorParams:
    """Decoder LSTM, output head, gating transform, vocab projection, and the
    shared initial-state projection. The embedding tensor is the encoder's;
    it is listed by EncoderParams, not here."""

    def __init__(self, vocab_size, profile, rng, embedding):
        self.profile = profile
        self.vocab_size = vocab_size
        self.embedding = embedding
        h, f = profile.hidden_dim, profile.feature_dim
        self.dec_w_x = ad.init_matrix(rng, profile.embed_dim, 4 * h)
        self.dec_w_h = ad.init_matrix(rng, h, 4 * h)
        self.dec_b = ad.init_vector(4 * h)
        self.out_w = ad.init_matrix(rng, h, f)          # decoder feature head
        self.out_b = ad.init_vector(f)
        self.gate_w = ad.init_matrix(rng, f, f)         # guider-prediction gate
        self.gate_b = ad.init_vector(f)
        # no bias: a zero gate must give exactly uniform next-token logits
        self.vocab_w = ad.init_matrix(rng, f, vocab_size)
        self.init_w = ad.init_matrix(rng, f, h)         # shared s0 projection
        self.init_b = ad.init_vector(h)
        mask = np.zeros(vocab_size)
        mask[[PAD, BOS, UNK]] = LOGIT_MASK
        self.action_mask = ad.constant(mask)

    def tensors(self):
        return [("generator.dec.w_x", self.dec_w_x),
                ("generator.dec.w_h", self.dec_w_h),
                ("generator.dec.b", self.dec_b),
                ("generator.out.w", self.out_w),
                ("generator.out.b", self.out_b),
                ("generator.gate.w", self.gate_w),
                ("generator.gate.b", self.gate_b),
                ("generator.vocab.w", self.vocab_w),
                ("generator.init.w", self.init_w),
                ("generator.init.b", self.init_b)]


def initial_hidden(init_feature, params):
    """Project an initial feature to the shared decoder/guider hidden state."""
    single = init_feature.values.ndim == 1
    x = ad.reshape(init_feature, (1, -1)) if single else init_feature
    out = ad.add(ad.matmul(x, params.init_w), params.init_b)
    return ad.reshape(out, (params.profile.hidden_dim,)) if single else out


def gated_logits(dec_hidden, guider_pred, params):
    """Decoder feature gated element-wise by the transformed prediction, then
    projected to (masked) vocabulary logits. Shapes (H,)/(F,) or (B,H)/(B,F)."""
    out_feat = ad.add(ad.matmul(dec_hidden, params.out_w), params.out_b)
    gate = ad.add(ad.matmul(guider_pred, params.gate_w), params.gate_b)
    if out_feat.shape != gate.shape:
        raise DimensionError("decoder feature %r vs gate %r"
                             % (out_feat.shape, gate.shape))
    logits = ad.matmul(ad.mul(out_feat, gate), params.vocab_w)
    return ad.add(logits, params.action_mask)


@dataclass
class GenerationTrace:
    """One rollout: tokens, per-step log-probs, prefix features f_0..f_T and
    the guider predictions made alongside."""
    tokens: list
    log_probs: list
    features: list
    predictions: list
    init_feature: np.ndarray
    style_label: int = None

    def __post_init__(self):
        if len(self.log_probs) != len(self.tokens):
            raise ContractError("trace log_probs and tokens disagree in length")
        if len(self.features) != len(self.tokens) + 1:
            raise ContractError("trace must carry features f_0..f_T")

    @property
    def length(self):
        return len(self.tokens)

    def sentence(self, max_len):
        """Token ids as a well-formed sentence (EOS-terminated)."""
        toks = list(self.tokens)
        if not toks or toks[-1] != EOS:
            toks = toks[: max_len - 1] + [EOS]
        return toks


def _draw(probs, rng, mode):
    if mode == "greedy":
        return int(np.argmax(probs))
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, rng.random() * cum[-1], side="right"),
                   len(probs) - 1))


def sample_sequence(init_feature, gen, gui, enc, seed=None, rng=None,
                    mode="sample", style_label=None, max_len=None):
    """Roll out encode-prefix -> guider step -> gated distribution -> draw,
    until EOS or max_len. Deterministic under (seed, mode)."""
    if mode not in ("sample", "greedy"):
        raise ContractError("mode must be sample or greedy")
    if rng is None:
        rng = np.random.default_rng(seed)
    init_t = (init_feature if isinstance(init_feature, ad.Tensor)
              else ad.constant(init_feature))

    def choose(t, logits):
        return _draw(ad.softmax(logits).values, rng, mode)

    return _decode(init_t, gen, gui, enc, style_label,
                   max_len or enc.profile.max_len, choose)


def _decode(init_t, gen, gui, enc, label, steps, choose):
    """The per-sentence loop shared by sampling and teacher forcing: encode
    the prefix, step the guider, gate the logits, take token choose(t, logits)
    and advance the decoder, for at most `steps` tokens or until EOS."""
    prof = enc.profile
    with ad.no_grad():
        s0 = initial_hidden(init_t, gen)
        dec_h, dec_c = s0, ad.constant(np.zeros(prof.hidden_dim))
        if label is None:
            gui_state = initial_state(s0)
        else:
            gui_state = initial_state_for_labels(gui, label)
        prefix = [BOS]
        tokens, log_probs, features, predictions = [], [], [], []
        for t in range(steps):
            f = encode(prefix, enc)
            features.append(f.values.copy())
            pred, gui_state = guider_step(gui_state, f, gui, labels=label)
            predictions.append(pred.values.copy())
            logits = gated_logits(dec_h, pred, gen)
            token = choose(t, logits)
            log_probs.append(float(ad.log_softmax(logits).values[token]))
            tokens.append(token)
            prefix.append(token)
            if token == EOS:
                break
            emb = ad.gather_rows(gen.embedding, np.array([token]))
            dec_h, dec_c = ad.lstm_cell(ad.reshape(emb, (prof.embed_dim,)),
                                        dec_h, dec_c,
                                        gen.dec_w_x, gen.dec_w_h, gen.dec_b)
        features.append(encode(prefix, enc).values.copy())
    return GenerationTrace(tokens, log_probs, features, predictions,
                           np.asarray(init_t.values, dtype=np.float64).copy(),
                           label)


def teacher_forced_log_probs(batch, enc, gen, gui, labels=None,
                             init_features=None):
    """Batched teacher-forced forward pass with gating active.

    Returns (logp (B,T) tensor, loss mask (B,T), target matrix). Gradients
    flow through the decoder path and the encoder via the initial state; the
    guider rollout and its feature inputs are held constant.
    """
    if not batch:
        raise ContractError("empty batch")
    n = len(batch)
    t_max = max(len(s) for s in batch)
    prof = enc.profile
    tgt = np.full((n, t_max), PAD, dtype=np.intp)
    for i, s in enumerate(batch):
        tgt[i, : len(s)] = s
    full_rows = pad_rows([[BOS] + list(s) for s in batch], prof.pad_width)

    if init_features is None:
        init_features = encode_batch(full_rows, enc)   # gradients flow
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
        f_t = encode_batch(rows_t, enc, stop_gradient=True)
        with ad.no_grad():
            pred, gui_state = guider_step(gui_state, f_t, gui, labels=labels)
        logp = ad.log_softmax(gated_logits(dec_h, pred.detach(), gen))
        cols.append(ad.reshape(ad.pick(logp, np.arange(n), tgt[:, t]), (n, 1)))
        emb = ad.gather_rows(gen.embedding, tgt[:, t])  # PAD row embeds to zero
        dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
    logp_mat = ad.concat(cols, axis=1)
    return logp_mat, scored_tokens(tgt), tgt


def scored_tokens(tokens):
    """Mask of the target tokens a likelihood scores: all but PAD and UNK."""
    tokens = np.asarray(tokens)
    return (tokens != PAD) & (tokens != UNK)


def mle_loss(batch, enc, gen, gui, labels=None, teacher_forcing=True):
    """Mean negative log-likelihood per token under teacher forcing."""
    if not teacher_forcing:
        raise ContractError("only teacher-forced MLE is supported")
    logp_mat, mask, _ = teacher_forced_log_probs(batch, enc, gen, gui, labels)
    count = int(mask.sum())
    if count == 0:
        raise ContractError("batch contains no scorable tokens")
    masked = ad.mul(logp_mat, ad.constant(mask.astype(np.float64)))
    return ad.scale(ad.tsum(masked), -1.0 / count)


def teacher_force_trace(sentence, enc, gen, gui, label=None):
    """Trace of a real sentence under teacher forcing (features, predictions,
    per-step log-probs of the actual tokens); used for reward inspection."""
    sentence = list(sentence)
    if EOS in sentence[:-1]:
        raise ContractError("EOS may only end the sentence")
    with ad.no_grad():
        init_f = encode([BOS] + sentence, enc)
    return _decode(init_f, gen, gui, enc, label, len(sentence),
                   lambda t, logits: sentence[t])
