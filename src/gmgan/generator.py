"""LSTM decoder with plan-ahead guider gating.

At every step the decoder's output feature is modulated element-wise by a
transform of the guider's lookahead prediction before the vocabulary softmax.
The decoder never consumes a BOS embedding; BOS only anchors the encoder's
view of the empty prefix. PAD, BOS and UNK are masked out of the action
space, so the usable vocabulary is the word set plus EOS.

One batched loop, `decode`, runs that step for every caller: sampling,
greedy decoding, teacher forcing and reward traces differ only in how it
picks each step's tokens. Sampling and reward traces call it with one row
per sentence, so that the benchmark's per-sentence counters (one
`sample_sequence` call per sentence, one `guider_step` call per token) still
describe the work done.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, PAD, UNK
from .encoder import encode_batch, sentence_rows
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


def decode(init_feats, gen, gui, enc, labels, steps, choose):
    """The plan-ahead loop over a batch: encode each row's prefix, step the
    guider, gate the decoder's logits, take the (B,) tokens
    choose(t, logits) and advance the decoder on them.

    The prefix matrix starts as BOS + PAD and receives each step's tokens.
    The loop runs at most `steps` steps and stops once every row has emitted
    EOS, before the decoder step whose output nothing reads. Gradients flow
    from init_feats (B, F) through the decoder; the encoder and guider run
    as constants. Returns (log-probs (B, T) tensor of the chosen tokens,
    tokens (B, T), final prefix matrix, per-step (B, F) features and guider
    predictions as arrays).
    """
    n, prof = init_feats.shape[0], enc.profile
    if not 1 <= steps <= prof.max_len:
        raise DimensionError("cannot decode %d steps with max_len %d"
                             % (steps, prof.max_len))
    s0 = initial_hidden(init_feats, gen)
    dec_h, dec_c = s0, ad.constant(np.zeros((n, prof.hidden_dim)))
    with ad.no_grad():
        gui_state = (initial_state(s0.detach()) if labels is None
                     else initial_state_for_labels(gui, labels))
    rows = np.full((n, prof.pad_width), PAD, dtype=np.intp)
    rows[:, 0] = BOS
    alive = np.ones(n, dtype=bool)
    step_logps, features, predictions = [], [], []
    for t in range(steps):
        with ad.no_grad():
            f_t = encode_batch(rows, enc)
            pred, gui_state = guider_step(gui_state, f_t, gui, labels=labels)
        logits = gated_logits(dec_h, pred, gen)
        tok = choose(t, logits)
        step_logps.append(ad.log_softmax(logits))
        features.append(f_t.values)
        predictions.append(pred.values)
        rows[:, t + 1] = tok
        alive &= tok != EOS
        if t + 1 == steps or not np.count_nonzero(alive):
            break
        emb = ad.gather_rows(gen.embedding, tok)  # PAD row embeds to zero
        dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
    width = len(step_logps)
    tokens = rows[:, 1:width + 1]
    picked = ad.pick(ad.concat(step_logps, axis=1),
                     np.repeat(np.arange(n), width),
                     (np.arange(width) * gen.vocab_size + tokens).reshape(-1))
    return (ad.reshape(picked, (n, width)), tokens, rows, features,
            predictions)


def _targets(sentences):
    """PAD-padded (B, T_max) token matrix; EOS may only end a sentence."""
    if not sentences:
        raise ContractError("empty batch")
    tgt = np.full((len(sentences), max(len(s) for s in sentences)), PAD,
                  dtype=np.intp)
    for i, s in enumerate(sentences):
        if EOS in list(s)[:-1]:
            raise ContractError("EOS may only end the sentence")
        tgt[i, :len(s)] = s
    return tgt


def _trace(init, decoded, enc):
    """GenerationTrace of row 0 of a B=1 decode, plus its final feature."""
    logp, tokens, rows, features, predictions = decoded
    final = encode_batch(rows, enc, stop_gradient=True).values
    return GenerationTrace(tokens[0].tolist(), logp.values[0].tolist(),
                           [f[0] for f in features] + [final[0]],
                           [p[0] for p in predictions], init.values[0].copy())


def sample_sequence(init_feature, gen, gui, enc, seed=None, rng=None,
                    mode="sample", style_label=None, max_len=None):
    """Roll out encode-prefix -> guider step -> gated distribution -> draw,
    until EOS or max_len. Deterministic under (seed, mode)."""
    if mode not in ("sample", "greedy"):
        raise ContractError("mode must be sample or greedy")
    if rng is None:
        rng = np.random.default_rng(seed)
    if isinstance(init_feature, ad.Tensor):
        init_feature = init_feature.values
    init = ad.constant(np.reshape(init_feature, (1, -1)))
    labels = None if style_label is None else np.array([style_label])

    def choose(t, logits):
        return np.array([_draw(ad.softmax(logits).values[0], rng, mode)])

    with ad.no_grad():
        decoded = decode(init, gen, gui, enc, labels,
                         max_len or enc.profile.max_len, choose)
        return _trace(init, decoded, enc)


def teacher_forced_log_probs(batch, enc, gen, gui, labels=None,
                             init_features=None):
    """Batched teacher-forced forward pass with gating active.

    Returns (logp (B,T) tensor, loss mask (B,T), target matrix). Gradients
    flow through the decoder path and the encoder via the initial state; the
    guider rollout and its feature inputs are held constant.
    """
    tgt = _targets(batch)
    if init_features is None:
        rows = sentence_rows(batch, enc.profile.pad_width)
        init_features = encode_batch(rows, enc)   # gradients flow
    logp = decode(init_features, gen, gui, enc, labels, tgt.shape[1],
                  lambda t, logits: tgt[:, t])[0]
    return logp, scored_tokens(tgt), tgt


def scored_tokens(tokens):
    """Mask of the target tokens a likelihood scores: all but PAD and UNK."""
    tokens = np.asarray(tokens)
    return (tokens != PAD) & (tokens != UNK)


def mle_loss(batch, enc, gen, gui, labels=None):
    """Mean negative log-likelihood per token under teacher forcing."""
    logp_mat, mask, _ = teacher_forced_log_probs(batch, enc, gen, gui, labels)
    count = int(mask.sum())
    if count == 0:
        raise ContractError("batch contains no scorable tokens")
    masked = ad.mul(logp_mat, ad.constant(mask.astype(np.float64)))
    return ad.scale(ad.tsum(masked), -1.0 / count)


def teacher_force_trace(sentence, enc, gen, gui, label=None):
    """Trace of a real sentence under teacher forcing (features, predictions,
    per-step log-probs of the actual tokens); used for reward inspection."""
    tgt = _targets([sentence])
    labels = None if label is None else np.array([label])
    with ad.no_grad():
        init = encode_batch(sentence_rows(tgt, enc.profile.pad_width), enc)
        decoded = decode(init, gen, gui, enc, labels, tgt.shape[1],
                         lambda t, logits: tgt[:, t])
        return _trace(init, decoded, enc)
