"""LSTM decoder with plan-ahead guider gating.

At every step the decoder's output feature is modulated element-wise by a
transform of the guider's lookahead prediction before the vocabulary softmax.
The decoder never consumes a BOS embedding; BOS only anchors the encoder's
view of the empty prefix. PAD, BOS and UNK are masked out of the action
space, so the usable vocabulary is the word set plus EOS.

One batched loop, `decode`, samples (or greedily decodes) forward-only. A
step's prefix holds the token drawn at the step before, so it encodes the
prefix matrix with `encode_batch` at every step. `sample_sequence` calls it
with one row per sentence, so that the benchmark's per-sentence counters
(one `sample_sequence` call per sentence, one `guider_step` call per token)
still describe the work done.

Known sentences need no loop: the targets and every prefix feature are
known before the first step, the features from one
`encoder.prefix_features` call that computes each distinct conv window
once. `teacher_forced_log_probs` therefore sorts the batch longest first
and runs each stage once over the real (step, row) pairs only, packed so
that step t holds the rows longer than t: one multi-step `guider_step`,
one multi-step `lstm_cell` for the decoder, and one `gated_logits`,
`log_softmax` and `pick`; no padded pair is computed, and the log-probs
come back packed, with each pair's row and step. So an MLE batch, a
policy-gradient batch or a validation chunk counts one `guider_step` call
and at most one decoder `lstm_cell` call, whatever its length.
`teacher_force_trace`, the reward-inspection trace of one real sentence,
likewise makes one `prefix_features` call and one multi-step
`guider_step`.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, EOS, PAD, UNK
from .encoder import encode_batch, prefix_features, sentence_rows
from .errors import ContractError, DimensionError
from .guider import guider_step, initial_state

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


def initial_hidden(init_features, params):
    """Project (B, F) initial features to the shared decoder/guider hidden
    state (B, H)."""
    return ad.linear(init_features, params.init_w, params.init_b)


def gated_logits(dec_hidden, guider_pred, params):
    """Decoder feature gated element-wise by the transformed prediction, then
    projected to (masked) vocabulary logits, as one `ad.gated_head` node.
    Shapes (B, H)/(B, F) -> (B, V)."""
    return ad.gated_head(dec_hidden, guider_pred, params.out_w, params.out_b,
                         params.gate_w, params.gate_b, params.vocab_w,
                         params.action_mask.values)


@dataclass
class GenerationTrace:
    """One rollout: tokens, prefix features f_0..f_T, guider predictions."""
    tokens: list
    features: list
    predictions: list
    init_feature: np.ndarray

    def __post_init__(self):
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


def _draw(probs, rng):
    """A token drawn from probs by rng; the argmax when rng is None."""
    if rng is None:
        return int(np.argmax(probs))
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, rng.random() * cum[-1], side="right"),
                   len(probs) - 1))


def decode(init_feats, gen, gui, enc, labels, steps, rng):
    """The plan-ahead sampling loop over a batch, forward-only: encode each
    row's prefix, step the guider, gate the decoder's logits, draw each
    row's token with `_draw` (greedy when rng is None) and advance the
    decoder on them.

    The prefix matrix starts as BOS + PAD and receives each step's tokens.
    It runs at most `steps` (1..max_len, else DimensionError) steps and
    stops once every row has emitted EOS, before the decoder step whose
    output nothing reads. Returns the tokens (B, T), then the features
    f_0..f_T and the T guider predictions as (B, F) arrays.
    """
    n, prof = init_feats.shape[0], enc.profile
    if not 1 <= steps <= prof.max_len:
        raise DimensionError("cannot decode %d steps with max_len %d"
                             % (steps, prof.max_len))
    with ad.no_grad():
        s0 = initial_hidden(init_feats, gen)
        dec_h, dec_c = s0, ad.constant(np.zeros((n, prof.hidden_dim)))
        gui_state = initial_state(gui, s0, labels)
        rows = np.full((n, prof.pad_width), PAD, dtype=np.intp)
        rows[:, 0] = BOS
        alive = np.ones(n, dtype=bool)
        features, predictions = [], []
        for t in range(steps):
            f_t = encode_batch(rows, enc)
            pred, gui_state = guider_step(gui_state, f_t, gui)
            probs = ad.softmax(gated_logits(dec_h, pred, gen)).values
            tok = np.array([_draw(p, rng) for p in probs])
            features.append(f_t.values)
            predictions.append(pred.values)
            rows[:, t + 1] = tok
            alive &= tok != EOS
            if t + 1 == steps or not np.count_nonzero(alive):
                break
            emb = ad.gather_rows(gen.embedding, tok)  # PAD row embeds to zero
            dec_h, dec_c = ad.lstm_cell(emb, dec_h, dec_c,
                                        gen.dec_w_x, gen.dec_w_h, gen.dec_b)
        features.append(encode_batch(rows, enc).values)
    return rows[:, 1:len(predictions) + 1], features, predictions


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


def sample_sequence(init_feature, gen, gui, enc, rng, style_label=None):
    """Roll out encode-prefix -> guider step -> gated distribution -> draw,
    until EOS or max_len, drawing from rng (None for a greedy decode)."""
    init = ad.constant(np.reshape(init_feature, (1, -1)))
    labels = None if style_label is None else np.array([style_label])
    tokens, features, predictions = decode(init, gen, gui, enc, labels,
                                           enc.profile.max_len, rng)
    return GenerationTrace(tokens[0].tolist(), [f[0] for f in features],
                           [p[0] for p in predictions], init.values[0].copy())


def teacher_forced_log_probs(batch, enc, gen, gui, labels=None,
                             init_features=None):
    """Batched teacher-forced forward pass with gating active.

    Every input is known before the first step: the targets, and every
    prefix feature that is read. So the rows are sorted longest first and
    each stage runs once over the real (step, row) pairs only, packed as
    lstm_cell takes them (step t holds the rows longer than t): one
    `prefix_features` call, one multi-step guider_step with its head, one
    gather of the target embeddings, one multi-step lstm_cell for the
    decoder, then gated_logits, log_softmax and pick.

    Returns (logp, rows, steps): the (P,) log-probs of the P real target
    tokens in packed order, and each token's row (caller's order) and step.
    init_features and labels, when given, hold one row per sentence.
    Gradients flow through the decoder path and the encoder via the
    initial state; the guider rollout and its feature inputs are held
    constant.
    """
    tgt = _targets(batch)
    n, steps = tgt.shape
    prof = enc.profile
    ids = sentence_rows(batch, prof.pad_width)    # refuses overlong input
    if init_features is None:
        init_features = encode_batch(ids, enc)    # gradients flow
    elif init_features.shape != (n, prof.feature_dim):
        raise DimensionError("initial features %r for %d sentences"
                             % (init_features.shape, n))
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise DimensionError("%r labels for %d sentences"
                                 % (labels.shape, n))
    lengths = np.array([len(s) for s in batch])
    order = np.argsort(-lengths, kind="stable")
    sizes = ad.packed_sizes(lengths[order])       # step t: rows longer than t
    feats = prefix_features(ids[order], enc, steps, batch_sizes=sizes)
    step, rank = ad.packed_index(sizes)
    s0 = initial_hidden(init_features, gen)
    h0 = ad.gather_rows(s0, order)
    with ad.no_grad():
        gui_state = initial_state(gui, h0,
                                  None if labels is None else labels[order])
        pred = guider_step(gui_state, ad.constant(feats), gui,
                           batch_sizes=sizes)[0]
    rows = order[rank]
    dec_h = h0 if sizes[0] == n else ad.gather_rows(s0, order[:sizes[0]])
    if steps > 1:  # step t >= 1 consumes each of its rows' target t - 1
        emb = ad.gather_rows(gen.embedding,
                             tgt[rows[sizes[0]:], step[sizes[0]:] - 1])
        hs = ad.lstm_cell(emb, h0, ad.constant(np.zeros((n, prof.hidden_dim))),
                          gen.dec_w_x, gen.dec_w_h, gen.dec_b,
                          batch_sizes=sizes[1:])[0]
        dec_h = ad.concat([dec_h, hs])
    logp = ad.log_softmax(gated_logits(dec_h, pred, gen))
    return ad.pick(logp, np.arange(len(step)), tgt[rows, step]), rows, step


def scored_tokens(tokens):
    """Mask of the target tokens a likelihood scores: all but PAD and UNK."""
    tokens = np.asarray(tokens)
    return (tokens != PAD) & (tokens != UNK)


def mle_loss(batch, enc, gen, gui, labels=None, init_features=None):
    """Mean negative log-likelihood per token under teacher forcing;
    init_features as in teacher_forced_log_probs."""
    logp, rows, steps = teacher_forced_log_probs(batch, enc, gen, gui, labels,
                                                 init_features)
    mask = scored_tokens(_targets(batch)[rows, steps])
    count = int(mask.sum())
    if count == 0:
        raise ContractError("batch contains no scorable tokens")
    masked = ad.mul(logp, ad.constant(mask.astype(np.float64)))
    return ad.scale(ad.tsum(masked), -1.0 / count)


def teacher_force_trace(sentence, enc, gen, gui):
    """Trace of a real sentence (its features f_0..f_T and the guider's
    predictions along it); used for reward inspection. Every prefix is
    known, so one `prefix_features` call encodes them all and one
    multi-step `guider_step` makes every prediction."""
    tgt = _targets([sentence])   # one row: its size is the sentence length
    if not tgt.size:
        raise DimensionError("cannot trace an empty sentence")
    rows = sentence_rows(tgt, enc.profile.pad_width)   # refuses overlong input
    with ad.no_grad():
        init = encode_batch(rows, enc)
        feats = prefix_features(rows, enc, tgt.size + 1)[:, 0]
        gui_state = initial_state(gui, initial_hidden(init, gen))
        pred = guider_step(gui_state, ad.constant(feats[:-1]), gui)[0]
    return GenerationTrace(tgt[0].tolist(), list(feats), list(pred.values),
                           init.values[0].copy())
