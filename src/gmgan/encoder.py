"""CNN sentence encoder mapping a (partial) token sequence to a feature vector.

A prefix is right-padded with PAD to a fixed width (max_len + 1, so a
BOS-bearing prefix of a maximal sentence still fits) before convolution,
letting one parameter set serve every prefix length. The PAD embedding row
is zero and stays zero, so padding never influences the feature.

Two paths compute features. `encode_batch` runs the network on a prefix
matrix of ids or a prefix tensor of embeddings and may record gradients;
the decode loop calls it once per step because its next prefix is not
known until the step's input is chosen.
`prefix_features` serves prefixes known in advance (teacher forcing, the
guider's training targets): it computes each distinct conv window of the
prefixes a batch reads once (all of them, or a packed subset), forward
only, with the same bits as per-step `encode_batch` calls wherever a row
subset of a product equals the full product (every shape of the DESK
encoder).
"""

import dataclasses

import numpy as np

from . import autodiff as ad
from .corpus import BOS, PAD
from .errors import ContractError, DimensionError


@dataclasses.dataclass(frozen=True)
class ModelProfile:
    """Network dimensions; `paper` is the default, `small` trains in seconds."""
    embed_dim: int
    feature_dim: int
    hidden_dim: int
    conv_channels: tuple
    conv_widths: tuple = (5, 5)
    conv_strides: tuple = (2, 2)
    max_len: int = 25

    def __post_init__(self):
        layers = (self.conv_channels, self.conv_widths, self.conv_strides)
        dims = [self.embed_dim, self.feature_dim, self.hidden_dim, self.max_len]
        if not (all(isinstance(v, (tuple, list)) for v in layers)
                and len({len(v) for v in layers}) == 1 and layers[0]
                and all(type(d) is int and d > 0
                        for d in dims + [d for v in layers for d in v])):
            raise ContractError("a profile needs positive int dimensions and "
                                "one channel count, width and stride per conv "
                                "layer, got %r" % (self,))
        self.conv_lengths()

    @property
    def pad_width(self):
        return self.max_len + 1

    def conv_lengths(self):
        """Output length of each conv layer; every layer must get at least
        its kernel width."""
        lengths, length = [], self.pad_width
        for i, (w, s) in enumerate(zip(self.conv_widths, self.conv_strides)):
            if length < w:
                raise ContractError(
                    "max_len %d is too short for the conv stack: layer %d "
                    "gets %d positions, fewer than its width %d"
                    % (self.max_len, i + 1, length, w))
            length = (length - w) // s + 1
            lengths.append(length)
        return lengths


PROFILES = {
    "paper": ModelProfile(300, 600, 300, (300, 600)),
    "small": ModelProfile(64, 128, 64, (64, 128)),
}


def get_profile(name, max_len=None):
    if isinstance(name, ModelProfile):
        prof = name
    elif name in PROFILES:
        prof = PROFILES[name]
    else:
        raise ContractError("unknown profile %r" % (name,))
    if max_len is not None and max_len != prof.max_len:
        prof = dataclasses.replace(prof, max_len=max_len)
    return prof


class TokenCNN:
    """Embedding table with a zero PAD row, strided ReLU conv layers and an
    MLP head: the encoder, the discriminator and the style classifier.

    The embedding is drawn before the kernels and listed first, as
    `<prefix>.embedding`."""

    def __init__(self, vocab_size, profile, out_dim, rng, prefix,
                 final_relu=True):
        self.profile = profile
        self.vocab_size = vocab_size
        self.prefix = prefix
        self.final_relu = final_relu
        emb = rng.normal(0.0, 0.1, size=(vocab_size, profile.embed_dim))
        emb[PAD] = 0.0
        self.embedding = ad.Tensor(emb, requires_grad=True)
        self.layers = []
        in_ch = profile.embed_dim
        for w, s, out_ch in zip(profile.conv_widths, profile.conv_strides,
                                profile.conv_channels):
            kernel = ad.init_matrix(rng, w * in_ch, out_ch)
            bias = ad.init_vector(out_ch)
            self.layers.append((kernel, bias, w, s))
            in_ch = out_ch
        flat = profile.conv_lengths()[-1] * profile.conv_channels[-1]
        self.mlp_w = ad.init_matrix(rng, flat, out_dim)
        self.mlp_b = ad.init_vector(out_dim)

    def tensors(self):
        out = [("%s.embedding" % self.prefix, self.embedding)]
        for i, (kernel, bias, _, _) in enumerate(self.layers):
            out.append(("%s.conv%d.kernel" % (self.prefix, i), kernel))
            out.append(("%s.conv%d.bias" % (self.prefix, i), bias))
        out.append(("%s.mlp.w" % self.prefix, self.mlp_w))
        out.append(("%s.mlp.b" % self.prefix, self.mlp_b))
        return out

    def apply(self, emb):
        """emb: (B, pad_width, embed_dim) -> (B, out_dim)."""
        if emb.values.ndim != 3 or emb.shape[1] != self.profile.pad_width:
            raise DimensionError("expected width %d, got shape %r"
                                 % (self.profile.pad_width, emb.shape))
        x = emb
        for kernel, bias, w, s in self.layers:
            x = ad.conv1d(x, kernel, bias, w, s)
        batch = x.shape[0]
        flat = ad.reshape(x, (batch, x.shape[1] * x.shape[2]))
        out = ad.linear(flat, self.mlp_w, self.mlp_b)
        return ad.relu(out) if self.final_relu else out

    def apply_rows(self, rows):
        """rows: (B, pad_width) token ids -> (B, out_dim)."""
        flat = ad.gather_rows(self.embedding, rows.reshape(-1))
        emb = ad.reshape(flat, rows.shape + (self.profile.embed_dim,))
        return self.apply(emb)


class EncoderParams(TokenCNN):
    """The sentence encoder: a token CNN whose output is the feature."""

    def __init__(self, vocab_size, profile, rng):
        super().__init__(vocab_size, profile, profile.feature_dim, rng,
                         "encoder")


def pad_rows(prefixes, pad_width):
    """Stack variable-length id lists into a PAD-padded (B, pad_width) matrix."""
    rows = np.full((len(prefixes), pad_width), PAD, dtype=np.intp)
    for i, ids in enumerate(prefixes):
        if len(ids) > pad_width:
            raise DimensionError("prefix of length %d exceeds pad width %d"
                                 % (len(ids), pad_width))
        rows[i, :len(ids)] = ids
    return rows


def sentence_rows(sentences, pad_width):
    """The encoder's view of whole sentences: [BOS] + sentence, PAD-padded."""
    return pad_rows([[BOS] + list(s) for s in sentences], pad_width)


def encode_batch(prefixes, params):
    """Encode a (B, pad_width) id matrix, or a (B, pad_width, embed_dim)
    embedding tensor, to (B, feature_dim) features."""
    return (params.apply(prefixes) if isinstance(prefixes, ad.Tensor)
            else params.apply_rows(prefixes))


def _distinct_windows(ids, base):
    """Distinct rows of an (M, k) id matrix whose entries lie in [0, base):
    (distinct rows (D, k), inverse (M,)). Columns fold into one integer key,
    compacted through np.unique whenever the next fold could overflow."""
    key, bound = ids[:, 0], base
    for col in ids.T[1:]:
        if bound * base >= 1 << 62:
            uniq, key = np.unique(key, return_inverse=True)
            bound = len(uniq)
        key, bound = key * base + col, bound * base
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return ids[first], inverse


def prefix_features(rows, params, n, batch_sizes=None):
    """No-grad features of the prefixes rows[:, :t+1] (PAD after) for t < n,
    for any TokenCNN; rows is a (B, pad_width) id matrix.

    Without batch_sizes the result is (n, B, out_dim): every prefix of
    every row. With batch_sizes (n row counts, as lstm_cell takes them) it
    is packed, (sum(batch_sizes), out_dim): step t holds the length-t
    prefixes of rows 0..batch_sizes[t]-1 only, so the prefixes a caller
    does not read are never encoded.

    Each conv layer keys its windows by the ids of their inputs (token ids,
    then the previous layer's distinct-window ids), runs one product over
    the distinct windows only and scatters back through the inverse ids.
    """
    width = params.profile.pad_width
    batch = rows.shape[0]
    if (rows.shape != (batch, width) or not 1 <= n <= width
            or (batch_sizes is not None and len(batch_sizes) != n)):
        raise DimensionError("cannot take %d prefixes of rows shaped %r"
                             % (n, rows.shape))
    step, row = ad.packed_index([batch] * n if batch_sizes is None
                                else ad.check_batch_sizes(batch_sizes, batch))
    ids = np.where(np.arange(width) <= step[:, None], rows[row], PAD)
    table = params.embedding.values
    for (kernel, bias, w, s), n_win in zip(params.layers,
                                           params.profile.conv_lengths()):
        win = ids[:, (np.arange(n_win) * s)[:, None] + np.arange(w)]
        distinct, inverse = _distinct_windows(win.reshape(-1, w), len(table))
        x = table[distinct].reshape(len(distinct), -1)
        table = np.maximum(ad.row_stable_matmul(x, kernel.values)
                           + bias.values, 0.0)
        ids = inverse.reshape(len(step), n_win)
    distinct, inverse = _distinct_windows(ids, len(table))
    out = (ad.row_stable_matmul(table[distinct].reshape(len(distinct), -1),
                                params.mlp_w.values) + params.mlp_b.values)
    if params.final_relu:
        out = np.maximum(out, 0.0)
    # diverged parameters: callers wrap these as constants, which refuse NaN
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("prefix features are non-finite")
    out = out[inverse]
    return out if batch_sizes is not None else out.reshape(n, batch, -1)


def draw_initial_noise(rng, feature_dim, scale=1.0):
    """ReLU(standard normal) rescaled to the given norm (mean feature norm)."""
    z = np.maximum(rng.standard_normal(feature_dim), 0.0)
    norm = np.linalg.norm(z)
    if norm > 0:
        z *= scale / norm
    return z


def mean_feature_norm(sentences, params):
    """Average ||Enc(X)|| over a corpus; used to scale sampling noise."""
    total, count = 0.0, 0
    for i in range(0, len(sentences), 64):
        rows = sentence_rows(sentences[i:i + 64], params.profile.pad_width)
        with ad.no_grad():
            feats = encode_batch(rows, params)
        total += float(np.linalg.norm(feats.values, axis=1).sum())
        count += len(rows)
    return total / count
