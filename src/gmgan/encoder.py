"""CNN sentence encoder mapping a (partial) token sequence to a feature vector.

A prefix is right-padded with PAD to a fixed width (max_len + 1, so a
BOS-bearing prefix of a maximal sentence still fits) before convolution,
letting one parameter set serve every prefix length. The PAD embedding row
is zero and stays zero, so padding never influences the feature.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import BOS, PAD
from .errors import ContractError, DimensionError


@dataclass(frozen=True)
class ModelProfile:
    """Network dimensions; `paper` is the default, `small` trains in seconds."""
    embed_dim: int
    feature_dim: int
    hidden_dim: int
    conv_channels: tuple
    conv_widths: tuple = (5, 5)
    conv_strides: tuple = (2, 2)
    max_len: int = 25

    @property
    def pad_width(self):
        return self.max_len + 1

    def conv_lengths(self):
        lengths = []
        length = self.pad_width
        for w, s in zip(self.conv_widths, self.conv_strides):
            length = ad.conv_output_length(length, w, s)
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
        prof = ModelProfile(prof.embed_dim, prof.feature_dim, prof.hidden_dim,
                            prof.conv_channels, prof.conv_widths,
                            prof.conv_strides, max_len)
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
            x = ad.conv1d(x, kernel, bias, w, s, apply_relu=True)
        batch = x.shape[0]
        flat = ad.reshape(x, (batch, x.shape[1] * x.shape[2]))
        out = ad.add(ad.matmul(flat, self.mlp_w), self.mlp_b)
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


def encode_batch(rows, params, stop_gradient=False):
    """Encode a (B, pad_width) id matrix to (B, feature_dim) features."""
    if stop_gradient:
        with ad.no_grad():
            return params.apply_rows(rows)
    return params.apply_rows(rows)


def encode(prefix, params, stop_gradient=False):
    """Feature of a single token prefix (1 <= length <= pad width)."""
    if len(prefix) == 0:
        raise ContractError("cannot encode an empty prefix")
    rows = pad_rows([list(prefix)], params.profile.pad_width)
    out = encode_batch(rows, params, stop_gradient=stop_gradient)
    return ad.reshape(out, (params.profile.feature_dim,))


def draw_initial_noise(rng, feature_dim, scale=1.0):
    """ReLU(standard normal) rescaled to the given norm (mean feature norm)."""
    z = np.maximum(rng.standard_normal(feature_dim), 0.0)
    norm = np.linalg.norm(z)
    if norm > 0:
        z *= scale / norm
    return z


def mean_feature_norm(sentences, params, batch=64):
    """Average ||Enc(X)|| over a corpus; used to scale sampling noise."""
    total, count = 0.0, 0
    for i in range(0, len(sentences), batch):
        rows = sentence_rows(sentences[i:i + batch], params.profile.pad_width)
        feats = encode_batch(rows, params, stop_gradient=True)
        total += float(np.linalg.norm(feats.values, axis=1).sum())
        count += len(rows)
    return total / count
