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


class ConvStack:
    """Strided ReLU conv layers followed by a ReLU MLP head."""

    def __init__(self, profile, out_dim, rng, prefix):
        self.profile = profile
        self.prefix = prefix
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
        self.out_dim = out_dim

    def tensors(self):
        out = []
        for i, (kernel, bias, _, _) in enumerate(self.layers):
            out.append(("%s.conv%d.kernel" % (self.prefix, i), kernel))
            out.append(("%s.conv%d.bias" % (self.prefix, i), bias))
        out.append(("%s.mlp.w" % self.prefix, self.mlp_w))
        out.append(("%s.mlp.b" % self.prefix, self.mlp_b))
        return out

    def apply(self, emb, final_relu=True):
        """emb: (B, pad_width, embed_dim) -> (B, out_dim)."""
        x = emb
        for kernel, bias, w, s in self.layers:
            x = ad.conv1d(x, kernel, bias, w, s, apply_relu=True)
        batch = x.shape[0]
        flat = ad.reshape(x, (batch, x.shape[1] * x.shape[2]))
        out = ad.add(ad.matmul(flat, self.mlp_w), self.mlp_b)
        return ad.relu(out) if final_relu else out


class EncoderParams:
    """Embedding table plus the feature conv stack."""

    def __init__(self, vocab_size, profile, rng):
        self.profile = profile
        self.vocab_size = vocab_size
        emb = rng.normal(0.0, 0.1, size=(vocab_size, profile.embed_dim))
        emb[PAD] = 0.0
        self.embedding = ad.Tensor(emb, requires_grad=True)
        self.stack = ConvStack(profile, profile.feature_dim, rng, "encoder")

    def tensors(self):
        return [("encoder.embedding", self.embedding)] + self.stack.tensors()


def pad_rows(prefixes, pad_width):
    """Stack variable-length id lists into a PAD-padded (B, pad_width) matrix."""
    rows = np.full((len(prefixes), pad_width), PAD, dtype=np.intp)
    for i, ids in enumerate(prefixes):
        if len(ids) > pad_width:
            raise DimensionError("prefix of length %d exceeds pad width %d"
                                 % (len(ids), pad_width))
        rows[i, :len(ids)] = ids
    return rows


def embed_rows(rows, embedding, pad_width):
    flat = ad.gather_rows(embedding, rows.reshape(-1))
    return ad.reshape(flat, (rows.shape[0], pad_width, embedding.shape[1]))


def encode_batch(rows, params, stop_gradient=False):
    """Encode a (B, pad_width) id matrix to (B, feature_dim) features."""
    if rows.ndim != 2 or rows.shape[1] != params.profile.pad_width:
        raise DimensionError("expected (B, %d) ids, got %r"
                             % (params.profile.pad_width, rows.shape))
    if stop_gradient:
        with ad.no_grad():
            return _encode_rows(rows, params)
    return _encode_rows(rows, params)


def _encode_rows(rows, params):
    emb = embed_rows(rows, params.embedding, params.profile.pad_width)
    return params.stack.apply(emb)


def encode_embeddings(emb, params):
    """Feature of an already-embedded (B, pad_width, embed_dim) input; used by
    differentiable soft-token rollouts."""
    if emb.shape[1] != params.profile.pad_width:
        raise DimensionError("expected width %d, got %r"
                             % (params.profile.pad_width, emb.shape))
    return params.stack.apply(emb)


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
        chunk = [[BOS] + list(s) for s in sentences[i:i + batch]]
        rows = pad_rows(chunk, params.profile.pad_width)
        feats = encode_batch(rows, params, stop_gradient=True)
        total += float(np.linalg.norm(feats.values, axis=1).sum())
        count += len(chunk)
    return total / count
