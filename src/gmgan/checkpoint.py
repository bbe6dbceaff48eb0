"""Versioned binary checkpoints: config snapshot plus named float64 sections.

Layout: magic "GMG1" | version u32 | payload length u64 | crc32 u32 | payload.
The payload holds a JSON config blob and little-endian float64 arrays; the
CRC covers the payload, and load refuses on any magic/version/CRC mismatch.
A read hands out read-only views of the one buffer that holds the file; a
model load copies each section once into its tensor or optimizer moment.
Round-trips are bit-exact.
"""

import dataclasses
import json
import math
import os
import struct
import zlib

import numpy as np

from .corpus import Vocabulary
from .encoder import ModelProfile
from .errors import CheckpointError
from .trainer import Models, Optimizers, TrainConfig

MAGIC = b"GMG1"
VERSION = 1


def _section_pieces(sections):
    """The section table as separate buffers in file order, arrays uncopied."""
    pieces = [struct.pack("<I", len(sections))]
    for name, arr in sections:
        arr = np.asarray(arr, dtype="<f8")
        shape = arr.shape  # kept before ascontiguousarray promotes 0-d to 1-d
        raw_name = name.encode("utf-8")
        pieces += [struct.pack("<I", len(raw_name)), raw_name,
                   struct.pack("<I", len(shape)),
                   struct.pack("<%dQ" % len(shape), *shape),
                   np.ascontiguousarray(arr)]
    return pieces


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint payload")
        piece = self.blob[self.pos:self.pos + n]
        self.pos += n
        return piece

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def _unpack_sections(reader):
    count = reader.u32()
    sections = {}
    for _ in range(count):
        raw_name = reader.take(reader.u32())
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError("section name %r is not UTF-8"
                                  % bytes(raw_name)) from e
        if name in sections:
            raise CheckpointError("duplicate checkpoint section %r" % name)
        ndim = reader.u32()
        shape = struct.unpack("<%dQ" % ndim, reader.take(8 * ndim)) if ndim else ()
        # Python ints: a product past 2**64 must not wrap to a small size;
        # take() then refuses any size beyond the rest of the payload.
        size = math.prod(shape)
        # a view of the file's immutable bytes, so it is read-only
        sections[name] = np.frombuffer(reader.take(8 * size),
                                       dtype="<f8").reshape(shape)
    return sections


def config_to_blob(config, vocab_tokens, style_labels=0):
    cfg = dataclasses.asdict(config)  # recurses into a ModelProfile profile
    return {"train_config": cfg, "vocab_tokens": list(vocab_tokens),
            "style_labels": style_labels}


def write_checkpoint(path, sections, config_blob):
    config_bytes = json.dumps(config_blob, sort_keys=True).encode("utf-8")
    payload = [struct.pack("<I", len(config_bytes)), config_bytes,
               *_section_pieces(sections)]
    crc = size = 0
    for piece in payload:
        crc, size = zlib.crc32(piece, crc), size + memoryview(piece).nbytes
    header = MAGIC + struct.pack("<IQI", VERSION, size, crc)
    # Written beside the target, synced, renamed onto it and the rename
    # synced, so no failed write or power loss leaves a partial `path`.
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for piece in [header] + payload:
                f.write(piece)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(os.path.abspath(tmp)), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_checkpoint(path):
    """Returns (config_blob, sections dict of read-only views of the file's
    bytes). Refuses corrupt files."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20 or raw[:4] != MAGIC:
        raise CheckpointError("not a GMG1 checkpoint")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != VERSION:
        raise CheckpointError("unsupported checkpoint version %d" % version)
    length = struct.unpack("<Q", raw[8:16])[0]
    crc = struct.unpack("<I", raw[16:20])[0]
    payload = memoryview(raw)[20:]  # sliced below without copies
    if len(payload) != length:
        raise CheckpointError("checkpoint payload length mismatch")
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint CRC mismatch")
    reader = _Reader(payload)
    try:
        config_blob = json.loads(str(reader.take(reader.u32()), "utf-8"))
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError("checkpoint config is not UTF-8 JSON: %s"
                              % e) from e
    sections = _unpack_sections(reader)
    if reader.pos != len(payload):
        raise CheckpointError("%d bytes follow the last checkpoint section"
                              % (len(payload) - reader.pos))
    return config_blob, sections


# ---------------------------------------------------------------------------
# model-level save/load
# ---------------------------------------------------------------------------

def save_models(path, models, vocab, optimizers=None):
    sections = [(name, t.values) for name, t in models.all_tensors()]
    sections.append(("meta.feature_norm", np.array([models.feature_norm])))
    sections.append(("meta.pretrained", np.array([1.0 if models.pretrained
                                                  else 0.0])))
    if optimizers is not None:
        for group in ("generator", "guider", "discriminator"):
            opt = getattr(optimizers, group)
            for name, arr in opt.state_arrays():
                sections.append(("optim.%s.%s" % (group, name), arr))
    blob = config_to_blob(models.config, vocab.id_to_token,
                          style_labels=models.guider.num_labels)
    write_checkpoint(path, sections, blob)


class _ZeroInit:
    """An init rng that draws nothing: every parameter it makes starts at
    zero, for a load that then copies each one in from its section."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def load_models(path):
    """Rebuild Models (and optimizer state, when present) from a checkpoint.
    Draws nothing from the init stream.

    Returns (models, vocab, optimizers_or_None, config_blob).
    """
    blob, sections = read_checkpoint(path)
    config, vocab, style_labels = _config_from_blob(blob)
    bad = [name for name, arr in sections.items() if not np.isfinite(arr).all()]
    if bad:
        raise CheckpointError("non-finite values in %s" % ", ".join(bad))
    models = Models(len(vocab), config, style_labels=style_labels,
                    init_rng=_ZeroInit())
    for name, t in models.all_tensors():
        arr = _section(sections, name)
        if arr.shape != t.values.shape:
            raise CheckpointError("section %r has shape %r, expected %r"
                                  % (name, arr.shape, t.values.shape))
        t.values[...] = arr
    meta = [_section(sections, "meta.%s" % n)
            for n in ("feature_norm", "pretrained")]
    if any(arr.shape != (1,) for arr in meta):
        raise CheckpointError("meta sections must hold one value each")
    models.feature_norm, models.pretrained = float(meta[0][0]), bool(meta[1][0])

    optimizers = None
    if any(name.startswith("optim.") for name in sections):
        optimizers = Optimizers(models, config)
        for group in ("generator", "guider", "discriminator"):
            prefix = "optim.%s." % group
            arrays = [(name[len(prefix):], arr)
                      for name, arr in sections.items()
                      if name.startswith(prefix)]
            try:
                getattr(optimizers, group).load_state_arrays(arrays)
            except (KeyError, ValueError) as e:
                raise CheckpointError("%s optimizer state is incomplete or "
                                      "misshapen: %s" % (group, e)) from e
    return models, vocab, optimizers, blob


def _section(sections, name):
    if name not in sections:
        raise CheckpointError("checkpoint missing section %r" % name)
    return sections[name]


def _config_from_blob(blob):
    """(TrainConfig, Vocabulary, style label count) from a config blob."""
    try:
        cfg = dict(blob["train_config"])
        if isinstance(cfg.get("profile"), dict):
            prof = cfg["profile"]
            cfg["profile"] = ModelProfile(*(
                tuple(prof[f.name]) if f.type is tuple else prof[f.name]
                for f in dataclasses.fields(ModelProfile)))
        tokens, style_labels = blob["vocab_tokens"], blob.get("style_labels", 0)
        if not (isinstance(tokens, list)
                and all(isinstance(t, str) for t in tokens)
                and type(style_labels) is int and style_labels >= 0):
            raise CheckpointError("checkpoint needs vocab_tokens strings and "
                                  "a style_labels int >= 0")
        return TrainConfig(**cfg), Vocabulary(tokens), style_labels
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError("checkpoint config is malformed: %r" % e) from e
