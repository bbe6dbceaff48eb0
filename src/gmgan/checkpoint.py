"""Versioned binary checkpoints: config snapshot plus named float64 sections.

Layout: magic "GMG1" | version u32 | payload length u64 | crc32 u32 | payload.
The payload holds a JSON config blob and little-endian float64 arrays; the
CRC covers the payload, and load refuses on any magic/version/CRC mismatch.
A read checks the CRC in fixed chunks before it parses anything, then reads
each section straight into its destination: a model load into its tensor or
optimizer moment, so no load holds the file's bytes a second time.
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
HEADER_BYTES = 20   # magic, version, payload length, crc32
CRC_CHUNK = 1 << 16   # bytes read at a time to check the payload's CRC


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
    """The payload of an open checkpoint file, read in order; refuses any
    read past the payload's declared end."""

    def __init__(self, f, size):
        self.f, self.left = f, size

    def skip(self, n):
        """Passes over the next n bytes unread; returns their file offset."""
        if n > self.left:
            raise CheckpointError("truncated checkpoint payload")
        self.left -= n
        return self.f.seek(n, os.SEEK_CUR) - n

    def take(self, n):
        self.f.seek(self.skip(n))
        return self.f.read(n)

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def _section_table(reader):
    """{name: (shape, file offset of its data)} of every section; the data
    are skipped."""
    table = {}
    for _ in range(reader.u32()):
        raw_name = reader.take(reader.u32())
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError("section name %r is not UTF-8"
                                  % raw_name) from e
        if name in table:
            raise CheckpointError("duplicate checkpoint section %r" % name)
        ndim = reader.u32()
        shape = struct.unpack("<%dQ" % ndim, reader.take(8 * ndim))
        # Python ints: a product past 2**64 must not wrap to a small size;
        # skip() then refuses any size beyond the rest of the payload.
        table[name] = shape, reader.skip(8 * math.prod(shape))
    return table


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


def read_checkpoint(path, place=None):
    """Returns (config_blob, {name: array}); refuses corrupt files.

    Nothing is parsed before the header and the CRC of the whole payload
    check out; the CRC reads the payload through one CRC_CHUNK buffer. Then
    the config and the section table are parsed, every size bounded by the
    rest of the payload, and each section is read straight into its array
    and refused unless finite. The arrays are `place(config_blob, {name:
    shape})`, a C-contiguous float64 array of that shape for every section
    name; without `place`, a fresh read-only array each."""
    with open(path, "rb") as f:
        head = f.read(HEADER_BYTES)
        if len(head) < HEADER_BYTES or head[:4] != MAGIC:
            raise CheckpointError("not a GMG1 checkpoint")
        version, length, crc = struct.unpack("<IQI", head[4:])
        if version != VERSION:
            raise CheckpointError("unsupported checkpoint version %d" % version)
        if os.fstat(f.fileno()).st_size - HEADER_BYTES != length:
            raise CheckpointError("checkpoint payload length mismatch")
        chunk, running = bytearray(CRC_CHUNK), 0
        while n := f.readinto(chunk):
            running = zlib.crc32(memoryview(chunk)[:n], running)
        if running != crc:
            raise CheckpointError("checkpoint CRC mismatch")
        f.seek(HEADER_BYTES)
        reader = _Reader(f, length)
        try:
            config_blob = json.loads(str(reader.take(reader.u32()), "utf-8"))
        except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
            raise CheckpointError("checkpoint config is not UTF-8 JSON: %s"
                                  % e) from e
        table = _section_table(reader)
        if reader.left:
            raise CheckpointError("%d bytes follow the last checkpoint "
                                  "section" % reader.left)
        shapes = {name: shape for name, (shape, _) in table.items()}
        sections = (place(config_blob, shapes) if place else
                    {name: np.empty(shape, "<f8")
                     for name, shape in shapes.items()})
        for name, (_, at) in table.items():
            f.seek(at)
            f.readinto(sections[name])
            if not np.isfinite(sections[name]).all():
                raise CheckpointError("non-finite values in %s" % name)
    if place is None:
        for arr in sections.values():
            arr.flags.writeable = False
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
    zero, for a load that then reads each one in from its section."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def load_models(path, optimizer_state=True):
    """Rebuild Models (and optimizer state, when present) from a checkpoint,
    reading each section straight into its tensor or Adam moment. Draws
    nothing from the init stream. With optimizer_state False the optimizer
    sections are checked, one at a time in one scratch array, and no
    optimizer is built.

    Returns (models, vocab, optimizers_or_None, config_blob).
    """
    built, steps = [], []   # steps: (section name, its Adam or None)

    def place(blob, shapes):
        config, vocab, style_labels = _config_from_blob(blob)
        models = Models(len(vocab), config, style_labels=style_labels,
                        init_rng=_ZeroInit())
        into = {name: t.values for name, t in models.all_tensors()}
        into.update(("meta." + n, np.empty(1))
                    for n in ("feature_norm", "pretrained"))
        want, optimizers = {}, None
        if any(name.startswith("optim.") for name in shapes):
            optimizers = Optimizers(models, config) if optimizer_state else None
            for group, params in models.optimizer_groups().items():
                prefix = "optim.%s." % group
                opt = getattr(optimizers, group) if optimizers else None
                steps.append((prefix + "step", opt))
                if opt is not None:   # the step, then the live moments
                    into.update((prefix + n, a) for n, a in opt.state_arrays())
                    continue
                into[prefix + "step"] = np.empty(1)
                want.update((prefix + name + key, t.values.shape)
                            for name, t in params for key in (".m", ".v"))
        want.update((name, arr.shape) for name, arr in into.items())
        for name, shape in want.items():
            if name not in shapes:
                raise CheckpointError("checkpoint missing section %r" % name)
            if shapes[name] != shape:
                raise CheckpointError("section %r has shape %r, expected %r"
                                      % (name, shapes[name], shape))
        # every other section is read into one scratch array and dropped
        rest = {n: s for n, s in shapes.items() if n not in into}
        scratch = np.empty(max(map(math.prod, rest.values()), default=0))
        into.update((n, scratch[:math.prod(s)].reshape(s))
                    for n, s in rest.items())
        built.extend((models, vocab, optimizers))
        return into

    blob, sections = read_checkpoint(path, place)
    models, vocab, optimizers = built
    models.feature_norm = float(sections["meta.feature_norm"][0])
    models.pretrained = bool(sections["meta.pretrained"][0])
    for name, opt in steps:
        step = sections[name][0]
        if not (step >= 0 and float(step).is_integer()):
            raise CheckpointError("section %r holds %r, not an integer >= 0"
                                  % (name, step))
        if opt is not None:
            opt.t = int(step)
    return models, vocab, optimizers, blob


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
