import json
import stat
import struct
import zlib

import numpy as np
import pytest

from gmgan import checkpoint, trainer
from gmgan.checkpoint import (MAGIC, VERSION, load_models, read_checkpoint,
                              save_models, write_checkpoint)
from gmgan.cli import main
from gmgan.corpus import desk_grammar
from gmgan.encoder import ModelProfile
from gmgan.errors import CheckpointError
from gmgan.trainer import Models, Optimizers, TrainConfig

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_setup():
    vocab = desk_grammar().vocabulary()
    config = TrainConfig(seed=1, profile=TINY, max_len=12, c=2, batch_size=8)
    return vocab, Models(len(vocab), config)


def test_round_trip_is_bit_exact(tmp_path):
    vocab, models = tiny_setup()
    models.feature_norm = 3.25
    models.pretrained = True
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab)
    loaded, vocab2, opt, blob = load_models(path)
    assert opt is None
    assert vocab2.id_to_token == vocab.id_to_token
    assert loaded.feature_norm == 3.25
    assert loaded.pretrained
    for (na, ta), (nb, tb) in zip(models.all_tensors(), loaded.all_tensors()):
        assert na == nb
        assert ta.values.tobytes() == tb.values.tobytes()
    assert loaded.generator.embedding is loaded.encoder.embedding


def test_round_trip_random_parameter_sets(tmp_path):
    rng = np.random.default_rng(0)
    for case in range(20):
        sections = []
        for i in range(rng.integers(1, 6)):
            shape = tuple(rng.integers(1, 5, size=rng.integers(0, 3)))
            sections.append(("s%d" % i, rng.normal(size=shape)))
        path = tmp_path / ("c%d.gmg" % case)
        write_checkpoint(path, sections, {"case": case})
        blob, loaded = read_checkpoint(path)
        assert blob == {"case": case}
        for name, arr in sections:
            assert loaded[name].shape == np.asarray(arr).shape
            assert loaded[name].tobytes() == np.ascontiguousarray(
                arr, dtype="<f8").tobytes()


def test_optimizer_state_round_trip(tmp_path, monkeypatch, capsys):
    vocab, models = tiny_setup()
    opt = Optimizers(models, models.config)
    for _, t in models.generator_tensors():
        t.grad = np.ones_like(t.values)
    opt.generator.step()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab, optimizers=opt)
    _, _, opt2, _ = load_models(path)
    assert opt2 is not None
    assert opt2.generator.t == 1
    for group in ("generator", "guider", "discriminator"):
        mine, theirs = getattr(opt, group), getattr(opt2, group)
        for name in mine.m:
            assert mine.m[name].tobytes() == theirs.m[name].tobytes()
            assert mine.v[name].tobytes() == theirs.v[name].tobytes()
    # generate and inspect-rewards read no optimizer, so their loads check
    # the optimizer sections and build none
    assert load_models(path, optimizer_state=False)[2] is None

    def refuse(*args, **kwargs):
        raise AssertionError("an optimizer was built")
    monkeypatch.setattr(trainer.Adam, "__init__", refuse)
    assert main(["generate", "--checkpoint", str(path), "--num", "1",
                 "--out", str(tmp_path / "x.txt")]) == 0
    sentence = " ".join(vocab.id_to_token[i] for i in (5, 6, 7))
    assert main(["inspect-rewards", "--checkpoint", str(path),
                 "--sentence", sentence]) == 0
    assert sentence.split()[0] in capsys.readouterr().out


def test_load_draws_nothing_from_the_init_stream(tmp_path, monkeypatch):
    vocab, models = tiny_setup()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab,
                optimizers=Optimizers(models, models.config))
    domains, stream_rng = [], trainer.stream_rng

    def counting_stream_rng(seed, domain, *indices):
        domains.append(domain)
        return stream_rng(seed, domain, *indices)

    monkeypatch.setattr(trainer, "stream_rng", counting_stream_rng)
    loaded, _, _, _ = load_models(path)
    assert domains == []
    for (_, ta), (_, tb) in zip(models.all_tensors(), loaded.all_tensors()):
        assert ta.values.tobytes() == tb.values.tobytes()


def test_read_sections_are_read_only(tmp_path):
    write_checkpoint(tmp_path / "c.gmg", [("a", np.arange(6.0).reshape(2, 3)),
                                          ("b", np.float64(2.5))], {})
    _, sections = read_checkpoint(tmp_path / "c.gmg")
    for arr in sections.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_loaded_state_is_writable_and_apart_from_the_file(tmp_path,
                                                         monkeypatch):
    vocab, models = tiny_setup()
    opt = Optimizers(models, models.config)
    for _, t in models.generator_tensors():
        t.grad = np.ones_like(t.values)
    opt.generator.step()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab, optimizers=opt)
    reads = []

    def kept_read(p):
        reads.append(read_checkpoint(p))
        return reads[-1]

    monkeypatch.setattr(checkpoint, "read_checkpoint", kept_read)
    loaded, _, opt2, _ = load_models(path)
    sections = reads[0][1]   # the very arrays the load copied from
    before = {name: arr.tobytes() for name, arr in sections.items()}
    state = [t.values for _, t in loaded.all_tensors()]
    for group in ("generator", "guider", "discriminator"):
        adam = getattr(opt2, group)
        state += list(adam.m.values()) + list(adam.v.values())
    assert not any(np.shares_memory(a, s) for a in state
                   for s in sections.values())
    for _, t in loaded.generator_tensors():   # one Adam step after the load
        t.grad = np.ones_like(t.values)
    opt2.generator.step()
    assert opt2.generator.t == 2
    assert {name: arr.tobytes() for name, arr in sections.items()} == before
    assert (loaded.generator.vocab_w.values.tobytes()
            != before["generator.vocab.w"])


def test_corrupt_crc_refused(tmp_path):
    vocab, models = tiny_setup()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_bad_magic_and_version_refused(tmp_path):
    path = tmp_path / "m.gmg"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    vocab, models = tiny_setup()
    save_models(path, models, vocab)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version field
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_truncated_file_refused(tmp_path):
    vocab, models = tiny_setup()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_identical_models_produce_identical_files(tmp_path):
    vocab, _ = tiny_setup()
    config = TrainConfig(seed=7, profile=TINY, max_len=12, c=2)
    a = tmp_path / "a.gmg"
    b = tmp_path / "b.gmg"
    save_models(a, Models(len(vocab), config), vocab)
    save_models(b, Models(len(vocab), config), vocab)
    assert a.read_bytes() == b.read_bytes()


def test_oversized_section_shape_refused(tmp_path):
    """A CRC-valid file whose shape product passes 2**64 (it would wrap to 0
    in uint64) is refused as corrupt, and the CLI exits 2."""
    config = json.dumps({}).encode("utf-8")
    name = b"w"
    payload = (struct.pack("<I", len(config)) + config + struct.pack("<I", 1)
               + struct.pack("<I", len(name)) + name + struct.pack("<I", 2)
               + struct.pack("<2Q", 2 ** 62, 4))
    path = tmp_path / "huge.gmg"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<Q", len(payload))
                     + struct.pack("<I", zlib.crc32(payload)) + payload)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    assert main(["generate", "--checkpoint", str(path), "--num", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    vocab, models = tiny_setup()
    path = tmp_path / "m.gmg"
    save_models(path, models, vocab)
    before = path.read_bytes()

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "open", lambda p, mode:
                        HalfWriter(open(p, mode)), raising=False)
    other = Models(len(vocab), TrainConfig(seed=2, profile=TINY, max_len=12,
                                           c=2, batch_size=8))
    with pytest.raises(OSError):
        save_models(path, other, vocab)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.gmg"]
    loaded, _, _, _ = load_models(path)
    for (_, ta), (_, tb) in zip(models.all_tensors(), loaded.all_tensors()):
        assert ta.values.tobytes() == tb.values.tobytes()


def test_checkpoint_is_flushed_and_synced_before_it_replaces_the_target(
        tmp_path, monkeypatch):
    events = []
    fsync, replace = checkpoint.os.fsync, checkpoint.os.replace

    def synced(fd):
        # every byte must have left Python's buffer before the file's sync;
        # the directory sync that makes the rename durable names its inode
        st = checkpoint.os.fstat(fd)
        events.append(("fsync dir", st.st_ino) if stat.S_ISDIR(st.st_mode)
                      else ("fsync", st.st_size))
        fsync(fd)

    def replaced(src, dst):
        events.append(("replace", src, dst))
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", synced)
    monkeypatch.setattr(checkpoint.os, "replace", replaced)
    path = tmp_path / "m.gmg"
    write_checkpoint(path, [("s", np.arange(3.0))], {"case": 1})
    assert events == [("fsync", path.stat().st_size),
                      ("replace", str(path) + ".tmp", path),
                      ("fsync dir", tmp_path.stat().st_ino)]


def _crc_valid_file(path, config_bytes, sections, tail=b""):
    """A GMG1 file with a correct CRC, from raw config bytes,
    (raw name bytes, array) sections and `tail` bytes after the last one."""
    body = [struct.pack("<I", len(config_bytes)), config_bytes,
            struct.pack("<I", len(sections))]
    for name, arr in sections:
        arr = np.asarray(arr, dtype="<f8")
        body += [struct.pack("<I", len(name)), name,
                 struct.pack("<I", arr.ndim),
                 struct.pack("<%dQ" % arr.ndim, *arr.shape), arr.tobytes()]
    payload = b"".join(body + [tail])
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<Q", len(payload))
                     + struct.pack("<I", zlib.crc32(payload)) + payload)


def test_written_file_is_the_format_built_by_hand(tmp_path):
    # 0-d, strided, float32 and big-endian arrays are written as their
    # little-endian float64 values, with the header over the whole payload
    rng = np.random.default_rng(3)
    sections = [("a", rng.normal(size=(3, 4))), ("b", np.float64(2.5)),
                ("c", rng.normal(size=(4, 6))[:, ::2]),
                ("d", rng.normal(size=5).astype(np.float32)),
                ("e", rng.normal(size=2).astype(">f8")), ("f", np.zeros((0, 2)))]
    write_checkpoint(tmp_path / "w.gmg", sections, {"case": 2})
    _crc_valid_file(tmp_path / "h.gmg", json.dumps({"case": 2}).encode(),
                    [(name.encode(), arr) for name, arr in sections])
    assert ((tmp_path / "w.gmg").read_bytes()
            == (tmp_path / "h.gmg").read_bytes())


def _not_json(blob, sections):
    return b"{not json", sections


def _no_train_config(blob, sections):
    del blob["train_config"]
    return json.dumps(blob).encode("utf-8"), sections


def _unknown_train_config_key(blob, sections):
    blob["train_config"]["bogus"] = 1
    return json.dumps(blob).encode("utf-8"), sections


def _missing_moment(blob, sections):
    drop = next(name for name, _ in sections
                if name.startswith(b"optim.guider.") and name.endswith(b".v"))
    return (json.dumps(blob).encode("utf-8"),
            [(name, arr) for name, arr in sections if name != drop])


def _moment_transposed(blob, sections):
    # same element count as the (vocab, embed) parameter, other shape
    name = b"optim.generator.encoder.embedding.m"
    return (json.dumps(blob).encode("utf-8"),
            [(n, arr.T if n == name else arr) for n, arr in sections])


def _name_not_utf8(blob, sections):
    return (json.dumps(blob).encode("utf-8"),
            [(b"\xff\xfe" + sections[0][0], sections[0][1])] + sections[1:])


def _duplicate_section(blob, sections):
    # a later copy with other values must not replace the first
    name, arr = sections[0]
    return json.dumps(blob).encode("utf-8"), sections + [(name, arr + 1.0)]


def _trailing_bytes(blob, sections):
    return json.dumps(blob).encode("utf-8"), sections, bytes(8)


def _blob_field(name, path, value):
    """A corruption, called `name`, that sets the config blob entry at
    `path` (a tuple of keys) to value."""
    def corrupt(blob, sections):
        inner = blob
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        return json.dumps(blob).encode("utf-8"), sections
    corrupt.__name__ = name
    return corrupt


def _section_values(name, section, values):
    """A corruption, called `name`, that replaces a section's values."""
    def corrupt(blob, sections):
        return (json.dumps(blob).encode("utf-8"),
                [(n, np.asarray(values) if n == section else arr)
                 for n, arr in sections])
    corrupt.__name__ = name
    return corrupt


def _vocab_tokens_ints(blob, sections):
    blob["vocab_tokens"] = list(range(len(blob["vocab_tokens"])))
    return json.dumps(blob).encode("utf-8"), sections


def _nan_parameter(blob, sections):
    arr = sections[0][1].copy()
    arr.reshape(-1)[0] = np.nan
    return (json.dumps(blob).encode("utf-8"),
            [(sections[0][0], arr)] + sections[1:])


@pytest.mark.parametrize("corrupt", [
    _not_json, _no_train_config, _unknown_train_config_key, _missing_moment,
    _name_not_utf8, _duplicate_section, _trailing_bytes,
    _blob_field("_style_labels_string", ("style_labels",), "x"),
    _blob_field("_style_labels_list", ("style_labels",), [2]),
    _vocab_tokens_ints,
    _blob_field("_conv_channels_string",
                ("train_config", "profile", "conv_channels"), "ab"),
    _section_values("_feature_norm_empty", b"meta.feature_norm", []),
    _section_values("_feature_norm_nan", b"meta.feature_norm", [np.nan]),
    _nan_parameter,
    _section_values("_step_empty", b"optim.generator.step", []),
    _section_values("_step_negative", b"optim.guider.step", [-3.0]),
    _section_values("_step_fractional", b"optim.generator.step", [2.5]),
    _moment_transposed])
def test_malformed_checkpoint_refused_with_exit_2(tmp_path, corrupt):
    vocab, models = tiny_setup()
    good = tmp_path / "good.gmg"
    save_models(good, models, vocab, optimizers=Optimizers(models,
                                                          models.config))
    blob, sections = read_checkpoint(good)
    path = tmp_path / "bad.gmg"
    _crc_valid_file(path, *corrupt(
        blob, [(name.encode("utf-8"), arr) for name, arr in sections.items()]))
    for optimizer_state in (True, False):
        with pytest.raises(CheckpointError):
            load_models(path, optimizer_state=optimizer_state)
    assert main(["generate", "--checkpoint", str(path), "--num", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2


HEADER_BYTES = 20   # magic, version, payload length, crc32
_FUZZ_RNG = np.random.default_rng(2024)
# (kind, where, bit): a kept prefix length (negative counts from the end), a
# header byte, or a payload position as a fraction of the payload
FUZZ_CASES = (
    [("truncate", n, None)
     for n in (0, 3, 4, 8, 16, 19, 20, 21, 24, 1000, -4096, -8, -1)]
    + [("header", i, i % 8) for i in range(HEADER_BYTES)]
    + [("payload", float(f), int(b)) for f, b in zip(
        _FUZZ_RNG.random(210), _FUZZ_RNG.integers(0, 8, size=210))])


@pytest.fixture(scope="module")
def checkpoint_with_optimizer_state(tmp_path_factory):
    vocab, models = tiny_setup()
    opt = Optimizers(models, models.config)
    for _, t in models.generator_tensors():
        t.grad = np.ones_like(t.values)
    opt.generator.step()
    path = tmp_path_factory.mktemp("fuzz") / "good.gmg"
    save_models(path, models, vocab, optimizers=opt)
    return path.read_bytes()


@pytest.mark.parametrize("kind,where,bit", FUZZ_CASES,
                         ids=["%s-%d" % (case[0], i)
                              for i, case in enumerate(FUZZ_CASES)])
def test_damaged_checkpoint_exits_2_without_traceback(
        checkpoint_with_optimizer_state, tmp_path, capsys, kind, where, bit):
    raw = bytearray(checkpoint_with_optimizer_state)
    if kind == "truncate":
        raw = raw[:where]
    else:
        pos = (where if kind == "header" else HEADER_BYTES
               + int(where * (len(raw) - HEADER_BYTES)))
        raw[pos] ^= 1 << bit
    path, out = tmp_path / "damaged.gmg", tmp_path / "x.txt"
    path.write_bytes(bytes(raw))
    assert main(["generate", "--checkpoint", str(path), "--num", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
