import json

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import cli
from gmgan.cli import ConfigError, load_run_config, main
from gmgan.corpus import EOS, desk_grammar, desk_style_grammar, sample_grammar
from gmgan.encoder import ModelProfile
from gmgan.metrics import bleu_report
from gmgan.trainer import TrainConfig

TINY_PROFILE = {"embed_dim": 6, "feature_dim": 10, "hidden_dim": 8,
                "conv_channels": [8, 10], "conv_widths": [3, 3],
                "conv_strides": [2, 2], "max_len": 12}


def write_config(tmp_path, **overrides):
    grammar = tmp_path / "grammar.json"
    desk_grammar().save(grammar)
    cfg = {"seed": 5, "profile": "small", "max_len": 12, "c": 2,
           "batch_size": 8, "mle_epochs": 1, "rl_epochs": 1,
           "guider_extra_epochs": 0, "rollout_batch": 4, "eval_samples": 4,
           "lr_generator": 1e-3, "lr_guider": 1e-3,
           "paths": {"grammar": str(grammar), "out_dir": str(tmp_path / "out")},
           "data": {"train_samples": 24, "val_samples": 4}}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, bogus_knob=1)
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, gamma=1.5))
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, lr_generator=-1.0))
    assert main(["train", "--config",
                 str(write_config(tmp_path, gamma=2.0))]) == 2


@pytest.mark.parametrize("overrides", [
    {"data": {"train_samples": "abc", "val_samples": 4}},
    {"paths": ["grammar"]},
    {"batch_size": 0},
    {"max_len": "12"},
], ids=["data-string", "paths-list", "batch-size-zero", "max-len-string"])
def test_malformed_config_exits_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_negative_gmg_seed_exits_2_naming_the_range(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setenv("GMG_SEED", "-1")
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ">= 0" in err


def test_zero_eval_samples_skips_epoch_evaluation(tmp_path):
    cfg = write_config(tmp_path, eval_samples=0)
    assert main(["train", "--config", str(cfg), "--stage", "all"]) == 0
    log = (tmp_path / "out" / "train.log.jsonl").read_text().splitlines()
    adversarial = [json.loads(l) for l in log
                   if json.loads(l)["stage"] == "adversarial"]
    assert adversarial and "validity" not in adversarial[0]


def test_train_mle_writes_loadable_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = tmp_path / "out" / "mle.gmg"
    assert ckpt.exists()
    from gmgan.checkpoint import load_models
    models, vocab, opt, _ = load_models(ckpt)
    assert models.pretrained
    assert opt is not None
    log = tmp_path / "out" / "train.log.jsonl"
    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert [e["stage"] for e in entries[:2]] == ["header", "mle"]


def test_train_log_opens_with_header(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    log = (tmp_path / "out" / "train.log.jsonl").read_text().splitlines()
    header = json.loads(log[0])
    assert set(header) == {"stage", "config", "seed", "numpy", "blas",
                           "blas_threads", "heap_pinned"}
    assert header["stage"] == "header"
    assert header["config"]["seed"] == header["seed"]
    assert header["numpy"] == np.__version__
    assert set(header["blas"]) == {"name", "version"}
    assert header["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert header["blas_threads"]["MKL_NUM_THREADS"] is None
    assert header["heap_pinned"] is ad.HEAP_PINNED
    assert sum(json.loads(l)["stage"] == "header" for l in log) == 1


def test_adversarial_without_pretrain_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "adversarial"]) == 2


def test_full_pipeline_and_reproducibility(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "all"]) == 0
    first = (tmp_path / "out" / "gmgan.gmg").read_bytes()
    (tmp_path / "out" / "gmgan.gmg").unlink()
    (tmp_path / "out" / "train.log.jsonl").unlink()
    assert main(["train", "--config", str(cfg), "--stage", "all"]) == 0
    second = (tmp_path / "out" / "gmgan.gmg").read_bytes()
    assert first == second


def test_adversarial_stage_from_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    assert main(["train", "--config", str(cfg), "--stage", "adversarial",
                 "--pretrained", str(tmp_path / "out" / "mle.gmg")]) == 0
    assert (tmp_path / "out" / "gmgan.gmg").exists()


def test_generate_deterministic_and_greedy(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = str(tmp_path / "out" / "mle.gmg")
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["generate", "--checkpoint", ckpt, "--num", "5", "--seed",
                 "7", "--out", str(out1)]) == 0
    assert main(["generate", "--checkpoint", ckpt, "--num", "5", "--seed",
                 "7", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert len(out1.read_text().splitlines()) == 5

    greedy = tmp_path / "g.txt"
    assert main(["generate", "--checkpoint", ckpt, "--num", "2", "--seed",
                 "3", "--mode", "greedy", "--out", str(greedy)]) == 0
    lines = greedy.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]


def test_epoch_evaluator_skips_eos_only_samples(monkeypatch):
    # an EOS-only sample is invalid but has no n-grams: it counts toward
    # validity and is left out of BLEU, as `gmgan eval` skips empty lines
    g = desk_grammar()
    vocab = g.vocabulary()
    val = sample_grammar(g, 6, seed=1, vocab=vocab, max_len=12)
    samples = [[EOS], val[0], val[1]]
    monkeypatch.setattr(cli, "sample_from_noise",
                        lambda models, n, seed: samples[:n])
    evaluate = cli._make_evaluator(g, vocab, val, TrainConfig(eval_samples=3))
    out = evaluate(None, 0)
    assert out["validity"] == pytest.approx(2.0 / 3.0)
    report = bleu_report(samples[1:], val, test_ks=(3,), self_ks=(3,))
    assert out["test_bleu_3"] == report.test_bleu[3]
    assert out["self_bleu_3"] == report.self_bleu[3]

    # fewer than two non-empty samples: no BLEU at all
    evaluate = cli._make_evaluator(g, vocab, val, TrainConfig(eval_samples=2))
    assert set(evaluate(None, 0)) == {"validity"}


def test_generate_corrupt_checkpoint_exits_2(tmp_path):
    bad = tmp_path / "bad.gmg"
    bad.write_bytes(b"GMG1" + b"\x00" * 40)
    assert main(["generate", "--checkpoint", str(bad), "--num", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2


def test_gmg_seed_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = str(tmp_path / "out" / "mle.gmg")
    a, b, c = (tmp_path / n for n in ("s1.txt", "s2.txt", "s3.txt"))
    assert main(["generate", "--checkpoint", ckpt, "--num", "4", "--seed",
                 "1", "--out", str(a)]) == 0
    monkeypatch.setenv("GMG_SEED", "99")
    assert main(["generate", "--checkpoint", ckpt, "--num", "4", "--seed",
                 "1", "--out", str(b)]) == 0
    monkeypatch.setenv("GMG_SEED", "1")
    assert main(["generate", "--checkpoint", ckpt, "--num", "4", "--seed",
                 "555", "--out", str(c)]) == 0
    assert a.read_text() == c.read_text()
    assert a.read_text() != b.read_text()


def test_training_divergence_exits_3(tmp_path, monkeypatch):
    from gmgan import cli
    from gmgan.errors import TrainingDiverged

    def explode(*args, **kwargs):
        raise TrainingDiverged("loss became nan")

    monkeypatch.setattr(cli, "pretrain_mle", explode)
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 3


def test_nonfinite_training_loss_exits_3(tmp_path, monkeypatch, capsys):
    class InfModels(cli.Models):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.generator.out_b.values[0] = np.inf

    monkeypatch.setattr(cli, "Models", InfModels)
    cfg = write_config(tmp_path)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    from gmgan.checkpoint import save_models
    vocab = desk_grammar().vocabulary()
    path = tmp_path_factory.mktemp("ckpt") / "untrained.gmg"
    save_models(str(path), cli.Models(len(vocab), TrainConfig(
        profile=ModelProfile(**TINY_PROFILE), max_len=12)), vocab)
    return str(path)


@pytest.mark.parametrize("env,args", [
    ("abc", []), ("-1", []), (None, ["--seed", "-1"]), (None, ["--num", "0"]),
], ids=["env-not-an-integer", "env-negative", "seed-negative", "num-zero"])
def test_generate_bad_seed_or_count_exits_2(untrained_checkpoint, tmp_path,
                                            monkeypatch, capsys, env, args):
    if env is not None:
        monkeypatch.setenv("GMG_SEED", env)
    out = tmp_path / "samples.txt"
    assert main(["generate", "--checkpoint", untrained_checkpoint,
                 "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_conv_stack_longer_than_max_len_exits_2(tmp_path, capsys):
    # the small profile's two width-5, stride-2 layers need max_len >= 12
    cfg = write_config(tmp_path, max_len=6)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_len 6" in err


def test_checkpoint_with_too_short_max_len_exits_2(untrained_checkpoint,
                                                   tmp_path, capsys):
    from gmgan.checkpoint import read_checkpoint, write_checkpoint
    blob, sections = read_checkpoint(untrained_checkpoint)
    blob["train_config"]["max_len"] = 3
    blob["train_config"]["profile"]["max_len"] = 3
    path = tmp_path / "short.gmg"
    write_checkpoint(path, list(sections.items()), blob)
    assert main(["generate", "--checkpoint", str(path),
                 "--out", str(tmp_path / "o.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_len 3" in err


def test_generate_label_on_plain_checkpoint_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = str(tmp_path / "out" / "mle.gmg")
    src = tmp_path / "src.txt"
    src.write_text("the cat sees a dog\n", encoding="utf-8")
    assert main(["generate", "--checkpoint", ckpt, "--label", "1",
                 "--input", str(src), "--num", "1",
                 "--out", str(tmp_path / "o.txt")]) == 2


def test_style_stage_and_label_generation(tmp_path):
    grammar = tmp_path / "style_grammar.json"
    desk_style_grammar().save(grammar)
    cfg = {"seed": 3, "profile": "small", "max_len": 12, "c": 2,
           "batch_size": 8, "mle_epochs": 2, "style_epochs": 1,
           "classifier_epochs": 1, "guider_extra_epochs": 0,
           "lr_generator": 1e-3, "lr_guider": 1e-3, "style_mode": True,
           "paths": {"grammar": str(grammar),
                     "out_dir": str(tmp_path / "out")},
           "data": {"train_samples": 60, "val_samples": 8}}
    cfg_path = tmp_path / "style_config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--stage", "style"]) == 0
    ckpt = str(tmp_path / "out" / "style.gmg")

    vocab = desk_style_grammar().vocabulary()
    src = tmp_path / "sources.txt"
    src.write_text("the lovely cat sees the dog\n", encoding="utf-8")
    out = tmp_path / "transferred.txt"
    assert main(["generate", "--checkpoint", ckpt, "--label", "1",
                 "--input", str(src), "--num", "1", "--out", str(out)]) == 0
    line = out.read_text().strip()
    assert line  # a transferred sentence was emitted
    # style generation without input sentences is a usage error
    assert main(["generate", "--checkpoint", ckpt, "--label", "0",
                 "--num", "1", "--out", str(tmp_path / "x.txt")]) == 2


def test_eval_copy_case_and_report(tmp_path):
    refs = tmp_path / "refs.txt"
    refs.write_text("the cat sees a dog\nthe dog sees a cat\n",
                    encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["eval", "--samples", str(refs), "--references", str(refs),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(abs(v - 1.0) < 1e-9 for v in report["test_bleu"].values())
    # fields round-trip through JSON parse
    assert set(report) >= {"test_bleu", "self_bleu", "f1_bleu", "n_samples"}


def test_eval_single_sample_exits_2(tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("only line\n", encoding="utf-8")
    assert main(["eval", "--samples", str(one), "--references",
                 str(one)]) == 2


def test_eval_with_grammar_validity(tmp_path):
    grammar_path = tmp_path / "g.json"
    g = desk_grammar()
    g.save(grammar_path)
    vocab = g.vocabulary()
    from gmgan.corpus import sample_grammar, save_corpus
    sents = sample_grammar(g, 5, seed=2, vocab=vocab, max_len=12)
    samples = tmp_path / "samples.txt"
    save_corpus(samples, sents, vocab)
    out = tmp_path / "r.json"
    assert main(["eval", "--samples", str(samples), "--references",
                 str(samples), "--grammar", str(grammar_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["validity"] == 1.0


def test_inspect_rewards_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = str(tmp_path / "out" / "mle.gmg")
    csv_path = tmp_path / "rewards.csv"
    assert main(["inspect-rewards", "--checkpoint", ckpt, "--sentence",
                 "the cat sees a dog", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,r_g"
    assert len(lines) == 1 + 6  # five words plus EOS
    table = capsys.readouterr().out
    assert "token" in table and "cat" in table

    # deterministic under a fixed checkpoint
    csv2 = tmp_path / "rewards2.csv"
    assert main(["inspect-rewards", "--checkpoint", ckpt, "--sentence",
                 "the cat sees a dog", "--out", str(csv2)]) == 0
    assert csv_path.read_text() == csv2.read_text()


def test_inspect_rewards_oov_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--stage", "mle"]) == 0
    ckpt = str(tmp_path / "out" / "mle.gmg")
    assert main(["inspect-rewards", "--checkpoint", ckpt, "--sentence",
                 "zzz qqq www"]) == 2
