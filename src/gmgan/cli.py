"""Command-line entry point: train, generate, eval, inspect-rewards.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure. The
GMG_SEED environment variable overrides the configured seed everywhere.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import load_models, save_models
from .corpus import (EOS, UNK, GrammarSpec, Vocabulary, load_corpus,
                     read_token_lines, save_corpus, sample_grammar,
                     sample_grammar_styled, style_oracle)
from .errors import CheckpointError, ContractError
from .generator import teacher_force_trace
from .metrics import bleu_report, strip_eos, validity_rate
from .rewards import feature_matching_reward
from .style import run_style_transfer, transfer_greedy
from .trainer import (Models, Optimizers, TrainConfig, pretrain_mle,
                      run_gmgan, sample_from_noise)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_PATH_KEYS = {"corpus", "vocab", "grammar", "out_dir", "log"}
_DATA_KEYS = {"train_samples", "val_samples"}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


class ConfigError(ValueError):
    pass


def load_run_config(path):
    """Parse and validate a run-config JSON file; unknown keys are fatal."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, ValueError) as e:    # not UTF-8, or not JSON
        raise ConfigError("cannot read config %s: %s" % (path, e))
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS - {"paths", "data"}
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    paths = raw.pop("paths", {})
    data = raw.pop("data", {})
    if not (isinstance(paths, dict)
            and all(isinstance(v, str) for v in paths.values())):
        raise ConfigError("paths must be an object of path strings")
    if not (isinstance(data, dict)
            and all(isinstance(v, int) and not isinstance(v, bool) and v > 0
                    for v in data.values())):
        raise ConfigError("data must be an object of positive integers")
    if set(paths) - _PATH_KEYS:
        raise ConfigError("unknown path keys: %s"
                          % ", ".join(sorted(set(paths) - _PATH_KEYS)))
    if set(data) - _DATA_KEYS:
        raise ConfigError("unknown data keys: %s"
                          % ", ".join(sorted(set(data) - _DATA_KEYS)))
    try:
        config = TrainConfig(**raw)
    except (TypeError, ContractError) as e:
        raise ConfigError("invalid training config: %s" % e)
    return config, paths, data


def _seed(default, name):
    """GMG_SEED when it is set, else `default` (named `name` in errors); a
    non-negative integer either way."""
    env = os.environ.get("GMG_SEED")
    value, name = (default, name) if env is None else (env, "GMG_SEED")
    try:
        seed = int(value)
    except ValueError:
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if seed < 0:
        raise ConfigError("%s must be >= 0, got %d" % (name, seed))
    return seed


def _load_training_data(config, paths, data, vocab):
    """Corpus from file or sampled from a grammar, encoded with `vocab` (a
    checkpoint's: unknown words become UNK) or, if None, paths.vocab or the
    data's own; returns (train, val, vocab, grammar_or_None,
    labelled_pair_or_None)."""
    grammar = None
    if "grammar" in paths:
        grammar = GrammarSpec.load(paths["grammar"])
    if "corpus" in paths:
        if vocab is None and "vocab" in paths:
            vocab = Vocabulary.load(paths["vocab"])
        sentences, vocab = load_corpus(paths["corpus"], vocab or "build",
                                       max_len=config.max_len)
        n_val = max(1, len(sentences) // 10)
        return (sentences[n_val:], sentences[:n_val], vocab, grammar, None)
    if grammar is None:
        raise ConfigError("config needs paths.corpus or paths.grammar")
    vocab = vocab or grammar.vocabulary()
    n_train = int(data.get("train_samples", 2000))
    n_val = int(data.get("val_samples", max(1, n_train // 10)))
    if config.style_mode:
        labelled = sample_grammar_styled(grammar, n_train + n_val,
                                         seed=config.seed, vocab=vocab,
                                         max_len=config.max_len)
        train_l, val_l = labelled[n_val:], labelled[:n_val]
        train = [s for s, _ in train_l]
        val = [s for s, _ in val_l]
        return train, val, vocab, grammar, (train_l, val_l)
    sentences = sample_grammar(grammar, n_train + n_val, seed=config.seed,
                               vocab=vocab, max_len=config.max_len)
    return sentences[n_val:], sentences[:n_val], vocab, grammar, None


def _log_header(config):
    """What a run's numbers depend on besides its code: the run config and
    seed, numpy and its BLAS, the BLAS thread variables (None when unset)
    and whether the allocator thresholds were pinned."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):         # numpy before 1.26
        blas = {}
    return {"stage": "header", "config": dataclasses.asdict(config),
            "seed": config.seed, "numpy": np.__version__,
            "blas": {"name": blas.get("name"),
                     "version": blas.get("version")},
            "blas_threads": {var: os.environ.get(var)
                             for var in _BLAS_THREAD_VARS},
            "heap_pinned": ad.HEAP_PINNED}


def _open_log(paths, out_dir, config):
    log_path = paths.get("log")
    if log_path is None and out_dir is not None:
        log_path = str(Path(out_dir) / "train.log.jsonl")
    if log_path is None:
        return None
    Path(log_path).parent.mkdir(parents=True, exist_ok=True)
    log = open(log_path, "a", encoding="utf-8")
    log.write(json.dumps(_log_header(config)) + "\n")
    return log


def _snapshot_fn(out_dir, vocab):
    if out_dir is None:
        return None

    def snapshot(models, optimizers, epoch):
        save_models(str(Path(out_dir) / ("gmgan_epoch%03d.gmg" % epoch)),
                    models, vocab, optimizers=optimizers)

    return snapshot


def _make_evaluator(grammar, vocab, val_sentences, config):
    if grammar is None or config.eval_samples == 0:
        return None

    def evaluate(models, epoch):
        samples = sample_from_noise(models, config.eval_samples,
                                    seed=config.seed * 1000003 + epoch)
        out = {"validity": validity_rate(samples, grammar, vocab)}
        # BLEU needs non-empty candidates: EOS-only samples count toward
        # validity but not toward BLEU, as in `gmgan eval`
        scored = [s for s in samples if strip_eos(s)]
        if len(scored) >= 2 and val_sentences:
            report = bleu_report(scored, val_sentences, test_ks=(3,),
                                 self_ks=(3,))
            out["test_bleu_3"] = report.test_bleu[3]
            out["self_bleu_3"] = report.self_bleu[3]
        return out

    return evaluate


def cmd_train(args):
    config, paths, data = load_run_config(args.config)
    if args.pretrained and args.stage != "adversarial":
        raise ConfigError("--pretrained applies only to --stage adversarial")
    if args.out_dir and "out_dir" in paths:
        raise ConfigError("--out-dir and paths.out_dir are both set")
    config = dataclasses.replace(config, seed=_seed(config.seed, "seed"))
    if args.stage == "style" and not config.style_mode:
        config = dataclasses.replace(config, style_mode=True)
    vocab = None
    if args.stage == "adversarial":
        if not args.pretrained:
            raise ConfigError("--stage adversarial requires --pretrained")
        # the checkpoint comes first: its vocabulary encodes the data
        models, vocab, optimizers, _ = load_models(args.pretrained)
        if models.guider.num_labels:
            raise ConfigError("%s is a style checkpoint: the adversarial "
                              "stage does not take style checkpoints"
                              % args.pretrained)
        if not models.pretrained:
            raise ConfigError("checkpoint was not pretrained")
        # the run config sets what only this stage reads; the rest is the
        # checkpoint's
        config = dataclasses.replace(models.config, **{
            k: getattr(config, k) for k in
            ("seed", "rl_epochs", "g_steps", "d_steps", "ablation", "rl_mix",
             "eval_samples", "gamma", "discount_convention", "baseline",
             "baseline_momentum", "rollout_batch")})
        optimizers = optimizers or Optimizers(models, config)
    train, val, vocab, grammar, labelled = _load_training_data(config, paths,
                                                               data, vocab)
    out_dir = args.out_dir or paths.get("out_dir")
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    log = _open_log(paths, out_dir, config)
    try:
        if args.stage == "style":
            if labelled is None:
                raise ConfigError("style stage needs a grammar with "
                                  "style_lexicons")
            models = Models(len(vocab), config, style_labels=2)
            oracle = (lambda ids: style_oracle(grammar, ids, vocab))
            run_style_transfer(labelled[0], labelled[1], models, config,
                               oracle=oracle, log=log)
            if out_dir:
                save_models(str(Path(out_dir) / "style.gmg"), models, vocab)
            return 0

        if args.stage != "adversarial":  # mle or all
            models = Models(len(vocab), config)
            optimizers = Optimizers(models, config)
            pretrain_mle(train, val, models, config, optimizers=optimizers,
                         log=log)
            if out_dir:
                save_models(str(Path(out_dir) / "mle.gmg"), models, vocab,
                            optimizers=optimizers)
            if args.stage == "mle":
                return 0
        evaluator = _make_evaluator(grammar, vocab, val, config)
        run_gmgan(train, val, models, config, optimizers=optimizers,
                  evaluator=evaluator, log=log,
                  checkpoint_fn=_snapshot_fn(out_dir, vocab))
        if out_dir:
            save_models(str(Path(out_dir) / "gmgan.gmg"), models, vocab,
                        optimizers=optimizers)
        return 0
    finally:
        if log is not None:
            log.close()


def cmd_generate(args):
    seed = _seed(args.seed, "--seed")
    if args.num < 1:
        raise ConfigError("--num must be >= 1, got %d" % args.num)
    models, vocab, _, _ = load_models(args.checkpoint)
    if ((args.label is not None or args.input is not None)
            and not models.guider.num_labels):
        raise ConfigError("%s is not a style checkpoint: generate takes no "
                          "--label or --input" % args.checkpoint)
    if models.guider.num_labels:
        if args.label is None or args.input is None:
            raise ConfigError("%s is a style checkpoint: generate needs "
                              "--label and --input" % args.checkpoint)
        sources, _ = load_corpus(args.input, vocab,
                                 max_len=models.profile.max_len)
        out_sents = [transfer_greedy(src, args.label, models)
                     for src in sources[: args.num]]
    elif args.mode == "greedy":
        # greedy decoding is deterministic per initial state: one noise draw
        out_sents = (sample_from_noise(models, 1, seed, mode="greedy")
                     * args.num)
    else:
        out_sents = sample_from_noise(models, args.num, seed=seed)
    save_corpus(args.out, out_sents, vocab)
    return 0


def cmd_eval(args):
    samples = read_token_lines(args.samples)
    references = read_token_lines(args.references)
    if len(samples) < 2:
        raise ConfigError("self-BLEU needs at least 2 samples")
    if not references:
        raise ConfigError("empty reference file")
    report = bleu_report(samples, references)
    print(report.table())
    payload = report.to_json()
    if args.grammar:
        grammar = GrammarSpec.load(args.grammar)
        vocab = grammar.vocabulary()
        ids = [vocab.encode(s, 10 ** 6) for s in samples]
        rate = validity_rate(ids, grammar, vocab)
        print("%-14s %8.3f" % ("validity", rate))
        raw = json.loads(payload)
        raw["validity"] = rate
        payload = json.dumps(raw, indent=1)
    out = args.out or (args.samples + ".report.json")
    with open(out, "w", encoding="utf-8") as f:
        f.write(payload + "\n")
    return 0


def cmd_inspect_rewards(args):
    models, vocab, _, _ = load_models(args.checkpoint)
    if models.guider.num_labels:
        raise ConfigError("%s is a style checkpoint: inspect-rewards does not "
                          "take style checkpoints" % args.checkpoint)
    words = args.sentence.split()
    if not words:
        raise ConfigError("empty sentence")
    ids = vocab.encode(words, models.profile.max_len)
    if all(t in (UNK, EOS) for t in ids):
        raise ConfigError("sentence is entirely out of vocabulary")
    trace = teacher_force_trace(ids, models.encoder, models.generator,
                                models.guider)
    r_g = feature_matching_reward(trace, models.config.c)
    shown = vocab.decode(ids) + ["<eos>"]
    print("%-4s %-14s %10s" % ("t", "token", "r_g"))
    for t, (tok, r) in enumerate(zip(shown, r_g), start=1):
        print("%-4d %-14s %10.4f" % (t, tok, r))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write("t,r_g\n")
            for t, r in enumerate(r_g, start=1):
                f.write("%d,%r\n" % (t, r))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmgan",
        description="Guider-matched adversarial text generation, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training stage")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--stage", choices=("mle", "adversarial", "all",
                                             "style"), default="all")
    p_train.add_argument("--pretrained",
                         help="checkpoint to start the adversarial stage from")
    p_train.add_argument("--out-dir", default=None)
    p_train.set_defaults(fn=cmd_train)

    p_gen = sub.add_parser("generate", help="sample sentences")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--num", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", choices=("sample", "greedy"),
                       default="sample")
    p_gen.add_argument("--label", type=int, choices=(0, 1), default=None,
                       help="target style label (style checkpoints only)")
    p_gen.add_argument("--input", help="source sentences for style transfer")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_generate)

    p_eval = sub.add_parser("eval", help="BLEU-family report")
    p_eval.add_argument("--samples", required=True)
    p_eval.add_argument("--references", required=True)
    p_eval.add_argument("--grammar")
    p_eval.add_argument("--out")
    p_eval.set_defaults(fn=cmd_eval)

    p_ins = sub.add_parser("inspect-rewards",
                           help="per-token feature-matching rewards")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--sentence", required=True)
    p_ins.add_argument("--out", help="CSV output path")
    p_ins.set_defaults(fn=cmd_inspect_rewards)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, CheckpointError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
