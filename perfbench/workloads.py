"""The four benchmark workloads.

Each workload builds its inputs from the seed (corpora sampled from the desk
grammars, models initialised from the same seed), sets up at least three
times, then runs timed units until the time budget is spent, with the
reference job before, between and after them. A unit is one MLE epoch
(train_mle), one adversarial epoch from each of three pretrained snapshots
(adversarial), one `gmgan generate` + `gmgan eval` pair on each of three
checkpoints (generate_eval), or one style-transfer joint epoch
(style_transfer). After every unit the workload checks the program's
outputs; in a traced run it also checks each per-layer counter against a
count worked out without the wrappers.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from gmgan import checkpoint, cli
from gmgan.corpus import (desk_grammar, desk_style_grammar, sample_grammar,
                          sample_grammar_styled, save_corpus, style_oracle,
                          unigram_entropy)
from gmgan.encoder import ModelProfile
from gmgan.style import run_style_transfer
from gmgan.trainer import (Models, Optimizers, TrainConfig, pretrain_mle,
                           run_gmgan)
from reference import reference_cpu

# Set-up runs at least SETUP_REPEATS times, and a cheap one keeps repeating
# until SETUP_SECONDS are spent. A set-up cheaper than SETUP_BETWEEN seconds
# also runs once after every unit: the host's speed changes over seconds,
# so its fastest run is then picked from the whole run, not from one moment.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
SETUP_BETWEEN = 0.2


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; `desk` is the benchmark, `tiny` the self-test."""
    profile: ModelProfile
    style_profile: ModelProfile
    c: int
    batch_size: int
    lr: float
    mle_train: int
    val: int
    pretrain_train: int
    pretrain_epochs: int
    pretrain_lr: float
    pg_train: int            # leading pretraining sentences a PG epoch uses
    lr_rl: float
    rollout_batch: int
    generate_num: int
    references: int          # leading validation sentences `gmgan eval` uses
    style_train: int
    style_val: int
    style_lr: float
    classifier_epochs: int
    mle_min_epochs: int      # epochs before the validation-loss check


SCALES = {
    # DESK is the acceptance-suite profile; the style profile is criterion 10's.
    # Adversarial and generate_eval pretrain 480 sentences x 5 epochs at lr
    # 5e-3. The sampled work follows the mean sample length of the seed's
    # model: over eight seeds its quartile spread was 0.18 of the median after
    # 640 x 3 epochs at 3e-3 and 0.06 after 480 x 5 at 5e-3.
    "desk": Scale(
        profile=ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16),
        style_profile=ModelProfile(64, 128, 128, (64, 128), (5, 5), (2, 2),
                                   max_len=16),
        c=4, batch_size=32, lr=1e-3, mle_train=640, val=200,
        pretrain_train=480, pretrain_epochs=5, pretrain_lr=5e-3, pg_train=96,
        lr_rl=1e-4, rollout_batch=16,
        generate_num=30, references=100,
        style_train=240, style_val=60, style_lr=1.5e-3, classifier_epochs=4,
        mle_min_epochs=2),
    "tiny": Scale(
        profile=ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12),
        style_profile=ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2),
                                   max_len=12),
        c=2, batch_size=8, lr=3e-2, mle_train=96, val=16,
        pretrain_train=24, pretrain_epochs=1, pretrain_lr=1e-2, pg_train=16,
        lr_rl=1e-2,
        rollout_batch=4,
        generate_num=8, references=16,
        style_train=24, style_val=6, style_lr=1e-2, classifier_epochs=1,
        mle_min_epochs=4),
}


class UnitFailed(Exception):
    """A correctness check failed; the message says which."""


def params_digest(models):
    """sha256 over every parameter tensor and the feature norm."""
    h = hashlib.sha256()
    for name, t in models.all_tensors():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(t.values).tobytes())
    h.update(np.float64(models.feature_norm).tobytes())
    return h.hexdigest()


def check(condition, message):
    if not condition:
        raise UnitFailed(message)


def check_finite(entry, keys):
    for key in keys:
        value = entry.get(key)
        check(value is not None and math.isfinite(value),
              "%s is not finite: %r" % (key, value))


def batches(n, batch_size):
    return -(-n // batch_size)


class Stopwatch:
    """Wall time and process CPU time since it was made."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def read(self):
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


@dataclass
class Unit:
    """One timed unit: its wall time, its process CPU time, its operation
    count, the workload's own named timings ((value, unit) pairs), the mean
    CPU time of the reference jobs run just before and just after it, and
    when traced its per-layer summary."""
    wall: float
    cpu: float
    ops: int
    named: dict = None
    traced: bool = False
    layers: dict = None
    failures: list = None
    ref: float = None


class ReferenceClock:
    """Runs the reference job between units; each unit gets the mean of the
    runs on either side of it."""

    def __init__(self, tracer):
        self.tracer = tracer
        with tracer.paused():
            reference_cpu()                 # first call pays one-off costs
            self.last = reference_cpu()

    def after(self, unit):
        with self.tracer.paused():
            now = reference_cpu()
        unit.ref = (self.last + now) / 2.0
        self.last = now


class Workload:
    """Common base: setup timing, the unit loop and the traced cross-checks."""

    name = None
    min_units = 1
    replicas = 1

    def __init__(self, scale, seed, workdir, tracer):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.digest = None
        self.notes = {}

    def config(self, **kw):
        s = self.scale
        base = dict(seed=self.seed, profile=s.profile,
                    max_len=s.profile.max_len, c=s.c, batch_size=s.batch_size,
                    lr_generator=s.lr, lr_guider=s.lr, guider_extra_epochs=0)
        base.update(kw)
        return TrainConfig(**base)

    def setup(self, replica):
        """Build replica `replica`; a workload of one replica ignores it."""
        raise NotImplementedError

    def replica_seed(self, replica):
        return self.replicas * self.seed + replica

    def measure_setup(self):
        """Set-up k builds replica k mod `replicas`, so with three replicas
        the three set-ups build three models, and a repeat rebuilds one."""
        times = []
        while len(times) < max(SETUP_REPEATS, self.replicas) or (
                sum(w for w, _ in times) < SETUP_SECONDS
                and len(times) < SETUP_MAX_REPEATS):
            clock = Stopwatch()
            self.setup(len(times) % self.replicas)
            times.append(clock.read())
        self.setup_times = times

    def setup_aside(self):
        """One more timed set-up, leaving the workload's state as it was."""
        saved = {k: list(v) if isinstance(v, list) else v
                 for k, v in vars(self).items()}
        clock = Stopwatch()
        self.setup(len(self.setup_times) % self.replicas)
        took = clock.read()
        vars(self).clear()
        vars(self).update(saved)
        self.setup_times.append(took)

    def needed(self, trace):
        """Units to run whatever the budget; a traced run needs one of each."""
        return max(self.min_units, 2) if trace else self.min_units

    def traced_unit(self, index, trace):
        """Units alternate untraced/traced in a traced run (first untraced),
        so one run gives both the per-layer numbers and the overhead."""
        return trace and index % 2 == 1

    def run_units(self, seconds, trace):
        """Run units until the budget is spent; returns the Unit records."""
        units = []
        start = time.perf_counter()
        ref = ReferenceClock(self.tracer)
        cheap_setup = max(w for w, _ in self.setup_times) < SETUP_BETWEEN
        while True:
            traced = self.traced_unit(len(units), trace)
            mark = self.tracer.mark()
            self.tracer.enabled = traced
            began = Stopwatch()
            try:
                unit = self.run_unit(len(units))
            except Exception as e:          # a raise counts as a failed unit
                unit = raised_unit(e, began.read())
            finally:
                self.tracer.enabled = False
            unit.traced = traced
            ref.after(unit)
            self.finish_unit(unit, mark)
            units.append(unit)
            if unit.failures:
                break
            if cheap_setup:
                self.setup_aside()
            elapsed = time.perf_counter() - start
            if (len(units) >= self.needed(trace)
                    and elapsed + unit.wall > seconds):
                break
        return units

    def finish_unit(self, unit, mark):
        failures = unit.failures or []
        if unit.traced and not failures:
            layers, calls = self.tracer.summary(mark)
            unit.layers = layers
            with self.tracer.paused():
                expected = self.expected_counts(unit, layers, calls)
            for key, want in expected.items():
                got = layers[key] if key in layers else calls[key]
                if got != want:
                    failures.append("cross-check %s: counted %r, expected %r"
                                    % (key, got, want))
        unit.failures = failures

    def expected_counts(self, unit, layers, calls):
        return {}

    def final_checks(self):
        """Checks on the state after the last unit; raise UnitFailed."""


def raised_unit(error, elapsed):
    return Unit(*elapsed, 1, failures=[
        "raised %s" % "".join(traceback.format_exception_only(
            type(error), error)).strip()])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# train_mle
# ---------------------------------------------------------------------------

class TrainMle(Workload):
    """pretrain_mle epochs, continuing, on fresh models over the desk corpus."""

    name = "train_mle"

    @property
    def min_units(self):
        return self.scale.mle_min_epochs

    def setup(self, replica):
        s = self.scale
        g = desk_grammar()
        self.vocab = g.vocabulary()
        sents = sample_grammar(g, s.val + s.mle_train, seed=self.seed,
                               vocab=self.vocab, max_len=s.profile.max_len)
        self.val, self.train = sents[:s.val], sents[s.val:]
        self.cfg = self.config()
        self.models = Models(len(self.vocab), self.cfg)
        self.opts = Optimizers(self.models, self.cfg)

    def run_unit(self, index):
        steps_before = self.opts.generator.t + self.opts.guider.t
        clock = Stopwatch()
        history = pretrain_mle(self.train, self.val, self.models, self.cfg,
                               optimizers=self.opts, start_epoch=index,
                               epochs=1)
        wall, cpu = clock.read()
        n_b = batches(len(self.train), self.cfg.batch_size)
        unit = Unit(wall, cpu, 2 * n_b, {"mle_epoch_s": (wall, "s")})
        self.steps = self.opts.generator.t + self.opts.guider.t - steps_before
        failures = []
        try:
            check_finite(history[-1], ("train_loss", "guider_loss", "val_loss"))
            self.last_val = history[-1]["val_loss"]
        except UnitFailed as e:
            failures.append(str(e))
        if index + 1 == self.min_units:
            self.digest = params_digest(self.models)
        unit.failures = failures
        return unit

    def final_checks(self):
        bound = unigram_entropy(self.val)
        self.notes["val_loss"] = self.last_val
        self.notes["unigram_entropy"] = bound
        check(self.last_val < bound,
              "validation loss %.4f not below unigram entropy %.4f"
              % (self.last_val, bound))

    def expected_counts(self, unit, layers, calls):
        n_b = batches(len(self.train), self.cfg.batch_size)
        n_val = batches(len(self.val), 64)
        return {"optim.adam_steps": 2 * n_b,
                "autodiff.backward_calls": self.steps,
                "generator.teacher_forced_log_probs": n_b + n_val,
                "trainer.guider_phase": 1, "trainer.validation_mle_loss": 1,
                "generator.sample_calls": 0, "metrics.bleu_calls": 0,
                "rewards.reward_traces": 0, "corpus.cyk_calls": 0,
                "checkpoint.save_models": 0, "checkpoint.load_models": 0}


# ---------------------------------------------------------------------------
# adversarial
# ---------------------------------------------------------------------------

def pretrained_models(workload, cfg):
    """DESK corpus and models seeded by cfg.seed, after `pretrain_epochs`
    MLE epochs."""
    s = workload.scale
    g = desk_grammar()
    vocab = g.vocabulary()
    sents = sample_grammar(g, s.val + s.pretrain_train, seed=cfg.seed,
                           vocab=vocab, max_len=s.profile.max_len)
    val, train = sents[:s.val], sents[s.val:]
    models = Models(len(vocab), cfg)
    opts = Optimizers(models, cfg)
    pretrain_mle(train, val, models, cfg, optimizers=opts)
    return g, vocab, train, val, models, opts


def pretrain_config(workload, replica):
    s = workload.scale
    return workload.config(seed=workload.replica_seed(replica),
                           mle_epochs=s.pretrain_epochs,
                           lr_generator=s.pretrain_lr, lr_guider=s.pretrain_lr)


def combined_digest(digests):
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


@dataclass
class Replica:
    """One pretrained model of a workload and what its units need of it."""
    cfg: TrainConfig
    train: list
    val: list
    models: Models = None
    opts: Optimizers = None
    pretrained_gen: list = None
    path: str = None
    digest: str = None


class Adversarial(Workload):
    """run_gmgan epochs at rl_mix=1.0 from pretrained snapshots, writing one
    checkpoint snapshot per epoch as `gmgan train` does. A unit runs one
    epoch from each replica's snapshot, always the same snapshot, so every
    unit does the same work. The policy-gradient phase has fresh optimizers
    and a small learning rate, so the policy stays near the pretrained one
    within an epoch; at 5e-4 the sampled token count of an epoch spread twice
    as much across seeds."""

    name = "adversarial"
    replicas = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.reps = [None] * self.replicas

    def setup(self, replica):
        s = self.scale
        cfg = pretrain_config(self, replica)
        _, self.vocab, train, val, models, _ = pretrained_models(self, cfg)
        cfg = replace(cfg, lr_generator=s.lr_rl, rl_epochs=1, rl_mix=1.0,
                      rollout_batch=s.rollout_batch)
        self.reps[replica] = Replica(
            cfg, train[:s.pg_train], val, models, Optimizers(models, cfg),
            [t.values.copy() for _, t in models.generator_tensors()],
            os.path.join(self.workdir, "r%d" % replica,
                         "gmgan_epoch%03d.gmg" % cfg.mle_epochs))
        os.makedirs(os.path.dirname(self.reps[replica].path), exist_ok=True)

    def run_unit(self, index):
        wall = cpu = 0.0
        self.steps = 0
        failures = []
        for rep in self.reps:
            epoch = self.run_epoch(rep)
            wall += epoch[0]
            cpu += epoch[1]
            failures.extend(epoch[2])
            if failures:
                break
        if not failures:
            self.digest = combined_digest([r.digest for r in self.reps])
        cfg = self.reps[0].cfg
        pg_steps = batches(len(self.reps[0].train), cfg.batch_size) * cfg.g_steps
        sampled = pg_steps * cfg.rollout_batch + cfg.d_steps * cfg.batch_size
        return Unit(wall, cpu,
                    self.replicas * (pg_steps + cfg.d_steps + sampled + 1),
                    {"adv_epoch_s": (wall / self.replicas, "s")},
                    failures=failures)

    def run_epoch(self, rep):
        """One epoch from `rep`'s snapshot: (wall, cpu, failures)."""
        models, opts = copy.deepcopy((rep.models, rep.opts))
        steps_before = (opts.generator.t, opts.discriminator.t)

        def snapshot(m, o, epoch):
            # looked up at call time so a traced run sees it, as in the CLI
            checkpoint.save_models(rep.path, m, self.vocab, optimizers=o)

        clock = Stopwatch()
        history = run_gmgan(rep.train, rep.val, models, rep.cfg,
                            optimizers=opts, checkpoint_fn=snapshot)
        wall, cpu = clock.read()
        self.steps += (opts.generator.t - steps_before[0]
                       + opts.discriminator.t - steps_before[1])
        with self.tracer.paused():
            try:
                check_finite(history[-1], ("pg_loss", "mean_q", "d_loss",
                                           "val_loss"))
                moved = any(not np.array_equal(a, t.values) for a, (_, t) in
                            zip(rep.pretrained_gen, models.generator_tensors()))
                check(moved, "every policy-gradient step was skipped")
                self.check_snapshot(rep.path, models, opts)
                digest = params_digest(models)
                check(rep.digest in (None, digest),
                      "adversarial epoch from one snapshot is not deterministic")
                rep.digest = digest
            except UnitFailed as e:
                return wall, cpu, [str(e)]
        return wall, cpu, []

    def check_snapshot(self, path, models, opts):
        loaded, _, loaded_opts, _ = checkpoint.load_models(path)
        check(loaded_opts is not None, "snapshot lost the optimizer state")
        for (name, a), (_, b) in zip(models.all_tensors(), loaded.all_tensors()):
            check(a.values.tobytes() == b.values.tobytes(),
                  "snapshot tensor %s does not reload bit-exactly" % name)
        for group in ("generator", "guider", "discriminator"):
            mine = dict(getattr(opts, group).state_arrays())
            for name, arr in getattr(loaded_opts, group).state_arrays():
                check(np.asarray(mine[name]).tobytes() == arr.tobytes(),
                      "snapshot optimizer %s.%s differs" % (group, name))
        check(loaded.feature_norm == models.feature_norm and loaded.pretrained,
              "snapshot metadata differs")

    def expected_counts(self, unit, layers, calls):
        cfg = self.reps[0].cfg
        pg_steps = batches(len(self.reps[0].train), cfg.batch_size) * cfg.g_steps
        rollouts = pg_steps * cfg.rollout_batch
        per_replica = {
            "generator.sample_calls": rollouts + cfg.d_steps * cfg.batch_size,
            "rewards.reward_traces": rollouts,
            "trainer.rollout_traces": pg_steps + cfg.d_steps,
            "trainer.policy_gradient_step": pg_steps,
            "discriminator.train_step": cfg.d_steps,
            "discriminator.score_batch": pg_steps + 2 * cfg.d_steps,
            "checkpoint.save_models": 1, "trainer.validation_mle_loss": 1}
        expected = {k: self.replicas * v for k, v in per_replica.items()}
        expected.update({
            "optim.adam_steps": self.steps,
            "autodiff.backward_calls": self.steps,
            "checkpoint.bytes": sum(os.path.getsize(r.path)
                                    for r in self.reps),
            "trainer.guider_phase": 0, "metrics.bleu_calls": 0,
            "corpus.cyk_calls": 0, "checkpoint.load_models": 0})
        return expected


# ---------------------------------------------------------------------------
# generate_eval
# ---------------------------------------------------------------------------

class GenerateEval(Workload):
    """`gmgan generate` from a pretrained checkpoint, then `gmgan eval` of the
    samples against the validation set with the grammar oracle. A unit runs
    the pair once on each replica's checkpoint."""

    name = "generate_eval"
    min_units = 2
    replicas = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.reps = [None] * self.replicas

    def setup(self, replica):
        cfg = pretrain_config(self, replica)
        grammar, vocab, train, val, models, opts = pretrained_models(self, cfg)
        self.vocab = vocab
        self.grammar = os.path.join(self.workdir, "grammar.json")
        rep = Replica(cfg, train, val, path=os.path.join(
            self.workdir, "r%d" % replica), digest=params_digest(models))
        os.makedirs(rep.path, exist_ok=True)
        checkpoint.save_models(self.file(rep, "mle.gmg"), models, vocab,
                               optimizers=opts)
        save_corpus(self.file(rep, "references.txt"),
                    val[:self.scale.references], vocab)
        grammar.save(self.grammar)
        self.reps[replica] = rep
        self.digest = combined_digest([r.digest for r in self.reps if r])

    @staticmethod
    def file(rep, name):
        return os.path.join(rep.path, name)

    def run_unit(self, index):
        num = self.scale.generate_num
        gen_s = eval_s = cpu = 0.0
        failures = []
        self.words, self.empty, self.bytes_read = [], 0, 0
        for rep in self.reps:
            samples = self.file(rep, "samples.txt")
            report = self.file(rep, "report.json")
            clock = Stopwatch()
            with self.tracer.span("cli.generate"):
                gen_code, _, gen_err = _run_cli(
                    ["generate", "--checkpoint", self.file(rep, "mle.gmg"),
                     "--num", str(num), "--seed", str(rep.cfg.seed),
                     "--out", samples])
            mid, _ = clock.read()
            with self.tracer.span("cli.eval"):
                eval_code, _, eval_err = _run_cli(
                    ["eval", "--samples", samples, "--references",
                     self.file(rep, "references.txt"), "--grammar",
                     self.grammar, "--out", report])
            wall, rep_cpu = clock.read()
            gen_s += mid
            eval_s += wall - mid
            cpu += rep_cpu
            with self.tracer.paused():
                try:
                    check(gen_code == 0, "gmgan generate exited %r: %s"
                          % (gen_code, gen_err.strip()))
                    check(eval_code == 0, "gmgan eval exited %r: %s"
                          % (eval_code, eval_err.strip()))
                    self.check_outputs(rep, samples, report, num)
                except UnitFailed as e:
                    failures.append(str(e))
                    break
        return Unit(gen_s + eval_s, cpu, self.replicas * (num + 2), {
            "generate_sentences_per_s": (self.replicas * num / gen_s, "1/s"),
            "eval_s": (eval_s, "s")}, failures=failures)

    def check_outputs(self, rep, samples, report_path, num):
        with open(samples, encoding="utf-8") as f:
            lines = f.read().split("\n")[:-1]
        check(len(lines) == num, "expected %d sample lines, got %d"
              % (num, len(lines)))
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        values = [report["validity"]]
        for key in ("test_bleu", "self_bleu", "f1_bleu"):
            values.extend(report[key].values())
        check(all(0.0 <= v <= 1.0 for v in values),
              "report value outside [0, 1]: %r" % (values,))
        words = [len(line.split()) for line in lines]
        empty = sum(1 for w in words if w == 0)
        check(report["n_samples"] == num - empty,
              "report counted %r samples, file has %d non-empty"
              % (report["n_samples"], num - empty))
        self.words.extend(words)
        self.empty += empty
        self.bytes_read += os.path.getsize(self.file(rep, "mle.gmg"))
        with open(samples, "rb") as f:
            self.notes["samples_sha256_" + os.path.basename(rep.path)] = (
                hashlib.sha256(f.read()).hexdigest())
        self.notes["empty_samples"] = self.empty

    def expected_counts(self, unit, layers, calls):
        num = self.replicas * self.scale.generate_num
        scored = num - self.empty
        tokens = sum(w + 1 for w in self.words)
        return {"generator.sample_calls": num,
                "generator.tokens_sampled": tokens,
                "generator.empty_samples": self.empty,
                "guider.step_calls": tokens,
                "encoder.rows_encoded": tokens + num,
                "checkpoint.load_models": self.replicas,
                "checkpoint.bytes": self.bytes_read,
                "metrics.test_bleu": 4 * self.replicas,
                "metrics.self_bleu": 3 * self.replicas,
                "metrics.bleu_calls": 7 * scored,
                "metrics.validity_rate": self.replicas,
                "corpus.cyk_calls": scored,
                "autodiff.backward_calls": 0, "optim.adam_steps": 0,
                "rewards.reward_traces": 0, "checkpoint.save_models": 0,
                "generator.teacher_forced_log_probs": 0}


# ---------------------------------------------------------------------------
# style_transfer
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


class StyleTransfer(Workload):
    """run_style_transfer joint epochs. Set-up (classifier, one reconstruction
    warm-start epoch, latent probe) runs as run_style_transfer with no joint
    epochs; the timed call repeats it untimed, and its log lines mark the
    joint-epoch boundaries. The first joint epoch also trains the probe, so
    it is run as warm-up and not counted."""

    name = "style_transfer"

    def setup(self, replica):
        s = self.scale
        g = desk_style_grammar()
        vocab = g.vocabulary()
        labelled = sample_grammar_styled(g, s.style_val + s.style_train,
                                         seed=self.seed, vocab=vocab,
                                         max_len=s.style_profile.max_len)
        self.val, self.train = labelled[:s.style_val], labelled[s.style_val:]
        self.oracle = lambda ids: style_oracle(g, ids, vocab)
        self.cfg = self.config(profile=s.style_profile, mle_epochs=1,
                               style_epochs=0, style_mode=True,
                               classifier_epochs=s.classifier_epochs,
                               lr_generator=s.style_lr)
        self.vocab = vocab
        models = Models(len(vocab), self.cfg, style_labels=2)
        run_style_transfer(self.train, self.val, models, self.cfg,
                           oracle=self.oracle)

    def run_units(self, seconds, trace):
        models = Models(len(self.vocab), self.cfg, style_labels=2)
        cfg = replace(self.cfg, style_epochs=10 ** 6)   # the log sink stops it
        n_b = batches(len(self.train), cfg.batch_size)
        units = []
        state = {"last": None, "mark": None, "start": None, "ref": None}

        def on_epoch(entry):
            now = time.perf_counter()
            epoch = state["last"].read() if state["last"] else None
            with self.tracer.paused():
                failures = []
                try:
                    check_finite(entry, ("rec_loss", "cls_loss", "entropy"))
                    for key in ("transfer_accuracy", "source_overlap"):
                        check(0.0 <= entry[key] <= 1.0,
                              "%s outside [0, 1]: %r" % (key, entry[key]))
                except (UnitFailed, KeyError) as e:
                    failures.append(str(e))
            if state["last"] is None:            # warm-up epoch ends
                self.digest = params_digest(models)
                state["start"] = now
                if failures:
                    units.append(Unit(*began.read(), 2 * n_b + len(self.val),
                                      failures=failures))
                    raise _Stop
                state["ref"] = ReferenceClock(self.tracer)
            else:
                epoch_s = epoch[0]
                unit = Unit(*epoch, 2 * n_b + len(self.val),
                            {"style_epoch_s": (epoch_s, "s")},
                            failures=failures)
                unit.traced = self.tracer.enabled
                self.tracer.enabled = False
                state["ref"].after(unit)
                self.finish_unit(unit, state["mark"])
                units.append(unit)
                if unit.failures or (len(units) >= self.needed(trace) and
                                     now - state["start"] + epoch_s > seconds):
                    raise _Stop
            state["mark"] = self.tracer.mark()
            self.tracer.enabled = self.traced_unit(len(units), trace)
            state["last"] = Stopwatch()

        sink = _LogSink(on_epoch)
        began = Stopwatch()
        try:
            run_style_transfer(self.train, self.val, models, cfg,
                               oracle=self.oracle, log=sink)
        except _Stop:
            pass
        except Exception as e:              # a raise counts as a failed unit
            units.append(raised_unit(e, began.read()))
        finally:
            self.tracer.enabled = False
        return units

    def expected_counts(self, unit, layers, calls):
        n_b = batches(len(self.train), self.cfg.batch_size)
        return {"style.soft_transfer_rollout": n_b, "style.guider_phase": 1,
                "style.evaluate_transfer": 1,
                "generator.sample_calls": len(self.val),
                "generator.teacher_forced_log_probs": n_b,
                "optim.adam_steps": 2 * n_b, "autodiff.backward_calls": 2 * n_b,
                "rewards.reward_traces": 0, "metrics.bleu_calls": 0,
                "corpus.cyk_calls": 0, "trainer.validation_mle_loss": 0,
                "checkpoint.save_models": 0, "checkpoint.load_models": 0}


class _LogSink:
    """File-like log for run_style_transfer that hands joint-epoch entries on."""

    def __init__(self, on_epoch):
        self.on_epoch = on_epoch

    def write(self, line):
        entry = json.loads(line)
        if entry.get("stage") == "style_joint":
            self.on_epoch(entry)


WORKLOADS = {w.name: w for w in (TrainMle, Adversarial, GenerateEval,
                                 StyleTransfer)}
