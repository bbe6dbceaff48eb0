"""Spans and counters for the benchmark's traced runs.

The tracer wraps public functions of the gmgan modules from outside: it
replaces every module-level name that is bound to the original function (so
`from .generator import sample_sequence` in trainer.py is wrapped as well as
gmgan.generator.sample_sequence) and restores them on exit. Nothing under
src/ changes. Each wrapper records a span (name, start, end, parent span,
operation id) and, for some layers, a count of the work done. Spans stay in
memory until the run ends.
"""

import functools
import gzip
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from gmgan.corpus import EOS

# Span name -> (module, attribute) of the function it wraps. Two private
# phase functions are wrapped because the phases they run have no public
# entry point of their own; a rename makes install() fail loudly.
TARGETS = {
    "autodiff.backward": ("gmgan.autodiff", "backward"),
    "autodiff.lstm_cell": ("gmgan.autodiff", "lstm_cell"),
    "autodiff.conv1d": ("gmgan.autodiff", "conv1d"),
    "encoder.encode_batch": ("gmgan.encoder", "encode_batch"),
    "guider.guider_step": ("gmgan.guider", "guider_step"),
    "guider.guider_loss_batch": ("gmgan.guider", "guider_loss_batch"),
    "generator.sample_sequence": ("gmgan.generator", "sample_sequence"),
    "generator.teacher_forced_log_probs": ("gmgan.generator",
                                           "teacher_forced_log_probs"),
    "rewards.compute_reward_trace": ("gmgan.rewards", "compute_reward_trace"),
    "discriminator.score_batch": ("gmgan.discriminator", "score_batch"),
    "discriminator.train_step": ("gmgan.discriminator", "train_step"),
    "optim.Adam.step": ("gmgan.optim", "Adam.step"),
    "trainer.rollout_traces": ("gmgan.trainer", "rollout_traces"),
    "trainer.policy_gradient_step": ("gmgan.trainer", "policy_gradient_step"),
    "trainer.guider_phase": ("gmgan.trainer", "_guider_phase"),
    "trainer.validation_mle_loss": ("gmgan.trainer", "validation_mle_loss"),
    "style.soft_transfer_rollout": ("gmgan.style", "soft_transfer_rollout"),
    "style.guider_phase": ("gmgan.style", "_style_guider_phase"),
    "style.evaluate_transfer": ("gmgan.style", "evaluate_transfer"),
    "metrics.bleu": ("gmgan.metrics", "bleu"),
    "metrics.test_bleu": ("gmgan.metrics", "test_bleu"),
    "metrics.self_bleu": ("gmgan.metrics", "self_bleu"),
    "metrics.validity_rate": ("gmgan.metrics", "validity_rate"),
    "corpus.grammar_validity": ("gmgan.corpus", "grammar_validity"),
    "checkpoint.save_models": ("gmgan.checkpoint", "save_models"),
    "checkpoint.load_models": ("gmgan.checkpoint", "load_models"),
}

# A span of one of these closes an operation: spans of one training step
# (forward, backward, Adam step), of one generated sentence or of one CLI
# command share an id.
OP_CLOSERS = {"optim.Adam.step", "generator.sample_sequence", "cli.generate",
              "cli.eval"}

# Per-layer metric -> span name whose inclusive time it sums.
TIMED = {
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.lstm_cell_s": "autodiff.lstm_cell",
    "autodiff.conv1d_s": "autodiff.conv1d",
    "encoder.encode_batch_s": "encoder.encode_batch",
    "guider.step_s": "guider.guider_step",
    "guider.loss_batch_s": "guider.guider_loss_batch",
    "generator.sample_s": "generator.sample_sequence",
    "generator.teacher_forced_s": "generator.teacher_forced_log_probs",
    "rewards.reward_trace_s": "rewards.compute_reward_trace",
    "discriminator.score_s": "discriminator.score_batch",
    "discriminator.train_step_s": "discriminator.train_step",
    "optim.adam_step_s": "optim.Adam.step",
    "trainer.rollout_s": "trainer.rollout_traces",
    "trainer.pg_step_s": "trainer.policy_gradient_step",
    "trainer.guider_phase_s": "trainer.guider_phase",
    "trainer.validation_s": "trainer.validation_mle_loss",
    "style.soft_rollout_s": "style.soft_transfer_rollout",
    "style.guider_phase_s": "style.guider_phase",
    "style.evaluate_transfer_s": "style.evaluate_transfer",
    "metrics.test_bleu_s": "metrics.test_bleu",
    "metrics.self_bleu_s": "metrics.self_bleu",
    "metrics.validity_s": "metrics.validity_rate",
    "corpus.cyk_s": "corpus.grammar_validity",
    "checkpoint.save_s": "checkpoint.save_models",
    "checkpoint.load_s": "checkpoint.load_models",
}

# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "autodiff.backward_calls": "autodiff.backward",
    "autodiff.lstm_cell_calls": "autodiff.lstm_cell",
    "autodiff.conv1d_calls": "autodiff.conv1d",
    "guider.step_calls": "guider.guider_step",
    "generator.sample_calls": "generator.sample_sequence",
    "rewards.reward_traces": "rewards.compute_reward_trace",
    "optim.adam_steps": "optim.Adam.step",
    "metrics.bleu_calls": "metrics.bleu",
    "corpus.cyk_calls": "corpus.grammar_validity",
}

# Counters filled by the wrappers' hooks, reported as they are.
COUNTED = ("encoder.rows_encoded", "generator.tokens_sampled",
           "generator.empty_samples", "checkpoint.bytes")

UNITS = {name: "s" for name in TIMED}
UNITS.update({name: "count" for name in list(CALLS) + list(COUNTED)})
UNITS.update({"autodiff.tape_nodes": "count",
              "autodiff.grad_node_ratio": "ratio",
              "generator.eos_ratio": "ratio",
              "trainer.pg_skipped_ratio": "ratio",
              "trace.overhead": "ratio", "trace.spans": "count"})
PER_LAYER = tuple(UNITS)


class Tracer:
    """In-memory spans and counters; records only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.tape_sizes = []
        self.originals = []      # (owner, attribute, original) to restore

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[0] in OP_CLOSERS:
            self.op += 1

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def paused(self):
        """Run checks without recording them as workload work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every TARGETS function at each name that binds it."""
        import gmgan.cli  # noqa: F401  (imports every gmgan module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gmgan" or n.startswith("gmgan.")) and m is not None]
        for name, (mod_name, attr) in TARGETS.items():
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__.get(meth)
                if original is None:
                    raise RuntimeError("trace target %s.%s is gone"
                                       % (mod_name, attr))
                self.originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise RuntimeError("trace target %s.%s is gone"
                                   % (mod_name, attr))
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self.originals):
            setattr(owner, key, original)
        self.originals = []

    # -- per-unit summaries --------------------------------------------------
    def mark(self):
        """Position to summarise from: (span count, counters, tape sizes)."""
        return len(self.spans), Counter(self.counts), len(self.tape_sizes)

    def summary(self, mark):
        """(per-layer metrics, calls per span name) since mark."""
        first, counts0, tapes0 = mark
        spans = self.spans[first:]
        totals, calls = Counter(), Counter()
        for name, start, end, _, _ in spans:
            totals[name] += end - start
            calls[name] += 1
        counts = Counter(self.counts)
        counts.subtract(counts0)
        out = {metric: totals[span] for metric, span in TIMED.items()}
        out.update({metric: calls[span] for metric, span in CALLS.items()})
        out.update({metric: counts[metric] for metric in COUNTED})
        tapes = self.tape_sizes[tapes0:]
        out["autodiff.tape_nodes"] = statistics.median(tapes) if tapes else 0
        out["autodiff.grad_node_ratio"] = _ratio(counts["tape.grad_nodes"],
                                                 counts["tape.nodes"])
        out["generator.eos_ratio"] = _ratio(counts["generator.eos_ended"],
                                            calls["generator.sample_sequence"])
        out["trainer.pg_skipped_ratio"] = _ratio(
            counts["trainer.pg_skipped"], calls["trainer.policy_gradient_step"])
        out["trace.spans"] = len(spans)
        return out, calls

    def self_times(self):
        """Span name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + end - start,
                           own + end - start - child[i])
        return table

    def write(self, path, header):
        """Write the header and every span as JSON lines (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7),
                                    parent, op]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _on_backward(tracer, args, result):
    nodes = args[0]._tape.nodes
    tracer.tape_sizes.append(len(nodes))
    tracer.counts["tape.nodes"] += len(nodes)
    tracer.counts["tape.grad_nodes"] += sum(1 for out, _ in nodes
                                            if out.grad is not None)


def _on_encode_batch(tracer, args, result):
    tracer.counts["encoder.rows_encoded"] += args[0].shape[0]


def _on_sample(tracer, args, result):
    tokens = result.tokens
    tracer.counts["generator.tokens_sampled"] += len(tokens)
    if tokens and tokens[-1] == EOS:
        tracer.counts["generator.eos_ended"] += 1
    if tokens == [EOS]:
        tracer.counts["generator.empty_samples"] += 1


def _on_pg_step(tracer, args, result):
    if result.get("skipped"):
        tracer.counts["trainer.pg_skipped"] += 1


def _on_checkpoint(tracer, args, result):
    tracer.counts["checkpoint.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "autodiff.backward": _on_backward,
    "encoder.encode_batch": _on_encode_batch,
    "generator.sample_sequence": _on_sample,
    "trainer.policy_gradient_step": _on_pg_step,
    "checkpoint.save_models": _on_checkpoint,
    "checkpoint.load_models": _on_checkpoint,
}
