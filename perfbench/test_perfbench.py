"""Self-test of the benchmark, fast enough for the tier-1 suite.

Every workload runs at the TINY profile with a few sentences, once untraced
and once traced. The test checks the result line against BENCHMARK.json
(every metric present, with its unit, correctness checks passed) and the
bypass pattern: which layers each workload must and must not reach.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer counts that must read zero / non-zero on each workload
BYPASS = {
    "train_mle": {
        "zero": ["generator.sample_calls", "metrics.bleu_calls",
                 "rewards.reward_traces", "corpus.cyk_calls",
                 "checkpoint.bytes"],
        "nonzero": ["autodiff.backward_calls", "optim.adam_steps",
                    "autodiff.lstm_cell_calls", "autodiff.conv1d_calls",
                    "encoder.rows_encoded", "guider.step_calls"]},
    "adversarial": {
        "zero": ["metrics.bleu_calls", "corpus.cyk_calls"],
        "nonzero": ["rewards.reward_traces", "generator.sample_calls",
                    "generator.tokens_sampled", "autodiff.backward_calls",
                    "optim.adam_steps", "checkpoint.bytes"]},
    "generate_eval": {
        "zero": ["autodiff.backward_calls", "optim.adam_steps",
                 "rewards.reward_traces"],
        "nonzero": ["generator.sample_calls", "generator.tokens_sampled",
                    "metrics.bleu_calls", "corpus.cyk_calls",
                    "checkpoint.bytes", "autodiff.lstm_cell_calls"]},
    "style_transfer": {
        "zero": ["rewards.reward_traces", "metrics.bleu_calls",
                 "corpus.cyk_calls", "checkpoint.bytes"],
        "nonzero": ["autodiff.backward_calls", "optim.adam_steps",
                    "generator.sample_calls", "autodiff.conv1d_calls"]},
}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(BYPASS)


@pytest.mark.parametrize("workload", sorted(BYPASS))
def test_end_to_end_metrics(workload):
    metrics = result_of(run_bench(workload, 0))
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", sorted(BYPASS))
def test_per_layer_metrics_and_bypass(workload):
    metrics = result_of(run_bench(workload, 1))
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for name in BYPASS[workload]["zero"]:
        assert metrics[name]["value"] == 0, name
    for name in BYPASS[workload]["nonzero"]:
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_mle", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
