"""BLEU-family evaluation: test-BLEU against references, self-BLEU among
samples, the F1 combination of quality and diversity, and grammar validity."""

import json
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import EOS, grammar_validity
from .errors import ContractError

SMOOTH_EPS = 1e-9


def ngrams(tokens, n):
    """Counter of the n-grams (as tuples) of a token list."""
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def strip_eos(tokens):
    """Copy of a token list without its trailing EOS, if it has one."""
    toks = list(tokens)
    if toks and toks[-1] == EOS:
        toks.pop()
    return toks


def bleu(candidate, references, k):
    """Geometric mean of clipped n-gram precisions (n = 1..k) with a brevity
    penalty against the closest-length reference; zero precisions are smoothed
    to a tiny epsilon so degenerate candidates stay comparable."""
    if not candidate or not references or any(not r for r in references):
        raise ContractError("candidate and references must be non-empty")
    if k < 1:
        raise ContractError("k must be >= 1")
    log_sum = 0.0
    orders = 0
    for n in range(1, k + 1):
        cand = ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            continue  # candidate too short for this order: vacuous
        best = Counter()
        for ref in references:
            ref_counts = ngrams(ref, n)
            for gram, cnt in ref_counts.items():
                if cnt > best[gram]:
                    best[gram] = cnt
        matches = sum(min(cnt, best[gram]) for gram, cnt in cand.items())
        p = matches / total if matches else SMOOTH_EPS
        log_sum += math.log(p)
        orders += 1
    score = math.exp(log_sum / orders)
    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    if c < r:
        score *= math.exp(1.0 - r / c)
    return score


def test_bleu(samples, references, k):
    """Mean BLEU of each sample against the whole reference set."""
    if not samples or not references:
        raise ContractError("samples and references must be non-empty")
    refs = [strip_eos(r) for r in references]
    return sum(bleu(strip_eos(s), refs, k) for s in samples) / len(samples)


def self_bleu(samples, k):
    """Mean leave-one-out BLEU of each sample against the other samples."""
    if len(samples) < 2:
        raise ContractError("self-BLEU needs at least two samples")
    stripped = [strip_eos(s) for s in samples]
    total = 0.0
    for i, s in enumerate(stripped):
        total += bleu(s, stripped[:i] + stripped[i + 1:], k)
    return total / len(samples)


def f1_bleu(test, self_score):
    """Harmonic mean of quality (test-BLEU) and diversity (1 - self-BLEU)."""
    if not (0.0 <= test <= 1.0 and 0.0 <= self_score <= 1.0):
        raise ContractError("scores must lie in [0, 1]")
    diversity = 1.0 - self_score
    if test + diversity == 0.0:
        return 0.0
    return 2.0 * test * diversity / (test + diversity)


@dataclass
class BleuReport:
    test_bleu: dict
    self_bleu: dict
    f1_bleu: dict
    n_samples: int
    n_references: int

    def to_json(self):
        return json.dumps({
            "test_bleu": {str(k): v for k, v in self.test_bleu.items()},
            "self_bleu": {str(k): v for k, v in self.self_bleu.items()},
            "f1_bleu": {str(k): v for k, v in self.f1_bleu.items()},
            "n_samples": self.n_samples,
            "n_references": self.n_references}, indent=1)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        return cls({int(k): v for k, v in raw["test_bleu"].items()},
                   {int(k): v for k, v in raw["self_bleu"].items()},
                   {int(k): v for k, v in raw["f1_bleu"].items()},
                   raw["n_samples"], raw["n_references"])

    def table(self):
        lines = ["%-14s %8s" % ("metric", "score")]
        for k, v in self.test_bleu.items():
            lines.append("%-14s %8.3f" % ("test-BLEU-%d" % k, v))
        for k, v in self.self_bleu.items():
            lines.append("%-14s %8.3f" % ("self-BLEU-%d" % k, v))
        for k, v in self.f1_bleu.items():
            lines.append("%-14s %8.3f" % ("F1-BLEU-%d" % k, v))
        return "\n".join(lines)


def bleu_report(samples, references, test_ks=(2, 3, 4, 5), self_ks=(2, 3, 4)):
    tests = {k: test_bleu(samples, references, k) for k in test_ks}
    selfs = {k: self_bleu(samples, k) for k in self_ks}
    f1s = {k: f1_bleu(tests[k], selfs[k]) for k in self_ks if k in tests}
    return BleuReport(tests, selfs, f1s, len(samples), len(references))


def validity_rate(samples, grammar, vocab):
    """Fraction of samples the grammar's membership oracle accepts."""
    if not samples:
        raise ContractError("no samples")
    hits = sum(grammar_validity(grammar, s, vocab) for s in samples)
    return hits / len(samples)
