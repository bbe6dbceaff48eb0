"""BLEU-family evaluation: test-BLEU against references, self-BLEU among
samples, the F1 combination of quality and diversity, and grammar validity."""

import copy
import json
import math
from bisect import bisect_left, bisect_right
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


class NgramTables:
    """N-gram statistics of a reference set for orders 1..k, built once so
    that each candidate's `bleu` costs O(candidate length), not O(total
    reference length).

    Per order and n-gram it keeps the largest count in any reference, the
    index of the one reference holding it (-1 when several do) and the
    largest count below it. With those, `without(i)` gives the statistics of
    every reference but the i-th (self-BLEU's leave-one-out set) without
    rebuilding anything."""

    def __init__(self, references, k):
        if not references or any(not r for r in references):
            raise ContractError("references must be non-empty")
        if k < 1:
            raise ContractError("k must be >= 1")
        self.k = k
        self.left_out = None
        self.sizes = [len(r) for r in references]
        self.lengths = sorted(self.sizes)
        self.tops = [{} for _ in range(k)]  # gram -> [top, holder, second]
        for i, ref in enumerate(references):
            for n, top in enumerate(self.tops, 1):
                for gram, cnt in ngrams(ref, n).items():
                    entry = top.get(gram)
                    if entry is None:
                        top[gram] = [cnt, i, 0]
                    elif cnt > entry[0]:
                        top[gram] = [cnt, i, entry[0]]
                    elif cnt == entry[0]:
                        entry[1] = -1
                    elif cnt > entry[2]:
                        entry[2] = cnt

    def without(self, i):
        """The same tables with reference i left out."""
        view = copy.copy(self)
        view.left_out = i
        return view

    def max_count(self, n, gram):
        """Largest count of `gram` (an n-gram) in any remaining reference."""
        entry = self.tops[n - 1].get(gram)
        if entry is None:
            return 0
        top, holder, second = entry
        return second if holder == self.left_out else top

    def closest_length(self, c):
        """Remaining reference length closest to c; a tie goes to the shorter
        one, as min((|r - c|, r)) picks."""
        lengths = self.lengths
        removed = None if self.left_out is None else self.sizes[self.left_out]
        lo, hi = bisect_left(lengths, c), bisect_right(lengths, c)
        if hi - lo > (removed == c):
            return c
        below, above = lo - 1, hi
        if removed is not None and removed < c and lengths[below] == removed:
            below -= 1
        elif removed is not None and removed > c and lengths[above] == removed:
            above += 1
        if below < 0 or (above < len(lengths)
                         and lengths[above] - c < c - lengths[below]):
            return lengths[above]
        return lengths[below]


def bleu(candidate, tables, k):
    """Geometric mean of clipped n-gram precisions (n = 1..k) with a brevity
    penalty against the closest-length reference; zero precisions are smoothed
    to a tiny epsilon so degenerate candidates stay comparable.

    `tables` are the `NgramTables` of the references for orders up to at
    least k, or a leave-one-out view of them from `NgramTables.without`."""
    if not candidate:
        raise ContractError("candidate must be non-empty")
    if not 1 <= k <= tables.k:
        raise ContractError("k must be >= 1 and within the tables' orders")
    log_sum = 0.0
    orders = 0
    for n in range(1, k + 1):
        cand = ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            continue  # candidate too short for this order: vacuous
        matches = sum(min(cnt, tables.max_count(n, gram))
                      for gram, cnt in cand.items())
        p = matches / total if matches else SMOOTH_EPS
        log_sum += math.log(p)
        orders += 1
    score = math.exp(log_sum / orders)
    c = len(candidate)
    r = tables.closest_length(c)
    if c < r:
        score *= math.exp(1.0 - r / c)
    return score


def test_bleu(samples, tables, k):
    """Mean BLEU of each sample against the whole reference set, given as
    the `NgramTables` of the references without their EOS for orders up to
    at least k."""
    if not samples:
        raise ContractError("samples must be non-empty")
    return sum(bleu(strip_eos(s), tables, k) for s in samples) / len(samples)


def self_bleu(samples, k, tables):
    """Mean leave-one-out BLEU of each sample against the other samples;
    `tables` are the `NgramTables` of these samples without their EOS for
    orders up to at least k."""
    if len(samples) < 2:
        raise ContractError("self-BLEU needs at least two samples")
    stripped = [strip_eos(s) for s in samples]
    total = 0.0
    for i, s in enumerate(stripped):
        total += bleu(s, tables.without(i), k)
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
    """Every order's scores from one reference table and one sample table,
    each built for the highest order asked of it."""
    ref_tables = NgramTables([strip_eos(r) for r in references], max(test_ks))
    tests = {k: test_bleu(samples, ref_tables, k) for k in test_ks}
    sample_tables = NgramTables([strip_eos(s) for s in samples], max(self_ks))
    selfs = {k: self_bleu(samples, k, sample_tables) for k in self_ks}
    f1s = {k: f1_bleu(tests[k], selfs[k]) for k in self_ks if k in tests}
    return BleuReport(tests, selfs, f1s, len(samples), len(references))


def validity_rate(samples, grammar, vocab):
    """Fraction of samples the grammar's membership oracle accepts."""
    if not samples:
        raise ContractError("no samples")
    hits = sum(grammar_validity(grammar, s, vocab) for s in samples)
    return hits / len(samples)
