import json
import math
from collections import Counter

import numpy as np
import pytest

import gmgan.metrics
from gmgan.corpus import EOS, desk_grammar, sample_grammar
from gmgan.errors import ContractError
from gmgan.metrics import (SMOOTH_EPS, BleuReport, NgramTables, bleu,
                           bleu_report, f1_bleu, ngrams, self_bleu, strip_eos,
                           validity_rate)
from gmgan.metrics import test_bleu as mean_test_bleu

# appendix comparison table: (test-BLEU 2..4, self-BLEU 2..4, F1-BLEU 2..4)
PAPER_F1_TABLE = [
    ((0.902, 0.706, 0.470), (0.787, 0.646, 0.485), (0.345, 0.472, 0.491)),
    ((0.920, 0.723, 0.489), (0.812, 0.589, 0.360), (0.312, 0.524, 0.554)),
    ((0.923, 0.727, 0.491), (0.814, 0.576, 0.328), (0.310, 0.537, 0.567)),
]


def words(text):
    return text.split()


# the scorers take reference tables; these build them as a caller does
def ref_bleu(candidate, references, k):
    return bleu(candidate, NgramTables(references, k), k)


def mean_ref_bleu(samples, references, k):
    return mean_test_bleu(
        samples, NgramTables([strip_eos(r) for r in references], k), k)


def loo_bleu(samples, k):
    return self_bleu(samples, k,
                     NgramTables([strip_eos(s) for s in samples], k))


# ---------------------------------------------------------------------------
# bleu
# ---------------------------------------------------------------------------

def test_perfect_match_scores_one():
    s = words("a small cat sees the dog")
    assert ref_bleu(s, [s], 4) == pytest.approx(1.0, abs=1e-12)


def test_clipped_unigram_precision():
    score = ref_bleu(words("the the the"), [words("the cat sat")], 1)
    assert score == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_brevity_penalty_hand_case():
    score = ref_bleu(words("a b c d"), [words("a b c d e")], 2)
    assert score == pytest.approx(0.7788007830714049, abs=1e-6)


def test_brevity_uses_closest_reference():
    cand = words("a b c d")
    refs = [words("a b c d e f g h"), words("a b c d e")]
    assert ref_bleu(cand, refs, 1) == pytest.approx(math.exp(1 - 5 / 4),
                                                    abs=1e-12)
    # a same-length reference removes the penalty entirely
    refs.append(words("a b c x"))
    assert ref_bleu(cand, refs, 1) == pytest.approx(1.0, abs=1e-12)


def test_zero_overlap_is_smoothed_not_zero_division():
    score = ref_bleu(words("x y z"), [words("a b c")], 2)
    assert 0.0 < score < 1e-4


def test_empty_inputs_rejected():
    with pytest.raises(ContractError):
        ref_bleu([], [words("a")], 2)
    with pytest.raises(ContractError):
        ref_bleu(words("a"), [], 2)
    with pytest.raises(ContractError):
        ref_bleu(words("a"), [[]], 2)
    with pytest.raises(ContractError):
        mean_test_bleu([], NgramTables([words("a")], 2), 2)


def test_reference_order_invariance():
    cand = words("the cat sees a dog")
    refs = [words("the cat sees the bird"), words("a dog runs"),
            words("the dog sees a cat")]
    assert ref_bleu(cand, refs, 3) == ref_bleu(cand, refs[::-1], 3)


def test_candidate_in_references_saturates():
    rng = np.random.default_rng(0)
    vocab = list("abcdefgh")
    for _ in range(20):
        cand = [vocab[i] for i in rng.integers(0, 8, size=rng.integers(2, 9))]
        refs = [[vocab[i] for i in rng.integers(0, 8, size=6)], cand]
        assert ref_bleu(cand, refs, 3) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def test_test_bleu_copy_case_and_delegation():
    refs = [words("the cat sees a dog"), words("a bird likes the barn")]
    assert mean_ref_bleu(refs, refs, 3) == pytest.approx(1.0, abs=1e-12)
    single = [words("the cat sees a dog")]
    assert mean_ref_bleu(single, refs, 3) == pytest.approx(
        ref_bleu(single[0], refs, 3), abs=1e-15)


def test_test_bleu_decomposition():
    samples = [words("the cat sees a dog"), words("a dog sees the cat"),
               words("the bird paints a barn")]
    refs = [words("the cat sees a dog"), words("some birds paint the barn")]
    got = mean_ref_bleu(samples, refs, 2)
    expected = float(np.mean([ref_bleu(s, refs, 2) for s in samples]))
    assert got == pytest.approx(expected, abs=1e-15)


def test_self_bleu_identical_samples():
    s = words("the cat sees a dog")
    assert loo_bleu([s, list(s), list(s)], 3) == pytest.approx(1.0, abs=1e-12)


def test_self_bleu_disjoint_vocabularies():
    samples = [words("a b c"), words("d e f"), words("g h i")]
    assert loo_bleu(samples, 2) < 1e-4


def test_self_bleu_matches_hand_leave_one_out():
    samples = [words("a b c d"), words("a b x y"), words("p q r s")]
    got = loo_bleu(samples, 2)
    expected = float(np.mean([
        ref_bleu(samples[0], samples[1:], 2),
        ref_bleu(samples[1], [samples[0], samples[2]], 2),
        ref_bleu(samples[2], samples[:2], 2)]))
    assert got == pytest.approx(expected, abs=1e-15)


def test_self_bleu_needs_two_samples():
    with pytest.raises(ContractError):
        loo_bleu([words("a b")], 2)


def test_eos_is_stripped_in_aggregates():
    a, b = [4, 5, 6, EOS], [4, 5, 6]
    assert mean_ref_bleu([a], [b], 2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# F1
# ---------------------------------------------------------------------------

def test_f1_hand_cases():
    assert f1_bleu(0.902, 0.787) == pytest.approx(0.345, abs=0.001)
    assert f1_bleu(0.723, 0.589) == pytest.approx(0.524, abs=0.001)


def test_f1_fixed_point_and_zero():
    assert f1_bleu(0.4, 0.6) == pytest.approx(0.4, abs=1e-12)
    assert f1_bleu(0.0, 1.0) == 0.0


def test_f1_reproduces_all_table_cells():
    for tests, selfs, f1s in PAPER_F1_TABLE:
        for t, s, expected in zip(tests, selfs, f1s):
            assert f1_bleu(t, s) == pytest.approx(expected, abs=0.002)


def test_f1_domain_checked():
    with pytest.raises(ContractError):
        f1_bleu(1.2, 0.5)


# ---------------------------------------------------------------------------
# report and validity
# ---------------------------------------------------------------------------

def test_report_round_trip_and_table():
    samples = [words("the cat sees a dog"), words("a dog sees the cat"),
               words("some birds like the barn")]
    refs = [words("the cat sees a dog"), words("the birds like a barn")]
    report = bleu_report(samples, refs)
    raw = json.loads(report.to_json())
    assert raw == {"test_bleu": {str(k): v for k, v in report.test_bleu.items()},
                   "self_bleu": {str(k): v for k, v in report.self_bleu.items()},
                   "f1_bleu": {str(k): v for k, v in report.f1_bleu.items()},
                   "n_samples": 3, "n_references": 2}
    table = report.table()
    assert "test-BLEU-2" in table and "F1-BLEU-4" in table
    assert all(0.0 <= v <= 1.0 for d in (report.test_bleu, report.self_bleu,
                                         report.f1_bleu) for v in d.values())


def test_sample_order_invariance_of_aggregates():
    samples = [words("the cat sees a dog"), words("a dog sees the cat"),
               words("some birds like the barn")]
    refs = [words("the cat sees a dog")]
    assert mean_ref_bleu(samples, refs, 2) == pytest.approx(
        mean_ref_bleu(samples[::-1], refs, 2), abs=1e-15)
    assert loo_bleu(samples, 2) == pytest.approx(
        loo_bleu(samples[::-1], 2), abs=1e-15)


def test_validity_rate_counts():
    g = desk_grammar()
    vocab = g.vocabulary()
    good = sample_grammar(g, 10, seed=1, vocab=vocab)
    rate = validity_rate(good, g, vocab)
    assert rate == 1.0
    bad = [vocab.encode(["garden", "the", "sees"], 25) for _ in range(10)]
    assert validity_rate(bad, g, vocab) == 0.0
    assert validity_rate(good[:5] + bad[:5], g, vocab) == 0.5


def test_random_token_strings_are_invalid():
    g = desk_grammar()
    vocab = g.vocabulary()
    rng = np.random.default_rng(2)
    n_words = len(vocab) - 4
    samples = []
    for _ in range(500):
        ids = [int(rng.integers(4, 4 + n_words)) for _ in range(8)]
        samples.append(ids + [EOS])
    assert validity_rate(samples, g, vocab) == 0.0


# ---------------------------------------------------------------------------
# exactness against the quadratic definition
# ---------------------------------------------------------------------------

def oracle_bleu(candidate, references, k):
    """BLEU by definition: the reference maxima are rebuilt per candidate."""
    log_sum = 0.0
    orders = 0
    for n in range(1, k + 1):
        cand = ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            continue
        best = Counter()
        for ref in references:
            for gram, cnt in ngrams(ref, n).items():
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


def oracle_test_bleu(samples, references, k):
    refs = [strip_eos(r) for r in references]
    total = sum(oracle_bleu(strip_eos(s), refs, k) for s in samples)
    return total / len(samples)


def oracle_self_bleu(samples, k):
    stripped = [strip_eos(s) for s in samples]
    total = 0.0
    for i, s in enumerate(stripped):
        total += oracle_bleu(s, stripped[:i] + stripped[i + 1:], k)
    return total / len(samples)


def random_corpus(rng, size):
    """Short sentences over a 4-word vocabulary, so n-grams repeat and length
    ties are common; some sentences are copies of earlier ones."""
    out = []
    for _ in range(size):
        if out and rng.random() < 0.2:
            out.append(list(out[int(rng.integers(len(out)))]))
        else:
            size = rng.integers(1, 7)
            out.append([int(t) for t in rng.integers(4, 8, size=size)])
    return out


def has_length_tie(candidate, references):
    c = len(candidate)
    lengths = {len(r) for r in references}
    return c not in lengths and any(2 * c - r in lengths for r in lengths)


def test_bleu_equals_quadratic_oracle_on_random_corpora():
    rng = np.random.default_rng(2024)
    seen = Counter()
    for _ in range(240):
        samples = random_corpus(rng, int(rng.integers(2, 10)))
        refs = random_corpus(rng, int(rng.integers(1, 10)))
        for k in range(1, 6):
            tables = NgramTables(refs, k)
            for s in samples:
                assert bleu(s, tables, k) == oracle_bleu(s, refs, k)
                seen["tie"] += has_length_tie(s, refs)
                seen["one_token"] += len(s) == 1
                seen["k_beyond_length"] += k > len(s)
            assert mean_ref_bleu(samples, refs, k) == oracle_test_bleu(
                samples, refs, k)
            assert loo_bleu(samples, k) == oracle_self_bleu(samples, k)
        seen["duplicates"] += len({tuple(s) for s in samples}) < len(samples)
        seen["loo_tie"] += any(has_length_tie(s, samples[:i] + samples[i + 1:])
                               for i, s in enumerate(samples))
    assert all(seen[key] > 0 for key in ("tie", "one_token", "k_beyond_length",
                                         "duplicates", "loo_tie")), seen


def test_leave_one_out_tables_match_rebuilt_tables():
    refs = [[4, 5, 4, 5], [4, 5], [6, 4, 5, 4, 5], [4, 5, 4, 5], [7]]
    tables = NgramTables(refs, 3)
    for i in range(len(refs)):
        rest = NgramTables(refs[:i] + refs[i + 1:], 3)
        view = tables.without(i)
        for n in range(1, 4):
            grams = set().union(*(ngrams(r, n) for r in refs))
            for gram in grams:
                assert view.max_count(n, gram) == rest.max_count(n, gram)
        for c in range(1, 8):
            assert view.closest_length(c) == rest.closest_length(c)


def test_report_json_equals_oracle_report_on_desk_samples():
    g = desk_grammar()
    vocab = g.vocabulary()
    samples = sample_grammar(g, 40, seed=3, vocab=vocab)
    refs = sample_grammar(g, 30, seed=4, vocab=vocab)
    tests = {k: oracle_test_bleu(samples, refs, k) for k in (2, 3, 4, 5)}
    selfs = {k: oracle_self_bleu(samples, k) for k in (2, 3, 4)}
    f1s = {k: f1_bleu(tests[k], selfs[k]) for k in (2, 3, 4)}
    expected = BleuReport(tests, selfs, f1s, len(samples), len(refs))
    assert bleu_report(samples, refs).to_json() == expected.to_json()


def test_tables_must_cover_the_requested_order():
    tables = NgramTables([words("a b c")], 2)
    with pytest.raises(ContractError):
        bleu(words("a b c"), tables, 3)
    with pytest.raises(ContractError):
        NgramTables([words("a b c")], 0)


def test_reference_tables_are_built_once_per_call(monkeypatch):
    calls = Counter()

    def counting_ngrams(tokens, n):
        calls["ngrams"] += 1
        calls["ref_ngrams"] += bool(tokens) and tokens[0] >= 100
        return ngrams(tokens, n)

    monkeypatch.setattr(gmgan.metrics, "ngrams", counting_ngrams)
    rng = np.random.default_rng(5)
    samples, refs = random_corpus(rng, 40), random_corpus(rng, 30)
    for k in (1, 4):
        calls.clear()
        mean_ref_bleu(samples, refs, k)
        assert calls["ngrams"] <= k * (len(samples) + len(refs))
        calls.clear()
        loo_bleu(samples, k)
        assert calls["ngrams"] <= 3 * k * len(samples)
    # a report builds one reference table and one sample table, each for
    # its highest order; the references here use words the samples lack
    refs = [[t + 100 for t in r] for r in refs]
    test_ks, self_ks = (2, 3, 4, 5), (2, 3, 4)
    calls.clear()
    report = bleu_report(samples, refs, test_ks, self_ks)
    assert calls["ref_ngrams"] <= max(test_ks) * len(refs)
    # the sample table, then each sample scored once per order asked
    assert calls["ngrams"] - calls["ref_ngrams"] <= (
        max(self_ks) + sum(test_ks) + sum(self_ks)) * len(samples)
    monkeypatch.undo()
    assert report.test_bleu == {k: mean_ref_bleu(samples, refs, k)
                                for k in test_ks}
    assert report.self_bleu == {k: loo_bleu(samples, k) for k in self_ks}
