import json

import numpy as np
import pytest

from gmgan.corpus import (EOS, PAD, UNK, GrammarSpec, Vocabulary,
                          desk_grammar, desk_style_grammar, grammar_validity,
                          load_corpus, sample_grammar, sample_grammar_styled,
                          save_corpus, style_oracle, unigram_entropy)
from gmgan.errors import ContractError


def test_load_builds_vocab_and_encodes(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b a\n", encoding="utf-8")
    sents, vocab = load_corpus(p, "build")
    assert len(vocab) == 4 + 2
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert sents == [[a, b, a, EOS]]


def test_unknown_word_maps_to_unk(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b\n", encoding="utf-8")
    _, vocab = load_corpus(p, "build")
    q = tmp_path / "d.txt"
    q.write_text("a zzz\n", encoding="utf-8")
    sents, _ = load_corpus(q, vocab)
    assert sents == [[vocab.id_of("a"), UNK, EOS]]


def test_empty_corpus_rejected(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ContractError):
        load_corpus(p, "build")


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "missing.txt", "build")


def test_truncation_to_max_len(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(" ".join("w%d" % i for i in range(40)) + "\n", encoding="utf-8")
    sents, _ = load_corpus(p, "build", max_len=10)
    assert len(sents[0]) == 10
    assert sents[0][-1] == EOS


def test_round_trip_thousand_grammar_samples(tmp_path):
    g = desk_grammar()
    vocab = g.vocabulary()
    sents = sample_grammar(g, 1000, seed=5, vocab=vocab)
    p = tmp_path / "c.txt"
    save_corpus(p, sents, vocab)
    reloaded, _ = load_corpus(p, vocab)
    assert reloaded == sents
    # idempotent: loading again yields an equal corpus
    again, _ = load_corpus(p, vocab)
    assert again == reloaded


def test_encode_decode_bijection_on_samples():
    g = desk_grammar()
    vocab = g.vocabulary()
    rng = np.random.default_rng(6)
    for _ in range(200):
        words = g.sample_words(rng, 24)
        assert vocab.decode(vocab.encode(words, 25)) == words


def test_vocab_json_round_trip(tmp_path):
    # the paths.vocab format that README documents
    vocab = desk_grammar().vocabulary()
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"tokens": vocab.id_to_token,
                             "specials": {"<pad>": 0, "<bos>": 1, "<eos>": 2,
                                          "<unk>": 3}}), encoding="utf-8")
    loaded = Vocabulary.load(p)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def test_single_rule_grammar_is_deterministic():
    g = GrammarSpec([("S", ("a", "b"), 1.0)])
    vocab = g.vocabulary()
    for ids in sample_grammar(g, 20, seed=0, vocab=vocab):
        assert vocab.decode(ids) == ["a", "b"]


def test_equiprobable_rules_frequency():
    g = GrammarSpec([("S", ("a",), 1.0), ("S", ("b",), 1.0)])
    vocab = g.vocabulary()
    n = 10000
    sents = sample_grammar(g, n, seed=1, vocab=vocab)
    count_a = sum(vocab.decode(s) == ["a"] for s in sents)
    # 3 sigma binomial bound around n/2
    sigma = (n * 0.25) ** 0.5
    assert abs(count_a - n / 2) < 3 * sigma


def test_same_seed_same_samples():
    g = desk_grammar()
    assert sample_grammar(g, 50, seed=9) == sample_grammar(g, 50, seed=9)


def test_unbounded_grammar_errors():
    g = GrammarSpec([("S", ("a", "S"), 1.0)])
    with pytest.raises(ContractError):
        sample_grammar(g, 1, seed=0, max_len=25)


def test_grammar_accepts_own_samples():
    g = desk_grammar()
    vocab = g.vocabulary()
    for ids in sample_grammar(g, 1000, seed=2, vocab=vocab):
        assert grammar_validity(g, ids, vocab)


def test_reversed_sentence_is_invalid():
    g = desk_grammar()
    vocab = g.vocabulary()
    ids = sample_grammar(g, 1, seed=3, vocab=vocab)[0]
    words = vocab.decode(ids)
    reordered = list(reversed(words))
    assert not grammar_validity(g, vocab.encode(reordered, 25), vocab)


def test_empty_sentence_invalid():
    g = desk_grammar()
    assert not grammar_validity(g, [EOS], g.vocabulary())


def test_desk_grammar_shape():
    g = desk_grammar()
    vocab = g.vocabulary()
    assert 50 <= len(vocab) - 4 <= 70
    lengths = [len(ids) - 1 for ids in sample_grammar(g, 500, seed=4, vocab=vocab)]
    assert min(lengths) >= 4
    assert max(lengths) <= 12


def test_style_sampling_and_oracle():
    g = desk_style_grammar()
    vocab = g.vocabulary()
    labelled = sample_grammar_styled(g, 300, seed=7, vocab=vocab)
    labels = {0: 0, 1: 0}
    for ids, label in labelled:
        assert grammar_validity(g, ids, vocab)
        assert style_oracle(g, ids, vocab) == label
        labels[label] += 1
    assert labels[0] > 50 and labels[1] > 50


def test_style_lexicons_must_be_disjoint():
    with pytest.raises(ContractError):
        GrammarSpec([("S", ("STYLE",), 1.0)],
                    style_lexicons={0: ["x"], 1: ["x", "y"]})


def test_grammar_json_round_trip(tmp_path):
    g = desk_style_grammar()
    p = tmp_path / "g.json"
    g.save(p)
    loaded = GrammarSpec.load(p)
    assert loaded.to_json() == g.to_json()
    vocab = g.vocabulary()
    assert loaded.vocabulary().id_to_token == vocab.id_to_token


def test_unigram_entropy_value():
    # two sentences over {a, b}: counts a:3, b:1, EOS:2 -> H computed by hand
    a, b = 4, 5
    sents = [[a, a, EOS], [a, b, EOS]]
    p = np.array([3, 1, 2]) / 6.0
    expected = float(-(p * np.log(p)).sum())
    assert abs(unigram_entropy(sents) - expected) < 1e-12


def test_validate_sentence_contract():
    # Vocabulary.encode is the only way text becomes a sentence, and it
    # guarantees the contract: one trailing EOS, no PAD, at most max_len ids,
    # even for words spelled like the specials and for overlong input
    vocab = Vocabulary(["a", "b"])
    for words in (["a", "b"], ["a", "<eos>", "b"], ["<pad>", "a"],
                  ["a"] * 20, []):
        ids = vocab.encode(words, 10)
        assert ids[-1] == EOS and EOS not in ids[:-1]
        assert PAD not in ids
        assert len(ids) <= 10
