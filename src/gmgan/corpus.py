"""Vocabulary, corpus I/O, and the synthetic weighted-grammar desk corpus.

The grammar doubles as a membership oracle: generated text can be checked
for validity mechanically, which substitutes for human evaluation at desk
scale.
"""

import json
import math
from collections import Counter
from contextlib import contextmanager

import numpy as np

from .errors import ContractError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = {"<pad>": PAD, "<bos>": BOS, "<eos>": EOS, "<unk>": UNK}
NUM_SPECIALS = 4

# nonterminal reserved for label-dependent word choice in style grammars
STYLE_SLOT = "STYLE"


@contextmanager
def _reading(path):
    """Report a file that is not UTF-8 text, not JSON, or JSON without the
    keys or types a loader reads, as a ContractError that names it."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise ContractError("malformed file %s: %s%s" % (
            path, "missing key " if isinstance(e, KeyError) else "", e)) from e


def read_token_lines(path):
    """The whitespace-split tokens of each non-blank line of a UTF-8 file."""
    with _reading(path), open(path, encoding="utf-8") as f:
        return [line.split() for line in f if line.strip()]


class Vocabulary:
    """Bidirectional token<->id map with reserved specials in ids 0..3."""

    def __init__(self, tokens):
        self.id_to_token = list(tokens)
        self.token_to_id = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in SPECIAL_TOKENS:
                raise ContractError("token %r collides with a special" % tok)
            if tok in self.token_to_id:
                raise ContractError("duplicate token %r" % tok)
            self.token_to_id[tok] = i + NUM_SPECIALS

    def __len__(self):
        return len(self.id_to_token) + NUM_SPECIALS

    def id_of(self, token):
        return self.token_to_id.get(token, UNK)

    def token_of(self, idx):
        if idx == UNK:
            return "<unk>"
        return self.id_to_token[idx - NUM_SPECIALS]

    def encode(self, tokens, max_len):
        """Token strings to ids, truncated to max_len-1 and EOS-terminated."""
        ids = [self.id_of(t) for t in tokens[: max_len - 1]]
        ids.append(EOS)
        return ids

    def decode(self, ids):
        """Ids back to token strings; EOS and PAD are dropped."""
        out = []
        for i in ids:
            if i == EOS:
                break
            if i in (PAD, BOS):
                continue
            out.append(self.token_of(i))
        return out

    @classmethod
    def load(cls, path):
        with _reading(path), open(path, encoding="utf-8") as f:
            payload = json.load(f)
            if payload.get("specials") != SPECIAL_TOKENS:
                raise ContractError("vocabulary file has unexpected specials")
            return cls(payload["tokens"])


def build_vocabulary(token_lines):
    """A vocabulary of every word in the lines, sorted."""
    return Vocabulary(sorted({t for toks in token_lines for t in toks}))


def load_corpus(path, vocab="build", max_len=25):
    """Read a one-sentence-per-line UTF-8 file into encoded sentences.

    vocab may be an existing Vocabulary (unknown words map to UNK) or the
    string "build" to construct one that keeps every word of the file.
    Returns (sentences, vocabulary).
    """
    lines = read_token_lines(path)
    if not lines:
        raise ContractError("corpus %r is empty" % (path,))
    if vocab == "build":
        vocab = build_vocabulary(lines)
    sentences = [vocab.encode(toks, max_len) for toks in lines]
    return sentences, vocab


def save_corpus(path, sentences, vocab):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ids in sentences:
            f.write(" ".join(vocab.decode(ids)))
            f.write("\n")


def unigram_entropy(sentences):
    """Entropy (nats) of the empirical token distribution, EOS included.

    This is the validation cross-entropy of the best possible unigram model,
    so any sequence model worth keeping must score below it.
    """
    counts = Counter()
    for ids in sentences:
        counts.update(ids)
    total = sum(counts.values())
    return -sum(c / total * math.log(c / total) for c in counts.values())


# ---------------------------------------------------------------------------
# weighted context-free grammar
# ---------------------------------------------------------------------------

class GrammarSpec:
    """Weighted CFG with optional two-class style lexicons.

    Rules are (lhs, rhs tuple, weight). A symbol is a terminal iff it never
    appears as a lhs. In style grammars the STYLE nonterminal expands to a
    word from the active label's lexicon during sampling; for membership it
    accepts any word from either lexicon.
    """

    def __init__(self, rules, start="S", style_lexicons=None):
        if not rules:
            raise ContractError("grammar has no rules")
        self.rules = []
        for lhs, rhs, weight in rules:
            rhs = tuple(rhs)
            if not rhs:
                raise ContractError("empty production for %r" % lhs)
            if weight <= 0:
                raise ContractError("non-positive weight on %r" % lhs)
            self.rules.append((lhs, rhs, float(weight)))
        self.start = start
        self.style_lexicons = None
        if style_lexicons is not None:
            self.style_lexicons = {int(k): list(v) for k, v in style_lexicons.items()}
            if sorted(self.style_lexicons) != [0, 1]:
                raise ContractError("style lexicons must be labelled 0 and 1")
            if set(self.style_lexicons[0]) & set(self.style_lexicons[1]):
                raise ContractError("style lexicons must be disjoint")
        self._by_lhs = {}
        for lhs, rhs, w in self.rules:
            self._by_lhs.setdefault(lhs, []).append((rhs, w))
        if self.start not in self._by_lhs:
            raise ContractError("start symbol %r has no production" % start)
        # per-lhs cumulative probabilities for fast deterministic sampling
        self._choices = {}
        for lhs, options in self._by_lhs.items():
            cum = np.cumsum([w for _, w in options])
            cum /= cum[-1]  # last entry exactly 1.0 so searchsorted stays in range
            self._choices[lhs] = ([r for r, _ in options], cum)
        self._cnf = None

    def terminals(self):
        words = set()
        for _, rhs, _ in self.rules:
            for sym in rhs:
                if sym not in self._by_lhs and sym != STYLE_SLOT:
                    words.add(sym)
        if self.style_lexicons:
            for lex in self.style_lexicons.values():
                words.update(lex)
        return sorted(words)

    def vocabulary(self):
        return Vocabulary(self.terminals())

    # -- serialization ------------------------------------------------------

    def to_json(self):
        payload = {"start": self.start,
                   "rules": [{"lhs": l, "rhs": list(r), "weight": w}
                             for l, r, w in self.rules]}
        if self.style_lexicons is not None:
            payload["style_lexicons"] = {str(k): v
                                         for k, v in self.style_lexicons.items()}
        return payload

    @classmethod
    def from_json(cls, payload):
        rules = [(r["lhs"], r["rhs"], r.get("weight", 1.0))
                 for r in payload["rules"]]
        return cls(rules, start=payload.get("start", "S"),
                   style_lexicons=payload.get("style_lexicons"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=1)
            f.write("\n")

    @classmethod
    def load(cls, path):
        with _reading(path), open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))

    # -- sampling -----------------------------------------------------------

    def _try_sample(self, rng, max_tokens, label):
        """Leftmost expansion; None when the token budget is exceeded."""
        stack = [self.start]
        out = []
        steps = 0
        while stack:
            steps += 1
            if steps > 10000 or len(out) > max_tokens:
                return None
            sym = stack.pop()
            if sym == STYLE_SLOT:
                if self.style_lexicons is None or label is None:
                    raise ContractError("grammar uses STYLE, which needs style "
                                        "lexicons and a style label (--stage "
                                        "style)")
                lex = self.style_lexicons[label]
                out.append(lex[int(rng.integers(len(lex)))])
            elif sym in self._choices:
                rhs_list, cum = self._choices[sym]
                rhs = rhs_list[int(np.searchsorted(cum, rng.random(), side="right"))]
                stack.extend(reversed(rhs))
            else:
                out.append(sym)
        return out if len(out) <= max_tokens else None

    def sample_words(self, rng, max_tokens, label=None):
        for _ in range(100):
            words = self._try_sample(rng, max_tokens, label)
            if words is not None:
                return words
        raise ContractError(
            "grammar failed to produce a sentence within %d tokens "
            "after 100 attempts" % max_tokens)


def sample_grammar(spec, n, seed, vocab=None, max_len=25):
    """Draw n i.i.d. encoded sentences; deterministic under seed."""
    if n < 1:
        raise ContractError("need n >= 1")
    rng = np.random.default_rng(seed)
    vocab = vocab or spec.vocabulary()
    out = []
    for _ in range(n):
        words = spec.sample_words(rng, max_len - 1)
        out.append(vocab.encode(words, max_len))
    return out


def sample_grammar_styled(spec, n, seed, vocab=None, max_len=25):
    """Like sample_grammar but returns (sentence, label) with label in {0,1}."""
    if spec.style_lexicons is None:
        raise ContractError("grammar has no style lexicons")
    if n < 1:
        raise ContractError("need n >= 1")
    rng = np.random.default_rng(seed)
    vocab = vocab or spec.vocabulary()
    out = []
    for _ in range(n):
        label = int(rng.integers(2))
        words = spec.sample_words(rng, max_len - 1, label=label)
        out.append((vocab.encode(words, max_len), label))
    return out


def style_oracle(spec, ids, vocab):
    """Label a sentence by lexicon occupancy: 0, 1, or None on a tie/absence."""
    if spec.style_lexicons is None:
        raise ContractError("grammar has no style lexicons")
    words = vocab.decode(ids)
    hits = [sum(w in set(spec.style_lexicons[lab]) for w in words) for lab in (0, 1)]
    if hits[0] == hits[1]:
        return None
    return 0 if hits[0] > hits[1] else 1


# ---------------------------------------------------------------------------
# CYK membership
# ---------------------------------------------------------------------------

def _cnf(spec):
    """Binarised unit-free rule set: (terminal_map, binary_map, start)."""
    if spec._cnf is not None:
        return spec._cnf
    rules = [(l, tuple(r)) for l, r, _ in spec.rules]
    if spec.style_lexicons is not None:
        for lex in spec.style_lexicons.values():
            rules.extend((STYLE_SLOT, (w,)) for w in lex)
    lhs_set = {l for l, _ in rules}

    # TERM: terminals inside long productions get wrapper nonterminals
    def wrap(word):
        return "_T:" + word

    termed = []
    wrappers = set()
    for l, r in rules:
        if len(r) == 1:
            termed.append((l, r))
            continue
        new_rhs = tuple(s if s in lhs_set else wrap(s) for s in r)
        wrappers.update(s for s in new_rhs if s.startswith("_T:"))
        termed.append((l, new_rhs))
    termed.extend((w, (w[3:],)) for w in sorted(wrappers))

    # BIN: binarise productions longer than 2
    binned = []
    fresh = 0
    for l, r in termed:
        while len(r) > 2:
            fresh += 1
            mid = "_B:%d" % fresh
            binned.append((l, (r[0], mid)))
            l, r = mid, r[1:]
        binned.append((l, r))

    # UNIT: closure over single-nonterminal productions
    all_lhs = {l for l, _ in binned}
    unit_children = {l: set() for l in all_lhs}
    for l, r in binned:
        if len(r) == 1 and r[0] in all_lhs:
            unit_children[l].add(r[0])
    closure = {}
    for l in all_lhs:
        seen = {l}
        stack = [l]
        while stack:
            cur = stack.pop()
            for child in unit_children.get(cur, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        closure[l] = seen

    terminal_map = {}   # word -> set of lhs deriving it
    binary_map = {}     # (B, C) -> set of lhs
    for l, r in binned:
        sources = [src for src in all_lhs if l in closure[src]]
        if len(r) == 1 and r[0] not in all_lhs:
            for src in sources:
                terminal_map.setdefault(r[0], set()).add(src)
        elif len(r) == 2:
            for src in sources:
                binary_map.setdefault(r, set()).add(src)
    spec._cnf = (terminal_map, binary_map, spec.start)
    return spec._cnf


def grammar_validity(spec, ids, vocab):
    """True iff the sentence (EOS stripped) is derivable from the grammar."""
    words = vocab.decode(ids)
    if not words:
        return False
    terminal_map, binary_map, start = _cnf(spec)
    n = len(words)
    table = [[set() for _ in range(n + 1)] for _ in range(n)]
    for i, w in enumerate(words):
        table[i][i + 1] = set(terminal_map.get(w, ()))
        if not table[i][i + 1] and w not in terminal_map:
            return False
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[i][i + span]
            for k in range(i + 1, i + span):
                left, right = table[i][k], table[k][i + span]
                if not left or not right:
                    continue
                for b in left:
                    for c in right:
                        hit = binary_map.get((b, c))
                        if hit:
                            cell.update(hit)
    return start in table[0][n]


# ---------------------------------------------------------------------------
# desk grammars
# ---------------------------------------------------------------------------

_NOUNS = [("cat", "cats"), ("dog", "dogs"), ("bird", "birds"), ("chef", "chefs"),
          ("farmer", "farmers"), ("robot", "robots"), ("pupil", "pupils"),
          ("teacher", "teachers"), ("pilot", "pilots"), ("horse", "horses")]
_VERBS = [("sees", "see"), ("likes", "like"), ("chases", "chase"),
          ("feeds", "feed"), ("follows", "follow"), ("paints", "paint"),
          ("greets", "greet")]
_ADJECTIVES = ["small", "hungry", "clever", "old", "young", "quiet", "brave",
               "shiny"]
_PLACES = ["garden", "kitchen", "market", "barn", "library", "harbor"]
_ADVERBS = ["quickly", "slowly", "carefully"]

_POSITIVE = ["lovely", "friendly", "bright", "cheerful", "gentle", "charming"]
_NEGATIVE = ["dreadful", "rude", "gloomy", "nasty", "grim", "awful"]


def _svo_rules(subject_nbar_sg, subject_nbar_pl):
    rules = [
        ("S", ("NP_SG", "VP_SG"), 1.0),
        ("S", ("NP_PL", "VP_PL"), 1.0),
        ("NP_SG", ("DET_SG", subject_nbar_sg), 1.0),
        ("NP_PL", ("DET_PL", subject_nbar_pl), 1.0),
        ("VP_SG", ("V_SG", "NP_OBJ"), 2.0),
        ("VP_SG", ("V_SG", "NP_OBJ", "PP"), 1.0),
        ("VP_SG", ("V_SG", "NP_OBJ", "ADV"), 1.0),
        ("VP_PL", ("V_PL", "NP_OBJ"), 2.0),
        ("VP_PL", ("V_PL", "NP_OBJ", "PP"), 1.0),
        ("VP_PL", ("V_PL", "NP_OBJ", "ADV"), 1.0),
        ("NP_OBJ", ("DET_SG", "NBAR_SG"), 2.0),
        ("NP_OBJ", ("DET_PL", "NBAR_PL"), 1.0),
        ("NP_OBJ", ("NBAR_PL",), 1.0),
        ("NBAR_SG", ("N_SG",), 2.0),
        ("NBAR_SG", ("ADJ", "N_SG"), 1.0),
        ("NBAR_PL", ("N_PL",), 2.0),
        ("NBAR_PL", ("ADJ", "N_PL"), 1.0),
        ("PP", ("P", "the", "PLACE"), 1.0),
        ("DET_SG", ("the",), 2.0),
        ("DET_SG", ("every",), 1.0),
        ("DET_PL", ("the",), 2.0),
        ("DET_PL", ("some",), 1.0),
        ("P", ("in",), 1.0),
        ("P", ("near",), 1.0),
    ]
    rules.extend(("N_SG", (sg,), 1.0) for sg, _ in _NOUNS)
    rules.extend(("N_PL", (pl,), 1.0) for _, pl in _NOUNS)
    rules.extend(("V_SG", (sg,), 1.0) for sg, _ in _VERBS)
    rules.extend(("V_PL", (pl,), 1.0) for _, pl in _VERBS)
    rules.extend(("ADJ", (a,), 1.0) for a in _ADJECTIVES)
    rules.extend(("PLACE", (p,), 1.0) for p in _PLACES)
    rules.extend(("ADV", (a,), 1.0) for a in _ADVERBS)
    return rules


def desk_grammar():
    """Subject-verb-object grammar with number agreement, ~60 words, len 4-12."""
    return GrammarSpec(_svo_rules("NBAR_SG", "NBAR_PL"))


def desk_style_grammar():
    """Desk grammar whose subject carries a mandatory style adjective."""
    rules = _svo_rules("SBAR_SG", "SBAR_PL")
    rules.append(("SBAR_SG", (STYLE_SLOT, "N_SG"), 1.0))
    rules.append(("SBAR_PL", (STYLE_SLOT, "N_PL"), 1.0))
    return GrammarSpec(rules, style_lexicons={0: _POSITIVE, 1: _NEGATIVE})
