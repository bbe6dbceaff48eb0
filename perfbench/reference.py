"""A fixed reference job, timed between units to gauge the core's speed.

The job does nothing of gmgan's. It mixes the two kinds of work gmgan's
hot paths do: small dense numpy layers driven from Python (the LSTM/conv
tape), and n-gram counting in pure Python (BLEU). Its inputs are fixed, so
it does the same work in every run of every workload; only the speed of
the core changes what it costs.
"""

import time
from collections import Counter

import numpy as np

_RNG = np.random.default_rng(12345)
_X = _RNG.standard_normal((32, 128))
_W = _RNG.standard_normal((128, 512)) * 0.05
_SENTS = [list(_RNG.integers(0, 40, size=n)) for n in
          _RNG.integers(3, 16, size=120)]


def _layers(steps):
    h = _X
    for _ in range(steps):
        g = h @ _W
        i, f, o, c = np.split(g, 4, axis=1)
        h = np.tanh(c) / (1.0 + np.exp(-o)) + 0.1 * np.tanh(i * f)
    return float(h.sum())


def _ngrams(rounds):
    total = 0
    for _ in range(rounds):
        for n in range(1, 5):
            best = Counter()
            for s in _SENTS:
                for gram, cnt in Counter(tuple(s[i:i + n]) for i in
                                         range(len(s) - n + 1)).items():
                    if cnt > best[gram]:
                        best[gram] = cnt
            total += len(best)
    return total


def reference_cpu():
    """Process CPU seconds the reference job took just now."""
    start = time.process_time()
    _layers(400)
    _ngrams(12)
    return time.process_time() - start
