"""Feature-matching rewards, discounted returns, and composite Q-values.

The per-step reward averages, over a c-step window, the cosine match between
the feature actually reached and the feature the guider predicted c steps
earlier, plus the match between their movement directions. The discounted
return of those rewards, scaled by the discriminator's final reward, is the
Q-value the policy gradient uses.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import constant
from .errors import ContractError
from .guider import dual_cosines


@dataclass
class RewardTrace:
    """Per-step reward record for one generated sequence."""
    r_g: np.ndarray       # feature-matching reward per step, length T
    r_f: float            # final (adversarial) reward in [0, 1]
    returns: np.ndarray   # discounted cumulative rewards
    q: np.ndarray         # returns scaled by the final reward
    gamma: float
    c: int


def feature_matching_reward(trace, c):
    """Per-step rewards r_g[1..T] from a trace's features and predictions.

    For step t the prediction made c steps earlier (the one that consumed
    f_{t-c}) is compared against f_t directly and against the c feature-change
    directions f_t - f_{t-i}. Early steps truncate the window to available
    history, anchored at f_0, and use the earliest recorded prediction.
    The guider's `dual_cosines` scores every (t, i) pair in one call.
    """
    if c < 1:
        raise ContractError("lookahead c must be >= 1")
    feats, preds = trace.features, trace.predictions
    if not preds or len(feats) != len(preds) + 1:
        raise ContractError("trace lacks aligned features and predictions")
    steps = np.arange(1, len(preds) + 1)
    # one row per (t, i) pair with i <= min(t, c): row = t - 1, lag = i - 1
    row, lag = np.nonzero(np.arange(c) < steps[:, None])
    feats, t = np.asarray(feats), row + 1
    direct, direction = dual_cosines(
        feats[t], constant(np.asarray(preds)[np.maximum(t - c, 0)]),
        feats[t - lag - 1])
    total = np.bincount(row, direct.values + direction.values, len(steps))
    return total / (2.0 * np.minimum(steps, c))


def discounted_cumulative(r_g, gamma, convention="relative"):
    """Backward-recursive discounted return of the per-step rewards.

    relative: R[t] = sum_i gamma^(i-t) r[i] (the standard return).
    absolute: the same scaled by gamma^t, i.e. discounting from the sequence
    start rather than from t.
    """
    if not 0.0 <= gamma < 1.0:
        raise ContractError("gamma must lie in [0, 1)")
    r_g = np.asarray(r_g, dtype=np.float64)
    out = np.zeros_like(r_g)
    acc = 0.0
    for t in range(len(r_g) - 1, -1, -1):
        acc = r_g[t] + gamma * acc
        out[t] = acc
    if convention == "absolute":
        out = out * gamma ** (np.arange(len(r_g)) + 1)
    elif convention != "relative":
        raise ContractError("unknown discount convention %r" % (convention,))
    return out


def q_values(returns, r_f):
    """Q[t] = R[t] * r_f: the discriminator scales the whole return."""
    if not 0.0 <= r_f <= 1.0:
        raise ContractError("final reward must lie in [0, 1]")
    return np.asarray(returns, dtype=np.float64) * r_f


def compute_reward_trace(trace, r_f, c, gamma, convention="relative",
                         mode="both"):
    """Full reward pipeline for one generation trace.

    mode selects the ablation: "both" (Q = R * r_f), "final-only"
    (Q = r_f at every step), or "stepwise-only" (Q = R, discriminator ignored).
    """
    r_g = feature_matching_reward(trace, c)
    returns = discounted_cumulative(r_g, gamma, convention)
    if mode == "both":
        q = q_values(returns, r_f)
    elif mode == "final-only":
        q = np.full_like(returns, r_f)
    elif mode == "stepwise-only":
        q = returns.copy()
    else:
        raise ContractError("unknown reward mode %r" % (mode,))
    return RewardTrace(r_g, float(r_f), returns, q, gamma, c)


class RewardBaseline:
    """Exponential-moving-average baseline for variance reduction.

    Advantages subtract the pre-update baseline; the baseline then absorbs
    the batch-mean Q. Disabled entirely when the config turns it off.
    """

    def __init__(self, momentum=0.99):
        self.momentum = momentum
        self.value = 0.0

    def advantages(self, q_arrays):
        advs = [q - self.value for q in q_arrays]
        flat = np.concatenate([np.atleast_1d(q) for q in q_arrays])
        self.value = (self.momentum * self.value
                      + (1.0 - self.momentum) * float(flat.mean()))
        return advs
