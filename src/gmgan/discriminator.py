"""CNN discriminator over complete sentences: the adversarial final reward.

Same conv-stack shape as the encoder but with its own embedding table and a
single logit x. A sentence scores the log-probabilities [fake, real] =
log_softmax([0, x]) = [log(1 - sigmoid(x)), log(sigmoid(x))], which stay
exact where the sigmoid itself rounds to 0 or 1.
"""

import numpy as np

from . import autodiff as ad
from .encoder import TokenCNN, pad_rows
from .errors import ContractError


class DiscriminatorParams(TokenCNN):
    def __init__(self, vocab_size, profile, rng):
        super().__init__(vocab_size, profile, 1, rng, "discriminator",
                         final_relu=False)


def score_batch(sentences, params):
    """(B, 2) log-probabilities of [fake, real] for each sentence."""
    rows = pad_rows([list(s) for s in sentences], params.profile.pad_width)
    logit = params.apply_rows(rows)
    return ad.log_softmax(ad.concat([ad.constant(np.zeros(logit.shape)),
                                     logit], axis=1))


def bce_loss(real_batch, fake_batch, params):
    """Binary cross-entropy with real->1, fake->0, averaged over all examples."""
    if not real_batch or not fake_batch:
        raise ContractError("both batches must be non-empty")
    logp = ad.concat([score_batch(real_batch, params),
                      score_batch(fake_batch, params)])
    return ad.cross_entropy(logp, [1] * len(real_batch)
                            + [0] * len(fake_batch))


def train_step(real_batch, fake_batch, params, optimizer):
    """One Adam step on the discriminator; returns the scalar loss value."""
    return optimizer.minimize(lambda: bce_loss(real_batch, fake_batch, params))
