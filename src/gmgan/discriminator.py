"""CNN discriminator over complete sentences: the adversarial final reward.

Same conv-stack shape as the encoder but with its own embedding table and a
single sigmoid output, so scores live strictly in (0, 1).
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
    """Probability-of-real for each sentence; (B,) tensor in (0, 1)."""
    rows = pad_rows([list(s) for s in sentences], params.profile.pad_width)
    raw = params.apply_rows(rows)
    return ad.sigmoid(ad.reshape(raw, (rows.shape[0],)))


_CLAMP = 1e-12  # keeps log() finite when sigmoid rounds to exactly 0 or 1


def _clamped(s):
    return ad.add(ad.scale(s, 1.0 - 2.0 * _CLAMP),
                  ad.constant(np.full(s.shape, _CLAMP)))


def bce_loss(real_batch, fake_batch, params):
    """Binary cross-entropy with real->1, fake->0, averaged over all examples."""
    if not real_batch or not fake_batch:
        raise ContractError("both batches must be non-empty")
    s_real = _clamped(score_batch(real_batch, params))
    s_fake = _clamped(score_batch(fake_batch, params))
    ones = ad.constant(np.ones(len(fake_batch)))
    real_term = ad.tsum(ad.log(s_real))
    fake_term = ad.tsum(ad.log(ad.sub(ones, s_fake)))
    total = len(real_batch) + len(fake_batch)
    return ad.scale(ad.add(real_term, fake_term), -1.0 / total)


def train_step(real_batch, fake_batch, params, optimizer):
    """One Adam step on the discriminator; returns the scalar loss value."""
    with ad.tape():
        loss = bce_loss(real_batch, fake_batch, params)
        ad.backward(loss)
    optimizer.step()
    optimizer.zero_grad()
    return loss.item()
