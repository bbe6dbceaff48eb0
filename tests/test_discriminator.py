import math

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import EOS
from gmgan.discriminator import (DiscriminatorParams, bce_loss, score_batch,
                                 train_step)
from gmgan.encoder import ModelProfile, pad_rows
from gmgan.errors import ContractError
from gmgan.optim import Adam
from helpers import check_grads, jiggle_params

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_disc(vocab_size=12, seed=0):
    return DiscriminatorParams(vocab_size, TINY, np.random.default_rng(seed))


def test_zero_params_score_half():
    params = tiny_disc()
    for _, t in params.tensors():
        t.values[:] = 0.0
    logp = score_batch([[4, 5, EOS]], params).values
    assert logp.shape == (1, 2)
    assert np.array_equal(logp, np.full((1, 2), math.log(0.5)))


def test_scores_in_open_interval():
    # [fake, real] log-probabilities: each below 0, and their exps sum to 1
    params = tiny_disc(seed=1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        logp = score_batch([list(rng.integers(4, 12, size=5)) + [EOS]],
                           params).values[0]
        assert np.all(logp < 0.0)
        assert abs(np.exp(logp).sum() - 1.0) < 1e-15


def test_saturated_logit_keeps_its_gradient():
    # a logit of about 40 rounds sigmoid to exactly 1.0; the log-probabilities
    # still give the exact softplus loss and a live gradient
    params = tiny_disc()
    params.mlp_b.values[:] = 40.0
    real, fake = [[4, 5, EOS]], [[6, 7, EOS]]
    with ad.no_grad():
        x_real, x_fake = (float(params.apply_rows(pad_rows(
            [s], TINY.pad_width)).values[0, 0]) for s in (real[0], fake[0]))
    assert min(x_real, x_fake) > 37.0
    with ad.tape():
        loss = bce_loss(real, fake, params)
        ad.backward(loss)
    expected = (np.logaddexp(0.0, -x_real) + np.logaddexp(0.0, x_fake)) / 2
    assert abs(loss.item() - expected) < 1e-12
    # d loss / d bias = (sigmoid(x_fake) - (1 - sigmoid(x_real))) / 2
    expected_grad = (1.0 / (1.0 + math.exp(-x_fake))
                     - 1.0 / (1.0 + math.exp(x_real))) / 2
    assert abs(params.mlp_b.grad[0] - expected_grad) < 1e-12


def test_constant_half_scores_give_ln2():
    params = tiny_disc()
    for _, t in params.tensors():
        t.values[:] = 0.0
    with ad.no_grad():
        loss = bce_loss([[4, EOS]], [[5, EOS]], params).item()
    assert abs(loss - math.log(2.0)) < 1e-9


def test_bce_gradient_vs_finite_differences():
    params = tiny_disc(seed=3)
    jiggle_params(params.tensors(), np.random.default_rng(30))
    real = [[4, 5, 6, EOS], [7, 8, EOS]]
    fake = [[9, 9, 9, EOS]]
    with ad.tape():
        loss = bce_loss(real, fake, params)
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return bce_loss(real, fake, params).item()

    check_grads(forward, [t for _, t in params.tensors()], tol=1e-4,
                max_coords=6, rng=np.random.default_rng(4))


def test_empty_batch_rejected():
    params = tiny_disc()
    with pytest.raises(ContractError):
        bce_loss([], [[4, EOS]], params)
    with pytest.raises(ContractError):
        bce_loss([[4, EOS]], [], params)


def test_batch_order_invariance():
    params = tiny_disc(seed=5)
    real = [[4, 5, EOS], [6, 7, EOS], [8, EOS]]
    fake = [[9, 9, EOS], [10, 11, EOS]]
    with ad.no_grad():
        a = bce_loss(real, fake, params).item()
        b = bce_loss(real[::-1], fake[::-1], params).item()
    assert abs(a - b) < 1e-12


def test_training_separates_and_saturates():
    params = tiny_disc(seed=6)
    rng = np.random.default_rng(7)
    real = [sorted(rng.integers(4, 8, size=4).tolist()) + [EOS] for _ in range(8)]
    fake = [sorted(rng.integers(8, 12, size=4).tolist()) + [EOS] for _ in range(8)]
    opt = Adam(params.tensors(), lr=0.05)
    losses = [train_step(real, fake, params, opt) for _ in range(300)]
    # loss decreases over the first 50 steps on fixed separable batches
    assert losses[49] < losses[0]
    with ad.no_grad():
        mean_real = float(np.exp(score_batch(real, params).values[:, 1]).mean())
        mean_fake = float(np.exp(score_batch(fake, params).values[:, 1]).mean())
    assert mean_real - mean_fake > 0.4
    # saturated classifier: tiny loss, near-zero gradients
    assert losses[-1] < 1e-3
    with ad.tape():
        loss = bce_loss(real, fake, params)
        ad.backward(loss)
    grad_inf = max(float(np.abs(t.grad).max()) for _, t in params.tensors()
                   if t.grad is not None)
    assert grad_inf < 1e-2
