import math

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.checkpoint import load_models, save_models
from gmgan.corpus import desk_grammar
from gmgan.encoder import ModelProfile
from gmgan.optim import Adam
from gmgan.trainer import Models, Optimizers, TrainConfig


def test_adam_matches_hand_recurrence_on_scalar():
    p = ad.Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    grads = [0.5, -0.3]
    m = v = 0.0
    x = 1.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert abs(p.values[0] - x) < 1e-12


def test_missing_gradient_is_zero_update_from_fresh_state():
    p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    before = p.values.copy()
    opt = Adam([("p", p)], lr=0.1)
    opt.step()
    assert np.array_equal(p.values, before)


def test_frozen_rows_never_move():
    p = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, frozen_rows={"p": [0]})
    for _ in range(5):
        p.grad = np.ones((3, 2))
        opt.step()
    assert np.array_equal(p.values[0], np.zeros(2))
    assert np.all(p.values[1:] != 0.0)


def test_state_arrays_round_trip(tmp_path):
    # what state_arrays gives is saved, and a load reads it back into the
    # live moments and the step counter
    vocab = desk_grammar().vocabulary()
    profile = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)
    config = TrainConfig(seed=1, profile=profile, max_len=12, c=2)
    models = Models(len(vocab), config)
    opts = Optimizers(models, config)
    rng = np.random.default_rng(0)
    for _, t in models.generator_tensors():
        t.grad = rng.normal(size=t.values.shape)
    opts.generator.step()
    save_models(tmp_path / "m.gmg", models, vocab, optimizers=opts)
    _, _, loaded, _ = load_models(tmp_path / "m.gmg")
    for group in ("generator", "guider", "discriminator"):
        mine, theirs = getattr(opts, group), getattr(loaded, group)
        assert theirs.t == mine.t
        assert ([(n, a.tobytes()) for n, a in theirs.state_arrays()]
                == [(n, a.tobytes()) for n, a in mine.state_arrays()])


def test_minimize_steps_and_clears_its_group():
    p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt, by_hand = Adam([("p", p)], lr=0.1), Adam([("p", q)], lr=0.1)
    loss = opt.minimize(lambda: ad.tsum(ad.mul(p, p)))
    q.grad = 2.0 * np.array([1.0, -2.0])
    by_hand.step()
    assert loss == 5.0 and opt.t == 1 and p.grad is None
    assert np.array_equal(p.values, q.values)


def test_minimize_refuses_a_non_finite_loss_before_any_update():
    p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    opt.minimize(lambda: ad.tsum(ad.mul(p, p)))
    before = [a.copy() for a in (p.values, opt.m["p"], opt.v["p"])]
    with pytest.raises(FloatingPointError):
        opt.minimize(lambda: ad.scale(ad.tsum(p), math.inf))
    assert opt.t == 1 and p.grad is None
    for old, new in zip(before, (p.values, opt.m["p"], opt.v["p"])):
        assert np.array_equal(old, new)
