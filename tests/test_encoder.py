import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan import encoder as enc_mod
from gmgan.corpus import BOS, PAD, Vocabulary
from gmgan.encoder import (EncoderParams, ModelProfile, draw_initial_noise,
                           encode, encode_batch, get_profile,
                           mean_feature_norm, pad_rows)
from gmgan.errors import ContractError, DimensionError
from gmgan.generator import (GeneratorParams, sample_sequence,
                             teacher_force_trace)
from gmgan.guider import GuiderParams
from helpers import check_grads, jiggle_params

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)


def tiny_params(vocab_size=12, seed=0):
    return EncoderParams(vocab_size, TINY, np.random.default_rng(seed))


def test_paper_profile_feature_width():
    prof = get_profile("paper")
    params = EncoderParams(10, prof, np.random.default_rng(0))
    for n in (1, 10, 25):
        feat = encode([4 + (i % 6) for i in range(n)], params)
        assert feat.shape == (600,)
        assert np.all(feat.values >= 0.0)


def test_feature_is_nonnegative_and_deterministic():
    params = tiny_params()
    f1 = encode([4, 5, 6], params)
    f2 = encode([4, 5, 6], params)
    assert np.array_equal(f1.values, f2.values)
    assert np.all(f1.values >= 0.0)


def test_pad_region_is_inert():
    # encoding a prefix equals encoding the same row built from a longer
    # sentence with the tail explicitly reset to PAD
    params = tiny_params()
    full = pad_rows([[BOS, 4, 5, 6, 7, 8]], TINY.pad_width)
    cut = full.copy()
    cut[:, 3:] = PAD
    direct = encode([BOS, 4, 5], params)
    via_reset = encode_batch(cut, params)
    assert np.array_equal(direct.values, via_reset.values.reshape(-1))
    assert np.array_equal(params.embedding.values[PAD], np.zeros(TINY.embed_dim))


def test_empty_prefix_rejected():
    with pytest.raises(ContractError):
        encode([], tiny_params())


def test_overlong_prefix_rejected():
    with pytest.raises(DimensionError):
        encode(list(range(4, 4 + TINY.pad_width + 1)), tiny_params())


def test_prefix_sensitivity():
    rng = np.random.default_rng(1)
    for case in range(100):
        params = tiny_params(seed=case)
        base = [BOS] + list(rng.integers(4, 12, size=rng.integers(1, 8)))
        extended = base + [int(rng.integers(4, 12))]
        d = np.linalg.norm(encode(base, params).values
                           - encode(extended, params).values)
        assert d > 0.0


def test_encoder_gradient_vs_finite_differences():
    params = tiny_params()
    jiggle_params(params.tensors(), np.random.default_rng(20))
    prefix = [BOS, 4, 5, 6]
    w = np.random.default_rng(2).normal(size=TINY.feature_dim)

    with ad.tape():
        loss = ad.tsum(ad.mul(encode(prefix, params), ad.constant(w)))
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return float(encode(prefix, params).values @ w)

    tensors = [t for _, t in params.tensors()]
    check_grads(forward, tensors, tol=1e-4, max_coords=6,
                rng=np.random.default_rng(3))


def test_stop_gradient_blocks_parameters():
    params = tiny_params()
    probe = ad.Tensor(np.ones(TINY.feature_dim), requires_grad=True)
    with ad.tape():
        f = encode([BOS, 4, 5], params, stop_gradient=True)
        loss = ad.tsum(ad.mul(f, probe))
    ad.backward(loss)
    assert probe.grad is not None
    for _, t in params.tensors():
        assert t.grad is None


def tiny_decoder(params, seed=1):
    rng = np.random.default_rng(seed)
    return (GeneratorParams(params.vocab_size, TINY, rng, params.embedding),
            GuiderParams(TINY, rng))


def test_encode_initial_delegates_in_training_mode():
    # in training mode the initial feature is the encoded real sentence
    params = tiny_params()
    gen, gui = tiny_decoder(params)
    sent = [4, 5, 6, 2]
    trace = teacher_force_trace(sent, params, gen, gui)
    assert np.array_equal(trace.init_feature,
                          encode([BOS] + sent, params).values)


def test_encode_initial_noise_dim_checked():
    # in testing mode a noise vector of the wrong width is refused
    params = tiny_params()
    gen, gui = tiny_decoder(params)
    with pytest.raises(DimensionError):
        sample_sequence(np.zeros(TINY.feature_dim - 1), gen, gui, params,
                        seed=0)


def test_noise_seed_determinism():
    a = draw_initial_noise(np.random.default_rng(7), 10, scale=3.0)
    b = draw_initial_noise(np.random.default_rng(7), 10, scale=3.0)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 3.0) < 1e-12
    assert np.all(a >= 0.0)


def test_mean_feature_norm_positive():
    params = tiny_params()
    sents = [[4, 5, 2], [6, 7, 8, 2]]
    assert mean_feature_norm(sents, params) > 0.0


def test_profile_lookup():
    assert get_profile("paper").feature_dim == 600
    assert get_profile("small").feature_dim == 128
    assert get_profile("small", max_len=50).max_len == 50
    with pytest.raises(ContractError):
        get_profile("huge")
