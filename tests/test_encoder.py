import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import BOS, EOS, PAD, UNK
from gmgan.encoder import (EncoderParams, ModelProfile, TokenCNN,
                           draw_initial_noise, encode_batch,
                           get_profile, mean_feature_norm, pad_rows,
                           prefix_features, sentence_rows)
from gmgan.errors import ContractError, DimensionError
from gmgan.generator import (GeneratorParams, sample_sequence,
                             teacher_force_trace)
from gmgan.guider import GuiderParams
from helpers import check_grads, jiggle_params

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)
DESK = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)
# the profile of the style-transfer acceptance criterion
STYLE = ModelProfile(64, 128, 128, (64, 128), (5, 5), (2, 2), max_len=16)


def tiny_params(vocab_size=12, seed=0):
    return EncoderParams(vocab_size, TINY, np.random.default_rng(seed))


def test_paper_profile_feature_width():
    prof = get_profile("paper")
    params = EncoderParams(10, prof, np.random.default_rng(0))
    for n in (1, 10, 25):
        feat = encode_batch(pad_rows([[4 + (i % 6) for i in range(n)]],
                                     prof.pad_width), params)
        assert feat.shape == (1, 600)
        assert np.all(feat.values >= 0.0)


def test_feature_is_nonnegative_and_deterministic():
    params = tiny_params()
    f1 = encode_batch(pad_rows([[4, 5, 6]], TINY.pad_width), params)
    f2 = encode_batch(pad_rows([[4, 5, 6]], TINY.pad_width), params)
    assert np.array_equal(f1.values, f2.values)
    assert np.all(f1.values >= 0.0)


def test_pad_region_is_inert():
    # encoding a prefix equals encoding the same row built from a longer
    # sentence with the tail explicitly reset to PAD
    params = tiny_params()
    full = pad_rows([[BOS, 4, 5, 6, 7, 8]], TINY.pad_width)
    cut = full.copy()
    cut[:, 3:] = PAD
    direct = encode_batch(pad_rows([[BOS, 4, 5]], TINY.pad_width), params)
    via_reset = encode_batch(cut, params)
    assert np.array_equal(direct.values, via_reset.values)
    assert np.array_equal(params.embedding.values[PAD], np.zeros(TINY.embed_dim))


def test_overlong_prefix_rejected():
    with pytest.raises(DimensionError):
        pad_rows([list(range(4, 4 + TINY.pad_width + 1))], TINY.pad_width)


def test_prefix_sensitivity():
    rng = np.random.default_rng(1)
    for case in range(100):
        params = tiny_params(seed=case)
        base = [BOS] + list(rng.integers(4, 12, size=rng.integers(1, 8)))
        extended = base + [int(rng.integers(4, 12))]
        d = np.linalg.norm(
            encode_batch(pad_rows([base], TINY.pad_width), params).values
            - encode_batch(pad_rows([extended], TINY.pad_width),
                           params).values)
        assert d > 0.0


def test_encoder_gradient_vs_finite_differences():
    params = tiny_params()
    jiggle_params(params.tensors(), np.random.default_rng(20))
    rows = pad_rows([[BOS, 4, 5, 6]], TINY.pad_width)
    w = np.random.default_rng(2).normal(size=TINY.feature_dim)

    with ad.tape():
        loss = ad.tsum(ad.mul(encode_batch(rows, params),
                              ad.constant(w[None])))
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return float(encode_batch(rows, params).values[0] @ w)

    tensors = [t for _, t in params.tensors()]
    check_grads(forward, tensors, tol=1e-4, max_coords=6,
                rng=np.random.default_rng(3))


def test_stop_gradient_blocks_parameters():
    params = tiny_params()
    probe = ad.Tensor(np.ones((1, TINY.feature_dim)), requires_grad=True)
    with ad.tape():
        with ad.no_grad():
            f = encode_batch(pad_rows([[BOS, 4, 5]], TINY.pad_width), params)
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
    assert np.array_equal(
        trace.init_feature,
        encode_batch(sentence_rows([sent], TINY.pad_width), params).values[0])


def test_encode_initial_noise_dim_checked():
    # in testing mode a noise vector of the wrong width is refused
    params = tiny_params()
    gen, gui = tiny_decoder(params)
    with pytest.raises(DimensionError):
        sample_sequence(np.zeros(TINY.feature_dim - 1), gen, gui, params,
                        np.random.default_rng(0))


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


@pytest.mark.parametrize("change", [
    {"max_len": 3}, {"embed_dim": 0}, {"hidden_dim": True},
    {"conv_widths": (3, "3")}, {"conv_channels": (8,)},
    {"conv_channels": (), "conv_widths": (), "conv_strides": ()}],
    ids=["stack-too-long", "zero-dim", "bool-dim", "string-width",
         "uneven-layers", "no-layers"])
def test_profile_refuses_bad_dimensions(change):
    fields = dict(embed_dim=6, feature_dim=10, hidden_dim=8,
                  conv_channels=(8, 10), conv_widths=(3, 3),
                  conv_strides=(2, 2), max_len=12)
    ModelProfile(**fields)
    with pytest.raises(ContractError) as err:
        ModelProfile(**{**fields, **change})
    assert "max_len 3" in str(err.value) or "max_len" not in change


# ---------------------------------------------------------------------------
# prefix features of known sentences
# ---------------------------------------------------------------------------

def known_rows(profile, vocab_size, batch, rng):
    """[BOS] + sentence rows: EOS-ended ones, max_len ones without EOS and
    UNK-bearing ones."""
    sents = []
    for i in range(batch):
        if i % 3 == 0:
            s = list(rng.integers(4, vocab_size, size=profile.max_len))
        else:
            length = int(rng.integers(1, profile.max_len + 1))
            s = list(rng.integers(4, vocab_size, size=length - 1)) + [EOS]
        if i % 4 == 1 and len(s) > 1:
            s[int(rng.integers(len(s) - 1))] = UNK
        sents.append(s)
    return sentence_rows(sents, profile.pad_width)


def per_step_features(rows, params, n):
    """The oracle: one encode_batch call per prefix length."""
    out = []
    for t in range(n):
        cut = np.full_like(rows, PAD)
        cut[:, :t + 1] = rows[:, :t + 1]
        with ad.no_grad():
            out.append(encode_batch(cut, params).values)
    return np.stack(out)


def token_cnn(kind, profile, vocab_size, seed, out_dim=None):
    rng = np.random.default_rng(seed)
    if kind == "encoder":
        return EncoderParams(vocab_size, profile, rng)
    return TokenCNN(vocab_size, profile, out_dim or profile.feature_dim, rng,
                    "head", final_relu=False)


@pytest.mark.parametrize("kind", ["encoder", "no-final-relu"])
@pytest.mark.parametrize("batch", [2, 7, 16, 32])
@pytest.mark.parametrize("profile", [DESK, STYLE], ids=["desk", "style"])
def test_prefix_features_equal_per_step_encodes(profile, batch, kind):
    rng = np.random.default_rng(batch)
    params = token_cnn(kind, profile, 40, seed=batch + 1)
    rows = known_rows(profile, 40, batch, rng)
    for n in (profile.pad_width, 1, 6):
        got = prefix_features(rows, params, n)
        assert got.shape == (n, batch, params.mlp_b.shape[0])
        assert np.array_equal(got, per_step_features(rows, params, n))


def test_prefix_features_of_identical_rows():
    # one distinct row at every layer: computed as one of two rows, as
    # encode_batch computes a 2-row batch
    params = token_cnn("encoder", DESK, 40, seed=3)
    rows = np.repeat(known_rows(DESK, 40, 1, np.random.default_rng(4)), 2,
                     axis=0)
    for n in (1, DESK.pad_width):
        assert np.array_equal(prefix_features(rows, params, n),
                              per_step_features(rows, params, n))


@pytest.mark.parametrize("kind,profile,out_dim", [
    ("encoder", TINY, None), ("encoder", get_profile("paper"), None),
    ("no-final-relu", DESK, 2), ("no-final-relu", DESK, 1)],
    ids=["tiny", "paper", "desk-2-wide", "desk-1-wide"])
def test_prefix_features_near_per_step_encodes(kind, profile, out_dim):
    # at these shapes (tiny widths, K > 320, fewer than 4 output columns) a
    # row subset of a product may differ from the full product in the last
    # bit; measured differences stay below 5e-16 of the largest feature
    vocab_size, batch = 12, 7
    params = token_cnn(kind, profile, vocab_size, seed=5, out_dim=out_dim)
    rows = known_rows(profile, vocab_size, batch, np.random.default_rng(6))
    got = prefix_features(rows, params, profile.pad_width)
    want = per_step_features(rows, params, profile.pad_width)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("profile", [DESK, STYLE], ids=["desk", "style"])
def test_packed_prefix_features_are_rows_of_all_prefixes(profile):
    rng = np.random.default_rng(8)
    params = token_cnn("encoder", profile, 40, seed=9)
    rows = known_rows(profile, 40, 16, rng)
    for sizes in ([16, 9, 9, 4, 1, 1], [1], [16] * 3, [5, 2]):
        packed = prefix_features(rows, params, len(sizes), batch_sizes=sizes)
        step, row = ad.packed_index(sizes)
        every = prefix_features(rows, params, len(sizes))
        assert np.array_equal(packed, every[step, row])


def test_prefix_features_reject_bad_shapes():
    params = tiny_params()
    rows = known_rows(TINY, 12, 3, np.random.default_rng(7))
    for n in (0, TINY.pad_width + 1):
        with pytest.raises(DimensionError):
            prefix_features(rows, params, n)
    with pytest.raises(DimensionError):
        prefix_features(rows[:, :-1], params, 2)
    for n, sizes in ((2, [3]), (2, [2, 3]), (1, [4]), (2, [3, 0])):
        with pytest.raises(DimensionError):
            prefix_features(rows, params, n, batch_sizes=sizes)
