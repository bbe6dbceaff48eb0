"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Training-dependent criteria share module-scoped fixtures; every run is fully
seeded and deterministic.
"""

import copy
import math
import time

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import (BOS, EOS, desk_grammar, desk_style_grammar,
                          sample_grammar, sample_grammar_styled, style_oracle,
                          unigram_entropy)
from gmgan.checkpoint import read_checkpoint, save_models, write_checkpoint
from gmgan.encoder import EncoderParams, ModelProfile, encode_batch, pad_rows
from gmgan.discriminator import DiscriminatorParams, bce_loss
from gmgan.generator import (GeneratorParams, gated_logits, initial_hidden,
                             teacher_force_trace, teacher_forced_log_probs)
from gmgan.guider import GuiderParams, guider_step, initial_state
from gmgan.metrics import (NgramTables, bleu, f1_bleu, self_bleu,
                           validity_rate)
from gmgan.rewards import (discounted_cumulative, feature_matching_reward,
                           q_values)
from gmgan.style import evaluate_transfer, run_style_transfer
from gmgan.trainer import (Models, Optimizers, TrainConfig,
                           policy_gradient_step, pretrain_mle, run_gmgan,
                           sample_from_noise)
from helpers import (fd_gradient, jiggle_params, objective_cosines,
                     one_token_trace, rel_err)
from test_rewards import make_trace, np_cos

TINY = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)
DESK = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)
STYLE_PROFILE = ModelProfile(64, 128, 128, (64, 128), (5, 5), (2, 2),
                             max_len=16)


def report(number, name, detail):
    print("\nACCEPTANCE %2d [%s]: PASS  (%s)" % (number, name, detail))


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_corpus():
    g = desk_grammar()
    vocab = g.vocabulary()
    train = sample_grammar(g, 1500, seed=11, vocab=vocab, max_len=16)
    val = sample_grammar(g, 200, seed=12, vocab=vocab, max_len=16)
    return g, vocab, train, val


@pytest.fixture(scope="module")
def pretrained(desk_corpus):
    """Desk pretraining used by criteria 5, 6 and 9."""
    g, vocab, train, val = desk_corpus
    config = TrainConfig(seed=7, profile=DESK, max_len=16, c=4, batch_size=32,
                         mle_epochs=10, guider_extra_epochs=4,
                         lr_generator=1e-3, lr_guider=1e-3)
    models = Models(len(vocab), config)
    start = time.time()
    history = pretrain_mle(train, val, models, config)
    return models, config, history, time.time() - start


@pytest.fixture(scope="module")
def adversarial_setup(desk_corpus):
    """Separate pretraining at the RL-stable learning rate for criterion 8."""
    g, vocab, train, val = desk_corpus
    config = TrainConfig(seed=7, profile=DESK, max_len=16, c=4, batch_size=32,
                         mle_epochs=10, rl_epochs=2, guider_extra_epochs=4,
                         lr_generator=5e-4, lr_guider=1e-3, rollout_batch=16,
                         baseline_momentum=0.9, eval_samples=0)
    models = Models(len(vocab), config)
    start = time.time()
    pretrain_mle(train, val, models, config)
    return models, config, time.time() - start


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def _spot_check(build_loss, forward, tensors, rng, tol=1e-4, n_coords=3):
    """Backward once, then compare sampled coordinates against central FD."""
    for t in tensors:
        t.zero_grad()
    with ad.tape():
        loss = build_loss()
        ad.backward(loss)
    checked = 0
    for t in tensors:
        size = t.values.size
        coords = rng.choice(size, size=min(n_coords, size), replace=False)
        fd, stable = fd_gradient(forward, t, coords=coords)
        ad_grad = t.grad if t.grad is not None else np.zeros_like(t.values)
        for i in coords:
            if not stable.reshape(-1)[i]:
                continue
            err = rel_err(ad_grad.reshape(-1)[i], fd.reshape(-1)[i])
            assert err < tol, "rel err %g at coord %d" % (err, i)
            checked += 1
    return checked


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(101)
    cases_per_op = {}

    # -- primitive operations, 100 randomized cases each -------------------
    for case in range(100):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        m2 = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        mix = ad.constant(rng.normal(size=(3, 4)))
        mix2 = ad.constant(rng.normal(size=(3, 2)))
        mixv = ad.constant(rng.normal(size=5))
        ops = {
            "add": (lambda: ad.tsum(ad.mul(ad.add(a, b), mix)),
                    lambda: float(((a.values + b.values) * mix.values).sum()),
                    [a, b]),
            "mul": (lambda: ad.tsum(ad.mul(ad.mul(a, b), mix)),
                    lambda: float((a.values * b.values * mix.values).sum()),
                    [a, b]),
            "scale": (lambda: ad.tsum(ad.scale(a, 0.37)),
                      lambda: float(0.37 * a.values.sum()), [a]),
            "matmul": (lambda: ad.tsum(ad.mul(ad.matmul(a, c), mix2)),
                       lambda: float(((a.values @ c.values) * mix2.values).sum()),
                       [a, c]),
            "relu": (lambda: ad.tsum(ad.mul(ad.relu(a), mix)),
                     lambda: float((np.maximum(a.values, 0) * mix.values).sum()),
                     [a]),
            "exp": (lambda: ad.tsum(ad.exp(ad.scale(a, 0.3))),
                    lambda: float(np.exp(0.3 * a.values).sum()), [a]),
            "softmax": (lambda: ad.tsum(ad.mul(ad.softmax(m2), ad.constant(
                np.ones((3, 5))))), lambda: 3.0, [m2]),
            "log_softmax": (lambda: ad.tsum(ad.mul(ad.log_softmax(m2),
                                                   ad.constant(_w5(m2)))),
                            lambda: _ls_sum(m2.values), [m2]),
            "tsum": (lambda: ad.tsum(ad.mul(a, a)),
                     lambda: float((a.values ** 2).sum()), [a]),
            "reshape": (lambda: ad.tsum(ad.mul(ad.reshape(a, (4, 3)),
                                               ad.constant(
                                                   mix.values.reshape(4, 3)))),
                        lambda: float((a.values.reshape(4, 3)
                                       * mix.values.reshape(4, 3)).sum()), [a]),
            "concat": (lambda: ad.tsum(ad.exp(ad.scale(
                           ad.concat([a, b], axis=1), 0.3))),
                       lambda: float(np.exp(0.3 * np.concatenate(
                           [a.values, b.values], axis=1)).sum()), [a, b]),
            "gather_rows": (lambda: ad.tsum(ad.gather_rows(a, [0, 2, 2, 1])),
                            lambda: float(a.values[[0, 2, 2, 1]].sum()), [a]),
            "pick": (lambda: ad.tsum(ad.pick(a, [0, 1, 2], [3, 0, 1])),
                     lambda: float(a.values[[0, 1, 2], [3, 0, 1]].sum()), [a]),
            # the target side is data: only b is differentiated
            "row_cosine": (lambda: ad.tsum(ad.mul(ad.row_cosine(a.values, b),
                                                  ad.constant(np.ones(3)))),
                           lambda: float(sum(np_cos(a.values[i], b.values[i])
                                             for i in range(3))), [b]),
        }
        for name, (build, fwd, params) in ops.items():
            _spot_check(build, fwd, params, rng, n_coords=2)
            cases_per_op[name] = cases_per_op.get(name, 0) + 1

    # lstm_cell and conv1d as primitive network cells, 100 cases each
    for case in range(100):
        d_in, h = 3, 4
        w_x = ad.Tensor(rng.normal(scale=0.5, size=(d_in, 4 * h)), requires_grad=True)
        w_h = ad.Tensor(rng.normal(scale=0.5, size=(h, 4 * h)), requires_grad=True)
        bias = ad.Tensor(rng.normal(scale=0.1, size=4 * h), requires_grad=True)
        x = rng.normal(size=(1, d_in))
        proj = rng.normal(size=h)

        def lstm_loss():
            hid = ad.constant(np.zeros((1, h)))
            cel = ad.constant(np.zeros((1, h)))
            hid, cel = ad.lstm_cell(ad.constant(x), hid, cel, w_x, w_h, bias)
            return ad.tsum(ad.mul(hid, ad.constant(proj[None])))

        def lstm_forward():
            with ad.no_grad():
                return lstm_loss().item()

        _spot_check(lstm_loss, lstm_forward, [w_x, w_h, bias], rng, n_coords=2)
        cases_per_op["lstm_cell"] = cases_per_op.get("lstm_cell", 0) + 1

        kernel = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        cbias = ad.Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
        xc = ad.constant(rng.normal(size=(1, 8, 2)))
        wc = rng.normal(size=(1, 3, 3))

        def conv_loss():
            return ad.tsum(ad.mul(ad.conv1d(xc, kernel, cbias, 3, 2),
                                  ad.constant(wc)))

        def conv_forward():
            with ad.no_grad():
                return conv_loss().item()

        _spot_check(conv_loss, conv_forward, [kernel, cbias], rng, n_coords=2)
        cases_per_op["conv1d"] = cases_per_op.get("conv1d", 0) + 1

    assert all(n >= 100 for n in cases_per_op.values())

    # -- composite networks, 100 random cases each --------------------------
    composite_cases = {"encoder": 0, "guider": 0, "decoder_step": 0,
                       "discriminator": 0}
    for case in range(100):
        case_rng = np.random.default_rng(5000 + case)
        enc = EncoderParams(10, TINY, case_rng)
        gen = GeneratorParams(10, TINY, case_rng, enc.embedding)
        gui = GuiderParams(TINY, case_rng)
        disc = DiscriminatorParams(10, TINY, case_rng)
        jiggle_params(enc.tensors() + gen.tensors() + gui.tensors()
                      + disc.tensors(), case_rng)

        # encoder
        prefix = [BOS] + list(case_rng.integers(4, 10,
                                                size=case_rng.integers(1, 8)))
        rows = pad_rows([prefix], TINY.pad_width)
        wvec = case_rng.normal(size=TINY.feature_dim)

        def enc_loss():
            return ad.tsum(ad.mul(encode_batch(rows, enc),
                                  ad.constant(wvec[None])))

        def enc_forward():
            with ad.no_grad():
                return enc_loss().item()

        composite_cases["encoder"] += bool(_spot_check(
            enc_loss, enc_forward, [t for _, t in enc.tensors()], case_rng))

        # guider: three-step unroll
        feats = [np.abs(case_rng.normal(size=(1, TINY.feature_dim)))
                 for _ in range(3)]

        def gui_loss():
            state = initial_state(gui, ad.constant(
                np.zeros((1, TINY.hidden_dim))))
            pred = None
            for f in feats:
                pred, state = guider_step(state, ad.constant(f), gui)
            return ad.tsum(ad.mul(pred, ad.constant(wvec[None])))

        def gui_forward():
            with ad.no_grad():
                return gui_loss().item()

        composite_cases["guider"] += bool(_spot_check(
            gui_loss, gui_forward, [t for _, t in gui.tensors()], case_rng))

        # gated decoder step: log-prob of one token
        x_emb = case_rng.normal(size=(1, TINY.embed_dim))
        pred_vec = case_rng.normal(size=(1, TINY.feature_dim))
        token = int(case_rng.integers(4, 10))

        def dec_loss():
            hid = ad.constant(np.zeros((1, TINY.hidden_dim)))
            cel = ad.constant(np.zeros((1, TINY.hidden_dim)))
            hid, cel = ad.lstm_cell(ad.constant(x_emb), hid, cel,
                                    gen.dec_w_x, gen.dec_w_h, gen.dec_b)
            logits = gated_logits(hid, ad.constant(pred_vec), gen)
            logp = ad.log_softmax(logits)
            return ad.tsum(ad.pick(logp, [0], [token]))

        def dec_forward():
            with ad.no_grad():
                return dec_loss().item()

        dec_tensors = [gen.dec_w_x, gen.dec_w_h, gen.dec_b, gen.out_w,
                       gen.out_b, gen.gate_w, gen.gate_b, gen.vocab_w]
        composite_cases["decoder_step"] += bool(_spot_check(
            dec_loss, dec_forward, dec_tensors, case_rng))

        # discriminator: BCE through the conv stack
        real = [list(case_rng.integers(4, 10, size=4)) + [EOS]]
        fake = [list(case_rng.integers(4, 10, size=4)) + [EOS]]

        def disc_loss():
            return bce_loss(real, fake, disc)

        def disc_forward():
            with ad.no_grad():
                return disc_loss().item()

        composite_cases["discriminator"] += bool(_spot_check(
            disc_loss, disc_forward, [t for _, t in disc.tensors()],
            case_rng))

    elapsed = time.time() - start
    assert all(n >= 100 for n in composite_cases.values())
    assert elapsed < 120, "gradient checks took %.1fs" % elapsed
    report(1, "gradient-correctness",
           "%d op kinds and 4 composite networks, 100 cases each, "
           "rel err < 1e-4, %.1fs" % (len(cases_per_op), elapsed))


def _w5(m2):
    return np.ones((m2.shape[0], 5))


def _ls_sum(x):
    v = x - x.max(axis=-1, keepdims=True)
    return float((v - np.log(np.exp(v).sum(axis=-1, keepdims=True))).sum())


# ---------------------------------------------------------------------------
# criterion 2: reward-engine oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_reward_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        big_t = int(rng.integers(1, 11))
        c = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.0, 0.99))
        r_f = float(rng.uniform(0.0, 1.0))
        feats = [rng.normal(size=6) for _ in range(big_t + 1)]
        preds = [rng.normal(size=6) for _ in range(big_t)]
        trace = make_trace(feats, preds)

        r_g = feature_matching_reward(trace, c)
        returns = discounted_cumulative(r_g, gamma)
        q = q_values(returns, r_f)

        # independent O(T^2) direct-summation oracles
        for t in range(1, big_t + 1):
            window = min(t, c)
            pred = preds[max(t - c, 0)]
            total = sum(np_cos(feats[t], pred)
                        + np_cos(feats[t] - feats[t - i], pred - feats[t - i])
                        for i in range(1, window + 1))
            worst = max(worst, abs(r_g[t - 1] - total / (2 * window)))
        brute_r = np.array([sum(gamma ** (i - t) * r_g[i]
                                for i in range(t, big_t))
                            for t in range(big_t)])
        worst = max(worst, float(np.max(np.abs(returns - brute_r))))
        worst = max(worst, float(np.max(np.abs(q - brute_r * r_f))))
        assert worst < 1e-10

    hand_r = discounted_cumulative([0.5, 0.5, 0.5], 0.25)
    assert hand_r.tolist() == [0.65625, 0.625, 0.5]
    hand_q = q_values(hand_r, 0.8)
    assert hand_q.tolist() == [0.525, 0.5, 0.4]
    report(2, "reward-oracle-equivalence",
           "1000 random traces, worst abs err %.2e; hand R and Q exact"
           % worst)


# ---------------------------------------------------------------------------
# criteria 3 and 4: BLEU family
# ---------------------------------------------------------------------------

PAPER_F1_TABLE = [
    ((0.902, 0.706, 0.470), (0.787, 0.646, 0.485), (0.345, 0.472, 0.491)),
    ((0.920, 0.723, 0.489), (0.812, 0.589, 0.360), (0.312, 0.524, 0.554)),
    ((0.923, 0.727, 0.491), (0.814, 0.576, 0.328), (0.310, 0.537, 0.567)),
]


def test_criterion_3_f1_bleu_paper_regression():
    worst = 0.0
    cells = 0
    for tests, selfs, f1s in PAPER_F1_TABLE:
        for t, s, expected in zip(tests, selfs, f1s):
            got = f1_bleu(t, s)
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) <= 0.002
            cells += 1
    assert abs(f1_bleu(0.902, 0.787) - 0.345) <= 0.002
    assert abs(f1_bleu(0.723, 0.589) - 0.524) <= 0.002
    report(3, "f1-bleu-paper-regression",
           "all %d table cells within ±0.002 (worst %.4f)" % (cells, worst))


def test_criterion_4_bleu_unit_suite():
    def score(candidate, references, k):   # the scorers take n-gram tables
        return bleu(candidate, NgramTables(references, k), k)

    s = "a small cat sees the dog".split()
    assert score(s, [s], 4) == pytest.approx(1.0, abs=1e-12)
    assert score("the the the".split(), ["the cat sat".split()], 1) == \
        pytest.approx(1.0 / 3.0, abs=1e-12)
    assert score("a b c d".split(), ["a b c d e".split()], 2) == \
        pytest.approx(math.exp(-0.25), abs=1e-6)
    samples = [list(s), list(s), list(s)]
    assert self_bleu(samples, 3, NgramTables(samples, 3)) == \
        pytest.approx(1.0, abs=1e-12)
    report(4, "bleu-unit-suite",
           "perfect match, clipping, brevity penalty, self-BLEU collapse")


# ---------------------------------------------------------------------------
# criterion 5: MLE learning beats the best unigram model
# ---------------------------------------------------------------------------

def test_criterion_5_mle_learning(desk_corpus, pretrained):
    g, vocab, train, val = desk_corpus
    models, config, history, elapsed = pretrained
    bound = unigram_entropy(val)
    first_pass = next((h["epoch"] + 1 for h in history
                       if h["val_loss"] < bound), None)
    assert first_pass is not None and first_pass <= 10
    assert elapsed < 600
    report(5, "mle-learning",
           "val CE %.3f < unigram entropy %.3f by epoch %d; %.0fs"
           % (history[-1]["val_loss"], bound, first_pass, elapsed))


# ---------------------------------------------------------------------------
# criterion 6: guider learning
# ---------------------------------------------------------------------------

def _heldout_cosines(models, sentences, c, n=60):
    direct, direction = [], []
    with ad.no_grad():
        for s in sentences[:n]:
            feats = [encode_batch(pad_rows([[BOS] + list(s)[:t]],
                                           models.profile.pad_width),
                                  models.encoder)
                     for t in range(len(s) + 1)]
            init = initial_state(models.guider,
                                 initial_hidden(feats[-1], models.generator))
            d, q = objective_cosines(feats, models.guider, init, c)
            direct.append(d)
            direction.append(q)
    return float(np.mean(direct)), float(np.mean(direction))


def test_criterion_6_guider_learning(desk_corpus, pretrained):
    g, vocab, train, val = desk_corpus
    models, config, _, _ = pretrained
    fresh = Models(len(vocab), config)
    d0, q0 = _heldout_cosines(fresh, val, config.c)
    d1, q1 = _heldout_cosines(models, val, config.c)
    assert abs(d0) < 0.3 and abs(q0) < 0.3
    assert d1 > 0.8 and q1 > 0.8
    report(6, "guider-learning",
           "held-out cosines %.3f/%.3f (random init %.3f/%.3f)"
           % (d1, q1, d0, q0))


# ---------------------------------------------------------------------------
# criterion 7: policy-gradient sanity
# ---------------------------------------------------------------------------

def test_criterion_7_policy_gradient_sanity():
    from gmgan.generator import LOGIT_MASK

    config = TrainConfig(seed=77, profile=TINY, max_len=12, c=2,
                         lr_generator=0.05, lr_guider=1e-3)
    models = Models(7, config)  # words A=4, B=5, C=6
    models.generator.action_mask.values[EOS] = LOGIT_MASK
    opt = Optimizers(models, config)
    init = np.zeros(TINY.feature_dim)
    rng = np.random.default_rng(7)

    def p_best():
        with ad.no_grad():
            logp = teacher_forced_log_probs(
                [[4]], models.encoder, models.generator, models.guider,
                init_features=ad.constant(init.reshape(1, -1)))[0]
            return float(np.exp(logp.values[0]))

    p0 = p_best()
    steps_taken = None
    for step in range(500):
        traces = [one_token_trace(init, models, rng) for _ in range(8)]
        advs = [np.array([1.0 if t.tokens[0] == 4 else 0.0]) for t in traces]
        policy_gradient_step(traces, advs, models, opt)
        if p_best() > 0.9:
            steps_taken = step + 1
            break
    assert steps_taken is not None, "bandit never exceeded 0.9"

    # zero advantages leave every parameter bit-identical
    before = {n: t.values.copy() for n, t in models.all_tensors()}
    traces = [one_token_trace(init, models, rng) for _ in range(4)]
    out = policy_gradient_step(traces, [np.zeros(1) for _ in traces],
                               models, opt)
    assert out["skipped"]
    for n, t in models.all_tensors():
        assert np.array_equal(before[n], t.values), n
    report(7, "policy-gradient-sanity",
           "p(best) %.3f -> >0.9 in %d steps; zero-advantage batch bit-noop"
           % (p0, steps_taken))


# ---------------------------------------------------------------------------
# criterion 8: end-to-end improvement and ablations
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_improvement(desk_corpus, adversarial_setup):
    g, vocab, train, val = desk_corpus
    base, config, pre_elapsed = adversarial_setup
    start = time.time()

    mle_samples = sample_from_noise(base, 500, seed=4242)
    mle_validity = validity_rate(mle_samples, g, vocab)

    histories = {}
    validities = {}
    for mode in ("both", "final-only", "stepwise-only"):
        run_config = TrainConfig(**{**config.__dict__, "ablation": mode})
        models = copy.deepcopy(base)
        histories[mode] = run_gmgan(train, val, models, run_config)
        assert len(histories[mode]) == run_config.rl_epochs
        assert all("pg_loss" in h and "val_loss" in h for h in histories[mode])
        validities[mode] = validity_rate(
            sample_from_noise(models, 500, seed=4242), g, vocab)

    elapsed = pre_elapsed + (time.time() - start)
    assert validities["both"] >= mle_validity, \
        "GMGAN %.3f < MLE %.3f" % (validities["both"], mle_validity)
    assert elapsed < 1800
    report(8, "end-to-end-improvement",
           "validity GMGAN %.3f >= MLE %.3f on 500 paired samples; ablations "
           "final-only %.3f, stepwise-only %.3f; %.0fs total"
           % (validities["both"], mle_validity, validities["final-only"],
              validities["stepwise-only"], elapsed))


# ---------------------------------------------------------------------------
# criterion 9: reward-trace contrast
# ---------------------------------------------------------------------------

def test_criterion_9_reward_trace_contrast(desk_corpus, pretrained):
    g, vocab, train, val = desk_corpus
    models, config, _, _ = pretrained
    rng = np.random.default_rng(909)
    wins = 0
    for s in val[:50]:
        trace = teacher_force_trace(s, models.encoder, models.generator,
                                    models.guider)
        real_mean = feature_matching_reward(trace, config.c).mean()
        body = list(s)[:-1]
        rng.shuffle(body)
        shuffled = body + [EOS]
        trace_sh = teacher_force_trace(shuffled, models.encoder,
                                       models.generator, models.guider)
        sh_mean = feature_matching_reward(trace_sh, config.c).mean()
        wins += real_mean > sh_mean
    assert wins >= 40, "only %d/50 sentences preferred the real order" % wins
    report(9, "reward-trace-contrast",
           "real order out-scored shuffle on %d/50 sentences" % wins)


# ---------------------------------------------------------------------------
# criterion 10: style transfer at desk scale
# ---------------------------------------------------------------------------

def test_criterion_10_style_transfer():
    start = time.time()
    g = desk_style_grammar()
    vocab = g.vocabulary()
    labelled = sample_grammar_styled(g, 1300, seed=17, vocab=vocab, max_len=16)
    train_l, val_l = labelled[100:], labelled[:100]
    config = TrainConfig(seed=5, profile=STYLE_PROFILE, max_len=16, c=4,
                         batch_size=32, mle_epochs=40, style_epochs=6,
                         classifier_epochs=4, guider_extra_epochs=0,
                         lr_generator=1.5e-3, lr_guider=1e-3, style_mode=True)
    models = Models(len(vocab), config, style_labels=2)
    oracle = lambda ids: style_oracle(g, ids, vocab)
    run_style_transfer(train_l, val_l, models, config, oracle=oracle)
    accuracy, overlap = evaluate_transfer(val_l, models, oracle)
    assert accuracy > 0.8, "transfer accuracy %.3f" % accuracy
    assert overlap > 0.5, "source unigram precision %.3f" % overlap
    report(10, "style-transfer",
           "oracle accuracy %.3f, source overlap %.3f, %.0fs"
           % (accuracy, overlap, time.time() - start))


# ---------------------------------------------------------------------------
# criterion 11: reproducibility and persistence
# ---------------------------------------------------------------------------

def test_criterion_11_reproducibility(tmp_path, desk_corpus):
    g, vocab, train, val = desk_corpus
    config = TrainConfig(seed=13, profile=TINY, max_len=12, c=2, batch_size=8,
                         mle_epochs=2, guider_extra_epochs=1,
                         lr_generator=1e-3, lr_guider=1e-3)
    small_train = [s for s in train if len(s) <= 12][:64]
    small_val = [s for s in val if len(s) <= 12][:16]

    files = []
    for run in range(2):
        models = Models(len(vocab), config)
        opt = Optimizers(models, config)
        pretrain_mle(small_train, small_val, models, config, optimizers=opt)
        path = tmp_path / ("run%d.gmg" % run)
        save_models(path, models, vocab, optimizers=opt)
        files.append(path.read_bytes())
    assert files[0] == files[1]

    # random parameter sets round-trip bit-exactly
    rng = np.random.default_rng(1111)
    for case in range(25):
        sections = [("p%d" % i,
                     rng.normal(size=tuple(rng.integers(1, 6, size=2))))
                    for i in range(rng.integers(1, 5))]
        path = tmp_path / ("rt%d.gmg" % case)
        write_checkpoint(path, sections, {"case": case})
        _, loaded = read_checkpoint(path)
        for name, arr in sections:
            assert loaded[name].tobytes() == arr.tobytes()
    report(11, "reproducibility-and-persistence",
           "fixed-seed training byte-identical; 25 random round-trips "
           "bit-exact")
