import ast
import functools
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import desk_grammar, sample_grammar
from gmgan.encoder import ModelProfile
from gmgan.errors import ContractError, DimensionError, TapeError
from gmgan.generator import GeneratorParams, initial_hidden, mle_loss
from gmgan.guider import GuiderParams, guider_step, initial_state
from gmgan.trainer import Models, TrainConfig
from helpers import (add_row, check_grads, oracle_gated_head, oracle_linear,
                     rel_err, sigmoid, slice_cols, tanh)


def t(values, grad=False):
    return ad.Tensor(values, requires_grad=grad)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_rejects_non_finite():
    with pytest.raises(ValueError):
        ad.Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        ad.Tensor([np.inf])


def test_debug_checks_catch_overflow():
    try:
        ad.set_debug_checks(True)
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^exp produced non-finite values, "
                                     r"shape \(2,\)$"):
                ad.exp(t([1.0, 1000.0]))
            x = t(np.full((2, 5, 1), 1e308))
            kernel = t(np.full((3, 1), 1e308))
            with pytest.raises(FloatingPointError,
                               match=r"^conv1d produced non-finite values, "
                                     r"shape \(2, 3, 1\)$"):
                ad.conv1d(x, kernel, t(np.zeros(1)), 3, 1)
    finally:
        ad.set_debug_checks(False)
    # release mode: ops run unchecked, backward still rejects a bad loss
    with np.errstate(over="ignore"):
        inf_out = ad.exp(t([1000.0]))
        assert np.isinf(inf_out.values[0])
        x = t([1000.0], grad=True)
        with ad.tape():
            bad_loss = ad.tsum(ad.exp(x))
    with pytest.raises(FloatingPointError):
        ad.backward(bad_loss)


def test_debug_checks_name_the_op_of_a_nonfinite_gradient():
    # a subnormal conv output used twice and scaled by 1e308: the loss is
    # finite, but the two 1e308 gradient terms flowing into conv1d sum to inf
    x = t(np.full((2, 5, 1), 1e-160), grad=True)
    kernel = t(np.full((3, 1), 1e-160), grad=True)
    bias = t(np.zeros(1), grad=True)

    def walk():
        with ad.tape() as tp:
            c = ad.conv1d(x, kernel, bias, 3, 1)
            loss = ad.tsum(ad.scale(ad.add(c, c), 1e308))
            assert all(len(node) == 2 for node in tp.nodes)
            with np.errstate(over="ignore", invalid="ignore"):
                ad.backward(loss)

    try:
        ad.set_debug_checks(True)
        with pytest.raises(FloatingPointError,
                           match=r"^conv1d output gradient is non-finite, "
                                 r"shape \(2, 3, 1\)$"):
            walk()
        assert kernel.grad is None
    finally:
        ad.set_debug_checks(False)
    # release mode: the walk finishes and leaves the damage in the leaves
    walk()
    assert not np.all(np.isfinite(kernel.grad))


def test_first_gradient_is_a_copy_of_the_right_shape():
    g = np.ones(3)
    x = t(np.zeros(3), grad=True)
    x.accumulate_grad(g)
    g[0] = 5.0
    x.accumulate_grad(g)
    assert x.grad.tolist() == [6.0, 2.0, 2.0]
    with pytest.raises(AssertionError):
        t(np.zeros((2, 2)), grad=True).accumulate_grad(np.ones(2))


def test_desk_mle_gradients_equal_zeros_plus_g(monkeypatch):
    desk = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)
    grammar = desk_grammar()
    batch = sample_grammar(grammar, 64, seed=7, max_len=16)[:32]
    models = Models(len(grammar.vocabulary()),
                    TrainConfig(seed=7, profile=desk, max_len=16, c=4,
                                batch_size=32))

    def gradients():
        with ad.tape():
            ad.backward(mle_loss(batch, models.encoder, models.generator,
                                 models.guider))
        grads = [tensor.grad for _, tensor in models.all_tensors()]
        for _, tensor in models.all_tensors():
            tensor.zero_grad()
        return grads

    got = gradients()

    def zeros_plus_g(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    monkeypatch.setattr(ad.Tensor, "accumulate_grad", zeros_plus_g)
    want = gradients()
    assert sum(g is not None for g in got) >= 15
    for (name, _), a, b in zip(models.all_tensors(), got, want):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name


def test_grad_shape_matches():
    x = t(np.ones((2, 3)), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    assert x.grad.shape == x.values.shape


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    m = t([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(t(np.eye(2)), m)
    assert np.array_equal(out.values, m.values)


def test_matmul_annihilator():
    out = ad.matmul(t([[1.0, 0.0], [0.0, 0.0]]), t([[0.0], [5.0]]))
    assert np.array_equal(out.values, [[0.0], [0.0]])


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(3, 4)), grad=True)
    b = t(rng.normal(size=(4, 2)), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.matmul(a, b))
    ad.backward(loss)

    def forward():
        return float((a.values @ b.values).sum())

    assert check_grads(forward, [a, b], tol=1e-6) < 1e-6


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_elementwise_mul_identity():
    v = t([2.0, -3.0, 0.5])
    assert np.array_equal(ad.mul(v, t(np.ones(3))).values, v.values)


def test_elementwise_hand_product():
    assert np.array_equal(ad.mul(t([1.0, 2.0]), t([3.0, 4.0])).values, [3.0, 8.0])


def test_elementwise_shape_error():
    with pytest.raises(DimensionError):
        ad.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))
    # add and mul take equal shapes only: a bias row goes through linear
    for op in (ad.add, ad.mul):
        with pytest.raises(DimensionError):
            op(t(np.ones((2, 3))), t(np.ones(3)))
    assert ad.linear(t(np.ones((2, 4))), t(np.ones((4, 3))),
                     t(np.ones(3))).shape == (2, 3)
    for x, w, b in [((2, 4), (5, 3), (3,)), ((2, 4), (4, 3), (2,)),
                    ((4,), (4, 3), (3,)), ((2, 4), (4, 3), (1, 3))]:
        with pytest.raises(DimensionError):
            ad.linear(t(np.ones(x)), t(np.ones(w)), t(np.ones(b)))


@pytest.mark.parametrize("kind", ["mul", "add"])
def test_elementwise_gradients(kind):
    rng = np.random.default_rng(2)
    a = t(rng.normal(size=(2, 3)), grad=True)
    b = t(rng.normal(size=(2, 3)), grad=True)
    op = {"mul": ad.mul, "add": ad.add}[kind]
    with ad.tape():
        loss = ad.tsum(ad.mul(op(a, b), a))
    ad.backward(loss)
    np_op = {"mul": np.multiply, "add": np.add}[kind]
    def forward():
        return float((np_op(a.values, b.values) * a.values).sum())
    check_grads(forward, [a, b], tol=1e-6)


def test_bias_broadcast_gradient():
    rng = np.random.default_rng(3)
    a = t(rng.normal(size=(4, 3)), grad=True)
    w = t(rng.normal(size=(3, 5)), grad=True)
    b = t(rng.normal(size=5), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.exp(ad.scale(ad.linear(a, w, b), 0.3)))
    ad.backward(loss)
    def forward():
        return float(np.exp(0.3 * (a.values @ w.values + b.values)).sum())
    check_grads(forward, [a, w, b], tol=1e-6)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    out = ad.softmax(t([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.values, 0.25, atol=1e-15)


def test_softmax_stability():
    out = ad.softmax(t([1000.0, 0.0]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0] > 1.0 - 1e-12
    assert out.values[1] < 1e-12


def test_softmax_against_high_precision_oracle():
    # frozen from a 60-digit exp-normalize computation (mpmath)
    expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
    out = ad.softmax(t([1.0, 2.0, 3.0]))
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_softmax_empty_error():
    with pytest.raises(DimensionError):
        ad.softmax(t(np.zeros(0)))


def test_softmax_sums_to_one_and_permutation_equivariant():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(scale=5.0, size=rng.integers(1, 12))
        y = ad.softmax(t(x)).values
        assert y.min() > 0.0
        assert abs(y.sum() - 1.0) < 1e-12
        perm = rng.permutation(len(x))
        yp = ad.softmax(t(x[perm])).values
        assert np.max(np.abs(yp - y[perm])) < 1e-15


def test_softmax_and_log_softmax_gradients():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(3, 5)), grad=True)
    w = t(rng.normal(size=(3, 5)))
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.softmax(x), w))
    ad.backward(loss)
    def forward():
        e = np.exp(x.values - x.values.max(axis=-1, keepdims=True))
        return float((e / e.sum(axis=-1, keepdims=True) * w.values).sum())
    check_grads(forward, [x], tol=1e-6)

    x2 = t(rng.normal(size=(2, 4)), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.log_softmax(x2),
                              w2 := t(rng.normal(size=(2, 4)))))
    ad.backward(loss)
    def forward2():
        v = x2.values - x2.values.max(axis=-1, keepdims=True)
        ls = v - np.log(np.exp(v).sum(axis=-1, keepdims=True))
        return float((ls * w2.values).sum())
    check_grads(forward2, [x2], tol=1e-6)


# ---------------------------------------------------------------------------
# lstm_cell
# ---------------------------------------------------------------------------

def _lstm_params(rng, d_in, h):
    w_x = t(rng.normal(scale=0.4, size=(d_in, 4 * h)), grad=True)
    w_h = t(rng.normal(scale=0.4, size=(h, 4 * h)), grad=True)
    b = t(np.zeros(4 * h), grad=True)
    return w_x, w_h, b


def test_lstm_zero_everything_gives_zero_hidden():
    d_in, h = 3, 4
    zeros = lambda *s: t(np.zeros(s))
    hid, cell = ad.lstm_cell(zeros(1, d_in), zeros(1, h), zeros(1, h),
                             zeros(d_in, 4 * h), zeros(h, 4 * h), zeros(4 * h))
    assert np.array_equal(hid.values, np.zeros((1, h)))
    assert np.array_equal(cell.values, np.zeros((1, h)))


def test_lstm_repeated_input_converges():
    rng = np.random.default_rng(6)
    d_in, h = 5, 6
    w_x, w_h, b = _lstm_params(rng, d_in, h)
    x = t(rng.normal(size=(1, d_in)))
    hid, cell = t(np.zeros((1, h))), t(np.zeros((1, h)))
    prev = None
    dists = []
    for _ in range(50):
        new_hid, new_cell = ad.lstm_cell(x, hid, cell, w_x, w_h, b)
        if prev is not None:
            dists.append(float(np.linalg.norm(new_hid.values - prev)))
        prev = hid.values
        hid, cell = new_hid, new_cell
    # distance between successive states shrinks overall; forget gate < 1
    assert dists[-1] < dists[0]
    assert dists[-1] < 1e-3


def test_lstm_gradient_through_three_steps():
    rng = np.random.default_rng(7)
    d_in, h = 3, 4
    w_x, w_h, b = _lstm_params(rng, d_in, h)
    xs = [rng.normal(size=d_in) for _ in range(3)]
    proj = rng.normal(size=h)

    with ad.tape():
        hid, cell = t(np.zeros((1, h))), t(np.zeros((1, h)))
        for x in xs:
            hid, cell = ad.lstm_cell(t(x[None]), hid, cell, w_x, w_h, b)
        loss = ad.tsum(ad.mul(hid, t(proj[None])))
    ad.backward(loss)

    def forward():
        hv, cv = np.zeros(h), np.zeros(h)
        for x in xs:
            z = x @ w_x.values + hv @ w_h.values + b.values
            i, f, o, g = (1 / (1 + np.exp(-z[:h])), 1 / (1 + np.exp(-z[h:2*h])),
                          1 / (1 + np.exp(-z[2*h:3*h])), np.tanh(z[3*h:]))
            cv = f * cv + i * g
            hv = o * np.tanh(cv)
        return float(hv @ proj)

    check_grads(forward, [w_x, w_h, b], tol=1e-5)


def test_lstm_shape_error():
    with pytest.raises(DimensionError):
        ad.lstm_cell(t(np.zeros((1, 3))), t(np.zeros((1, 4))),
                     t(np.zeros((1, 4))), t(np.zeros((3, 12))),
                     t(np.zeros((4, 16))), t(np.zeros(16)))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv1d_constant_signal():
    length, width, in_ch, out_ch = 9, 3, 2, 4
    x = t(np.ones((1, length, in_ch)))
    kernel = t(np.full((width * in_ch, out_ch), 1.0 / (width * in_ch)))
    out = ad.conv1d(x, kernel, t(np.zeros(out_ch)), width, 1)
    assert out.shape == (1, 7, out_ch)
    assert np.allclose(out.values, 1.0, atol=1e-14)


def test_conv1d_delta_recovers_kernel_column():
    # single input channel, width-3 kernel, delta at position 4 of 8
    length, width = 8, 3
    x = np.zeros((1, length, 1))
    x[0, 4, 0] = 1.0
    kern = np.array([[2.0], [-3.0], [5.0]])  # rows: window offsets 0,1,2
    out = ad.conv1d(t(x), t(kern), t(np.zeros(1)), width, 1)
    # window starting at s sees the delta at offset 4-s: output = kern[4-s],
    # through the ReLU
    expected = np.zeros((1, 6, 1))
    for s in range(6):
        if 0 <= 4 - s < width:
            expected[0, s, 0] = max(kern[4 - s, 0], 0.0)
    assert np.array_equal(out.values, expected)


def test_conv1d_stride_and_length_error():
    x = t(np.ones((1, 4, 2)))
    k = t(np.ones((10, 3)))
    with pytest.raises(DimensionError):
        ad.conv1d(x, k, t(np.zeros(3)), 5, 2)


def test_conv1d_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    length, width, stride, in_ch, out_ch = 10, 3, 2, 2, 3
    x = t(rng.normal(size=(1, length, in_ch)), grad=True)
    kernel = t(rng.normal(size=(width * in_ch, out_ch)), grad=True)
    bias = t(rng.normal(size=out_ch), grad=True)
    w = rng.normal(size=(1, 4, out_ch))

    with ad.tape():
        loss = ad.tsum(ad.mul(ad.conv1d(x, kernel, bias, width, stride), t(w)))
    ad.backward(loss)

    def forward():
        n_win = (length - width) // stride + 1
        total = 0.0
        for s in range(n_win):
            win = x.values[0, s * stride:s * stride + width].reshape(-1)
            total += float(np.maximum(win @ kernel.values + bias.values, 0.0)
                           @ w[0, s])
        return total

    check_grads(forward, [x, kernel, bias], tol=1e-5)


# ---------------------------------------------------------------------------
# fused cells against the composed ops they replace (exactness oracle)
# ---------------------------------------------------------------------------

def oracle_lstm_cell(x, hidden, cell, w_x, w_h, b, pre=None):
    """lstm_cell built from generic ops, 17 nodes per batched step; `pre`,
    when given, collects each step's (hidden, pre-activation z)."""
    h_dim = hidden.shape[1]
    z = add_row(ad.add(ad.matmul(x, w_x), ad.matmul(hidden, w_h)), b)
    if pre is not None:
        pre.append((hidden, z))
    i = sigmoid(slice_cols(z, 0, h_dim))
    f = sigmoid(slice_cols(z, h_dim, 2 * h_dim))
    o = sigmoid(slice_cols(z, 2 * h_dim, 3 * h_dim))
    g = tanh(slice_cols(z, 3 * h_dim, 4 * h_dim))
    new_cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
    new_hidden = ad.mul(o, tanh(new_cell))
    return new_hidden, new_cell


def oracle_conv1d(x, kernel, bias, width, stride):
    """conv1d built from generic ops: gather, matmul, bias, ReLU."""
    batch, length, in_ch = x.shape
    n_win = (length - width) // stride + 1
    starts = np.arange(n_win) * stride
    win = starts[:, None] + np.arange(width)[None, :]
    offs = (np.arange(batch) * length)[:, None, None]
    idx = (offs + win[None, :, :]).reshape(-1)
    flat = ad.reshape(x, (batch * length, in_ch))
    windows = ad.reshape(ad.gather_rows(flat, idx),
                         (batch * n_win, width * in_ch))
    out = ad.relu(oracle_linear(windows, kernel, bias))
    return ad.reshape(out, (batch, n_win, kernel.shape[1]))


def _lstm_chain(cell_fn, data, steps, loss_on):
    """Run `steps` cells from fresh copies of `data`; returns the final
    (hidden, cell) values and every input's gradient."""
    ts = {k: t(v, grad=True) for k, v in data.items()}
    with ad.tape():
        hid, cel = ts["hidden"], ts["cell"]
        for s in range(steps):
            hid, cel = cell_fn(ts["x%d" % s], hid, cel,
                               ts["w_x"], ts["w_h"], ts["b"])
        terms = []
        if "hidden" in loss_on:
            terms.append(ad.tsum(ad.mul(hid, t(data["p_h"]))))
        if "cell" in loss_on:
            terms.append(ad.tsum(ad.mul(cel, t(data["p_c"]))))
        loss = terms[0] if len(terms) == 1 else ad.add(*terms)
    ad.backward(loss)
    return hid.values, cel.values, {k: v.grad for k, v in ts.items()}


@pytest.mark.parametrize("batch,steps,loss_on,d_in,h", [
    (1, 1, ("hidden", "cell"), 5, 6),      # one row, as sampling steps it
    (5, 1, ("hidden", "cell"), 5, 6),
    (5, 1, ("hidden",), 5, 6),
    (1, 3, ("hidden",), 5, 6),
    (4, 3, ("hidden", "cell"), 5, 6),
    (4, 3, ("cell",), 5, 6),               # only the final cell is read
    (1, 3, ("cell",), 5, 6),
    (32, 2, ("hidden", "cell"), 64, 64),   # the DESK decoder's sizes
])
def test_fused_lstm_cell_equals_composed_ops(batch, steps, loss_on, d_in, h):
    rng = np.random.default_rng(31 + steps)
    data = {"hidden": rng.normal(size=(batch, h)),
            "cell": rng.normal(size=(batch, h)),
            "w_x": rng.normal(scale=0.5, size=(d_in, 4 * h)),
            "w_h": rng.normal(scale=0.5, size=(h, 4 * h)),
            "b": rng.normal(size=4 * h),
            "p_h": rng.normal(size=(batch, h)),
            "p_c": rng.normal(size=(batch, h))}
    for s in range(steps):
        data["x%d" % s] = rng.normal(scale=2.0, size=(batch, d_in))
    fh, fc, fgrads = _lstm_chain(ad.lstm_cell, data, steps, loss_on)
    oh, oc, ograds = _lstm_chain(oracle_lstm_cell, data, steps, loss_on)
    assert np.array_equal(fh, oh) and np.array_equal(fc, oc)
    for name in ograds:
        if ograds[name] is None:
            assert fgrads[name] is None, name
        else:
            assert np.array_equal(fgrads[name], ograds[name]), name


def _multi_step_data(rng, steps, batch, d_in, h):
    return {"x": rng.normal(scale=2.0, size=(steps * batch, d_in)),
            "hidden": rng.normal(size=(batch, h)),
            "cell": rng.normal(size=(batch, h)),
            "w_x": rng.normal(scale=0.5, size=(d_in, 4 * h)),
            "w_h": rng.normal(scale=0.5, size=(h, 4 * h)),
            "b": rng.normal(size=4 * h),
            "p_h": rng.normal(size=(steps * batch, h)),
            "p_c": rng.normal(size=(batch, h))}


def _stepped(cell_fn, data, batch):
    """T one-step calls of cell_fn on the rows of data["x"]; returns every
    step's hidden rows, the last cell and every input's gradient (x's as
    one (T*B, d_in) array)."""
    ts = {k: t(v, grad=True) for k, v in data.items() if not k.startswith("p")}
    steps = data["x"].shape[0] // batch
    xs = [t(data["x"][s * batch:(s + 1) * batch], grad=True)
          for s in range(steps)]
    with ad.tape():
        hid, cel, hids = ts["hidden"], ts["cell"], []
        for x in xs:
            hid, cel = cell_fn(x, hid, cel, ts["w_x"], ts["w_h"], ts["b"])
            hids.append(hid)
        loss = ad.add(ad.tsum(ad.mul(ad.concat(hids), t(data["p_h"]))),
                      ad.tsum(ad.mul(cel, t(data["p_c"]))))
    ad.backward(loss)
    grads = {k: v.grad for k, v in ts.items()}
    grads["x"] = np.concatenate([x.grad for x in xs])
    return (np.concatenate([h.values for h in hids]), cel.values, grads)


def _multi_step(data):
    ts = {k: t(v, grad=True) for k, v in data.items() if not k.startswith("p")}
    with ad.tape():
        hid, cel = ad.lstm_cell(ts["x"], ts["hidden"], ts["cell"],
                                ts["w_x"], ts["w_h"], ts["b"])
        loss = ad.add(ad.tsum(ad.mul(hid, t(data["p_h"]))),
                      ad.tsum(ad.mul(cel, t(data["p_c"]))))
    ad.backward(loss)
    return hid.values, cel.values, {k: v.grad for k, v in ts.items()}


@pytest.mark.parametrize("steps,batch,d_in,h", [
    (1, 32, 64, 64), (5, 32, 64, 64),      # the DESK decoder's sizes
    (16, 32, 128, 64),                     # the DESK guider's
    (4, 3, 5, 6)])
def test_multi_step_lstm_cell_equals_one_step_calls(steps, batch, d_in, h):
    data = _multi_step_data(np.random.default_rng(71 + steps), steps, batch,
                            d_in, h)
    mh, mc, mgrads = _multi_step(data)
    sh, sc, sgrads = _stepped(ad.lstm_cell, data, batch)
    assert np.array_equal(mh, sh) and np.array_equal(mc, sc)
    for name in ("x", "hidden", "cell"):
        assert np.array_equal(mgrads[name], sgrads[name]), name
    for name in ("w_x", "w_h", "b"):
        # one product over all steps sums in another order than T products
        assert rel_err(mgrads[name], sgrads[name]) < 1e-12, name
        if steps == 1:
            assert np.array_equal(mgrads[name], sgrads[name]), name


def test_multi_step_lstm_weight_gradients_are_one_product_over_dz():
    batch, steps = 32, 5
    data = _multi_step_data(np.random.default_rng(81), steps, batch, 64, 64)
    pre = []
    # the composed cell's pre-activation gradients are the rows of dZ
    _stepped(functools.partial(oracle_lstm_cell, pre=pre), data, batch)
    dz = np.concatenate([z.grad for _, z in pre])
    h_prev = np.concatenate([hid.values for hid, _ in pre])
    _, _, grads = _multi_step(data)
    assert np.array_equal(grads["w_x"], data["x"].T @ dz)
    assert np.array_equal(grads["w_h"], h_prev.T @ dz)
    assert np.array_equal(grads["b"], dz.sum(axis=0))
    assert np.array_equal(grads["x"], dz @ data["w_x"].T)


def test_multi_step_lstm_cell_vs_finite_differences():
    rng = np.random.default_rng(91)
    steps, batch, d_in, h = 3, 2, 3, 4
    data = _multi_step_data(rng, steps, batch, d_in, h)
    ts = {k: t(v, grad=True) for k, v in data.items() if not k.startswith("p")}

    def graph():
        hid, cel = ad.lstm_cell(ts["x"], ts["hidden"], ts["cell"],
                                ts["w_x"], ts["w_h"], ts["b"])
        return ad.add(ad.tsum(ad.mul(hid, t(data["p_h"]))),
                      ad.tsum(ad.mul(cel, t(data["p_c"]))))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, list(ts.values()), tol=1e-5)


def test_multi_step_lstm_cell_shapes():
    rng = np.random.default_rng(92)
    w_x, w_h, b = _lstm_params(rng, 3, 4)
    state = t(np.zeros((2, 4)))
    hid, cel = ad.lstm_cell(t(rng.normal(size=(6, 3))), state, state,
                            w_x, w_h, b)
    assert hid.shape == (6, 4) and cel.shape == (2, 4)
    with pytest.raises(DimensionError):   # 5 rows are not steps of 2
        ad.lstm_cell(t(rng.normal(size=(5, 3))), state, state, w_x, w_h, b)
    with pytest.raises(DimensionError):   # every step's hidden, one cell
        ad.lstm_cell(t(rng.normal(size=(6, 3))), hid, cel, w_x, w_h, b)

# (inner size, columns) of each DESK product whose row count varies with
# batching: the encoder's conv layers and MLP, the decoder's and the
# guider's x @ W_x and h @ W_h, their heads and the initial projection;
# the vocabulary head with 40 words (tests/test_decode.py) and the 72 of
# desk_style_grammar. Heads narrower than 4 columns are not row-subset
# exact and are left out. With desk_grammar's 60 words the head is exact
# only between products on the same side of OpenBLAS's small-matrix path
# (rows * 60 * 128 <= 1e6, so up to 130 rows): a column count that is 1 to
# 4 past a multiple of 8 takes another kernel for the last columns there.
DESK_PRODUCTS = {"encoder.conv0": (320, 64), "encoder.conv1": (320, 128),
                 "encoder.mlp": (256, 128), "decoder.x_w_x": (64, 256),
                 "decoder.h_w_h": (64, 256), "guider.x_w_x": (128, 256),
                 "guider.labelled_x_w_x": (130, 256),
                 "guider.h_w_h": (64, 256), "guider.head": (64, 128),
                 "decoder.out_head": (64, 128), "decoder.gate": (128, 128),
                 "decoder.vocab_head_40": (128, 40),
                 "decoder.vocab_head_72": (128, 72),
                 "generator.init": (128, 64)}


@pytest.mark.parametrize("name", sorted(DESK_PRODUCTS))
def test_products_are_row_subset_exact_at_desk_shapes(name):
    # packing, the distinct-window encoder and every batch-size change rest
    # on this: a row's bits do not depend on which rows share its product
    inner, cols = DESK_PRODUCTS[name]
    rng = np.random.default_rng(inner + cols)
    a = rng.normal(size=(512, inner))
    w = rng.normal(scale=0.1, size=(inner, cols))
    full = a @ w
    for m in range(2, 33):
        for rows in (np.arange(m), np.sort(rng.choice(512, m, replace=False))):
            assert np.array_equal(a[rows] @ w, full[rows]), (name, m)
    for i in (0, 511):   # a lone row, as one of two
        assert np.array_equal(ad.row_stable_matmul(a[i:i + 1], w),
                              full[i:i + 1]), name


def _packed_data(rng, sizes, batch, d_in, h):
    return {"x": rng.normal(scale=2.0, size=(sum(sizes), d_in)),
            "hidden": rng.normal(size=(batch, h)),
            "cell": rng.normal(size=(batch, h)),
            "w_x": rng.normal(scale=0.5, size=(d_in, 4 * h)),
            "w_h": rng.normal(scale=0.5, size=(h, 4 * h)),
            "b": rng.normal(size=4 * h)}


@pytest.mark.parametrize("sizes,batch", [
    ([3, 2, 1], 3),        # the last step runs one row of three
    ([2, 2, 1, 1], 4),     # rows 2 and 3 never step; two one-row steps
    ([1], 2),              # one one-row step
    ([2, 2, 2], 2),        # every row steps: the uniform layout
])
@pytest.mark.parametrize("loss_on", [("hidden", "cell"), ("cell",)])
def test_packed_lstm_cell_vs_finite_differences(sizes, batch, loss_on):
    rng = np.random.default_rng(93 + len(sizes))
    data = _packed_data(rng, sizes, batch, 3, 4)
    p_h = rng.normal(size=(sum(sizes), 4)) * ("hidden" in loss_on)
    p_c = rng.normal(size=(batch, 4))
    ts = {k: t(v, grad=True) for k, v in data.items()}

    def graph():
        hid, cel = ad.lstm_cell(ts["x"], ts["hidden"], ts["cell"], ts["w_x"],
                                ts["w_h"], ts["b"], batch_sizes=sizes)
        return ad.add(ad.tsum(ad.mul(hid, t(p_h))),
                      ad.tsum(ad.mul(cel, t(p_c))))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, list(ts.values()), tol=1e-5)
    if sizes[0] < batch:   # a row that never steps passes its state through
        assert not ts["hidden"].grad[sizes[0]:].any()
        assert np.array_equal(ts["cell"].grad[sizes[0]:], p_c[sizes[0]:])


@pytest.mark.parametrize("d_in,h", [(64, 64), (128, 64)],
                         ids=["decoder", "guider"])
def test_packed_lstm_rows_equal_uniform_calls_at_desk(d_in, h):
    # the uniform calls run the whole padded batch, for as many steps as
    # each row's length; the packed call runs only the real pairs, down to
    # one-row steps at the end, and rows that never step
    rng = np.random.default_rng(96)
    batch, steps = 32, 11
    lengths = np.concatenate([[steps, steps - 1],
                              np.sort(rng.integers(1, steps, size=batch - 4))
                              [::-1], [0, 0]])
    sizes = ad.packed_sizes(lengths)
    assert sizes[-1] == 1 and sizes[0] == batch - 2
    data = _packed_data(rng, [batch] * steps, batch, d_in, h)
    step, row = ad.packed_index(sizes)
    args = [t(data[k]) for k in ("hidden", "cell", "w_x", "w_h", "b")]
    hid, cel = ad.lstm_cell(t(data["x"][step * batch + row]), *args,
                            batch_sizes=sizes)
    for n in range(1, steps + 1):
        u_hid, u_cel = ad.lstm_cell(t(data["x"][:n * batch]), *args)
        done = step < n
        assert np.array_equal(hid.values[done],
                              u_hid.values[step[done] * batch + row[done]])
        assert np.array_equal(cel.values[lengths == n],
                              u_cel.values[lengths == n])
    assert np.array_equal(cel.values[lengths == 0], data["cell"][-2:])


def test_packed_batch_sizes_are_checked():
    rng = np.random.default_rng(97)
    w_x, w_h, b = _lstm_params(rng, 3, 4)
    state = t(np.zeros((3, 4)))
    x = t(rng.normal(size=(5, 3)))
    for sizes in ([2, 3], [3, 2, 0], [4, 1], [3, 1], [3, 3], [], [3, -1, 3]):
        with pytest.raises(DimensionError):   # increasing, empty, > B, sum
            ad.lstm_cell(x, state, state, w_x, w_h, b, batch_sizes=sizes)
    hid, cel = ad.lstm_cell(x, state, state, w_x, w_h, b, batch_sizes=[3, 2])
    assert hid.shape == (5, 4) and cel.shape == (3, 4)
    assert ad.packed_sizes([4, 2, 2, 0]) == [3, 3, 1, 1]
    assert ad.packed_sizes([0, 0]) == [] and ad.packed_sizes([]) == []
    step, row = ad.packed_index([3, 1])
    assert step.tolist() == [0, 0, 0, 1] and row.tolist() == [0, 1, 2, 0]


def _conv_grads(conv_fn, data, width, stride):
    x, kernel, bias = (t(data[k], grad=True) for k in ("x", "kernel", "bias"))
    with ad.tape():
        out = conv_fn(x, kernel, bias, width, stride)
        loss = ad.tsum(ad.mul(out, t(data["proj"][..., :out.shape[-2], :])))
    ad.backward(loss)
    return out.values, [x.grad, kernel.grad, bias.grad]


@pytest.mark.parametrize("width,stride", [(3, 1), (3, 2), (5, 2), (2, 3)])
@pytest.mark.parametrize("clips", [True, False])
@pytest.mark.parametrize("batch", [1, 3])
def test_fused_conv1d_equals_composed_ops(width, stride, clips, batch):
    # the case's shape, another batch size, then the case's shape again:
    # conv1d's window indices are cached per shape, and a stale one fails.
    # clips: signed data, so the ReLU zeroes some outputs; otherwise
    # nonnegative data, so it passes every output through
    rng = np.random.default_rng(41 + width + stride)
    length, in_ch, out_ch = 11, 4, 3
    draw = rng.normal if clips else rng.uniform
    for rows in (batch, 2, batch):
        data = {"x": draw(size=(rows, length, in_ch)),
                "kernel": draw(size=(width * in_ch, out_ch)),
                "bias": draw(size=out_ch),
                "proj": rng.normal(size=(rows, length, out_ch))}
        f_out, f_grads = _conv_grads(ad.conv1d, data, width, stride)
        o_out, o_grads = _conv_grads(oracle_conv1d, data, width, stride)
        assert np.array_equal(f_out, o_out)
        assert (f_out == 0.0).any() == clips   # the ReLU mask, both ways
        for fg, og in zip(f_grads, o_grads):
            assert np.array_equal(fg, og)


def test_conv_window_indices_are_built_once_and_read_only():
    starts, idx = ad._conv_windows(3, 11, 5, 2)
    assert ad._conv_windows(3, 11, 5, 2)[1] is idx
    assert starts.tolist() == [0, 2, 4, 6] and len(idx) == 3 * 4 * 5
    for arr in (starts, idx):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_fused_conv1d_equals_composed_ops_at_desk_size():
    rng = np.random.default_rng(47)
    data = {"x": rng.normal(size=(32, 17, 64)),
            "kernel": rng.normal(scale=0.1, size=(5 * 64, 64)),
            "bias": rng.normal(size=64),
            "proj": rng.normal(size=(32, 7, 64))}
    f_out, f_grads = _conv_grads(ad.conv1d, data, 5, 2)
    o_out, o_grads = _conv_grads(oracle_conv1d, data, 5, 2)
    assert np.array_equal(f_out, o_out)
    for fg, og in zip(f_grads, o_grads):
        assert np.array_equal(fg, og)


def _head_grads(head_fn, data, names, frozen, *consts):
    """head_fn's output on tensors made from data[names], then consts, and
    every input's gradient under the loss sum(out * proj); the names in
    frozen take none."""
    ts = [t(data[k], grad=k not in frozen) for k in names]
    with ad.tape():
        out = head_fn(*ts, *consts)
        ad.backward(ad.tsum(ad.mul(out, t(data["proj"]))))
    return out.values, [x.grad for x in ts]


def _assert_equal_heads(fused, oracle):
    assert np.array_equal(fused[0], oracle[0])
    for fg, og in zip(fused[1], oracle[1]):
        assert (fg is None and og is None) or np.array_equal(fg, og)


@pytest.mark.parametrize("batch,n,m", [(1, 5, 6), (7, 5, 6),
                                       (352, 64, 128),   # DESK guider head
                                       (32, 256, 128)])  # DESK encoder MLP
@pytest.mark.parametrize("frozen", [(), ("x",), ("w", "b")])
def test_linear_equals_composed_ops(batch, n, m, frozen):
    rng = np.random.default_rng(61 + n)
    data = {"x": rng.normal(size=(batch, n)),
            "w": rng.normal(scale=0.5, size=(n, m)), "b": rng.normal(size=m),
            "proj": rng.normal(size=(batch, m))}
    names = ("x", "w", "b")
    _assert_equal_heads(_head_grads(ad.linear, data, names, frozen),
                        _head_grads(oracle_linear, data, names, frozen))


@pytest.mark.parametrize("batch,h,f,v", [(1, 6, 5, 9), (7, 6, 5, 9),
                                         (1, 64, 128, 60),
                                         (352, 64, 128, 60)])  # DESK sizes
@pytest.mark.parametrize("frozen", [("pred",), (), ("h", "out_w")])
def test_gated_head_equals_composed_ops(batch, h, f, v, frozen):
    # the guider's prediction is a constant on every program path
    rng = np.random.default_rng(67 + batch)
    mask = np.zeros(v)
    mask[:3] = -1e30
    data = {"h": rng.normal(size=(batch, h)),
            "pred": rng.normal(size=(batch, f)),
            "out_w": rng.normal(scale=0.3, size=(h, f)),
            "out_b": rng.normal(size=f),
            "gate_w": rng.normal(scale=0.3, size=(f, f)),
            "gate_b": rng.normal(size=f),
            "vocab_w": rng.normal(scale=0.3, size=(f, v)),
            "proj": rng.normal(size=(batch, v))}
    names = ("h", "pred", "out_w", "out_b", "gate_w", "gate_b", "vocab_w")
    _assert_equal_heads(
        _head_grads(ad.gated_head, data, names, frozen, mask),
        _head_grads(oracle_gated_head, data, names, frozen, mask))
    with pytest.raises(DimensionError):   # rows that numpy would broadcast
        ad.gated_head(*(t(np.concatenate([data[k]] * 2) if k == "h"
                          else data[k]) for k in names), mask)


def test_sigmoid_equals_masked_formula():
    x = np.concatenate([np.random.default_rng(5).normal(scale=8.0, size=500),
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0,
                         -745.0, 1e308, -1e308]])
    pos = x >= 0
    expected = np.empty_like(x)
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert np.array_equal(ad._sigmoid(x), expected)


# ---------------------------------------------------------------------------
# fused cells: tape size and input gradients
# ---------------------------------------------------------------------------

def test_fused_cells_record_one_node_each():
    rng = np.random.default_rng(51)
    w_x, w_h, b = _lstm_params(rng, 3, 4)
    with ad.tape() as tp:
        ad.lstm_cell(t(rng.normal(size=(2, 3))), t(np.zeros((2, 4))),
                     t(np.zeros((2, 4))), w_x, w_h, b)
    assert len(tp.nodes) <= 2
    kernel = t(rng.normal(size=(6, 2)), grad=True)
    for x in (t(rng.normal(size=(1, 7, 2)), grad=True),
              t(rng.normal(size=(2, 7, 2)), grad=True)):
        with ad.tape() as tp:
            ad.conv1d(x, kernel, t(np.zeros(2), grad=True), 3, 2)
        assert len(tp.nodes) == 1
    h, f = t(rng.normal(size=(2, 4)), grad=True), t(rng.normal(size=(2, 3)))
    w, b = t(rng.normal(size=(3, 3)), grad=True), t(np.zeros(3), grad=True)
    with ad.tape() as tp:
        ad.linear(h, t(np.ones((4, 3))), b)
        ad.gated_head(h, f, t(np.ones((4, 3))), b, w, b, w, np.zeros(3))
    assert len(tp.nodes) == 2


def test_desk_mle_batch_tape_size():
    desk = ModelProfile(64, 128, 64, (64, 128), (5, 5), (2, 2), max_len=16)
    grammar = desk_grammar()
    batch = sample_grammar(grammar, 64, seed=7, max_len=16)[:32]
    models = Models(len(grammar.vocabulary()),
                    TrainConfig(seed=7, profile=desk, max_len=16, c=4,
                                batch_size=32))
    with ad.tape() as tp:
        mle_loss(batch, models.encoder, models.generator, models.guider)
    assert len(tp.nodes) <= 160   # 306 with the composed cells


def test_lstm_input_gradients_batched_vs_finite_differences():
    rng = np.random.default_rng(52)
    d_in, h, batch = 3, 4, 3
    w_x, w_h, b = _lstm_params(rng, d_in, h)
    b.values[:] = rng.normal(size=4 * h)
    x = t(rng.normal(size=(batch, d_in)), grad=True)
    hid = t(rng.normal(size=(batch, h)), grad=True)
    cel = t(rng.normal(size=(batch, h)), grad=True)
    p_h, p_c = rng.normal(size=(batch, h)), rng.normal(size=(batch, h))

    def graph():
        new_h, new_c = ad.lstm_cell(x, hid, cel, w_x, w_h, b)
        return ad.add(ad.tsum(ad.mul(new_h, t(p_h))),
                      ad.tsum(ad.mul(new_c, t(p_c))))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, [x, hid, cel], tol=1e-5)


def test_conv1d_input_gradient_batched_vs_finite_differences():
    rng = np.random.default_rng(53)
    batch, length, width, stride, in_ch, out_ch = 2, 9, 3, 2, 2, 3
    x = t(rng.normal(size=(batch, length, in_ch)), grad=True)
    kernel = t(rng.normal(size=(width * in_ch, out_ch)))
    bias = t(rng.normal(size=out_ch))
    w = rng.normal(size=(batch, 4, out_ch))

    def graph():
        return ad.tsum(ad.mul(ad.conv1d(x, kernel, bias, width, stride),
                              t(w)))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, [x], tol=1e-5)


# ---------------------------------------------------------------------------
# batch-first input only
# ---------------------------------------------------------------------------

def _unbatched_call(kind):
    """A call giving `kind` one example without its batch axis."""
    rng = np.random.default_rng(61)
    prof = ModelProfile(6, 10, 8, (8, 10), (3, 3), (2, 2), max_len=12)
    w_x, w_h, b = _lstm_params(rng, 3, 4)
    if kind == "matmul":
        return lambda: ad.matmul(t(np.ones(4)), t(np.ones((4, 3))))
    if kind == "lstm_cell":
        return lambda: ad.lstm_cell(t(np.ones(3)), t(np.zeros(4)),
                                    t(np.zeros(4)), w_x, w_h, b)
    if kind == "conv1d":
        return lambda: ad.conv1d(t(np.ones((7, 2))), t(np.ones((6, 3))),
                                 t(np.zeros(3)), 3, 2)
    if kind == "guider_step":
        gui = GuiderParams(prof, rng)
        return lambda: guider_step(initial_state(gui, t(np.zeros(8))),
                                   t(np.ones(10)), gui)
    if kind == "initial_hidden":
        gen = GeneratorParams(12, prof, rng, ad.init_matrix(rng, 12, 6))
        return lambda: initial_hidden(t(np.ones(10)), gen)
    styled = GuiderParams(prof, rng, num_labels=2)
    return lambda: initial_state(styled, None, 1)


@pytest.mark.parametrize("kind", ["matmul", "lstm_cell", "conv1d",
                                  "guider_step", "initial_hidden",
                                  "initial_state"])
def test_unbatched_input_raises_dimension_error(kind):
    with pytest.raises(DimensionError):
        _unbatched_call(kind)()


# ---------------------------------------------------------------------------
# cosine similarity (row-wise)
# ---------------------------------------------------------------------------

def cos(a, b):
    """Cosine of two 1-D vectors through ad.row_cosine on single rows."""
    return ad.row_cosine(np.reshape(a, (1, -1)),
                         t(np.reshape(b, (1, -1)))).values[0]


def test_cosine_self_similarity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.normal(size=rng.integers(1, 8))
        if np.linalg.norm(v) < 1e-6:
            continue
        assert abs(cos(v, v) - 1.0) < 1e-12


def test_cosine_orthogonal():
    assert cos([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    got = cos([1.0, 1.0], [1.0, 0.0])
    assert abs(got - 0.7071067811865475) < 1e-9


def test_cosine_zero_vector_rule():
    assert cos([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cos([1.0, 2.0], [1e-13, 0.0]) == 0.0
    # a zero row gives 0 without disturbing the other rows
    got = ad.row_cosine(np.array([[0.0, 0.0], [1.0, 1.0]]),
                        t([[1.0, 2.0], [1.0, 0.0]])).values
    assert got[0] == 0.0 and abs(got[1] - 0.7071067811865475) < 1e-9


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        alpha = float(rng.uniform(0.1, 10.0))
        c1 = cos(a, b)
        c2 = cos(b, a)
        c3 = cos(alpha * a, b)
        assert abs(c1 - c2) < 1e-12
        assert abs(c1 - c3) < 1e-12
        assert -1.0 - 1e-12 <= c1 <= 1.0 + 1e-12


def test_cosine_gradient():
    # the target is data: only the tensor side is differentiated
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 6))
    b = t(rng.normal(size=(3, 6)), grad=True)
    w = rng.normal(size=3)
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.row_cosine(a, b), t(w)))
    ad.backward(loss)
    def forward():
        dots = (a * b.values).sum(axis=1)
        norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b.values, axis=1)
        return float((dots / norms * w).sum())
    check_grads(forward, [b], tol=1e-6)


def test_cosine_dimension_error():
    with pytest.raises(DimensionError):
        ad.row_cosine(np.array([[1.0, 2.0]]), t([[1.0, 2.0, 3.0]]))
    with pytest.raises(DimensionError):
        ad.row_cosine(np.array([1.0, 2.0]), t([1.0, 2.0]))


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3), grad=True)
    with ad.tape():
        loss = ad.tsum(x)
    ad.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_accumulates_across_uses():
    x = t(np.ones(4), grad=True)
    with ad.tape():
        loss = ad.add(ad.tsum(x), ad.tsum(x))
    ad.backward(loss)
    assert np.array_equal(x.grad, 2.0 * np.ones(4))


def test_backward_twice_on_same_tape_raises():
    x = t(np.ones(3), grad=True)
    with ad.tape():
        loss = ad.tsum(x)
    ad.backward(loss)
    with pytest.raises(TapeError):
        ad.backward(loss)


def test_backward_non_scalar_raises():
    x = t(np.ones(3), grad=True)
    with ad.tape():
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        ad.backward(y)


def test_backward_off_tape_raises():
    x = t(np.ones(1), grad=True)
    y = ad.tsum(x)  # no active tape
    with pytest.raises(ContractError):
        ad.backward(y)


def test_walked_tape_is_freed_without_the_cyclic_gc():
    # backward drops each node's saved arrays as it walks, here conv1d's
    # window matrix, the largest array the graph allocates; the node list
    # keeps every output and its gradient for whoever reads them right
    # after, and once the block ends the graph goes with the last reference
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(1, 125000, 8)), grad=True)         # 10**6 values
    kernel = t(rng.normal(size=(4 * 8, 2)), grad=True)
    window_bytes = 8 * (125000 - 3) * 4 * 8
    gc.disable()
    tracemalloc.start()
    try:
        with ad.tape() as tp:
            y = ad.conv1d(x, kernel, t(np.zeros(2), grad=True), 4, 1)
            loss = ad.tsum(ad.mul(y, y))
            largest_after_forward = max(
                tr.size for tr in tracemalloc.take_snapshot().traces)
            ad.backward(loss)
            largest = max(tr.size for tr in tracemalloc.take_snapshot().traces)
            assert len(tp.nodes) == 3
            assert all(out.grad is not None for out, _ in tp.nodes)
        del loss, y
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert largest_after_forward >= window_bytes
    assert largest < window_bytes
    # x.grad and the cached window layout; the outputs and their grads went
    assert held < 2 * x.values.nbytes


def test_no_grad_suspends_recording():
    x = t(np.ones(3), grad=True)
    with ad.tape():
        with ad.no_grad():
            y = ad.tsum(x)
        after = ad.tsum(x)   # recording resumes after the block
        with pytest.raises(KeyError), ad.no_grad():
            raise KeyError
        after_raise = ad.tsum(x)   # and after a block that raised
    assert y._tape is None and not y.requires_grad
    assert after._tape is not None and after_raise._tape is not None


def test_composite_loss_gradient():
    # small encoder-like chain: conv -> relu -> matmul -> cosine against target
    rng = np.random.default_rng(12)
    x = t(rng.normal(size=(1, 8, 3)))
    kernel = t(rng.normal(size=(9, 4)), grad=True)
    bias = t(np.zeros(4), grad=True)
    w = t(rng.normal(size=(4, 5)), grad=True)
    target = rng.normal(size=5)

    def graph():
        feats = ad.reshape(ad.conv1d(x, kernel, bias, 3, 2), (3, 4))
        pooled = ad.matmul(t(np.ones((1, feats.shape[0]))), feats)
        return ad.tsum(ad.row_cosine(target.reshape(1, -1),
                                     ad.matmul(pooled, w)))

    with ad.tape():
        loss = graph()
    ad.backward(loss)

    def forward():
        with ad.no_grad():
            return graph().item()

    check_grads(forward, [kernel, bias, w], tol=1e-4)


# ---------------------------------------------------------------------------
# fd property sweep over every differentiable op (module invariant)
# ---------------------------------------------------------------------------

def test_every_op_matches_finite_differences_randomized():
    rng = np.random.default_rng(13)
    cases = 0
    for _ in range(25):
        a = t(rng.normal(size=(3, 4)), grad=True)
        b = t(rng.normal(size=(3, 4)), grad=True)
        c = t(rng.normal(size=(4, 2)), grad=True)
        v = t(rng.normal(size=(1, 4)), grad=True)
        w = t(rng.normal(size=(4, 2)), grad=True)
        u = t(rng.normal(size=(2, 5)), grad=True)
        wb, ub = t(rng.normal(size=2), grad=True), t(rng.normal(size=2),
                                                     grad=True)
        mask = rng.normal(size=5)
        builders = {
            "add": (lambda: ad.tsum(ad.exp(ad.scale(ad.add(a, b), 0.3))),
                    lambda: float(np.exp(0.3 * (a.values + b.values)).sum()),
                    [a, b]),
            "mul": (lambda: ad.tsum(ad.mul(a, b)),
                    lambda: float((a.values * b.values).sum()), [a, b]),
            "matmul": (lambda: ad.tsum(ad.exp(ad.scale(ad.matmul(a, c), 0.3))),
                       lambda: float(np.exp(0.3 * (a.values @ c.values)).sum()),
                       [a, c]),
            "exp": (lambda: ad.tsum(ad.exp(ad.scale(a, 0.3))),
                    lambda: float(np.exp(0.3 * a.values).sum()), [a]),
            "relu": (lambda: ad.tsum(ad.mul(ad.relu(a), b)),
                     lambda: float((np.maximum(a.values, 0.0)
                                    * b.values).sum()), [a]),
            "softmax": (lambda: ad.tsum(ad.mul(ad.softmax(a), b)),
                        lambda: _softmax_weighted_sum(a.values, b.values), [a]),
            "gather": (lambda: ad.tsum(ad.gather_rows(a, [0, 2, 2])),
                       lambda: float(a.values[[0, 2, 2]].sum()), [a]),
            "pick": (lambda: ad.tsum(ad.pick(a, [0, 1, 2], [3, 0, 1])),
                     lambda: float(a.values[[0, 1, 2], [3, 0, 1]].sum()), [a]),
            "concat": (lambda: ad.tsum(ad.exp(ad.scale(
                           ad.concat([a, b], axis=1), 0.3))),
                       lambda: float(np.exp(0.3 * np.concatenate(
                           [a.values, b.values], axis=1)).sum()), [a, b]),
            "cosine": (lambda: ad.tsum(ad.row_cosine(np.ones((1, 4)), v)),
                       lambda: float(v.values.sum() /
                                     (np.linalg.norm(v.values) * 2.0)), [v]),
            "linear": (lambda: ad.tsum(ad.exp(ad.scale(ad.linear(a, c, wb),
                                                       0.3))),
                       lambda: float(np.exp(0.3 * (a.values @ c.values
                                                   + wb.values)).sum()),
                       [a, c, wb]),
            "gated_head": (lambda: ad.tsum(ad.exp(ad.scale(ad.gated_head(
                               a, b, c, wb, w, ub, u, mask), 0.03))),
                           lambda: float(np.exp(0.03 * (
                               ((a.values @ c.values + wb.values)
                                * (b.values @ w.values + ub.values))
                               @ u.values + mask)).sum()),
                           [a, b, c, wb, w, ub, u]),
        }
        for name, (build, fwd, params) in builders.items():
            for p in params:
                p.zero_grad()
            with ad.tape():
                loss = build()
            ad.backward(loss)
            check_grads(fwd, params, tol=1e-4)
            cases += 1
    assert cases >= 100


def _softmax_weighted_sum(x, w):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return float((e / e.sum(axis=-1, keepdims=True) * w).sum())


def test_every_recording_op_is_gradient_checked():
    # every differentiable op stays gradient-checked, the next fused one
    # too: each function of autodiff.py that records a node is named in a
    # test that compares gradients with finite differences by check_grads
    source = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    recording = {f.name for f in source.body
                 if isinstance(f, ast.FunctionDef)
                 and any(isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Attribute)
                         and n.func.attr == "record" for n in ast.walk(f))}
    assert {"add", "linear", "gated_head", "lstm_cell", "conv1d"} <= recording
    checked = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(f, ast.FunctionDef) and any(
                    isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "check_grads"
                    for n in ast.walk(f)):
                checked |= {n.attr for n in ast.walk(f)
                            if isinstance(n, ast.Attribute)
                            and getattr(n.value, "id", None) == "ad"}
    assert recording - checked == set()
