import gc
import tracemalloc

import numpy as np
import pytest

from gmgan import autodiff as ad
from gmgan.corpus import desk_grammar, sample_grammar
from gmgan.encoder import ModelProfile
from gmgan.errors import ContractError, DimensionError, TapeError
from gmgan.generator import mle_loss
from gmgan.trainer import Models, TrainConfig
from helpers import check_grads, rel_err


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


def test_matmul_vector_promotion():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=4), grad=True)
    w = t(rng.normal(size=(4, 3)), grad=True)
    with ad.tape():
        out = ad.matmul(x, w)
        assert out.shape == (3,)
        loss = ad.tsum(out)
    ad.backward(loss)
    def forward():
        return float((x.values @ w.values).sum())
    check_grads(forward, [x, w], tol=1e-6)


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


@pytest.mark.parametrize("kind", ["mul", "add", "sub"])
def test_elementwise_gradients(kind):
    rng = np.random.default_rng(2)
    a = t(rng.normal(size=(2, 3)), grad=True)
    b = t(rng.normal(size=(2, 3)), grad=True)
    op = {"mul": ad.mul, "add": ad.add, "sub": ad.sub}[kind]
    with ad.tape():
        loss = ad.tsum(ad.mul(op(a, b), a))
    ad.backward(loss)
    np_op = {"mul": np.multiply, "add": np.add, "sub": np.subtract}[kind]
    def forward():
        return float((np_op(a.values, b.values) * a.values).sum())
    check_grads(forward, [a, b], tol=1e-6)


def test_bias_broadcast_gradient():
    rng = np.random.default_rng(3)
    a = t(rng.normal(size=(4, 3)), grad=True)
    b = t(rng.normal(size=3), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.tanh(ad.add(a, b)))
    ad.backward(loss)
    def forward():
        return float(np.tanh(a.values + b.values).sum())
    check_grads(forward, [a, b], tol=1e-6)


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
    w = t(rng.normal(size=5))
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.softmax(x), w))
    ad.backward(loss)
    def forward():
        e = np.exp(x.values - x.values.max(axis=-1, keepdims=True))
        return float((e / e.sum(axis=-1, keepdims=True) * w.values).sum())
    check_grads(forward, [x], tol=1e-6)

    x2 = t(rng.normal(size=(2, 4)), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.log_softmax(x2), w2 := t(rng.normal(size=4))))
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
    hid, cell = ad.lstm_cell(zeros(d_in), zeros(h), zeros(h),
                             zeros(d_in, 4 * h), zeros(h, 4 * h), zeros(4 * h))
    assert np.array_equal(hid.values, np.zeros(h))
    assert np.array_equal(cell.values, np.zeros(h))


def test_lstm_repeated_input_converges():
    rng = np.random.default_rng(6)
    d_in, h = 5, 6
    w_x, w_h, b = _lstm_params(rng, d_in, h)
    x = t(rng.normal(size=d_in))
    hid, cell = t(np.zeros(h)), t(np.zeros(h))
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
        hid, cell = t(np.zeros(h)), t(np.zeros(h))
        for x in xs:
            hid, cell = ad.lstm_cell(t(x), hid, cell, w_x, w_h, b)
        loss = ad.tsum(ad.mul(hid, t(proj)))
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
        ad.lstm_cell(t(np.zeros(3)), t(np.zeros(4)), t(np.zeros(4)),
                     t(np.zeros((3, 12))), t(np.zeros((4, 16))), t(np.zeros(16)))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv1d_constant_signal():
    length, width, in_ch, out_ch = 9, 3, 2, 4
    x = t(np.ones((length, in_ch)))
    kernel = t(np.full((width * in_ch, out_ch), 1.0 / (width * in_ch)))
    out = ad.conv1d(x, kernel, t(np.zeros(out_ch)), width, 1, apply_relu=False)
    assert out.shape == (7, out_ch)
    assert np.allclose(out.values, 1.0, atol=1e-14)


def test_conv1d_delta_recovers_kernel_column():
    # single input channel, width-3 kernel, delta at position 4 of 8
    length, width = 8, 3
    x = np.zeros((length, 1))
    x[4, 0] = 1.0
    kern = np.array([[2.0], [-3.0], [5.0]])  # rows: window offsets 0,1,2
    out = ad.conv1d(t(x), t(kern), t(np.zeros(1)), width, 1, apply_relu=False)
    # window starting at s sees the delta at offset 4-s: output = kern[4-s]
    expected = np.zeros((6, 1))
    for s in range(6):
        if 0 <= 4 - s < width:
            expected[s, 0] = kern[4 - s, 0]
    assert np.array_equal(out.values, expected)


def test_conv1d_stride_and_length_error():
    x = t(np.ones((4, 2)))
    k = t(np.ones((10, 3)))
    with pytest.raises(DimensionError):
        ad.conv1d(x, k, t(np.zeros(3)), 5, 2)


def test_conv1d_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    length, width, stride, in_ch, out_ch = 10, 3, 2, 2, 3
    x = t(rng.normal(size=(length, in_ch)), grad=True)
    kernel = t(rng.normal(size=(width * in_ch, out_ch)), grad=True)
    bias = t(rng.normal(size=out_ch), grad=True)
    w = rng.normal(size=(4, out_ch))

    with ad.tape():
        loss = ad.tsum(ad.mul(ad.conv1d(x, kernel, bias, width, stride), t(w)))
    ad.backward(loss)

    def forward():
        n_win = (length - width) // stride + 1
        total = 0.0
        for s in range(n_win):
            win = x.values[s * stride:s * stride + width].reshape(-1)
            total += float(np.maximum(win @ kernel.values + bias.values, 0.0) @ w[s])
        return total

    check_grads(forward, [x, kernel, bias], tol=1e-5)


# ---------------------------------------------------------------------------
# fused cells against the composed ops they replace (exactness oracle)
# ---------------------------------------------------------------------------

def oracle_lstm_cell(x, hidden, cell, w_x, w_h, b):
    """lstm_cell built from generic ops, 17 nodes per batched step."""
    single = x.values.ndim == 1
    if single:
        x = ad.reshape(x, (1, -1))
        hidden = ad.reshape(hidden, (1, -1))
        cell = ad.reshape(cell, (1, -1))
    h_dim = hidden.shape[1]
    z = ad.add(ad.add(ad.matmul(x, w_x), ad.matmul(hidden, w_h)), b)
    i = ad.sigmoid(ad.slice_cols(z, 0, h_dim))
    f = ad.sigmoid(ad.slice_cols(z, h_dim, 2 * h_dim))
    o = ad.sigmoid(ad.slice_cols(z, 2 * h_dim, 3 * h_dim))
    g = ad.tanh(ad.slice_cols(z, 3 * h_dim, 4 * h_dim))
    new_cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
    new_hidden = ad.mul(o, ad.tanh(new_cell))
    if single:
        new_hidden = ad.reshape(new_hidden, (h_dim,))
        new_cell = ad.reshape(new_cell, (h_dim,))
    return new_hidden, new_cell


def oracle_conv1d(x, kernel, bias, width, stride, apply_relu=True):
    """conv1d built from generic ops: gather, matmul, bias, ReLU."""
    single = x.values.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)
    batch, length, in_ch = x.shape
    n_win = ad.conv_output_length(length, width, stride)
    starts = np.arange(n_win) * stride
    win = starts[:, None] + np.arange(width)[None, :]
    offs = (np.arange(batch) * length)[:, None, None]
    idx = (offs + win[None, :, :]).reshape(-1)
    flat = ad.reshape(x, (batch * length, in_ch))
    windows = ad.reshape(ad.gather_rows(flat, idx),
                         (batch * n_win, width * in_ch))
    out = ad.add(ad.matmul(windows, kernel), bias)
    if apply_relu:
        out = ad.relu(out)
    out = ad.reshape(out, (batch, n_win, kernel.shape[1]))
    if single:
        out = ad.reshape(out, (n_win, kernel.shape[1]))
    return out


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
    (None, 1, ("hidden", "cell"), 5, 6),   # 1-D single path
    (5, 1, ("hidden", "cell"), 5, 6),
    (5, 1, ("hidden",), 5, 6),
    (None, 3, ("hidden",), 5, 6),
    (4, 3, ("hidden", "cell"), 5, 6),
    (4, 3, ("cell",), 5, 6),               # only the final cell is read
    (1, 3, ("cell",), 5, 6),
    (32, 2, ("hidden", "cell"), 64, 64),   # the DESK decoder's sizes
])
def test_fused_lstm_cell_equals_composed_ops(batch, steps, loss_on, d_in, h):
    rng = np.random.default_rng(31 + steps)
    lead = () if batch is None else (batch,)
    data = {"hidden": rng.normal(size=lead + (h,)),
            "cell": rng.normal(size=lead + (h,)),
            "w_x": rng.normal(scale=0.5, size=(d_in, 4 * h)),
            "w_h": rng.normal(scale=0.5, size=(h, 4 * h)),
            "b": rng.normal(size=4 * h),
            "p_h": rng.normal(size=lead + (h,)),
            "p_c": rng.normal(size=lead + (h,))}
    for s in range(steps):
        data["x%d" % s] = rng.normal(scale=2.0, size=lead + (d_in,))
    fh, fc, fgrads = _lstm_chain(ad.lstm_cell, data, steps, loss_on)
    oh, oc, ograds = _lstm_chain(oracle_lstm_cell, data, steps, loss_on)
    assert np.array_equal(fh, oh) and np.array_equal(fc, oc)
    for name in ograds:
        if ograds[name] is None:
            assert fgrads[name] is None, name
        else:
            assert np.array_equal(fgrads[name], ograds[name]), name


def _conv_grads(conv_fn, data, width, stride, apply_relu):
    x, kernel, bias = (t(data[k], grad=True) for k in ("x", "kernel", "bias"))
    with ad.tape():
        out = conv_fn(x, kernel, bias, width, stride, apply_relu=apply_relu)
        loss = ad.tsum(ad.mul(out, t(data["proj"][..., :out.shape[-2], :])))
    ad.backward(loss)
    return out.values, [x.grad, kernel.grad, bias.grad]


@pytest.mark.parametrize("width,stride", [(3, 1), (3, 2), (5, 2), (2, 3)])
@pytest.mark.parametrize("apply_relu", [True, False])
@pytest.mark.parametrize("batch", [None, 3])
def test_fused_conv1d_equals_composed_ops(width, stride, apply_relu, batch):
    rng = np.random.default_rng(41 + width + stride)
    length, in_ch, out_ch = 11, 4, 3
    lead = () if batch is None else (batch,)
    data = {"x": rng.normal(size=lead + (length, in_ch)),
            "kernel": rng.normal(size=(width * in_ch, out_ch)),
            "bias": rng.normal(size=out_ch),
            "proj": rng.normal(size=lead + (length, out_ch))}
    f_out, f_grads = _conv_grads(ad.conv1d, data, width, stride, apply_relu)
    o_out, o_grads = _conv_grads(oracle_conv1d, data, width, stride, apply_relu)
    assert np.array_equal(f_out, o_out)
    if apply_relu:
        assert (f_out == 0.0).any()   # the ReLU mask is exercised
    for fg, og in zip(f_grads, o_grads):
        assert np.array_equal(fg, og)


def test_fused_conv1d_equals_composed_ops_at_desk_size():
    rng = np.random.default_rng(47)
    data = {"x": rng.normal(size=(32, 17, 64)),
            "kernel": rng.normal(scale=0.1, size=(5 * 64, 64)),
            "bias": rng.normal(size=64),
            "proj": rng.normal(size=(32, 7, 64))}
    f_out, f_grads = _conv_grads(ad.conv1d, data, 5, 2, True)
    o_out, o_grads = _conv_grads(oracle_conv1d, data, 5, 2, True)
    assert np.array_equal(f_out, o_out)
    for fg, og in zip(f_grads, o_grads):
        assert np.array_equal(fg, og)


def test_sigmoid_equals_masked_formula():
    x = np.concatenate([np.random.default_rng(5).normal(scale=8.0, size=500),
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0,
                         -745.0, 1e308, -1e308]])
    pos = x >= 0
    expected = np.empty_like(x)
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert np.array_equal(ad.sigmoid(t(x)).values, expected)


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
    with ad.tape() as tp:
        ad.lstm_cell(t(rng.normal(size=3)), t(np.zeros(4)), t(np.zeros(4)),
                     w_x, w_h, b)
    assert len(tp.nodes) <= 2
    kernel = t(rng.normal(size=(6, 2)), grad=True)
    for x in (t(rng.normal(size=(7, 2)), grad=True),
              t(rng.normal(size=(2, 7, 2)), grad=True)):
        with ad.tape() as tp:
            ad.conv1d(x, kernel, t(np.zeros(2), grad=True), 3, 2)
        assert len(tp.nodes) == 1


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
# cosine similarity (row-wise)
# ---------------------------------------------------------------------------

def cos(a, b):
    """Cosine of two 1-D vectors through ad.row_cosine on single rows."""
    return ad.row_cosine(t(np.reshape(a, (1, -1))),
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
    got = ad.row_cosine(t([[0.0, 0.0], [1.0, 1.0]]),
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
    rng = np.random.default_rng(11)
    a = t(rng.normal(size=(3, 6)), grad=True)
    b = t(rng.normal(size=(3, 6)), grad=True)
    w = rng.normal(size=3)
    with ad.tape():
        loss = ad.tsum(ad.mul(ad.row_cosine(a, b), t(w)))
    ad.backward(loss)
    def forward():
        dots = (a.values * b.values).sum(axis=1)
        norms = (np.linalg.norm(a.values, axis=1)
                 * np.linalg.norm(b.values, axis=1))
        return float((dots / norms * w).sum())
    check_grads(forward, [a, b], tol=1e-6)


def test_cosine_dimension_error():
    with pytest.raises(DimensionError):
        ad.row_cosine(t([[1.0, 2.0]]), t([[1.0, 2.0, 3.0]]))
    with pytest.raises(DimensionError):
        ad.row_cosine(t([1.0, 2.0]), t([1.0, 2.0]))


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
    # the node list is still there for whoever reads it right after
    # backward; once the block ends the graph goes with the last reference
    x = t(np.ones(10 ** 6), grad=True)
    gc.disable()
    tracemalloc.start()
    try:
        with ad.tape() as tp:
            loss = ad.tsum(ad.mul(ad.mul(x, x), x))
            ad.backward(loss)
            assert len(tp.nodes) == 3
        del loss
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 2 * 8 * 10 ** 6   # x.grad; the products and their grads went


def test_detach_blocks_gradient():
    x = t(np.ones(3), grad=True)
    with ad.tape():
        loss = ad.tsum(ad.mul(x.detach(), x))
    ad.backward(loss)
    assert np.array_equal(x.grad, np.ones(3))  # only the tracked use


def test_no_grad_suspends_recording():
    x = t(np.ones(3), grad=True)
    with ad.tape():
        with ad.no_grad():
            y = ad.tsum(x)
    assert y._tape is None and not y.requires_grad


def test_composite_loss_gradient():
    # small encoder-like chain: conv -> relu -> matmul -> cosine against target
    rng = np.random.default_rng(12)
    x = t(rng.normal(size=(8, 3)))
    kernel = t(rng.normal(size=(9, 4)), grad=True)
    bias = t(np.zeros(4), grad=True)
    w = t(rng.normal(size=(4, 5)), grad=True)
    target = rng.normal(size=5)

    def graph():
        feats = ad.conv1d(x, kernel, bias, 3, 2)
        pooled = ad.matmul(t(np.ones((1, feats.shape[0]))), feats)
        return ad.tsum(ad.row_cosine(ad.matmul(pooled, w),
                                     t(target.reshape(1, -1))))

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
        builders = {
            "add": (lambda: ad.tsum(ad.tanh(ad.add(a, b))),
                    lambda: float(np.tanh(a.values + b.values).sum()), [a, b]),
            "sub": (lambda: ad.tsum(ad.tanh(ad.sub(a, b))),
                    lambda: float(np.tanh(a.values - b.values).sum()), [a, b]),
            "mul": (lambda: ad.tsum(ad.mul(a, b)),
                    lambda: float((a.values * b.values).sum()), [a, b]),
            "matmul": (lambda: ad.tsum(ad.tanh(ad.matmul(a, c))),
                       lambda: float(np.tanh(a.values @ c.values).sum()), [a, c]),
            "sigmoid": (lambda: ad.tsum(ad.sigmoid(a)),
                        lambda: float((1 / (1 + np.exp(-a.values))).sum()), [a]),
            "exp": (lambda: ad.tsum(ad.exp(ad.scale(a, 0.3))),
                    lambda: float(np.exp(0.3 * a.values).sum()), [a]),
            "softmax": (lambda: ad.tsum(ad.mul(ad.softmax(a), b)),
                        lambda: _softmax_weighted_sum(a.values, b.values), [a]),
            "gather": (lambda: ad.tsum(ad.gather_rows(a, [0, 2, 2])),
                       lambda: float(a.values[[0, 2, 2]].sum()), [a]),
            "pick": (lambda: ad.tsum(ad.pick(a, [0, 1, 2], [3, 0, 1])),
                     lambda: float(a.values[[0, 1, 2], [3, 0, 1]].sum()), [a]),
            "slice": (lambda: ad.tsum(ad.tanh(ad.slice_cols(a, 1, 3))),
                      lambda: float(np.tanh(a.values[:, 1:3]).sum()), [a]),
            "concat": (lambda: ad.tsum(ad.tanh(ad.concat([a, b], axis=1))),
                       lambda: float(np.tanh(np.concatenate(
                           [a.values, b.values], axis=1)).sum()), [a, b]),
            "cosine": (lambda: ad.tsum(ad.row_cosine(v, t(np.ones((1, 4))))),
                       lambda: float(v.values.sum() /
                                     (np.linalg.norm(v.values) * 2.0)), [v]),
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
