"""Shared test utilities: the central finite-difference gradient oracle, the
ops of the composed-op oracles of the fused nodes, the one-token rollout of
the bandit tests and the per-term dual-cosine means of criterion 6."""

import numpy as np

from gmgan import autodiff as ad
from gmgan.corpus import EOS
from gmgan.encoder import encode_batch
from gmgan.generator import GenerationTrace, _draw, decode
from gmgan.guider import dual_cosines, guider_step


def jiggle_params(named_tensors, rng, scale=0.05, keep_zero_rows=("embedding", 0)):
    """Nudge parameters off exact relu kinks before finite-difference checks.

    Zero-initialized biases put all-PAD conv windows exactly at relu(0), where
    central differences and any valid subgradient legitimately disagree. The
    PAD embedding row stays zero (that is a contract, and with nonzero biases
    it no longer sits on a kink).
    """
    suffix, row = keep_zero_rows
    for name, t in named_tensors:
        t.values += rng.normal(scale=scale, size=t.values.shape)
        if name.endswith(suffix):
            t.values[row] = 0.0


def rel_err(a, b):
    """Elementwise |a-b| / max(1, |a|, |b|), reduced to the max."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def fd_gradient(f, tensor, h=1e-5, coords=None):
    """Central differences of scalar f() w.r.t. tensor.values.

    f must re-run the forward pass from current values. Returns (grad, stable)
    where stable marks coordinates whose h and h/2 estimates agree (kinks in
    relu/max make single coordinates unreliable; those are flagged False).
    """
    flat = tensor.values.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    grad = np.zeros(flat.size)
    stable = np.ones(flat.size, dtype=bool)

    def central(i, step):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        return (fp - fm) / (2.0 * step)

    for i in coords:
        g1 = central(i, h)
        g2 = central(i, h / 2.0)
        grad[i] = g2
        if rel_err(g1, g2) > 1e-5:
            stable[i] = False
    return grad.reshape(tensor.values.shape), stable.reshape(tensor.values.shape)


def check_grads(f, tensors, tol, h=1e-5, max_coords=None, rng=None):
    """Assert autodiff grads on each tensor match finite differences of f().

    Each tensor must already carry .grad from a backward pass. Returns the
    worst relative error over all checked (stable) coordinates.
    """
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "tensor has no gradient"
        n = t.values.size
        if max_coords is not None and n > max_coords:
            assert rng is not None
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        fd, stable = fd_gradient(f, t, h=h, coords=coords)
        grad = t.grad
        for i in np.atleast_1d(np.asarray(list(coords))):
            if not stable.reshape(-1)[i]:
                continue
            e = rel_err(grad.reshape(-1)[i], fd.reshape(-1)[i])
            worst = max(worst, e)
            assert e < tol, "grad mismatch at coord %d: ad=%r fd=%r (rel %g)" % (
                i, grad.reshape(-1)[i], fd.reshape(-1)[i], e)
    return worst


# The ops of the composed-op oracles of the fused nodes, in autodiff's own
# op form. The sigmoid is autodiff's, so the oracles' `==` comparisons stay
# exact.

def _op(a, values, name, grad_of):
    out = ad._fresh(values, name)
    tp = ad._track(a)
    if tp:
        tp.record(out, lambda g: a.accumulate_grad(grad_of(g)))
    return out


def sigmoid(a):
    y = ad._sigmoid(a.values)
    return _op(a, y, "sigmoid", lambda g: g * y * (1.0 - y))


def tanh(a):
    y = np.tanh(a.values)
    return _op(a, y, "tanh", lambda g: g * (1.0 - y * y))


def slice_cols(a, start, stop):
    def grad_of(g):
        full = np.zeros_like(a.values)
        full[:, start:stop] = g
        return full
    return _op(a, np.ascontiguousarray(a.values[:, start:stop]),
               "slice_cols", grad_of)


def add_row(a, b):
    """a + b of a 2-D a and a bias row b; b's gradient sums over the rows."""
    out = ad._fresh(a.values + b.values, "add_row")
    tp = ad._track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g.sum(axis=0))
        tp.record(out, bw)
    return out


def oracle_linear(x, w, b):
    """ad.linear from generic ops: a matmul node, then a bias-row node."""
    return add_row(ad.matmul(x, w), b)


def oracle_gated_head(h, pred, out_w, out_b, gate_w, gate_b, vocab_w, mask):
    """ad.gated_head from generic ops, seven nodes: two affine maps, their
    elementwise product, the vocabulary product and the constant mask."""
    feat = oracle_linear(h, out_w, out_b)
    gate = oracle_linear(pred, gate_w, gate_b)
    logits = ad.matmul(ad.mul(feat, gate), vocab_w)
    return add_row(logits, ad.constant(mask))


def one_token_trace(init_feature, models, rng):
    """A one-step sampled rollout from one initial feature, traced as
    sample_sequence traces its row."""
    tokens = []

    def draw(logits, alive):
        tok = np.array([_draw(p, rng) for p in ad.softmax(logits).values])
        tokens.append(int(tok[0]))
        return ad.gather_rows(models.generator.embedding, tok), tok == EOS

    init = ad.constant(np.reshape(init_feature, (1, -1)))
    with ad.no_grad():
        prefix, features, predictions = decode(
            init, models.generator, models.guider, models.encoder, None, 1,
            draw)
        features.append(encode_batch(prefix, models.encoder).values)
    return GenerationTrace(tokens, [f[0] for f in features],
                           [p[0] for p in predictions], init.values[0].copy())


def objective_cosines(features, params, init_state, c):
    """Mean of each dual-cosine term over one sequence, whose (1, F)
    feature tensors f_0..f_T the guider reads from init_state."""
    feats = np.concatenate([f.values for f in features])
    target, anchor = feats[c:], feats[:-c]
    with ad.no_grad():
        pred = guider_step(init_state, ad.constant(anchor), params)[0]
        direct, direction = dual_cosines(target, pred, anchor)
    return float(direct.values.mean()), float(direction.values.mean())
