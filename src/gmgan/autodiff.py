"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Define-by-run: operations executed while a tape is active append one node
(output, backward closure) to a flat list, which is therefore already in
topological order. backward() walks the list once in reverse, accumulates
gradients additively into every upstream tensor that requires them and
drops each closure, with the arrays it saved, once it has run. The list
keeps every output and its gradient: perfbench's backward hook reads them.

Three fused nodes have hand-derived backwards: conv1d (gather, matmul,
bias, ReLU) and gated_head (the decoder's two affine maps, their product,
the vocabulary product and the mask) record one node each, and lstm_cell
two entries, one per output. new_hidden's entry runs the whole cell
backward and reads new_cell's gradient; new_cell's entry only makes sure
that the first fires when the cell alone received a gradient. Every
gradient receives its terms in the order the composed generic ops gave
them, so results are equal to theirs bit for bit (the tests keep those
compositions as oracles).

lstm_cell also runs T steps whose inputs are all known, as in teacher
forcing: x then holds every step's rows, one input product covers every
step, and the backward takes each weight gradient with one product over
all steps. Its outputs and input gradients equal those of T one-step calls
bit for bit; its weight gradients sum the same terms in another order.
Given per-step batch sizes it runs a packed batch, sorted longest first:
step t computes only the first batch_sizes[t] rows, the real (step, row)
pairs, so no padded pair costs a step. `packed_sizes` and `packed_index`
build that layout; `row_stable_matmul` gives a lone row the bits it has in
a larger product.

matmul takes 2-D operands, lstm_cell (B, d) rows per step and conv1d
(B, L, C) sequences: a single example is a batch of one; other ranks raise
DimensionError.

Values are numpy float64 arrays. Tensors are immutable after construction
except for gradient accumulation; a tape is single-threaded. With
DEBUG_CHECKS on, an op that produces NaN/Inf raises FloatingPointError
naming the op and the output shape, and so does backward when it reaches a
node whose output gradient holds NaN/Inf.
"""

import ctypes
import functools
import math
import platform
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, TapeError

# When True, every op output and every output gradient is checked for NaN/Inf.
# Off by default; backward() always checks the loss value.
DEBUG_CHECKS = False


def set_debug_checks(enabled):
    global DEBUG_CHECKS
    DEBUG_CHECKS = bool(enabled)


class Tensor:
    """A contiguous float64 array plus gradient bookkeeping."""

    __slots__ = ("values", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad=False):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite (got NaN or Inf)")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._tape = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.values.reshape(-1)[0])

    def accumulate_grad(self, g):
        if self.grad is None:
            # a copy, not zeros + g: equal except that it keeps a -0.0
            self.grad = np.array(g, dtype=np.float64, order="C")
            assert self.grad.shape == self.values.shape, (self.grad.shape,
                                                          self.values.shape)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


def _fresh(values, op):
    """Build the output of op `op`; it is only checked with DEBUG_CHECKS."""
    t = Tensor.__new__(Tensor)
    t.values = values
    t.requires_grad = False
    t.grad = None
    t._tape = None
    if DEBUG_CHECKS and not np.all(np.isfinite(values)):
        raise FloatingPointError("%s produced non-finite values, shape %r"
                                 % (op, values.shape))
    return t


class Tape:
    """Ordered record of operations; every node's inputs precede it."""

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def record(self, out, backward_fn):
        out.requires_grad = True
        out._tape = self
        self.nodes.append((out, backward_fn))


_ACTIVE_TAPE = None

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_heap_thresholds():
    """Keep freed memory in this process's heap; True if glibc took both.

    A tape block frees its whole batch graph at once when it ends. glibc's
    dynamic thresholds then trim that memory back to the OS, and the next
    batch, which needs the same arrays again, faults every page back in.
    Arrays under 32 MiB stay on the heap, and the heap's free top is kept
    up to 256 MiB. Setting either value turns the dynamic thresholds off,
    so both are set. Other C libraries are left as they are."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1
    return mmap_set and trim_set


HEAP_PINNED = _pin_heap_thresholds()


@contextmanager
def tape():
    """Activate a fresh tape for the duration of the block; yields it.

    Recorded outputs refer back to their tape. A tape that backward walked
    inside the block drops its nodes when the block ends, so the graph is
    freed with its last reference, not when the cyclic GC next runs."""
    global _ACTIVE_TAPE
    prev = _ACTIVE_TAPE
    t = Tape()
    _ACTIVE_TAPE = t
    try:
        yield t
    finally:
        _ACTIVE_TAPE = prev
        if t.consumed:
            t.nodes = []


@contextmanager
def no_grad():
    """Suspend recording; ops inside run forward-only."""
    global _ACTIVE_TAPE
    prev = _ACTIVE_TAPE
    _ACTIVE_TAPE = None
    try:
        yield
    finally:
        _ACTIVE_TAPE = prev


def _track(*tensors):
    if _ACTIVE_TAPE is None:
        return None
    if any(t.requires_grad for t in tensors):
        return _ACTIVE_TAPE
    return None


def backward(loss):
    """Run the reverse pass from a scalar loss recorded on a tape.

    Gradients accumulate additively across uses of a tensor and across
    separate backward calls on different tapes. A single tape may only be
    walked once (a second call raises TapeError), so each node drops its
    backward once it has run, and keeps its output and that one's gradient.
    """
    if loss.values.size != 1:
        raise ContractError("backward requires a scalar loss")
    if not math.isfinite(float(loss.values.reshape(-1)[0])):
        raise FloatingPointError("loss is not finite")
    tp = loss._tape
    if tp is None:
        raise ContractError("loss was not recorded on a tape")
    if tp.consumed:
        raise TapeError("backward already ran on this tape")
    tp.consumed = True
    loss.accumulate_grad(np.ones_like(loss.values))
    nodes = tp.nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, backward_fn = nodes[i]
        nodes[i] = (out, None)
        if out.grad is None:
            continue
        # every later node has added its part to out.grad by now
        if DEBUG_CHECKS and not np.all(np.isfinite(out.grad)):
            raise FloatingPointError(
                "%s output gradient is non-finite, shape %r"
                % (backward_fn.__qualname__.split(".")[0], out.grad.shape))
        backward_fn(out.grad)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise a + b of equal shapes."""
    if a.shape != b.shape:
        raise DimensionError("incompatible shapes %r and %r"
                             % (a.shape, b.shape))
    out = _fresh(a.values + b.values, "add")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)
        tp.record(out, bw)
    return out


def mul(a, b):
    """Elementwise a * b of equal shapes."""
    if a.shape != b.shape:
        raise DimensionError("incompatible shapes %r and %r"
                             % (a.shape, b.shape))
    out = _fresh(a.values * b.values, "mul")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * b.values)
            if b.requires_grad:
                b.accumulate_grad(g * a.values)
        tp.record(out, bw)
    return out


def scale(a, k):
    k = float(k)
    out = _fresh(a.values * k, "scale")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g * k)
        tp.record(out, bw)
    return out


def matmul(a, b):
    """Product of two 2-D tensors."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError("matmul expects 2-D operands with equal inner "
                             "extents, got %r and %r" % (av.shape, bv.shape))
    out = _fresh(av @ bv, "matmul")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g @ bv.T)
            if b.requires_grad:
                b.accumulate_grad(av.T @ g)
        tp.record(out, bw)
    return out


def _affine_grads(g, x, w, b):
    """The gradients of x @ w + b, given its output's: b's, x's, then w's,
    the order of the composed add and matmul nodes."""
    if b.requires_grad:
        b.accumulate_grad(g.sum(axis=0))
    if x.requires_grad:
        x.accumulate_grad(g @ w.values.T)
    if w.requires_grad:
        w.accumulate_grad(x.values.T @ g)


def linear(x, w, b):
    """x @ w + b of a 2-D x, a 2-D w and a bias row b, as one node."""
    if (x.values.ndim != 2 or w.values.ndim != 2
            or x.shape[1:] + b.shape != w.shape):
        raise DimensionError("linear operands %r, %r and %r are not (B, n), "
                             "(n, m) and (m,)" % (x.shape, w.shape, b.shape))
    out = _fresh(x.values @ w.values + b.values, "linear")
    tp = _track(x, w, b)
    if tp:
        tp.record(out, lambda g: _affine_grads(g, x, w, b))
    return out


def gated_head(h, pred, out_w, out_b, gate_w, gate_b, vocab_w, mask):
    """((h @ out_w + out_b) * (pred @ gate_w + gate_b)) @ vocab_w + mask of
    2-D h and pred with equal row counts and a constant mask row."""
    feat = h.values @ out_w.values + out_b.values
    gate = pred.values @ gate_w.values + gate_b.values
    if feat.shape != gate.shape:
        raise DimensionError("gated_head features %r and gates %r differ"
                             % (feat.shape, gate.shape))
    out = _fresh((feat * gate) @ vocab_w.values + mask, "gated_head")
    tp = _track(h, pred, out_w, out_b, gate_w, gate_b, vocab_w)
    if tp:
        def bw(g):
            # the composed nodes' order: vocab product, gate, feature
            if vocab_w.requires_grad:
                vocab_w.accumulate_grad((feat * gate).T @ g)
            g = g @ vocab_w.values.T
            _affine_grads(g * feat, pred, gate_w, gate_b)
            _affine_grads(g * gate, h, out_w, out_b)
        tp.record(out, bw)
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a):
    out = _fresh(np.maximum(a.values, 0.0), "relu")
    tp = _track(a)
    if tp:
        mask = a.values > 0.0
        def bw(g):
            a.accumulate_grad(g * mask)
        tp.record(out, bw)
    return out


def _sigmoid(x):
    """Logistic function of an array. exp(-|x|) never overflows; it gives
    1/(1+e) for x >= 0 and e/(1+e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def exp(a):
    y = np.exp(a.values)
    out = _fresh(y, "exp")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g * y)
        tp.record(out, bw)
    return out


def softmax(a):
    """Row-wise (last axis) softmax with max-subtraction for stability."""
    if a.values.size == 0:
        raise DimensionError("softmax of an empty tensor")
    x = a.values
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _fresh(y, "softmax")
    tp = _track(a)
    if tp:
        def bw(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            a.accumulate_grad(y * (g - dot))
        tp.record(out, bw)
    return out


def log_softmax(a):
    if a.values.size == 0:
        raise DimensionError("log_softmax of an empty tensor")
    x = a.values
    m = x.max(axis=-1, keepdims=True)
    s = x - m
    lse = np.log(np.exp(s).sum(axis=-1, keepdims=True))
    y = s - lse
    out = _fresh(y, "log_softmax")
    tp = _track(a)
    if tp:
        soft = np.exp(y)
        def bw(g):
            a.accumulate_grad(g - soft * g.sum(axis=-1, keepdims=True))
        tp.record(out, bw)
    return out


# ---------------------------------------------------------------------------
# reductions and reshaping
# ---------------------------------------------------------------------------

def tsum(a):
    out = _fresh(np.asarray(a.values.sum()), "tsum")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(np.broadcast_to(g, a.values.shape).copy())
        tp.record(out, bw)
    return out


def reshape(a, shape):
    out = _fresh(a.values.reshape(shape), "reshape")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g.reshape(a.values.shape))
        tp.record(out, bw)
    return out


def concat(tensors, axis=0):
    if not tensors:
        raise DimensionError("concat of an empty list")
    out = _fresh(np.concatenate([t.values for t in tensors], axis=axis),
                 "concat")
    tp = _track(*tensors)
    if tp:
        splits = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
        def bw(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t.accumulate_grad(piece)
        tp.record(out, bw)
    return out


def gather_rows(a, idx):
    """Select rows of a 2-D tensor by a 1-D index array; repeated indices
    accumulate gradient."""
    idx = np.array(idx, dtype=np.intp)  # copy: callers may reuse the buffer
    if a.values.ndim != 2 or idx.ndim != 1:
        raise DimensionError("gather_rows expects a 2-D tensor and 1-D "
                             "indices, got %r and %r" % (a.shape, idx.shape))
    out = _fresh(a.values[idx], "gather_rows")
    tp = _track(a)
    if tp:
        def bw(g):
            full = np.zeros_like(a.values)
            np.add.at(full, idx, g)
            a.accumulate_grad(full)
        tp.record(out, bw)
    return out


def pick(a, rows, cols):
    """out[i] = a[rows[i], cols[i]] for a 2-D tensor."""
    if a.values.ndim != 2:
        raise DimensionError("pick expects a 2-D tensor")
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    out = _fresh(a.values[rows, cols], "pick")
    tp = _track(a)
    if tp:
        def bw(g):
            full = np.zeros_like(a.values)
            np.add.at(full, (rows, cols), g)
            a.accumulate_grad(full)
        tp.record(out, bw)
    return out


def cross_entropy(logp, labels):
    """Mean negative log-probability of each row's label in a (B, C) tensor
    of log-probabilities: the one classifier loss."""
    n = logp.shape[0]
    return scale(tsum(pick(logp, np.arange(n), labels)), -1.0 / n)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

ZERO_NORM_EPS = 1e-12


def row_cosine(target, b):
    """Row-wise cosine of a (B, n) target array and a (B, n) tensor -> (B,);
    zero-norm rows give 0. Only b is differentiated: the target is data."""
    if target.ndim != 2 or target.shape != b.shape:
        raise DimensionError(
            "row_cosine expects equal-shape 2-D operands, got %r and %r"
            % (target.shape, b.shape))
    bv = b.values
    nt = np.linalg.norm(target, axis=1)
    nb = np.linalg.norm(bv, axis=1)
    valid = (nt >= ZERO_NORM_EPS) & (nb >= ZERO_NORM_EPS)
    denom = np.where(valid, nt * nb, 1.0)
    c = np.where(valid, (target * bv).sum(axis=1) / denom, 0.0)
    out = _fresh(c, "row_cosine")
    tp = _track(b)
    if tp:
        def bw(g):
            b.accumulate_grad((g * valid)[:, None] * (
                target / denom[:, None]
                - c[:, None] * bv / np.where(valid, nb * nb, 1.0)[:, None]))
        tp.record(out, bw)
    return out


# ---------------------------------------------------------------------------
# recurrent and convolutional cells
# ---------------------------------------------------------------------------

def row_stable_matmul(a, b):
    """a @ b of 2-D arrays, each row's bits independent of the other rows.

    With this OpenBLAS a row of a product of two or more rows has the same
    bits whichever rows share the product, at the DESK shapes that
    tests/test_autodiff.py pins, but numpy sends a one-row product to gemv,
    whose bits differ; a lone row is computed as the first of two.
    Products whose row count varies with how a batch is packed call this.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def packed_sizes(steps):
    """Per-step row counts of a packed batch: entry t counts the rows that
    run more than t steps. `steps` gives each row's step count and must be
    non-increasing, as in a batch sorted longest first; no steps give []."""
    steps = np.asarray(steps)
    if not steps.size or steps[0] <= 0:
        return []
    return np.count_nonzero(steps[:, None] > np.arange(steps[0]),
                            axis=0).tolist()


def check_batch_sizes(sizes, batch, rows=None):
    """The per-step row counts as a list of ints; DimensionError unless
    there is at least one, each is positive and at most the one before, the
    first is at most `batch` and, given `rows`, they sum to it."""
    sizes = [int(s) for s in sizes]
    if (not sizes or sizes[-1] < 1 or sizes[0] > batch
            or any(a < b for a, b in zip(sizes, sizes[1:]))
            or (rows is not None and sum(sizes) != rows)):
        raise DimensionError(
            "batch sizes %r are not positive, non-increasing row counts of "
            "at most %d rows%s" % (sizes, batch, "" if rows is None
                                   else " summing to %d" % rows))
    return sizes


def packed_index(sizes):
    """(step, row) arrays of the rows of a packed batch: step t holds rows
    0..sizes[t]-1 of the batch, steps one after another."""
    step = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return step, np.arange(len(step)) - np.repeat(starts, sizes)


def lstm_cell(x, hidden, cell, w_x, w_h, b, batch_sizes=None):
    """T standard LSTM steps over known inputs, fused into one node with two
    tape entries.

    hidden and cell are the (B, H) state before the first step. x holds
    each step's input rows, one step after another. Without batch_sizes
    every step runs all B rows (rows t*B .. t*B+B-1 feed step t), so
    T = rows(x) / B >= 1. With batch_sizes (positive, non-increasing, the
    first at most B, summing to rows(x)), step t runs only the first
    batch_sizes[t] rows of the batch: the packed layout of a batch sorted
    longest first, where padding is never computed. The fused weight
    layout is w_x: (d_in, 4H), w_h: (H, 4H), b: (4H,) with gate order
    input, forget, output, candidate.

    Returns every step's hidden rows, laid out as x, and the (B, H) cell of
    each row after its own last step (a row that never steps keeps its
    initial cell); T = 1 is one plain step. One x @ w_x product covers all
    steps and only the recurrence h @ w_h runs per step; a step narrower
    than the batch computes it through row_stable_matmul, so that its rows
    keep their bits. The backward runs the steps in reverse into one dZ
    buffer, then takes each weight gradient and x's gradient with one
    product over all rows (Appleyard et al., arXiv:1604.01946).

    new_hidden's entry runs the whole backward and reads new_cell's gradient
    (None counts as zero); new_cell's, recorded after it, only gives
    new_hidden a zero gradient when the cell alone received one, so that the
    first entry still fires.
    """
    xv, hv, cv = x.values, hidden.values, cell.values
    h_dim = hv.shape[-1]
    n = hv.shape[0]
    if (xv.ndim != 2 or hv.ndim != 2 or cv.shape != hv.shape
            or xv.shape[1] != w_x.shape[0]
            or w_x.shape[1] != 4 * h_dim or w_h.shape != (h_dim, 4 * h_dim)
            or b.shape != (4 * h_dim,)
            or (batch_sizes is None
                and (not 0 < n <= xv.shape[0] or xv.shape[0] % n))):
        raise DimensionError(
            "lstm_cell shapes are inconsistent: x %r, hidden %r, cell %r, "
            "w_x %r, w_h %r, b %r" % (x.shape, hidden.shape, cell.shape,
                                      w_x.shape, w_h.shape, b.shape))
    rows = xv.shape[0]
    sizes = ([n] * (rows // n) if batch_sizes is None
             else check_batch_sizes(batch_sizes, n, rows))
    steps = len(sizes)
    w_hv = w_h.values
    zx = (row_stable_matmul(xv, w_x.values) if rows < n
          else xv @ w_x.values)
    # a row stepped every time ends with the last step's cell; otherwise
    # each row's cell is copied out at its last step
    last_cell = None if sizes[-1] == n else cv.copy()
    # per step t: the state rows it reads (hps[t], cps[t]), its gates and
    # tanh(c), and its hidden output
    h, c = hv, cv
    hps, cps, sigs, gs, tcs, hs = [], [], [], [], [], []
    r0 = 0
    for t, m in enumerate(sizes):
        if m < h.shape[0]:
            h, c = h[:m], c[:m]
        rec = row_stable_matmul(h, w_hv) if m < n else h @ w_hv
        z = zx[r0:r0 + m] + rec + b.values
        sig = _sigmoid(z[:, :3 * h_dim])
        i, f, o = sig[:, :h_dim], sig[:, h_dim:2 * h_dim], sig[:, 2 * h_dim:]
        g = np.tanh(z[:, 3 * h_dim:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        hps.append(h)
        cps.append(c)
        h, c = o * tc, c_new
        hs.append(h)
        sigs.append(sig)
        gs.append(g)
        tcs.append(tc)
        if last_cell is not None:
            ended = sizes[t + 1] if t + 1 < steps else 0
            last_cell[ended:m] = c_new[ended:]
        r0 += m
    new_hidden = _fresh(hs[0] if steps == 1 else np.concatenate(hs),
                        "lstm_cell")
    new_cell = _fresh(c if last_cell is None else last_cell, "lstm_cell")
    tp = _track(x, hidden, cell, w_x, w_h, b)
    if tp:
        def bw(g_h):
            dz = np.empty((rows, 4 * h_dim))
            cell_g = new_cell.grad
            dc_next, dh_next = None, None
            r1 = rows
            for t in range(steps - 1, -1, -1):
                sig, g, tc, m = sigs[t], gs[t], tcs[t], sizes[t]
                d = dz[r1 - m:r1]
                gh = g_h[r1 - m:r1].copy()
                if dh_next is not None:   # from the rows that step on
                    gh[:len(dh_next)] += dh_next
                dc = gh * sig[:, 2 * h_dim:] * (1.0 - tc * tc)
                # rows that step on get the cell gradient from step t + 1,
                # rows whose last step is t from new_cell
                k = 0 if dc_next is None else len(dc_next)
                if k:
                    dc[:k] += dc_next
                if cell_g is not None and k < m:
                    dc[k:] += cell_g[k:m]
                # each gate gradient is formed in the composed ops' order
                d[:, :h_dim] = dc * g
                d[:, h_dim:2 * h_dim] = dc * cps[t]
                d[:, 2 * h_dim:3 * h_dim] = gh * tc
                d[:, :3 * h_dim] = d[:, :3 * h_dim] * sig * (1.0 - sig)
                d[:, 3 * h_dim:] = dc * sig[:, :h_dim] * (1.0 - g * g)
                dc_next = dc * sig[:, h_dim:2 * h_dim]
                if t or hidden.requires_grad:
                    dh_next = (row_stable_matmul(d, w_hv.T) if m < n
                               else d @ w_hv.T)
                r1 -= m
            if cell.requires_grad:
                if len(dc_next) < n:   # rows that never stepped
                    rest = (np.zeros((n - len(dc_next), h_dim))
                            if cell_g is None else cell_g[len(dc_next):])
                    dc_next = np.concatenate([dc_next, rest])
                cell.accumulate_grad(dc_next)
            if b.requires_grad:
                b.accumulate_grad(dz.sum(axis=0))
            if hidden.requires_grad:
                if len(dh_next) < n:
                    dh_next = np.concatenate(
                        [dh_next, np.zeros((n - len(dh_next), h_dim))])
                hidden.accumulate_grad(dh_next)
            if w_h.requires_grad:
                h_in = hps[0] if steps == 1 else np.concatenate(hps)
                w_h.accumulate_grad(h_in.T @ dz)
            if x.requires_grad:
                x.accumulate_grad(row_stable_matmul(dz, w_x.values.T)
                                  if rows < n else dz @ w_x.values.T)
            if w_x.requires_grad:
                w_x.accumulate_grad(xv.T @ dz)
        tp.record(new_hidden, bw)

        def bw_cell(_):
            if new_hidden.grad is None:
                new_hidden.grad = np.zeros_like(new_hidden.values)
        tp.record(new_cell, bw_cell)
    return new_hidden, new_cell


@functools.lru_cache(maxsize=256)
def _conv_windows(batch, length, width, stride):
    """conv1d's window layout for one input shape: each window's first
    position, and the row of each window entry in the (B*L, in_ch)
    flattening. Built once per shape; read-only, since calls share them."""
    n_win = (length - width) // stride + 1
    starts = np.arange(n_win) * stride
    win = starts[:, None] + np.arange(width)[None, :]            # (n_win, width)
    offs = (np.arange(batch) * length)[:, None, None]
    idx = (offs + win[None, :, :]).reshape(-1)                   # B*n_win*width
    starts.flags.writeable = False
    idx.flags.writeable = False
    return starts, idx


def conv1d(x, kernel, bias, width, stride):
    """Valid cross-correlation over the time axis, then ReLU.

    x is (B, L, in_ch); kernel is (width*in_ch, out_ch), i.e. each output
    channel sees a flattened window of `width` positions. Recorded as one
    fused node: gather, matmul, bias and ReLU.
    """
    xv = x.values
    if xv.ndim != 3 or xv.shape[1] < width:
        raise DimensionError("conv1d expects (B, L, in_ch) input with L >= "
                             "width %d, got %r" % (width, xv.shape))
    batch, length, in_ch = xv.shape
    if kernel.values.ndim != 2 or kernel.shape[0] != width * in_ch:
        raise DimensionError(
            "kernel shape %r is not (width*in_ch=%d, out_ch)"
            % (kernel.shape, width * in_ch))
    out_ch = kernel.shape[1]
    if bias.shape != (out_ch,):
        raise DimensionError("conv bias shape %r != (%d,)"
                             % (bias.shape, out_ch))
    starts, idx = _conv_windows(batch, length, width, stride)
    n_win = len(starts)
    windows = xv.reshape(batch * length, in_ch)[idx].reshape(
        batch * n_win, width * in_ch)
    y = np.maximum(windows @ kernel.values + bias.values, 0.0)
    out = _fresh(y.reshape(batch, n_win, out_ch), "conv1d")
    tp = _track(x, kernel, bias)
    if tp:
        def bw(g):
            g = g.reshape(y.shape) * (y > 0.0)
            if bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=0))
            if kernel.requires_grad:
                kernel.accumulate_grad(windows.T @ g)
            if x.requires_grad:
                gw = (g @ kernel.values.T).reshape(batch, n_win, width, in_ch)
                # the latest window first, as np.add.at over idx would add
                full = np.zeros((batch, length, in_ch))
                for k in range(width - 1, -1, -1):
                    full[:, starts + k] += gw[:, :, k]
                x.accumulate_grad(full)
        tp.record(out, bw)
    return out


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_matrix(rng, rows, cols):
    """Glorot-scaled normal init as a trainable tensor."""
    return Tensor(rng.normal(0.0, math.sqrt(2.0 / (rows + cols)),
                             size=(rows, cols)), requires_grad=True)


def init_vector(dim):
    return Tensor(np.zeros(dim), requires_grad=True)


def constant(values):
    return Tensor(np.asarray(values, dtype=np.float64))
