"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Define-by-run: operations executed while a tape is active append one node
(output, backward closure) to a flat list, which is therefore already in
topological order. backward() walks the list once in reverse and accumulates
gradients additively into every upstream tensor that requires them.

The network cells are fused nodes with hand-derived backwards: conv1d
(gather, matmul, bias, ReLU) records one node, and lstm_cell records two
entries, one per output. new_hidden's entry runs the whole cell backward and
reads new_cell's gradient; new_cell's entry only makes sure that the first
fires when the cell alone received a gradient. Every gradient receives its
terms in the order the composed generic ops gave them, so results are equal
to theirs bit for bit (tests/test_autodiff.py keeps those compositions as
oracles).

lstm_cell also runs T steps whose inputs are all known, as in teacher
forcing: x then holds T*B rows, one input product covers every step, and
the backward takes each weight gradient with one product over all steps.
Its outputs and input gradients equal those of T one-step calls bit for
bit; its weight gradients sum the same terms in another order.

matmul takes 2-D operands, lstm_cell (B, d) or (T*B, d) rows and conv1d
(B, L, C) sequences: a single example is a batch of one; other ranks raise
DimensionError.

Values are numpy float64 arrays. Tensors are immutable after construction
except for gradient accumulation; a tape is single-threaded. With
DEBUG_CHECKS on, an op that produces NaN/Inf raises FloatingPointError
naming the op and the output shape, and so does backward when it reaches a
node whose output gradient holds NaN/Inf.
"""

import ctypes
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

    @property
    def size(self):
        return self.values.size

    def item(self):
        if self.values.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.values.reshape(-1)[0])

    def detach(self):
        """A view of the same values that does not participate in backward."""
        t = Tensor.__new__(Tensor)
        t.values = self.values
        t.requires_grad = False
        t.grad = None
        t._tape = None
        return t

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
    walked once; a second call raises TapeError.
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
    nodes = reversed(tp.nodes)
    if DEBUG_CHECKS:
        nodes = _checked_grads(nodes)
    for out, backward_fn in nodes:
        if out.grad is not None:
            backward_fn(out.grad)


def _checked_grads(nodes):
    """The nodes, each checked as the walk reaches it: by then every later
    node has added its part to the output gradient."""
    for out, backward_fn in nodes:
        if out.grad is not None and not np.all(np.isfinite(out.grad)):
            raise FloatingPointError(
                "%s output gradient is non-finite, shape %r"
                % (backward_fn.__qualname__.split(".")[0], out.grad.shape))
        yield out, backward_fn


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def _broadcast_check(a, b):
    """Allow equal shapes, or a 2-D lhs with a 1-D row-vector rhs."""
    if a.shape == b.shape:
        return False
    if len(a.shape) == 2 and b.shape == (a.shape[1],):
        return True
    raise DimensionError("incompatible shapes %r and %r" % (a.shape, b.shape))


def _reduce_to(g, broadcast):
    return g.sum(axis=0) if broadcast else g


def add(a, b):
    bcast = _broadcast_check(a, b)
    out = _fresh(a.values + b.values, "add")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(_reduce_to(g, bcast))
        tp.record(out, bw)
    return out


def sub(a, b):
    bcast = _broadcast_check(a, b)
    out = _fresh(a.values - b.values, "sub")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(-_reduce_to(g, bcast))
        tp.record(out, bw)
    return out


def mul(a, b):
    bcast = _broadcast_check(a, b)
    out = _fresh(a.values * b.values, "mul")
    tp = _track(a, b)
    if tp:
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * b.values)
            if b.requires_grad:
                b.accumulate_grad(_reduce_to(g * a.values, bcast))
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


def sigmoid(a):
    y = _sigmoid(a.values)
    out = _fresh(y, "sigmoid")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g * y * (1.0 - y))
        tp.record(out, bw)
    return out


def tanh(a):
    y = np.tanh(a.values)
    out = _fresh(y, "tanh")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g * (1.0 - y * y))
        tp.record(out, bw)
    return out


def exp(a):
    y = np.exp(a.values)
    out = _fresh(y, "exp")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g * y)
        tp.record(out, bw)
    return out


def log(a):
    if np.any(a.values <= 0.0):
        raise ContractError("log requires strictly positive values")
    out = _fresh(np.log(a.values), "log")
    tp = _track(a)
    if tp:
        def bw(g):
            a.accumulate_grad(g / a.values)
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


def slice_cols(a, start, stop):
    if a.values.ndim != 2:
        raise DimensionError("slice_cols expects a 2-D tensor")
    out = _fresh(np.ascontiguousarray(a.values[:, start:stop]), "slice_cols")
    tp = _track(a)
    if tp:
        def bw(g):
            full = np.zeros_like(a.values)
            full[:, start:stop] = g
            a.accumulate_grad(full)
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


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

ZERO_NORM_EPS = 1e-12


def row_cosine(a, b):
    """Row-wise cosine of two (B, n) tensors -> (B,); zero-norm rows give 0."""
    if a.values.ndim != 2 or a.shape != b.shape:
        raise DimensionError(
            "row_cosine expects equal-shape 2-D tensors, got %r and %r"
            % (a.shape, b.shape))
    av, bv = a.values, b.values
    na = np.linalg.norm(av, axis=1)
    nb = np.linalg.norm(bv, axis=1)
    valid = (na >= ZERO_NORM_EPS) & (nb >= ZERO_NORM_EPS)
    denom = np.where(valid, na * nb, 1.0)
    c = np.where(valid, (av * bv).sum(axis=1) / denom, 0.0)
    out = _fresh(c, "row_cosine")
    tp = _track(a, b)
    if tp:
        def bw(g):
            gv = (g * valid)[:, None]
            if a.requires_grad:
                a.accumulate_grad(gv * (bv / denom[:, None]
                                        - c[:, None] * av / np.where(
                                            valid, na * na, 1.0)[:, None]))
            if b.requires_grad:
                b.accumulate_grad(gv * (av / denom[:, None]
                                        - c[:, None] * bv / np.where(
                                            valid, nb * nb, 1.0)[:, None]))
        tp.record(out, bw)
    return out


# ---------------------------------------------------------------------------
# recurrent and convolutional cells
# ---------------------------------------------------------------------------

def lstm_cell(x, hidden, cell, w_x, w_h, b):
    """T standard LSTM steps over known inputs, fused into one node with two
    tape entries.

    hidden and cell are the (B, H) state before the first step; x holds the
    T*B input rows in t-major order (rows t*B .. t*B+B-1 feed step t), so
    T = rows(x) / B >= 1. The fused weight layout is w_x: (d_in, 4H),
    w_h: (H, 4H), b: (4H,) with gate order input, forget, output, candidate.
    Returns every step's hidden state (T*B, H), t-major, and the last step's
    cell (B, H); T = 1 is one plain step. One x @ w_x product covers all
    steps and only the recurrence h @ w_h runs per step. The backward runs
    the steps in reverse into one dZ buffer, then takes each weight gradient
    and x's gradient with one product over all rows (Appleyard et al.,
    arXiv:1604.01946).

    new_hidden's entry runs the whole backward and reads new_cell's gradient
    (None counts as zero); new_cell's, recorded after it, only gives
    new_hidden a zero gradient when the cell alone received one, so that the
    first entry still fires.
    """
    xv, hv, cv = x.values, hidden.values, cell.values
    h_dim = hv.shape[-1]
    n = hv.shape[0]
    if (xv.ndim != 2 or hv.ndim != 2 or cv.shape != hv.shape
            or not 0 < n <= xv.shape[0] or xv.shape[0] % n
            or xv.shape[1] != w_x.shape[0]
            or w_x.shape[1] != 4 * h_dim or w_h.shape != (h_dim, 4 * h_dim)
            or b.shape != (4 * h_dim,)):
        raise DimensionError(
            "lstm_cell shapes are inconsistent: x %r, hidden %r, cell %r, "
            "w_x %r, w_h %r, b %r" % (x.shape, hidden.shape, cell.shape,
                                      w_x.shape, w_h.shape, b.shape))
    rows = xv.shape[0]
    zx = xv @ w_x.values
    # per step t: the state it starts from (hs[t], cs[t]), its gates and
    # tanh(c); hs[t + 1] and cs[t + 1] are its outputs
    hs, cs, sigs, gs, tcs = [hv], [cv], [], [], []
    for r0 in range(0, rows, n):
        z = zx[r0:r0 + n] + hs[-1] @ w_h.values + b.values
        sig = _sigmoid(z[:, :3 * h_dim])
        i, f, o = sig[:, :h_dim], sig[:, h_dim:2 * h_dim], sig[:, 2 * h_dim:]
        g = np.tanh(z[:, 3 * h_dim:])
        c_new = f * cs[-1] + i * g
        tc = np.tanh(c_new)
        hs.append(o * tc)
        cs.append(c_new)
        sigs.append(sig)
        gs.append(g)
        tcs.append(tc)
    new_hidden = _fresh(np.concatenate(hs[1:]), "lstm_cell")
    new_cell = _fresh(cs[-1], "lstm_cell")
    tp = _track(x, hidden, cell, w_x, w_h, b)
    if tp:
        def bw(g_h):
            dz = np.empty((rows, 4 * h_dim))
            dc_next, dh_next = new_cell.grad, None
            for t in range(len(sigs) - 1, -1, -1):
                sig, g, tc = sigs[t], gs[t], tcs[t]
                d = dz[t * n:(t + 1) * n]
                gh = g_h[t * n:(t + 1) * n]
                if dh_next is not None:
                    gh = gh + dh_next
                dc = gh * sig[:, 2 * h_dim:] * (1.0 - tc * tc)
                if dc_next is not None:
                    dc = dc_next + dc
                # each gate gradient is formed in the composed ops' order
                d[:, :h_dim] = dc * g
                d[:, h_dim:2 * h_dim] = dc * cs[t]
                d[:, 2 * h_dim:3 * h_dim] = gh * tc
                d[:, :3 * h_dim] = d[:, :3 * h_dim] * sig * (1.0 - sig)
                d[:, 3 * h_dim:] = dc * sig[:, :h_dim] * (1.0 - g * g)
                dc_next = dc * sig[:, h_dim:2 * h_dim]
                if t or hidden.requires_grad:
                    dh_next = d @ w_h.values.T
            if cell.requires_grad:
                cell.accumulate_grad(dc_next)
            if b.requires_grad:
                b.accumulate_grad(dz.sum(axis=0))
            if hidden.requires_grad:
                hidden.accumulate_grad(dh_next)
            if w_h.requires_grad:
                w_h.accumulate_grad(np.concatenate(hs[:-1]).T @ dz)
            if x.requires_grad:
                x.accumulate_grad(dz @ w_x.values.T)
            if w_x.requires_grad:
                w_x.accumulate_grad(xv.T @ dz)
        tp.record(new_hidden, bw)

        def bw_cell(_):
            if new_hidden.grad is None:
                new_hidden.grad = np.zeros_like(new_hidden.values)
        tp.record(new_cell, bw_cell)
    return new_hidden, new_cell


def conv1d(x, kernel, bias, width, stride, apply_relu=True):
    """Valid cross-correlation over the time axis, then optional ReLU.

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
    n_win = (length - width) // stride + 1
    # window row indices into the (B*L, in_ch) flattening
    starts = np.arange(n_win) * stride
    win = starts[:, None] + np.arange(width)[None, :]            # (n_win, width)
    offs = (np.arange(batch) * length)[:, None, None]
    idx = (offs + win[None, :, :]).reshape(-1)                   # B*n_win*width
    windows = xv.reshape(batch * length, in_ch)[idx].reshape(
        batch * n_win, width * in_ch)
    y = windows @ kernel.values + bias.values
    if apply_relu:
        y = np.maximum(y, 0.0)
    out = _fresh(y.reshape(batch, n_win, out_ch), "conv1d")
    tp = _track(x, kernel, bias)
    if tp:
        def bw(g):
            g = g.reshape(y.shape)
            if apply_relu:
                g = g * (y > 0.0)
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

def init_matrix(rng, rows, cols, scale_override=None):
    """Glorot-scaled normal init as a trainable tensor."""
    s = scale_override if scale_override is not None else math.sqrt(2.0 / (rows + cols))
    return Tensor(rng.normal(0.0, s, size=(rows, cols)), requires_grad=True)


def init_vector(dim):
    return Tensor(np.zeros(dim), requires_grad=True)


def constant(values):
    return Tensor(np.asarray(values, dtype=np.float64))
