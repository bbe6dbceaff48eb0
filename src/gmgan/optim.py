"""Adam optimizer over named parameter groups; `Adam.minimize` is every
training step."""

import numpy as np

from . import autodiff as ad

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam (BETA1, BETA2 and EPS above) with bias correction.

    frozen_rows maps a parameter name to row indices whose gradient is zeroed
    before each update (used to pin the PAD embedding row at zero). A missing
    gradient counts as zero.
    """

    def __init__(self, named_params, lr, frozen_rows=None):
        self.named_params = list(named_params)
        names = [n for n, _ in self.named_params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr
        self.frozen_rows = dict(frozen_rows or {})
        self.t = 0
        self.m = {n: np.zeros_like(p.values) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p.values) for n, p in self.named_params}

    def step(self):
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        # one scratch pair for the step, in the operation order of
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + EPS)
        size = max(p.values.size for _, p in self.named_params)
        pair = np.empty((2, size))
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            rows = self.frozen_rows.get(name)
            if rows is not None:
                g = g.copy()
                g[rows] = 0.0
            m, v = self.m[name], self.v[name]
            a, b = (half[:m.size].reshape(m.shape) for half in pair)
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=a)
            v *= BETA2
            v += np.multiply(np.multiply(1.0 - BETA2, g, out=a), g, out=a)
            np.multiply(self.lr, np.divide(m, b1t, out=a), out=a)
            np.add(np.sqrt(np.divide(v, b2t, out=b), out=b), EPS, out=b)
            p.values -= np.divide(a, b, out=a)

    def minimize(self, loss_fn):
        """One training step: records `loss_fn()` on a fresh tape,
        backpropagates it, updates this group and clears its gradients;
        returns the loss value. A non-finite loss raises FloatingPointError
        (from `ad.backward`) before any parameter or moment moves."""
        with ad.tape():
            loss = loss_fn()
            ad.backward(loss)
        self.step()
        for _, p in self.named_params:
            p.zero_grad()
        return loss.item()

    def state_arrays(self):
        """Named arrays for checkpointing: the step counter, as a copy, and
        the live moments, which a checkpoint load reads into."""
        out = [("step", np.array([float(self.t)]))]
        for name, _ in self.named_params:
            out.append((name + ".m", self.m[name]))
            out.append((name + ".v", self.v[name]))
        return out
