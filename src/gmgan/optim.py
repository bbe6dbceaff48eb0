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
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            rows = self.frozen_rows.get(name)
            if rows is not None:
                g = g.copy()
                g[rows] = 0.0
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.values -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

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
        """Named arrays for checkpointing (moments plus the step counter)."""
        out = [("step", np.array([float(self.t)]))]
        for name, _ in self.named_params:
            out.append((name + ".m", self.m[name]))
            out.append((name + ".v", self.v[name]))
        return out

    def load_state_arrays(self, arrays):
        """Restores what `state_arrays` gave, copying the moments in. Raises
        KeyError for a missing array and ValueError, before changing any
        state, for a step that is not one integer >= 0 or a moment whose
        shape is not its parameter's."""
        table = dict(arrays)
        step = table["step"]
        if step.shape != (1,) or not (step[0] >= 0
                                      and float(step[0]).is_integer()):
            raise ValueError("step must be one integer >= 0, got %r"
                             % (step.tolist(),))
        for name, p in self.named_params:
            for key in (name + ".m", name + ".v"):
                if table[key].shape != p.values.shape:
                    raise ValueError("%s has shape %r, expected %r"
                                     % (key, table[key].shape, p.values.shape))
        self.t = int(step[0])
        for name, _ in self.named_params:
            self.m[name][...] = table[name + ".m"]
            self.v[name][...] = table[name + ".v"]
