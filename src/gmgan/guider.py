"""LSTM guider: consumes the feature of the sentence so far and predicts the
feature c steps ahead. Trained on real sentences with a dual cosine objective
(match the future feature and the feature-changing direction); its rollouts
gate the decoder and score generated steps.

In style mode the guider is conditioned on each row's target label, which
the state carries: `initial_state` seeds a row from its label's embedding,
and every `guider_step` appends the row's one-hot label to its input.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError


@dataclass
class GuiderState:
    """The (B, H) cell, the hidden rows (B of them, or T*B after a
    multi-step call) and, in style mode only, one label id per cell row."""
    hidden: ad.Tensor
    cell: ad.Tensor
    labels: np.ndarray = None

    def __post_init__(self):
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.intp)
            if self.labels.shape != self.cell.shape[:1]:
                raise DimensionError("%r labels for %d guider rows"
                                     % (self.labels.shape, self.cell.shape[0]))


class GuiderParams:
    """LSTM cell over features (optionally feature+label) plus an output head
    mapping hidden state back to feature space. num_labels=0 disables style
    conditioning; otherwise a learned per-label row seeds the initial hidden
    state and a one-hot label is appended to every input.
    """

    def __init__(self, profile, rng, num_labels=0):
        self.profile = profile
        self.num_labels = num_labels
        d_in = profile.feature_dim + num_labels
        h = profile.hidden_dim
        self.w_x = ad.init_matrix(rng, d_in, 4 * h)
        self.w_h = ad.init_matrix(rng, h, 4 * h)
        self.b = ad.init_vector(4 * h)
        self.head_w = ad.init_matrix(rng, h, profile.feature_dim)
        self.head_b = ad.init_vector(profile.feature_dim)
        self.label_init = None
        if num_labels:
            self.label_init = ad.init_matrix(rng, num_labels, h)

    def tensors(self):
        out = [("guider.lstm.w_x", self.w_x), ("guider.lstm.w_h", self.w_h),
               ("guider.lstm.b", self.b), ("guider.head.w", self.head_w),
               ("guider.head.b", self.head_b)]
        if self.label_init is not None:
            out.append(("guider.label_init", self.label_init))
        return out


def initial_state(params, hidden, labels=None):
    """State with a zero cell, seeded with a (B, H) batch of hidden rows or,
    in style mode, with each row's label embedding (1-D label ids, one per
    row; hidden is then not read)."""
    if labels is not None:
        if params.label_init is None:
            raise ContractError("guider was built without style labels")
        hidden = ad.gather_rows(params.label_init, labels)
    return GuiderState(hidden, ad.constant(np.zeros(hidden.shape)), labels)


def guider_step(state, f, params, batch_sizes=None):
    """Advance the guider over the feature rows f (feature_dim wide) of
    T >= 1 steps; returns the predictions, one per row of f, and the new
    state.

    Without batch_sizes every step holds all B rows of the state, t-major;
    with them f is packed as lstm_cell takes it, step t holding rows
    0..batch_sizes[t]-1. A one-step call (T = 1) gives a state to continue
    from. A multi-step call's state holds every step's hidden rows beside
    the last cell, so stepping on from it raises DimensionError. The state
    carries labels exactly in style mode.
    """
    if (state.labels is not None) != bool(params.num_labels):
        raise ContractError("labels are required exactly in style mode")
    if f.values.ndim != 2 or f.shape[1] != params.profile.feature_dim:
        raise DimensionError("guider input %r is not (B, %d)"
                             % (f.shape, params.profile.feature_dim))
    x = f
    if params.num_labels:  # each row's label, one-hot, after its feature
        n = len(state.labels)
        sizes = [n] * (f.shape[0] // n) if batch_sizes is None else batch_sizes
        rows = ad.packed_index(ad.check_batch_sizes(sizes, n, f.shape[0]))[1]
        one_hot = np.eye(params.num_labels)[state.labels[rows]]
        x = ad.concat([x, ad.constant(one_hot)], axis=1)
    new_h, new_c = ad.lstm_cell(x, state.hidden, state.cell,
                                params.w_x, params.w_h, params.b,
                                batch_sizes=batch_sizes)
    pred = ad.add(ad.matmul(new_h, params.head_w), params.head_b)
    return pred, GuiderState(new_h, new_c, state.labels)


def dual_cosines(target, pred, anchor):
    """The dual cosine's two (B,) terms: the (B, F) prediction tensor against
    the target array, and its movement from the anchor array against the
    target's. Zero-norm rows give 0."""
    moved = ad.add(pred, ad.constant(-anchor))   # IEEE x - y is x + (-y)
    return (ad.row_cosine(target, pred),
            ad.row_cosine(target - anchor, moved))


def guider_loss_batch(step_features, lengths, c, params, init_state):
    """Pooled guider loss over a batch of sequences of mixed lengths.

    step_features is a (T_max + 1, B, feature_dim) array whose entry [t, b]
    is sequence b's length-t prefix feature; entries past lengths[b] are
    never read. Sequence b contributes a term for each t with
    t + c <= lengths[b], none when it is shorter than c. Each term is the
    dual cosine objective: the prediction made after consuming
    step_features[t] is matched against step_features[t + c], and its
    movement from step_features[t] against the real movement.

    The sequences are sorted longest first and one packed multi-step
    guider_step makes every prediction: step t runs only the sequences with
    a term at t. Each cosine then runs once over the real terms, and the
    loss is their negated mean, so a single sequence is a B=1 call.
    init_state holds B rows (and, in style mode, their labels) in the
    caller's order.
    """
    lengths = np.asarray(lengths)
    feats = np.asarray(step_features)
    n = len(lengths)
    if (feats.ndim != 3 or feats.shape[1] != n
            or feats.shape[0] <= lengths.max()
            or init_state.hidden.shape[0] != n):
        raise DimensionError(
            "step features %r and %d initial rows do not fit %d lengths up "
            "to %d" % (feats.shape, init_state.hidden.shape[0], n,
                       lengths.max()))
    order = np.argsort(-lengths, kind="stable")
    sizes = ad.packed_sizes(lengths[order] - c + 1)   # terms t = 0..len - c
    if not sizes:
        raise ContractError("no sequence is longer than the lookahead")
    step, rank = ad.packed_index(sizes)
    row = order[rank]
    anchor, target = feats[step, row], feats[step + c, row]
    labels = init_state.labels
    state = GuiderState(ad.gather_rows(init_state.hidden, order),
                        ad.gather_rows(init_state.cell, order),
                        None if labels is None else labels[order])
    pred, _ = guider_step(state, ad.constant(anchor), params,
                          batch_sizes=sizes)
    direct, direction = dual_cosines(target, pred, anchor)
    return ad.scale(ad.tsum(ad.add(direct, direction)), -1.0 / len(step))
