"""LSTM guider: consumes the feature of the sentence so far and predicts the
feature c steps ahead. Trained on real sentences with a dual cosine objective
(match the future feature and the feature-changing direction); its rollouts
gate the decoder and score generated steps.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError


@dataclass
class GuiderState:
    hidden: ad.Tensor
    cell: ad.Tensor


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


def initial_state(hidden):
    """State seeded with a (B, H) batch of hidden rows and a zero cell."""
    return GuiderState(hidden, ad.constant(np.zeros(hidden.shape)))


def initial_state_for_labels(params, labels):
    """Style mode: each row's label embedding is its initial hidden state.

    labels is a 1-D array of label ids, one per row."""
    if params.label_init is None:
        raise ContractError("guider was built without style labels")
    return initial_state(ad.gather_rows(params.label_init, labels))


def guider_step(state, f, params, labels=None):
    """Advance the guider over the (T*B, feature_dim) features f, T >= 1
    steps of B rows in t-major order (B is the state's row count); returns
    the (T*B, feature_dim) predictions and the new state.

    A one-step call (T = 1) gives a state to continue from. A multi-step
    call's state holds every step's hidden rows beside the last cell, so
    stepping on from it raises DimensionError. In style mode labels must be
    given (length B); outside style mode they must not be.
    """
    if (labels is not None) != bool(params.num_labels):
        raise ContractError("labels are required exactly in style mode")
    if f.values.ndim != 2 or f.shape[1] != params.profile.feature_dim:
        raise DimensionError("guider input %r is not (B, %d)"
                             % (f.shape, params.profile.feature_dim))
    x = f
    if params.num_labels:  # each row's label, one-hot, after its feature
        labels = np.asarray(labels, dtype=np.intp)
        if labels.ndim != 1 or f.shape[0] % len(labels):
            raise DimensionError("%d guider rows do not repeat %r labels"
                                 % (f.shape[0], labels.shape))
        steps = f.shape[0] // len(labels)
        one_hot = np.eye(params.num_labels)[np.tile(labels, steps)]
        x = ad.concat([x, ad.constant(one_hot)], axis=1)
    new_h, new_c = ad.lstm_cell(x, state.hidden, state.cell,
                                params.w_x, params.w_h, params.b)
    pred = ad.add(ad.matmul(new_h, params.head_w), params.head_b)
    return pred, GuiderState(new_h, new_c)


def dual_cosines(target, pred, anchor):
    """The dual cosine's two (B,) terms: the (B, F) prediction tensor against
    the target array, and its movement from the anchor array against the
    target's. Zero-norm rows give 0."""
    moved = ad.sub(pred, ad.constant(anchor))
    return (ad.row_cosine(ad.constant(target), pred),
            ad.row_cosine(ad.constant(target - anchor), moved))


def guider_loss_batch(step_features, lengths, c, params, init_state,
                      labels=None):
    """Pooled guider loss over a padded batch.

    step_features is a (T_max + 1, B, feature_dim) array: step_features[t]
    holds every sequence's length-t prefix feature; sequence b contributes
    terms for t with t + c <= lengths[b]. Each term is the dual cosine
    objective: the prediction made after consuming step_features[t] is
    matched against step_features[t + c], and its movement from
    step_features[t] against the real movement. One multi-step guider_step
    makes every prediction, and each cosine runs once over all (t, b) rows.
    The loss is the negated mean over all valid terms, so a single sequence
    is a B=1 call.
    """
    if c < 1:
        raise ContractError("lookahead c must be >= 1")
    lengths = np.asarray(lengths)
    t_top = int(lengths.max()) - c
    if t_top < 0:
        raise ContractError("no sequence is longer than the lookahead")
    feats = np.asarray(step_features)
    n_rows = (t_top + 1) * feats.shape[1]
    anchor = feats[:t_top + 1].reshape(n_rows, -1)
    target = feats[c:t_top + c + 1].reshape(n_rows, -1)
    pred, _ = guider_step(init_state, ad.constant(anchor), params,
                          labels=labels)
    mask = (lengths >= np.arange(c, t_top + c + 1)[:, None]).reshape(-1)
    direct, direction = dual_cosines(target, pred, anchor)
    total = ad.tsum(ad.mul(ad.add(direct, direction),
                           ad.constant(mask.astype(np.float64))))
    return ad.scale(total, -1.0 / int(mask.sum()))


def objective_cosines(features, params, init_state, c, labels=None):
    """Mean of each cosine term separately (diagnostics / acceptance).

    features are the (1, feature_dim) tensors f_0..f_T of one sequence.
    """
    if c < 1 or len(features) <= c:
        raise ContractError("need c >= 1 and at least c+1 features")
    feats = np.concatenate([f.values for f in features])
    target, anchor = feats[c:], feats[:-c]
    with ad.no_grad():
        pred = guider_step(init_state, ad.constant(anchor), params,
                           labels=labels)[0]
        direct, direction = dual_cosines(target, pred, anchor)
    return float(direct.values.mean()), float(direction.values.mean())
