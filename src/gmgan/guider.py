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
    """Advance one step on the (B, feature_dim) features f; returns the
    (B, feature_dim) predictions and the new state.

    In style mode labels must be given (length B); outside style mode they
    must not be.
    """
    if (labels is not None) != bool(params.num_labels):
        raise ContractError("labels are required exactly in style mode")
    if f.values.ndim != 2 or f.shape[1] != params.profile.feature_dim:
        raise DimensionError("guider input %r is not (B, %d)"
                             % (f.shape, params.profile.feature_dim))
    x = f
    if params.num_labels:  # each row's label, one-hot, after its feature
        one_hot = np.eye(params.num_labels)[np.asarray(labels, dtype=np.intp)]
        x = ad.concat([x, ad.constant(one_hot)], axis=1)
    new_h, new_c = ad.lstm_cell(x, state.hidden, state.cell,
                                params.w_x, params.w_h, params.b)
    pred = ad.add(ad.matmul(new_h, params.head_w), params.head_b)
    return pred, GuiderState(new_h, new_c)


def guider_loss_batch(step_features, lengths, c, params, init_state,
                      labels=None):
    """Pooled guider loss over a padded batch.

    step_features[t] is the (B, feature_dim) feature of every sequence's
    length-t prefix; sequence b contributes terms for t with t + c <= lengths[b].
    Each term is the dual cosine objective: the prediction made after
    consuming step_features[t] is matched against step_features[t + c], and
    its movement from step_features[t] against the real movement. The loss is
    the negated mean over all valid terms, so a single sequence is a B=1 call.
    """
    if c < 1:
        raise ContractError("lookahead c must be >= 1")
    lengths = np.asarray(lengths)
    t_top = int(lengths.max()) - c
    if t_top < 0:
        raise ContractError("no sequence is longer than the lookahead")
    state = init_state
    total = None
    count = 0
    for t in range(t_top + 1):
        pred, state = guider_step(state, step_features[t], params, labels=labels)
        mask = (lengths >= t + c).astype(np.float64)
        n_valid = int(mask.sum())
        if n_valid == 0:
            break
        target, anchor = step_features[t + c], step_features[t]
        direct = ad.row_cosine(target, pred)
        direction = ad.row_cosine(ad.sub(target, anchor), ad.sub(pred, anchor))
        term = ad.tsum(ad.mul(ad.add(direct, direction), ad.constant(mask)))
        total = term if total is None else ad.add(total, term)
        count += n_valid
    return ad.scale(total, -1.0 / count)


def objective_cosines(features, params, init_state, c, labels=None):
    """Mean of each cosine term separately (diagnostics / acceptance).

    features are the (1, feature_dim) tensors f_0..f_T of one sequence,
    the layout guider_loss_batch takes.
    """
    n_terms = len(features) - c
    if c < 1 or n_terms < 1:
        raise ContractError("need c >= 1 and at least c+1 features")
    state = init_state
    preds = []
    with ad.no_grad():
        for f in features[:n_terms]:
            pred, state = guider_step(state, f, params, labels=labels)
            preds.append(pred.values)
    target = np.concatenate([f.values for f in features[c:]])
    anchor = np.concatenate([f.values for f in features[:n_terms]])
    pred = np.concatenate(preds)
    direct = ad.row_cosine(ad.constant(target), ad.constant(pred)).values
    direction = ad.row_cosine(ad.constant(target - anchor),
                              ad.constant(pred - anchor)).values
    return float(direct.mean()), float(direction.mean())
