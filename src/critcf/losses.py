"""Margin penalties, learnable selection bounds, and the criterion loss.

Every loss here is evaluated over whole batches of users against the full
item axis (no negative sampling).  Negative-item sums are computed through
the complement identity

    sum over unobserved items = sum over all items - sum over observed items

which keeps the per-batch cost at O(B * |V|) regardless of how many
unobserved entries there are.

One kernel, working in two reusable (B, V) buffers, serves every variant:
the hinge penalties give the criterion loss, the two-sided RESIDUAL_SQUARE
variant H's regression onto the bounds, and RESIDUAL_SQUARE with unit
bounds and bound_ratio 0 variant O's 1/0 regression.

All losses return analytic gradients alongside the value.  Gradient
conventions: the hinge subgradient at an exactly-zero margin is 0, so an
instance that satisfies every bound has both zero loss and zero gradient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Overflow guard for the exponential penalty; exp(700) is near the float64
# ceiling.
_EXP_CLAMP = 700.0

# Positivity floor for bound factors, enforced by the trainer after every
# step.  Prediction-time normalization divides by a product of two bound
# factors, so the floor squared is the smallest legal denominator.
POSITIVITY_FLOOR = 1e-3


class MarginPenalty:
    """A monotone penalty g with g(0) = 0 applied to clamped hinge margins.

    ``doubling_factor`` is the smallest constant M with g(2x) <= M * g(x)
    for all x >= 0, or None when no finite M exists.  Penalties without a
    finite factor are excluded from the ranking-loss upper-bound check.
    ``grad_at_zero`` is g'(0), which the loss kernel masks at zero margins.
    ``hinge`` is False for a two-sided penalty, whose margins are not
    clamped.  value and grad write into ``out`` if given, which may be x.
    """

    name = ""
    doubling_factor = None
    grad_at_zero = 0.0
    hinge = True

    def value(self, x, out=None):
        raise NotImplementedError

    def grad(self, x, out=None):
        """Derivative; at x = 0 this is the right-derivative."""
        raise NotImplementedError


class LinearPenalty(MarginPenalty):
    name = "linear"
    doubling_factor = 2.0
    grad_at_zero = 1.0

    def value(self, x, out=None):
        return np.multiply(np.asarray(x, dtype=float), 1.0, out=out)

    def grad(self, x, out=None):
        return np.positive(np.ones_like(x, dtype=float), out=out)


class SquarePenalty(MarginPenalty):
    name = "square"
    doubling_factor = 4.0

    def value(self, x, out=None):
        x = np.asarray(x, dtype=float)
        return np.multiply(x, x, out=out)

    def grad(self, x, out=None):
        return np.multiply(np.asarray(x, dtype=float), 2.0, out=out)


class ExpPenalty(MarginPenalty):
    """g(x) = exp(x) - 1.  Grows too fast for a finite doubling factor."""

    name = "expm1"
    doubling_factor = None
    grad_at_zero = 1.0

    def value(self, x, out=None):
        return np.expm1(np.minimum(np.asarray(x, dtype=float), _EXP_CLAMP, out=out), out=out)

    def grad(self, x, out=None):
        return np.exp(np.minimum(np.asarray(x, dtype=float), _EXP_CLAMP, out=out), out=out)


class _ResidualSquare(SquarePenalty):
    """Two-sided square of unclamped residuals: variants H and O regress
    onto their bounds.  Not a selectable penalty."""

    name = "residual-square"
    hinge = False


RESIDUAL_SQUARE = _ResidualSquare()

PENALTIES = {p.name: p for p in (LinearPenalty(), SquarePenalty(), ExpPenalty())}


def get_penalty(name):
    try:
        return PENALTIES[name]
    except KeyError:
        raise ConfigError(
            "unknown penalty %r; valid choices: %s" % (name, ", ".join(sorted(PENALTIES)))
        ) from None


@dataclass
class BoundParams:
    """Learnable per-user and per-item bound factors.

    The upper selection bound for (user u, item v, behavior k) is the rank-1
    product user_bound[u, k] * item_bound[v, k]; the lower bound is that
    value scaled by bound_ratio.  All factors stay >= POSITIVITY_FLOOR, so
    upper >= lower > 0 whenever 0 <= bound_ratio <= 1.
    """

    user_bound: np.ndarray  # (num_users, num_behaviors)
    item_bound: np.ndarray  # (num_items, num_behaviors)
    bound_ratio: float

    @property
    def num_behaviors(self):
        return self.user_bound.shape[1]

    def bounds(self, u, v, k):
        """Upper and lower bound for a single (user, item, behavior)."""
        upper = self.user_bound[u, k] * self.item_bound[v, k]
        return upper, self.bound_ratio * upper

    def upper_matrix(self, user_ids, k):
        """Dense (len(user_ids), num_items) upper-bound matrix for behavior k."""
        return np.outer(self.user_bound[user_ids, k], self.item_bound[:, k])


@dataclass
class LossConfig:
    """Weights shaping the combined multi-behavior objective."""

    neg_weight: float  # weight w on unobserved entries
    behavior_weights: tuple  # one weight per behavior, summing to 1
    penalty: MarginPenalty

    def validate(self, num_behaviors):
        if len(self.behavior_weights) != num_behaviors:
            raise ConfigError(
                "behavior_weights (lambdas): expected %d weights, got %d"
                % (num_behaviors, len(self.behavior_weights))
            )
        total = float(sum(self.behavior_weights))
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("behavior_weights (lambdas) must sum to 1, got %.12g" % total)


def _positive_index(pos_lists):
    """Row/column index arrays for all observed entries of a batch."""
    sizes = np.fromiter(map(len, pos_lists), dtype=np.int64, count=len(pos_lists))
    if not sizes.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(len(pos_lists), dtype=np.int64), sizes)
    # An empty Python list converts as float64; "unsafe" casts it like the rest.
    cols = np.concatenate(pos_lists, dtype=np.int64, casting="unsafe")
    return rows, cols


def _criterion_kernel(scores, rows, cols, upper_pos, work, neg_weight, penalty):
    """One behavior's loss and score gradient for a batch, in place.

    work holds two (B, V) arrays: the lower bound in work[0] on entry and
    d_scores on return; work[1] is scratch.  upper_pos holds the upper
    bounds at the observed entries (rows, cols).  Returns (loss, pos_grad),
    pos_grad the (nnz,) gradient w.r.t. those upper bounds.  A two-sided
    penalty sums, then weights by its scalar neg_weight.
    """
    margin, val = work
    w = np.asarray(neg_weight, dtype=float)
    w_col = w[:, None] if w.ndim == 1 else w
    np.subtract(scores, margin, out=margin)
    pos_margin = upper_pos - scores[rows, cols]
    if penalty.hinge:
        np.maximum(margin, 0.0, out=margin)
        pos_margin = np.maximum(pos_margin, 0.0)
    pos_val = penalty.value(pos_margin)
    pos_grad = penalty.grad(pos_margin)
    penalty.value(margin, out=val)
    if penalty.hinge:
        val *= w_col
        loss = np.sum(pos_val) + np.sum(val) - np.sum(val[rows, cols])
    else:
        loss = np.sum(pos_val) + w * (np.sum(val) - np.sum(val[rows, cols]))
    active = margin > 0.0 if penalty.grad_at_zero else None
    penalty.grad(margin, out=margin)
    if active is not None:
        margin *= active
        pos_grad *= pos_margin > 0.0
    margin *= w_col
    margin[rows, cols] = -pos_grad
    return float(loss), pos_grad


def hinge_criterion_loss(scores, pos_lists, upper, lower, neg_weight, penalty):
    """Single-behavior criterion loss for a batch of users against all items.

    Observed entries are penalized for scoring below their upper bound,
    unobserved entries for scoring above their lower bound:

        sum_{v observed} g((upper - score)_+)
        + w * sum_{v unobserved} g((score - lower)_+)

    Args:
        scores: (B, V) score matrix.
        pos_lists: length-B list of sorted arrays of observed item ids.
        upper, lower: (B, V) bound matrices.
        neg_weight: scalar w, or per-user (B,) array.
        penalty: MarginPenalty shaping the clamped margins.
    Returns:
        (loss, d_scores, d_upper, d_lower); gradient arrays match (B, V).
    """
    scores = np.asarray(scores, dtype=float)
    rows, cols = _positive_index(pos_lists)
    work = (np.array(lower, dtype=float), np.empty_like(scores))
    loss, pos_grad = _criterion_kernel(scores, rows, cols, np.asarray(upper)[rows, cols],
                                       work, neg_weight, penalty)
    d_lower = np.negative(work[0])
    d_lower[rows, cols] = 0.0
    d_upper = np.zeros_like(scores)
    d_upper[rows, cols] = pos_grad
    return loss, work[0], d_upper, d_lower


def criterion_total_loss(scores, user_ids, positives, bounds, cfg):
    """Weighted multi-behavior criterion loss over one batch.

    The upper bound of (u, v, k) is user_bound[u, k] * item_bound[v, k] and
    the lower bound that times bound_ratio.  With cfg.penalty set to
    RESIDUAL_SQUARE this is variant H's bounded regression.

    Args:
        scores: (B, V) shared score matrix.
        user_ids: (B,) user indices matching the score rows.
        positives: per-behavior list of per-user positive-item arrays,
            indexed as positives[k][u] over the FULL user axis.
        bounds: BoundParams.
        cfg: LossConfig; behavior_weights must sum to 1.
    Returns:
        (loss, d_scores, d_user_bound, d_item_bound) with d_user_bound of
        shape (B, K) aligned to user_ids and d_item_bound of shape (V, K).
    """
    num_behaviors = len(positives)
    cfg.validate(num_behaviors)
    scores = np.asarray(scores, dtype=float)
    B, V = scores.shape
    ratio = bounds.bound_ratio
    loss = 0.0
    d_scores = np.zeros((B, V))
    d_user = np.zeros((B, num_behaviors))
    d_item = np.zeros((V, num_behaviors))
    work = (np.empty((B, V)), np.empty((B, V)))
    for k in range(num_behaviors):
        lam = cfg.behavior_weights[k]
        if lam == 0.0:
            continue
        rows, cols = _positive_index([positives[k][u] for u in user_ids])
        ub = bounds.user_bound[user_ids, k]
        ib = bounds.item_bound[:, k]
        upper = np.multiply.outer(ub, ib, out=work[0])
        upper_pos = upper[rows, cols]
        upper *= ratio
        lk, pos_grad = _criterion_kernel(scores, rows, cols, upper_pos, work,
                                         cfg.neg_weight, cfg.penalty)
        loss += lam * lk
        d_scores += np.multiply(work[0], lam, out=work[1])
        # d(loss)/d(upper): -ratio * d_scores off the observed entries (the
        # lower bound's share), the margin gradient on them.
        d_eff = np.multiply(work[0], -ratio, out=work[1])
        d_eff[rows, cols] = pos_grad
        d_user[:, k] = lam * (d_eff @ ib)
        d_item[:, k] = lam * (d_eff.T @ ub)
    return loss, d_scores, d_user, d_item
