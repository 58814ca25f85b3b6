"""Triplet-ranking reference loss and the criterion-loss upper-bound verifier.

The single-behavior criterion objective dominates (up to a constant) the
whole-data triplet ranking loss built from the same bounds: with margins
m = upper(u, v) - lower(u, v') and squared distances 1 - score, the triplet
loss per (user, observed v, unobserved v') is

    g((upper_uv - score_uv + score_uv' - lower_uv')_+)

and for any penalty with a finite doubling factor M,

    triplet_loss <= M * max_u |unobserved_u| * criterion_loss

when the criterion loss uses the per-user negative weight
|observed_u| / |unobserved_u|.  verify_upper_bound checks this inequality
numerically by exact enumeration; it is a test-time tool, not a training
path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import hinge_criterion_loss

REL_TOL = 1e-9  # relative slack on the right-hand side, for float rounding


@dataclass
class BoundCheck:
    lhs: float  # triplet reference loss
    rhs: float  # constant times criterion loss
    constant: float
    holds: bool

    @property
    def slack(self):
        return self.rhs - self.lhs


def triplet_reference_loss(scores, pos_lists, upper, lower, penalty):
    """Exact whole-data triplet loss by enumeration over (u, v+, v-).

    scores, upper, lower are full (num_users, num_items) tables; pos_lists
    gives each user's observed items.  Cost is O(sum_u |V+| * |V-|), so this
    is only for small instances.
    """
    num_users, num_items = scores.shape
    total = 0.0
    all_items = np.arange(num_items)
    for u in range(num_users):
        pos = np.asarray(pos_lists[u], dtype=np.int64)
        if len(pos) == 0 or len(pos) == num_items:
            continue
        neg_mask = np.ones(num_items, dtype=bool)
        neg_mask[pos] = False
        neg = all_items[neg_mask]
        pos_part = upper[u, pos] - scores[u, pos]  # (P,)
        neg_part = scores[u, neg] - lower[u, neg]  # (N,)
        margins = np.maximum(pos_part[:, None] + neg_part[None, :], 0.0)
        total += float(np.sum(penalty.value(margins)))
    return total


def criterion_loss_per_user_weight(scores, pos_lists, upper, lower, penalty):
    """Criterion loss with each user weighted by |observed| / |unobserved|.

    Users with no unobserved items get weight 0 (they contribute no
    triplets either).
    """
    num_users, num_items = scores.shape
    weights = np.empty(num_users)
    for u in range(num_users):
        num_neg = num_items - len(pos_lists[u])
        weights[u] = len(pos_lists[u]) / num_neg if num_neg > 0 else 0.0
    loss, _, _, _ = hinge_criterion_loss(scores, pos_lists, upper, lower, weights, penalty)
    return loss


def verify_upper_bound(scores, pos_lists, upper, lower, penalty):
    """Check triplet_loss <= M * max_u |unobserved_u| * criterion_loss.

    Only penalties with a finite doubling factor qualify; the exponential
    penalty has none and is rejected.
    """
    if penalty.doubling_factor is None:
        raise ConfigError(
            "penalty %r has no finite doubling factor; the upper bound does not apply"
            % penalty.name
        )
    scores = np.asarray(scores, dtype=float)
    num_users, num_items = scores.shape
    max_neg = max((num_items - len(pos_lists[u]) for u in range(num_users)), default=0)
    constant = penalty.doubling_factor * max_neg
    lhs = triplet_reference_loss(scores, pos_lists, upper, lower, penalty)
    rhs = constant * criterion_loss_per_user_weight(scores, pos_lists, upper, lower, penalty)
    holds = lhs <= rhs + REL_TOL * max(1.0, rhs)
    return BoundCheck(lhs, rhs, constant, holds)


def random_instance(rng, max_users=10, max_items=8, bound_ratio=0.5):
    """A small random instance: scores, positives, and rank-1 bound tables."""
    num_users = int(rng.integers(1, max_users + 1))
    num_items = int(rng.integers(2, max_items + 1))
    scores = rng.uniform(0.0, 1.5, size=(num_users, num_items))
    user_factor = rng.uniform(0.2, 2.0, size=num_users)
    item_factor = rng.uniform(0.2, 2.0, size=num_items)
    upper = np.outer(user_factor, item_factor)
    lower = bound_ratio * upper
    pos_lists = []
    for _ in range(num_users):
        count = int(rng.integers(0, num_items + 1))
        items = rng.permutation(num_items)[:count]
        pos_lists.append(np.sort(items).astype(np.int64))
    return scores, pos_lists, upper, lower


def verify_random_instances(num_instances, penalty, seed=0):
    """Run the bound check on freshly drawn instances.

    Returns (checked, failures, min_slack) where min_slack is the smallest
    rhs - lhs over all instances.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    min_slack = np.inf
    for _ in range(num_instances):
        scores, pos_lists, upper, lower = random_instance(rng)
        check = verify_upper_bound(scores, pos_lists, upper, lower, penalty)
        if not check.holds:
            failures += 1
        min_slack = min(min_slack, check.slack)
    return num_instances, failures, min_slack
