"""Deterministic synthetic multi-behavior data with planted selection criteria.

Users and items get low-rank latent vectors; the affinity is their dot
product.  Each behavior has a global base threshold scaled by per-user and
per-item factors (a rank-1 threshold structure, so the learnable bounds of
the main model class can represent the planted criteria exactly).  A pair
is positive for a behavior when its affinity exceeds the scaled threshold.

Thresholds are calibrated by quantile so each behavior hits its target
count exactly.  Every user is guaranteed enough target positives to
survive the leave-one-out split: each user's strongest items are marked
positive first and only the remaining quota is filled globally.  The floor
uses the same per-behavior ordering as the global fill, so at spread 0
(one shared criterion per behavior) the behavior sets still nest exactly.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import MIN_SPLIT_POSITIVES, BehaviorDataset, rows_by_user
from .errors import ConfigError, DataError


@dataclass
class SynthConfig:
    num_users: int = 200
    num_items: int = 100
    latent_dim: int = 8
    num_behaviors: int = 3
    densities: tuple = (0.20, 0.08, 0.04)
    criterion_spread: float = 0.5
    seed: int = 0

    def validate(self):
        if self.num_users < 1 or self.num_items < 2:
            raise ConfigError("need at least 1 user and 2 items")
        if self.seed < 0:
            raise ConfigError("seed (--seed) must be >= 0, got %d" % self.seed)
        if self.latent_dim < 1:
            raise ConfigError("latent_dim (--latent-dim) must be >= 1, got %d" % self.latent_dim)
        if not np.isfinite(self.criterion_spread):
            raise ConfigError("criterion_spread (--spread) must be finite, got %r"
                              % self.criterion_spread)
        if len(self.densities) != self.num_behaviors:
            raise ConfigError(
                "expected %d densities, got %d" % (self.num_behaviors, len(self.densities))
            )
        for a, b in zip(self.densities, self.densities[1:]):
            if b > a:
                raise ConfigError(
                    "densities must be non-increasing toward the target behavior, got %s"
                    % (self.densities,)
                )
        for rho in self.densities:
            if not 0.0 < rho <= 1.0:
                raise ConfigError("densities must lie in (0, 1], got %s" % (self.densities,))
        expected_target = self.densities[-1] * self.num_items
        if expected_target < MIN_SPLIT_POSITIVES:
            raise ConfigError(
                "target density %.4g yields %.2f expected target items per user; "
                "need at least %.4g to guarantee %d positives per user"
                % (self.densities[-1], expected_target,
                   MIN_SPLIT_POSITIVES / self.num_items, MIN_SPLIT_POSITIVES)
            )


def _floored_mask(adjusted, count, floor):
    """Top-count mask with a per-user floor, selected in O(U*V) time.

    Each user first gets its ``floor`` largest entries: every entry above
    the row's floor-th largest value t, then the entries equal to t in
    ascending column order until the row holds ``floor`` cells.  The same
    rule then runs once over all unmarked cells, with ties taken in
    ascending flat (row-major) index, until exactly ``count`` cells are set.
    Selection only compares values, so -0.0 and 0.0 tie.  ``adjusted`` must
    be finite and ``count`` at most U*V.
    """
    num_users, num_items = adjusted.shape
    mask = np.zeros((num_users, num_items), dtype=bool)
    if floor >= num_items:
        mask[:] = True
    elif floor > 0:
        kth = num_items - floor
        t = np.partition(adjusted, kth, axis=1)[:, kth:kth + 1]
        np.greater(adjusted, t, out=mask)
        ties = adjusted == t
        need = floor - np.count_nonzero(mask, axis=1)
        # rows with more ties at t than free slots keep the leftmost ones
        crowded = np.flatnonzero(np.count_nonzero(ties, axis=1) > need)
        ties[crowded] &= np.cumsum(ties[crowded], axis=1) <= need[crowded, None]
        mask |= ties
    remaining = count - int(np.count_nonzero(mask))
    if remaining < 0:
        raise DataError(
            "count %d cannot honor a floor of %d items for each of %d users"
            % (count, floor, num_users)
        )
    if remaining > 0:
        free = ~mask
        values = adjusted[free]
        kth = values.size - remaining
        values.partition(kth)
        above = free & (adjusted > values[kth])
        ties = np.flatnonzero(free & (adjusted == values[kth]))
        mask |= above
        mask.ravel()[ties[:remaining - np.count_nonzero(above)]] = True
    return mask


def generate(cfg):
    """Build a planted dataset; returns (dataset, user_ids, item_ids).

    The dataset carries target_order (a random per-user permutation of the
    target positives standing in for timestamps), ready for the
    leave-one-out split.  Fixed seeds give identical datasets.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / np.sqrt(cfg.latent_dim)
    user_latent = rng.normal(size=(cfg.num_users, cfg.latent_dim)) * scale
    item_latent = rng.normal(size=(cfg.num_items, cfg.latent_dim)) * scale
    with np.errstate(over="ignore"):
        user_factor = np.exp(
            cfg.criterion_spread * rng.normal(size=(cfg.num_users, cfg.num_behaviors))
        )
        item_factor = np.exp(
            cfg.criterion_spread * rng.normal(size=(cfg.num_items, cfg.num_behaviors))
        )

    # The same floor applies to every behavior: densities are non-increasing
    # toward the target, so coarser behaviors always have quota to spare, and
    # a shared floor is what keeps the spread-0 sets nested.
    affinity = user_latent @ item_latent.T
    total = cfg.num_users * cfg.num_items
    masks = []
    for k in range(cfg.num_behaviors):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            threshold = np.outer(user_factor[:, k], item_factor[:, k])
            adjusted = affinity / threshold
        if not (np.isfinite(threshold).all() and np.isfinite(adjusted).all()):
            raise DataError(
                "behavior %d: criterion_spread (--spread) %r puts the planted "
                "thresholds out of float range; use a smaller spread"
                % (k, cfg.criterion_spread)
            )
        del threshold
        count = max(1, int(round(cfg.densities[k] * total)))
        masks.append(_floored_mask(adjusted, count, MIN_SPLIT_POSITIVES))
        del adjusted

    target = cfg.num_behaviors - 1
    positives = [rows_by_user(*np.divmod(np.flatnonzero(mask), cfg.num_items), cfg.num_users)
                 for mask in masks]
    target_order = [rng.permutation(positives[target][u]).astype(np.int64)
                    for u in range(cfg.num_users)]
    dataset = BehaviorDataset(cfg.num_users, cfg.num_items, cfg.num_behaviors,
                              positives, target_order)
    user_ids = [str(u) for u in range(cfg.num_users)]
    item_ids = [str(v) for v in range(cfg.num_items)]
    return dataset, user_ids, item_ids
