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

from .datasets import MIN_SPLIT_POSITIVES, BehaviorDataset, PositiveStore
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
        # numpy makes no array of 2**63 bytes or more: here the U x d and V x d
        # float64s, the U x V bool masks and the int64 flat indices into them.
        if max(self.num_users, self.num_items) * max(self.num_items, self.latent_dim) >= 2 ** 60:
            raise ConfigError("--users %d, --items %d and --latent-dim %d need arrays larger than "
                              "numpy can make" % (self.num_users, self.num_items, self.latent_dim))


# Cells per row block of the planted affinity (no U x V float array is ever
# built) and of a training or evaluation step: a few (rows, V) float64 blocks
# stay in cache.
BLOCK_CELLS = 1 << 16


def block_rows(num_items, dim=1):
    """Rows of a row block of about BLOCK_CELLS cells over num_items columns,
    and at least dim: a block scored against a (num_items, dim) table then
    has at least as many cells as the table, so the table's reads and its
    summed gradient cost no more per block than the block's own arrays."""
    return max(1, BLOCK_CELLS // max(num_items, 1), dim)


def _largest(values, n):
    """The ``n`` largest of ``values`` (partitioned in place), least first."""
    kth = values.size - n
    values.partition(kth)
    return values[kth:].copy()


def _floored_mask(blocks, shape, counts, floor):
    """Top-count masks with a per-user floor, one per behavior, in O(U*V) time.

    ``blocks`` is a zero-argument callable; each call starts a pass that
    yields ``(first_row, block)`` pairs covering the ``shape[0]`` rows in
    order, with ``block[k]`` the values of behavior k on those rows, the same
    on every pass.  Each user first gets its ``floor`` largest entries: every
    entry above the row's floor-th largest value t, then the entries equal to
    t in ascending column order until the row holds ``floor`` cells.  The
    same rule then runs once over all unmarked cells, with ties taken in
    ascending flat (row-major) index, until exactly ``counts[k]`` cells are
    set.  Selection only compares values, so -0.0 and 0.0 tie.  Values must
    be finite and each count at most U*V.

    The first pass marks the floors and buffers the unmarked values not below
    tau, the least value kept when the buffer was last cut to the
    ``remaining`` largest.  After it, tau is exactly the remaining-th largest
    unmarked value, and the second pass marks the cells above tau and the
    first ties at tau.
    """
    num_users, num_items = shape
    remaining = [count - num_users * min(floor, num_items) for count in counts]
    for count, left in zip(counts, remaining):
        if left < 0:
            raise DataError(
                "count %d cannot honor a floor of %d items for each of %d users"
                % (count, floor, num_users)
            )
    masks = [np.full(shape, floor >= num_items) for _ in counts]
    tau = [-np.inf] * len(counts)
    kept = [[] for _ in counts]
    sizes = [0] * len(counts)
    for first, block in blocks():
        for k, adjusted in enumerate(block):
            mask = masks[k][first:first + len(adjusted)]
            if 0 < floor < num_items:
                kth = num_items - floor
                t = np.partition(adjusted, kth, axis=1)[:, kth:kth + 1]
                np.greater(adjusted, t, out=mask)
                ties = adjusted == t
                need = floor - np.count_nonzero(mask, axis=1)
                # rows with more ties at t than free slots keep the leftmost ones
                crowded = np.flatnonzero(np.count_nonzero(ties, axis=1) > need)
                ties[crowded] &= np.cumsum(ties[crowded], axis=1) <= need[crowded, None]
                mask |= ties
            if remaining[k] > 0:
                values = adjusted[(adjusted >= tau[k]) & ~mask]
                kept[k].append(values)
                sizes[k] += values.size
                if sizes[k] > 2 * remaining[k] + adjusted.size:
                    kept[k] = [_largest(np.concatenate(kept[k]), remaining[k])]
                    tau[k], sizes[k] = kept[k][0][0], remaining[k]
    ties_left = list(remaining)
    for k, left in enumerate(remaining):
        if left > 0:
            top = _largest(np.concatenate(kept[k]), left)
            tau[k] = top[0]
            ties_left[k] -= np.count_nonzero(top > tau[k])
    if any(left > 0 for left in remaining):
        for first, block in blocks():
            for k, adjusted in enumerate(block):
                if remaining[k] > 0:
                    mask = masks[k][first:first + len(adjusted)]
                    if ties_left[k]:
                        ties = np.flatnonzero(adjusted == tau[k])
                        ties = ties[~mask.ravel()[ties]][:ties_left[k]]
                        mask.ravel()[ties] = True
                        ties_left[k] -= ties.size
                    mask |= adjusted > tau[k]
    # Both counts only hold if the second pass saw the first pass's bits.
    for k, mask in enumerate(masks):
        marked = np.count_nonzero(mask)
        if ties_left[k] or marked != counts[k]:
            raise RuntimeError("behavior %d: %d cells marked instead of %d; the passes over "
                               "the values disagree" % (k, marked, counts[k]))
    return masks


def _planted_blocks(user_latent, item_latent, user_factor, item_factor, overflow, spread):
    """One pass over row blocks of each behavior's affinity over its threshold.

    Yields ``(first_row, adjusted)`` for block_rows(V) rows at a time, with
    ``adjusted[k]`` computed by the same operations, and so to the same
    bits, on every pass; the next block overwrites it.  Every
    adjusted value is checked to be finite.  ``overflow[k]`` flags a behavior
    whose threshold is already known not to be.  Once a behavior fails, no
    more blocks are yielded, and after the last row the DataError of the
    lowest failing behavior is raised, as a whole-matrix check in behavior
    order would.
    """
    num_users, num_items = len(user_latent), len(item_latent)
    rows = min(num_users, block_rows(num_items))
    user_factor = np.ascontiguousarray(user_factor.T)
    item_factor = np.ascontiguousarray(item_factor.T)
    bad = np.array(overflow)
    buffer = np.empty((len(bad), rows, num_items))
    for first in range(0, num_users, rows):
        users = slice(first, first + rows)
        affinity = user_latent[users] @ item_latent.T
        adjusted = buffer[:, :len(affinity)]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for k, values in enumerate(adjusted):
                np.outer(user_factor[k, users], item_factor[k], out=values)
                np.divide(affinity, values, out=values)
                bad[k] |= not np.isfinite(values).all()
        if not bad.any():
            yield first, adjusted
    if bad.any():
        raise DataError(
            "behavior %d: criterion_spread (--spread) %r puts the planted "
            "thresholds out of float range; use a smaller spread"
            % (np.argmax(bad), spread)
        )


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
    total = cfg.num_users * cfg.num_items
    counts = [max(1, int(round(rho * total))) for rho in cfg.densities]
    # The factors are >= 0 and rounding is monotone, so each behavior's
    # threshold np.outer(user_factor[:, k], item_factor[:, k]) is finite iff
    # its largest entry is.
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = ~np.isfinite(user_factor.max(axis=0) * item_factor.max(axis=0))
    masks = _floored_mask(
        lambda: _planted_blocks(user_latent, item_latent, user_factor, item_factor, overflow,
                                cfg.criterion_spread),
        (cfg.num_users, cfg.num_items), counts, MIN_SPLIT_POSITIVES)

    positives = [PositiveStore(np.count_nonzero(mask, axis=1),
                               np.flatnonzero(mask) % cfg.num_items) for mask in masks]
    target_order = PositiveStore.of(list(map(rng.permutation, positives[-1])))
    dataset = BehaviorDataset(cfg.num_users, cfg.num_items, cfg.num_behaviors,
                              positives, target_order)
    user_ids = [str(u) for u in range(cfg.num_users)]
    item_ids = [str(v) for v in range(cfg.num_items)]
    return dataset, user_ids, item_ids
