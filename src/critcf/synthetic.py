"""Deterministic synthetic multi-behavior data with planted selection criteria.

Users and items get low-rank latent vectors; the affinity is their dot
product.  Each behavior has a global base threshold scaled by per-user and
per-item factors (a rank-1 threshold structure, so the learnable bounds of
the main model class can represent the planted criteria exactly).  A pair
is positive for a behavior when its affinity exceeds the scaled threshold.

Thresholds are calibrated by quantile so each behavior hits its target
count exactly.  Every user is guaranteed enough target positives to
survive the leave-one-out split: each user's strongest items count as
larger than any value, so the one global top-count cut takes them first.
The floor uses the same per-behavior ordering as that cut, so at spread 0
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
        if self.num_users < 1 or self.num_items < MIN_SPLIT_POSITIVES:
            raise ConfigError("need at least 1 user (--users) and %d items (--items), one per "
                              "target record of a user's split" % MIN_SPLIT_POSITIVES)
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
        # numpy makes no array of 2**63 bytes or more (here the U x d and V x d
        # float64s), and the int64 flat indices of the U x V cells must not wrap.
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
    """The ``n`` largest of ``values`` (partitioned in place) and their least, +inf if none."""
    kth = values.size - n
    if n:
        values.partition(kth)
    top = values[kth:].copy()
    return top, top[0] if n else np.inf


def _floored_cells(blocks, shape, counts, floor):
    """Top-count cells with a per-user floor, one array per behavior, in O(U*V) time.

    ``blocks`` is a zero-argument callable; each call starts a pass that
    yields ``(first_row, block)`` pairs covering the ``shape[0]`` rows in
    order, with ``block[k]`` the values of behavior k on those rows, the same
    on every pass; this function overwrites them.  Each user's ``floor``
    largest entries (every entry above the row's floor-th largest value t,
    then the entries equal to t in ascending column order) count as +inf.
    Then the ``counts[k]`` largest cells are taken, ties in ascending flat
    (row-major) index.  Selection only compares values, so -0.0 and 0.0 tie.
    Values must be finite and each count at most U*V.  Returns each
    behavior's selected flat indices, ascending.

    The first pass keeps the floor cells and buffers the values not below
    tau, the least value kept when the buffer was last cut to the count
    largest; after it, tau is exactly the count-th largest value.  The
    second pass takes the cells above tau and the first ties at tau.
    """
    num_users, num_items = shape
    per_row = min(floor, num_items)
    for count in counts:
        if count < num_users * per_row:
            raise DataError(
                "count %d cannot honor a floor of %d items for each of %d users"
                % (count, floor, num_users)
            )
    tau = [-np.inf] * len(counts)
    floors = [np.empty((num_users, per_row), dtype=np.int64) for _ in counts]
    kept = [[] for _ in counts]
    sizes = [0] * len(counts)
    for first, block in blocks():
        for k, adjusted in enumerate(block):
            mask = np.zeros(adjusted.shape, dtype=bool)
            if floor:
                t = np.partition(adjusted, -per_row, axis=1)[:, -per_row, None]
                np.greater(adjusted, t, out=mask)
                ties = adjusted == t
                need = per_row - np.count_nonzero(mask, axis=1)
                # rows with more ties at t than free slots keep the leftmost ones
                crowded = np.flatnonzero(np.count_nonzero(ties, axis=1) > need)
                ties[crowded] &= np.cumsum(ties[crowded], axis=1) <= need[crowded, None]
                mask |= ties
            # .flat indexes in row-major order whatever the block's layout
            floors[k][first:first + len(adjusted)].flat = np.flatnonzero(mask)
            adjusted.flat[floors[k][first:first + len(adjusted)]] = np.inf
            values = adjusted[adjusted >= tau[k]]
            kept[k].append(values)
            sizes[k] += values.size
            if sizes[k] > 2 * counts[k] + adjusted.size:
                top, tau[k] = _largest(np.concatenate(kept[k]), counts[k])
                kept[k], sizes[k] = [top], counts[k]
    ties_left = list(counts)
    for k, count in enumerate(counts):
        top, tau[k] = _largest(np.concatenate(kept[k]), count)
        ties_left[k] -= np.count_nonzero(top > tau[k])
    cells = [[] for _ in counts]
    for first, block in blocks():
        for k, adjusted in enumerate(block):
            adjusted.flat[floors[k][first:first + len(adjusted)]] = np.inf
            mask = adjusted > tau[k]
            if ties_left[k]:
                ties = np.flatnonzero(adjusted == tau[k])[:ties_left[k]]
                mask.flat[ties] = True
                ties_left[k] -= ties.size
            cells[k].append(np.flatnonzero(mask) + first * num_items)
    cells = [np.concatenate(c) for c in cells]
    # Both counts only hold if the second pass saw the first pass's bits.
    for k, marked in enumerate(cells):
        if ties_left[k] or marked.size != counts[k]:
            raise RuntimeError("behavior %d: %d cells marked instead of %d; the passes over "
                               "the values disagree" % (k, marked.size, counts[k]))
    return cells


def _planted_blocks(user_latent, item_latent, user_factor, item_factor, overflow, spread):
    """One pass over row blocks of each behavior's affinity over its threshold.

    Yields ``(first_row, adjusted)`` for block_rows(V) rows at a time, with
    ``adjusted[k]`` computed by the same operations, and so to the same
    bits, on every pass; the next block overwrites it, so the consumer may
    too.  Every adjusted value is checked to be finite.  ``overflow[k]``
    flags a behavior whose threshold is already known not to be.  Once a
    behavior fails, no more blocks are yielded, and after the last row the
    DataError of the lowest failing behavior is raised, as a whole-matrix
    check in behavior order would.
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
    cells = _floored_cells(
        lambda: _planted_blocks(user_latent, item_latent, user_factor, item_factor, overflow,
                                cfg.criterion_spread),
        (cfg.num_users, cfg.num_items), counts, MIN_SPLIT_POSITIVES)

    positives = [PositiveStore(np.bincount(users, minlength=cfg.num_users), items)
                 for users, items in (np.divmod(flat, cfg.num_items) for flat in cells)]
    target_order = PositiveStore.of(list(map(rng.permutation, positives[-1])))
    dataset = BehaviorDataset(cfg.num_users, cfg.num_items, cfg.num_behaviors,
                              positives, target_order)
    user_ids = [str(u) for u in range(cfg.num_users)]
    item_ids = [str(v) for v in range(cfg.num_items)]
    return dataset, user_ids, item_ids
