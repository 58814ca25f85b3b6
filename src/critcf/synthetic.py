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

The affinity is computed in row blocks, never as a users x items array, in
two passes: one finds the floor cells and each behavior's threshold, the
other takes the cells.  Each pass builds its blocks on the package's worker
pool and merges them on the calling thread in row order, and the selection
only compares values and takes ties in flat order, so the output has the
same bytes at any worker count and block size.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import pool
from .datasets import MIN_SPLIT_POSITIVES, BehaviorDataset, PositiveStore
from .errors import ConfigError, DataError


@dataclass
class SynthConfig:
    num_users: int = 200
    num_items: int = 100
    latent_dim: int = 8
    densities: tuple = (0.20, 0.08, 0.04)  # one per behavior, the target's last
    criterion_spread: float = 0.5
    seed: int = 0

    @property
    def num_behaviors(self):
        return len(self.densities)

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
        if any(b > a for a, b in zip(self.densities, self.densities[1:])):
            raise ConfigError("densities must be non-increasing toward the target behavior, "
                              "got %s" % (self.densities,))
        if not self.densities or not all(0.0 < rho <= 1.0 for rho in self.densities):
            raise ConfigError("densities must be one or more values in (0, 1], got %s"
                              % (self.densities,))
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


def _least_of_largest(values, n):
    """Partitions ``values`` in place so that its ``n`` largest come last;
    returns their least, +inf if n is 0."""
    if not n:
        return np.inf
    values.partition(values.size - n)
    return values[values.size - n]


def _floored_cells(fill, shape, counts, floor):
    """Top-count cells with a per-user floor, one array per behavior, in O(U*V) time.

    ``fill(first, out)`` writes the values of behavior k on rows ``first``
    to ``first + out.shape[1]`` into ``out[k]``, the same bits on every call
    for the same rows, and returns False to refuse the block.  It is called
    on blocks of pool.block_rows(V) rows, several at once.  Each user's ``floor``
    largest entries (every entry above the row's floor-th largest value t,
    then the entries equal to t in ascending column order) count as +inf.
    Then the ``counts[k]`` largest cells are taken, ties in ascending flat
    (row-major) index.  Selection only compares values, so -0.0 and 0.0 tie.
    Values must be finite and each count at most U*V.  Returns each
    behavior's selected flat indices, ascending, or None if fill refused a
    block; every row is still filled once before that.

    Each pass builds its blocks on the package's workers (``pool.in_order``)
    and merges them on the caller in row order.  The first pass keeps the
    floor cells and buffers the values not below tau, the least value kept
    when the buffer was last cut to the count largest; a block may be built
    against an older tau, which is smaller and only buffers more.  After
    the pass, tau is exactly the count-th largest value.  The second pass
    takes the cells above tau, then the first ties at tau in ascending flat
    order.  So the cells depend on neither the block size nor the workers.
    """
    num_users, num_items = shape
    per_row = min(floor, num_items)
    for count in counts:
        if count < num_users * per_row:
            raise DataError(
                "count %d cannot honor a floor of %d items for each of %d users"
                % (count, floor, num_users)
            )
    rows = min(pool.block_rows(num_items), num_users)
    blocks = -(-num_users // rows)
    slots = np.empty((pool.WORKERS, len(counts), rows, num_items))
    # the second pass leaves each block's cell indices in its slot's bytes
    slot_cells = slots.view(np.int64).reshape(len(slots), len(counts), -1)
    floors = [np.empty((num_users, per_row), dtype=np.int64) for _ in counts]
    kept = [np.empty(2 * count + rows * num_items) for count in counts]
    sizes = [0] * len(counts)
    tau = [-np.inf] * len(counts)
    refused = []

    def block(i, slot):
        first = i * rows
        values = slots[slot, :, :min(rows, num_users - first)]
        return first, values, fill(first, values)

    def keep_floor(i, slot):
        # Builds a block and leaves its values not below tau first in its slot.
        first, values, ok = block(i, slot)
        if not ok:
            return None
        lengths = []
        for k, adjusted in enumerate(values):
            floored = floors[k][first:first + len(adjusted)]
            # per_row rounds take each row's largest value left, lowest column first
            row = np.arange(len(adjusted))
            for j in range(per_row):
                picks = np.argmax(adjusted, axis=1)
                adjusted[row, picks] = -np.inf
                floored[:, j] = row * num_items + picks
            adjusted.flat[floored] = np.inf
            flat = adjusted.reshape(-1)
            keep = flat[flat >= tau[k]]
            flat[:keep.size] = keep
            lengths.append(keep.size)
        return lengths

    def buffer(i, slot, lengths):
        if lengths is None:
            refused.append(i)
        if refused:
            return
        for k, size in enumerate(lengths):
            if sizes[k] + size > kept[k].size:
                tau[k] = _least_of_largest(kept[k][:sizes[k]], counts[k])
                # more than 2 * count are buffered, so the two ranges are apart
                kept[k][:counts[k]] = kept[k][sizes[k] - counts[k]:sizes[k]]
                sizes[k] = counts[k]
            kept[k][sizes[k]:sizes[k] + size] = slots[slot, k].reshape(-1)[:size]
            sizes[k] += size

    pool.in_order(keep_floor, blocks, buffer)
    if refused:
        return None
    ties_left = list(counts)
    for k, count in enumerate(counts):
        tau[k] = _least_of_largest(kept[k][:sizes[k]], count)
        ties_left[k] -= np.count_nonzero(kept[k][sizes[k] - count:sizes[k]] > tau[k])
    del kept  # before the cells are allocated
    cells = [np.empty(count, dtype=np.int64) for count in counts]
    marked = [0] * len(counts)

    def above_and_ties(i, slot):
        # Builds a block again and leaves in its slot the flat indices of
        # its cells above tau, then those of its ties at tau.
        first, values, _ = block(i, slot)
        found = []
        for k, adjusted in enumerate(values):
            adjusted.flat[floors[k][first:first + len(adjusted)]] = np.inf
            above = np.flatnonzero(adjusted > tau[k])
            ties = np.flatnonzero(adjusted == tau[k])
            slot_cells[slot, k, :above.size] = above
            slot_cells[slot, k, above.size:above.size + ties.size] = ties
            found.append((above.size, ties.size))
        return found

    def take(i, slot, found):
        for k, (above, ties) in enumerate(found):
            taken = min(ties, ties_left[k])
            ties_left[k] -= taken
            index = slot_cells[slot, k, :above + taken]
            if marked[k] + index.size <= counts[k]:
                np.add(np.sort(index) if taken else index, i * rows * num_items,
                       out=cells[k][marked[k]:marked[k] + index.size])
            marked[k] += index.size

    pool.in_order(above_and_ties, blocks, take)
    # Both counts only hold if the second pass saw the first pass's bits.
    for k, count in enumerate(counts):
        if ties_left[k] or marked[k] != count:
            raise RuntimeError("behavior %d: %d cells marked instead of %d; the passes over "
                               "the values disagree" % (k, marked[k], count))
    return cells


def _planted_block(user_latent, item_latent, user_factor, item_factor, bad, first, out):
    """The ``fill`` of ``_floored_cells``: each behavior's affinity over its
    threshold on rows ``first`` to ``first + out.shape[1]``.

    ``user_factor`` and ``item_factor`` are (K, U) and (K, V).  The same
    operations, and so the same bits, run on every call for the same rows.
    ``bad[k]`` is set when a value of behavior k is not finite, and is never
    cleared, so blocks on several threads lose no flag.  Returns whether no
    behavior has failed so far; a block with a failure never does.
    """
    users = slice(first, first + out.shape[1])
    affinity = user_latent[users] @ item_latent.T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, values in enumerate(out):
            np.outer(user_factor[k, users], item_factor[k], out=values)
            np.divide(affinity, values, out=values)
            if not np.isfinite(values).all():
                bad[k] = True
    return not bad.any()


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
    # its largest entry is.  A behavior that fails is only reported once
    # every row is checked, as a whole-matrix check in behavior order would.
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(user_factor.max(axis=0) * item_factor.max(axis=0))
    fill = partial(_planted_block, user_latent, item_latent, np.ascontiguousarray(user_factor.T),
                   np.ascontiguousarray(item_factor.T), bad)
    cells = _floored_cells(fill, (cfg.num_users, cfg.num_items), counts, MIN_SPLIT_POSITIVES)
    if cells is None:
        raise DataError(
            "behavior %d: criterion_spread (--spread) %r puts the planted "
            "thresholds out of float range; use a smaller spread"
            % (np.argmax(bad), cfg.criterion_spread)
        )

    positives = [PositiveStore(np.bincount(flat // cfg.num_items, minlength=cfg.num_users),
                               flat % cfg.num_items) for flat in cells]
    target_order = PositiveStore.of(list(map(rng.permutation, positives[-1])))
    dataset = BehaviorDataset(cfg.num_users, cfg.num_items, cfg.num_behaviors,
                              positives, target_order)
    user_ids = [str(u) for u in range(cfg.num_users)]
    item_ids = [str(v) for v in range(cfg.num_items)]
    return dataset, user_ids, item_ids
