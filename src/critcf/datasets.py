"""Multi-behavior interaction parsing, filtering, splitting, and on-disk layout.

The raw input is a line-oriented log: user, item, behavior label, optional
timestamp, separated by tabs or commas.  Raw ids are arbitrary strings and
are densified by first appearance.  The pipeline is

    parse_interactions -> build_dataset -> leave_one_out_split -> write_dataset_dir

The log is held as columns, not records: parse_interactions reads it in
blocks of about BLOCK_CHARS characters, so memory holds one block of text
at a time, and returns an Interactions record of four int64 columns with
one entry per log line.  build_dataset deduplicates, filters and densifies
those columns with whole-array operations.

The last behavior index (num_behaviors - 1) is always the target behavior;
only its records are held out by the split, auxiliary behaviors stay in the
training positives untouched.
"""

import os
from dataclasses import dataclass
from itertools import chain, count, filterfalse, repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import DataError

DEFAULT_BEHAVIORS = ("view", "cart", "buy")

MIN_SPLIT_POSITIVES = 3  # target records to split: test, validation, one to train

# Characters of text parsed per block (the size hint of readlines), for the
# raw log and for dataset files alike.
BLOCK_CHARS = 1 << 16


class Interactions(NamedTuple):
    """Interaction records as int64 columns, one entry per log line in file
    order.  A missing timestamp is stored as 0."""

    user: np.ndarray
    item: np.ndarray
    behavior: np.ndarray
    timestamp: np.ndarray


@dataclass
class BehaviorDataset:
    """Per-behavior positive-item sets over dense user/item indices.

    positives[k][u] is a strictly sorted int64 array of the items user u
    interacted with under behavior k.  target_order, when present, lists
    each user's target-behavior items in chronological order and exists only
    between build_dataset and the split.
    """

    num_users: int
    num_items: int
    num_behaviors: int
    positives: list  # [k][u] -> sorted np.ndarray of item ids
    target_order: Optional[list] = None  # [u] -> np.ndarray in time order


@dataclass
class SplitDataset:
    """Training positives plus one held-out target item per user for
    validation (second-last record) and test (last record).

    source_users maps each split user index back to the pre-split dataset
    index; it is the identity unless short-history users were dropped.
    """

    train: BehaviorDataset
    validation: np.ndarray  # (num_users,) held-out item per user
    test: np.ndarray  # (num_users,) held-out item per user
    source_users: np.ndarray
    dropped_users: int = 0


def detect_separator(line):
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    raise DataError("cannot detect separator (no tab or comma): %r" % line[:80])


def parse_interactions(path, behavior_labels=DEFAULT_BEHAVIORS, separator=None):
    """Read a raw interaction log, one block of lines at a time.

    Returns (interactions, user_ids, item_ids): an Interactions record and
    the id lists that map dense index -> raw string in first-appearance
    order.  An error names the first bad line in file order.
    """
    labels = {label: k for k, label in enumerate(behavior_labels)}
    user_index = {}
    item_index = {}
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty,) * 4]
    for lines_before, lines in _line_blocks(path):
        blocks.append(_parse_block(lines, lines_before, path, labels, behavior_labels,
                                   separator, user_index, item_index))
    interactions = Interactions(*(np.concatenate(column) for column in zip(*blocks)))
    return interactions, list(user_index), list(item_index)


def _line_blocks(path):
    """The lines of a UTF-8 text file in blocks of about BLOCK_CHARS characters.

    Yields (lines_before, lines).  Bytes that are not UTF-8 raise DataError
    naming the first line that holds them.
    """
    lines_before = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lines in iter(lambda: fh.readlines(BLOCK_CHARS), []):
                yield lines_before, lines
                lines_before += len(lines)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            # bytes.splitlines splits where text mode does: \n, \r\n and \r
            for lineno, line in enumerate(fh.read().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError("%s:%d: not UTF-8 text (byte 0x%02x)"
                                    % (path, lineno, line[exc.start])) from None
        raise DataError("%s: not UTF-8 text" % path) from None


def _int64_error(text, what):
    """Why a field is not an int64 (naming it ``what``), or None if it is one."""
    try:
        value = int(text)
    except ValueError:
        return "bad %s %r" % (what, text)
    if not -2 ** 63 <= value < 2 ** 63:
        return "%s %r outside the int64 range" % (what, text)
    return None


def _parse_block(lines, lines_before, path, labels, behavior_labels, separator,
                 user_index, item_index):
    """Columns of one block of log lines; ids extend the shared index dicts.

    The block's fields are split out of one joined string, and each check
    runs over the whole block.  Only when a check fails is the block's
    first bad line located and reported.
    """
    stripped = list(map(str.strip, lines))
    rows = list(filter(None, stripped))
    sep = separator or "\t"
    widths = _count(rows, sep)
    if not separator and not widths.all():
        # A line without a tab splits on commas, so its commas become tabs.
        rows = [row if "\t" in row else row.replace(",", "\t") for row in rows]
        widths = _count(rows, sep)
    widths += 1
    bad_width = np.flatnonzero((widths != 3) & (widths != 4))
    end = int(bad_width[0]) if bad_width.size else len(rows)
    good = rows[:end]
    if (widths[:end] == 3).any():
        # a missing timestamp is stored as 0
        good = [row if w == 4 else row + sep + "0" for row, w in zip(good, widths.tolist())]
    # No line holds a newline, so one can stand for every separator.
    text = "\n".join(good).replace(sep, "\n")
    fields = list(map(str.strip, text.split("\n"))) if good else []
    users, items, behaviors, stamps = (fields[j::4] for j in range(4))

    user = _number(user_index, users)
    item = _number(item_index, items)
    behavior = np.fromiter(map(labels.get, behaviors, repeat(-1)), dtype=np.int64,
                           count=end)
    unknown = np.flatnonzero(behavior < 0)
    bad_behavior = int(unknown[0]) if unknown.size else end
    try:
        timestamp = np.array(stamps, dtype=np.int64)  # int() of each field
        bad_stamp = end
    except (ValueError, OverflowError):
        bad_stamp = next(r for r, stamp in enumerate(stamps)
                         if _int64_error(stamp, "timestamp"))

    first = min(end, bad_behavior, bad_stamp)
    if first < len(rows):
        lineno = lines_before + 1 + [i for i, row in enumerate(stripped) if row][first]
        if first == end:
            if not separator and widths[first] == 1:
                detect_separator(rows[first])
            raise DataError("%s:%d: expected 3 or 4 columns, got %d"
                            % (path, lineno, widths[first]))
        if first == bad_behavior:
            raise DataError("%s:%d: unknown behavior %r (allowed: %s)"
                            % (path, lineno, behaviors[first], ", ".join(behavior_labels)))
        raise DataError("%s:%d: %s" % (path, lineno, _int64_error(stamps[first], "timestamp")))
    return user, item, behavior, timestamp


def _count(rows, sep):
    return np.fromiter(map(str.count, rows, repeat(sep)), dtype=np.int64, count=len(rows))


def _number(index, keys):
    """Dense ids of keys; unseen keys are numbered in order of first appearance."""
    fresh = dict.fromkeys(filterfalse(index.__contains__, keys))
    index.update(zip(fresh, count(len(index))))
    return np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


def _split_by_key(keys, values, num_keys):
    """One array per key 0..num_keys-1 from values grouped by ascending key."""
    ends = np.cumsum(np.bincount(keys, minlength=num_keys)).tolist()
    return [values[start:stop] for start, stop in zip([0] + ends[:-1], ends)]


def build_dataset(interactions, num_behaviors, min_target=5,
                  num_users=None, num_items=None):
    """Deduplicate, filter, and densify columnar interactions.

    Duplicate (user, item, behavior) records collapse to the first one.
    Users and items with fewer than min_target target-behavior positives are
    removed; removal can push other entities below the threshold, so the
    filter repeats until stable, and surviving indices are re-densified in
    ascending original order.

    Returns (dataset, kept_users, kept_items); the kept arrays map new dense
    index -> input index so callers can compose raw-id maps.
    """
    user, item, behavior, timestamp = (np.asarray(c, dtype=np.int64) for c in interactions)
    bad = np.flatnonzero((behavior < 0) | (behavior >= num_behaviors))
    if bad.size:
        raise DataError(
            "behavior id %d out of range for %d behaviors" % (behavior[bad[0]], num_behaviors)
        )
    if num_users is None:
        num_users = int(user.max()) + 1 if user.size else 0
    if num_items is None:
        num_items = int(item.max()) + 1 if item.size else 0

    code = (user * num_items + item) * num_behaviors + behavior
    _, first = np.unique(code, return_index=True)
    first.sort()
    user, item, behavior, timestamp = user[first], item[first], behavior[first], timestamp[first]

    target = num_behaviors - 1
    is_target = behavior == target
    target_users, target_items = user[is_target], item[is_target]
    user_alive = np.ones(num_users, dtype=bool)
    item_alive = np.ones(num_items, dtype=bool)
    while True:
        live = user_alive[target_users] & item_alive[target_items]
        target_users, target_items = target_users[live], target_items[live]
        drop_users = user_alive & (np.bincount(target_users, minlength=num_users) < min_target)
        drop_items = item_alive & (np.bincount(target_items, minlength=num_items) < min_target)
        if not drop_users.any() and not drop_items.any():
            break
        user_alive &= ~drop_users
        item_alive &= ~drop_items

    kept_users = np.flatnonzero(user_alive)
    kept_items = np.flatnonzero(item_alive)
    live = user_alive[user] & item_alive[item]
    user = (np.cumsum(user_alive, dtype=np.int64) - 1)[user[live]]
    item = (np.cumsum(item_alive, dtype=np.int64) - 1)[item[live]]
    behavior, timestamp = behavior[live], timestamp[live]
    num_kept = len(kept_users)

    # Records are unique, so sorting (behavior, user, item) codes orders each
    # user's items under each behavior.
    rows, items = np.divmod(np.sort((behavior * num_kept + user) * len(kept_items) + item),
                            len(kept_items))
    groups = _split_by_key(rows, items, num_behaviors * num_kept)
    positives = [groups[k * num_kept:(k + 1) * num_kept] for k in range(num_behaviors)]
    # Chronological order; lexsort is stable, so file order breaks timestamp
    # ties (and stands in entirely when timestamps are absent).
    is_target = behavior == target
    order = np.lexsort((timestamp[is_target], user[is_target]))
    target_order = _split_by_key(user[is_target][order], item[is_target][order], num_kept)
    ds = BehaviorDataset(num_kept, len(kept_items), num_behaviors, positives, target_order)
    return ds, kept_users, kept_items


def leave_one_out_split(dataset, on_short="error"):
    """Hold out each user's last target record for test, second-last for validation.

    Users with fewer than MIN_SPLIT_POSITIVES target positives cannot be split;
    on_short selects whether that raises (default) or silently drops them,
    with the drop count reported on the returned split.
    """
    if dataset.target_order is None:
        raise DataError("dataset has no target-order information; cannot split")
    if on_short not in ("error", "drop"):
        raise ValueError("on_short must be 'error' or 'drop'")

    short = {u for u in range(dataset.num_users)
             if len(dataset.target_order[u]) < MIN_SPLIT_POSITIVES}
    if short and on_short == "error":
        worst = min(short)
        raise DataError(
            "user %d has %d target positives; at least %d are required to split"
            % (worst, len(dataset.target_order[worst]), MIN_SPLIT_POSITIVES)
        )
    keep = np.array([u for u in range(dataset.num_users) if u not in short],
                    dtype=np.int64)

    target = dataset.num_behaviors - 1
    positives = []
    for k in range(dataset.num_behaviors):
        positives.append([dataset.positives[k][u].copy() for u in keep])
    validation = np.empty(len(keep), dtype=np.int64)
    test = np.empty(len(keep), dtype=np.int64)
    for new_u, u in enumerate(keep):
        order = dataset.target_order[u]
        test[new_u] = order[-1]
        validation[new_u] = order[-2]
        held = {int(order[-1]), int(order[-2])}
        kept_items = positives[target][new_u]
        positives[target][new_u] = np.array(
            [v for v in kept_items if int(v) not in held], dtype=np.int64
        )
    train = BehaviorDataset(len(keep), dataset.num_items, dataset.num_behaviors,
                            positives, None)
    return SplitDataset(train, validation, test, keep, dropped_users=len(short))


def drop_behavior(split, k):
    """Remove one auxiliary behavior from a split (for data ablations)."""
    if k == split.train.num_behaviors - 1:
        raise DataError("cannot drop the target behavior")
    train = split.train
    positives = [per_user for j, per_user in enumerate(train.positives) if j != k]
    new_train = BehaviorDataset(train.num_users, train.num_items,
                                train.num_behaviors - 1, positives, None)
    return SplitDataset(new_train, split.validation, split.test,
                        split.source_users, split.dropped_users)


def write_dataset_dir(out_dir, split, user_ids, item_ids, behavior_labels):
    """Serialize a split to a directory.

    Layout: meta.txt (counts and labels), index_map.txt (raw id to dense
    index, users then items), behavior_<k>.txt (one line per user: user
    index then space-separated sorted item indices), validation.txt and
    test.txt (user index, held-out item).
    """
    train = split.train
    if len(user_ids) != train.num_users or len(item_ids) != train.num_items:
        raise DataError(
            "id maps (%d users, %d items) do not match dataset (%d users, %d items)"
            % (len(user_ids), len(item_ids), train.num_users, train.num_items)
        )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write("num_users %d\n" % train.num_users)
        fh.write("num_items %d\n" % train.num_items)
        fh.write("num_behaviors %d\n" % train.num_behaviors)
        fh.write("behaviors %s\n" % ",".join(behavior_labels))
        fh.write("dropped_users %d\n" % split.dropped_users)
    with open(os.path.join(out_dir, "index_map.txt"), "w", encoding="utf-8") as fh:
        for dense, raw in enumerate(user_ids):
            fh.write("u\t%s\t%d\n" % (raw, dense))
        for dense, raw in enumerate(item_ids):
            fh.write("i\t%s\t%d\n" % (raw, dense))
    for k in range(train.num_behaviors):
        path = os.path.join(out_dir, "behavior_%d.txt" % k)
        with open(path, "w", encoding="utf-8") as fh:
            for u in range(train.num_users):
                items = " ".join(str(int(v)) for v in train.positives[k][u])
                fh.write("%d %s\n" % (u, items) if items else "%d\n" % u)
    for name, held in (("validation.txt", split.validation), ("test.txt", split.test)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for u in range(train.num_users):
                fh.write("%d %d\n" % (u, int(held[u])))


def _int_blocks(path):
    """A file of whitespace-separated integers, one row per line, in blocks.

    Yields (first_line, values, starts, lengths): row r of a block is line
    first_line + r and holds values[starts[r]:starts[r] + lengths[r]].
    """
    for lines_before, lines in _line_blocks(path):
        rows = [line.split() for line in lines]
        try:
            values = np.array(list(chain.from_iterable(rows)), dtype=np.int64)
        except (ValueError, OverflowError):
            for r, row in enumerate(rows):
                for token in row:
                    error = _int64_error(token, "integer")
                    if error:
                        raise DataError("%s:%d: %s" % (path, lines_before + 1 + r, error)) \
                            from None
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        yield lines_before + 1, values, np.cumsum(lengths) - lengths, lengths


def _check(path, first_line, bad, message, values=None, starts=None):
    """Raise DataError at the first entry flagged in bad, naming its line.

    Entry i is on line first_line + i, or, when the entries are the tokens
    of rows that begin at starts, on the line of the row that holds token i.
    message is formatted with the entry's value when values is given.
    """
    hits = np.flatnonzero(bad)
    if hits.size:
        i = hits[0]
        row = i if starts is None else np.searchsorted(starts, i, side="right") - 1
        raise DataError("%s:%d: %s" % (path, first_line + row,
                                       message if values is None else message % values[i]))


def _check_users(path, first_line, users, num_users, seen):
    """Every user index in range and on one line only; marks them in seen."""
    _check(path, first_line, (users < 0) | (users >= num_users),
           "user %%d out of range (%d users)" % num_users, users)
    order = np.argsort(users, kind="stable")
    repeat = seen[users]
    repeat[order[1:]] |= users[order[1:]] == users[order[:-1]]
    _check(path, first_line, repeat, "user %d is already listed on an earlier line", users)
    seen[users] = True


def _read_positives(path, num_users, num_items):
    """Per-user item arrays from a behavior_<k>.txt file, validated."""
    per_user = [np.empty(0, dtype=np.int64)] * num_users
    seen = np.zeros(num_users, dtype=bool)
    for first_line, values, starts, lengths in _int_blocks(path):
        _check(path, first_line, lengths == 0, "empty line, expected a user index")
        users = values[starts]
        _check_users(path, first_line, users, num_users, seen)
        is_item = np.ones(len(values), dtype=bool)
        is_item[starts] = False
        _check(path, first_line, is_item & ((values < 0) | (values >= num_items)),
               "item %%d out of range (%d items)" % num_items, values, starts)
        _check(path, first_line, np.concatenate(([False], is_item[1:] & is_item[:-1]
                                                 & (values[1:] <= values[:-1]))),
               "items not strictly increasing at item %d", values, starts)
        for u, start, stop in zip(users.tolist(), (starts + 1).tolist(),
                                  (starts + lengths).tolist()):
            per_user[u] = values[start:stop]
    return per_user


def _read_heldout(path, num_users, num_items):
    """The held-out item of every user from validation.txt or test.txt, validated."""
    held = np.full(num_users, -1, dtype=np.int64)
    seen = np.zeros(num_users, dtype=bool)
    for first_line, values, _, lengths in _int_blocks(path):
        _check(path, first_line, lengths != 2, "expected 'user item', got %d fields", lengths)
        users, items = values[0::2], values[1::2]
        _check_users(path, first_line, users, num_users, seen)
        _check(path, first_line, (items < 0) | (items >= num_items),
               "item %%d out of range (%d items)" % num_items, items)
        held[users] = items
    missing = np.flatnonzero(~seen)
    if missing.size:
        raise DataError("%s: user %d has no held-out line" % (path, missing[0]))
    return held


def read_dataset_dir(dataset_dir):
    """Load a serialized split; returns (split, user_ids, item_ids, labels).

    A missing, non-integer or zero user or item count in meta.txt, a
    malformed line, an index out of range or a user listed twice in any
    file, positives that are not strictly increasing, and users without a
    held-out item raise DataError naming the file and the key or line.
    """
    meta_path = os.path.join(dataset_dir, "meta.txt")
    if not os.path.exists(meta_path):
        raise DataError("%s: not a dataset directory (missing meta.txt)" % dataset_dir)
    meta = dict(line.strip().partition(" ")[::2]
                for _, lines in _line_blocks(meta_path) for line in lines)

    def count(key, default=None):
        text = meta.get(key, default)
        if text is None:
            raise DataError("%s: missing key %r" % (meta_path, key))
        if not (text.isascii() and text.isdigit()):
            raise DataError("%s: %s must be a non-negative integer, got %r"
                            % (meta_path, key, text))
        return int(text)

    num_users = count("num_users")
    num_items = count("num_items")
    if num_users == 0 or num_items == 0:
        raise DataError("%s: the dataset has %d users and %d items; it needs at least one "
                        "of each" % (meta_path, num_users, num_items))
    num_behaviors = count("num_behaviors")
    dropped_users = count("dropped_users", "0")
    labels = tuple(meta["behaviors"].split(",")) if meta.get("behaviors") else ()

    ids = {"u": [""] * num_users, "i": [""] * num_items}
    index_path = os.path.join(dataset_dir, "index_map.txt")
    for lines_before, lines in _line_blocks(index_path):
        for lineno, line in enumerate(lines, lines_before + 1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 or fields[0] not in ids:
                raise DataError("%s:%d: expected 'u' or 'i', a raw id and a dense index, "
                                "tab-separated" % (index_path, lineno))
            table, dense = ids[fields[0]], fields[2]
            if not (dense.isascii() and dense.isdigit()) or int(dense) >= len(table):
                raise DataError("%s:%d: dense index %r not in [0, %d)"
                                % (index_path, lineno, dense, len(table)))
            table[int(dense)] = fields[1]

    positives = [
        _read_positives(os.path.join(dataset_dir, "behavior_%d.txt" % k), num_users, num_items)
        for k in range(num_behaviors)
    ]
    validation, test = (_read_heldout(os.path.join(dataset_dir, name), num_users, num_items)
                        for name in ("validation.txt", "test.txt"))
    train = BehaviorDataset(num_users, num_items, num_behaviors, positives, None)
    split = SplitDataset(train, validation, test, np.arange(num_users, dtype=np.int64),
                         dropped_users=dropped_users)
    return split, ids["u"], ids["i"], labels
