"""Multi-behavior interaction parsing, filtering, splitting, and on-disk layout.

The raw input is a line-oriented log: user, item, behavior label, optional
timestamp, separated by tabs or commas.  Raw ids are arbitrary strings and
are densified by first appearance.  The pipeline is

    parse_interactions -> build_dataset -> leave_one_out_split -> write_dataset_dir

The log is held as columns, not records: parse_interactions reads its
bytes in blocks of about BLOCK_CHARS, so memory holds one block at a time,
and returns an Interactions record of four int64 columns with one entry
per log line.  build_dataset deduplicates, filters and densifies those
columns with whole-array operations.

The last behavior index (num_behaviors - 1) is always the target behavior;
only its records are held out by the split, auxiliary behaviors stay in the
training positives untouched.

Each behavior's positives are one PositiveStore, a CSR pair (int64 indptr,
int32 items) that every layer emits from sorted columns and gathers from.

A dataset directory (write_dataset_dir, read_dataset_dir) holds meta.txt,
index_map.txt, behavior_<k>.txt, validation.txt and test.txt.  Every line
of every file ends in a newline, the last one included.  behavior_<k>.txt,
validation.txt and test.txt are ASCII: decimal tokens, optionally
negative, separated by spaces; line n holds user n - 1.  They are written
and read in blocks of whole arrays: the writer gathers each block's bytes
from one table of decimal strings, and the reader classifies each block's
bytes through one 256-entry table and converts its tokens in one call.
index_map.txt lists the users, then the items, in dense order.
"""

import codecs
import os
import re
from dataclasses import dataclass, replace
from itertools import count, repeat
from typing import NamedTuple, Optional

import numpy as np

from . import pool
from .errors import DataError

DEFAULT_BEHAVIORS = ("view", "cart", "buy")

MIN_SPLIT_POSITIVES = 3  # target records to split: test, validation, one to train

BLOCK_CHARS = 1 << 16  # bytes read at a time from a raw log or a dataset file

ITEM_LIMIT = 2 ** 31  # a dataset has fewer items, so that every item id fits int32

_EMPTY = np.empty(0, dtype=np.int64)

_BEHAVIOR_FILE = re.compile(r"behavior_(0|[1-9][0-9]*)\.txt")

# The ASCII whitespace that str.strip removes; raw-log lines and fields are
# stripped of these bytes only.
_BLANKS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


class Interactions(NamedTuple):
    """Interaction records as int64 columns, one entry per log line in file
    order.  A missing timestamp is stored as 0."""

    user: np.ndarray
    item: np.ndarray
    behavior: np.ndarray
    timestamp: np.ndarray


class PositiveStore:
    """One behavior's positives in CSR form: user u's items are the view
    store[u] = items[indptr[u]:indptr[u + 1]], indptr int64, items int32 (an
    id outside int32 raises DataError rather than wrap).  A u outside
    [0, len(store)) raises IndexError; iteration runs over users."""

    def __init__(self, sizes, items):
        self.indptr = np.append(0, np.cumsum(sizes))
        if items.dtype != np.int32 and items.size and not (
                -ITEM_LIMIT <= items.min() <= items.max() < ITEM_LIMIT):
            raise DataError("item ids %d..%d do not fit int32" % (items.min(), items.max()))
        self.items = items.astype(np.int32, copy=False)

    @classmethod
    def of(cls, per_user):
        """per_user as a store: itself if it is one, else its per-user item
        sequences (Python lists or arrays) laid end to end."""
        if isinstance(per_user, cls):
            return per_user
        sizes = np.fromiter(map(len, per_user), dtype=np.int64, count=len(per_user))
        # An empty Python list converts as float64; "unsafe" casts it like the rest.
        items = np.concatenate([_EMPTY, *per_user], dtype=np.int64, casting="unsafe")
        return cls(sizes, items)

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, u):
        if not 0 <= u < len(self):
            raise IndexError("user %r out of range for %d users" % (u, len(self)))
        return self.items[self.indptr[u]:self.indptr[u + 1]]

    def take(self, users):
        """The store of ``users``' rows, in that order, gathered at once."""
        users = np.asarray(users, dtype=np.int64)
        starts = self.indptr[users]
        sizes = self.indptr[users + 1] - starts
        # Entry j of the result is item starts[r] + (j - first entry of row r).
        at = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        return PositiveStore(sizes, self.items[at + np.arange(len(at))])

    def pairs(self, users):
        """(rows, items) of the positives of ``users``: items[j] is a positive
        of users[rows[j]].  Both are int64, the items cast once per call:
        numpy indexes faster with int64 columns than with int32 ones."""
        store = self.take(users)
        return (np.repeat(np.arange(len(store), dtype=np.int64), np.diff(store.indptr)),
                store.items.astype(np.int64))


@dataclass
class BehaviorDataset:
    """Per-behavior positive-item sets over dense user/item indices.

    positives[k] is behavior k's PositiveStore: positives[k][u] views user
    u's strictly sorted items.  target_order, when present, is a store of each
    user's target-behavior items in time order, made by build_dataset for the
    split.  Per-user sequences (Python lists or arrays) are accepted for both."""

    num_users: int
    num_items: int
    num_behaviors: int
    positives: list  # [k] -> PositiveStore of sorted item ids
    target_order: Optional[PositiveStore] = None  # items in time order

    def __post_init__(self):
        self.positives = list(map(PositiveStore.of, self.positives))
        if self.target_order is not None:
            self.target_order = PositiveStore.of(self.target_order)


@dataclass
class SplitDataset:
    """Training positives plus one held-out target item per user for
    validation (second-last record) and test (last record).

    source_users maps each split user index back to the pre-split dataset
    index; it is the identity unless short-history users were dropped.
    """

    train: BehaviorDataset
    validation: np.ndarray  # (num_users,) int64 held-out item per user
    test: np.ndarray  # (num_users,) int64 held-out item per user
    source_users: np.ndarray
    dropped_users: int = 0


def split_behavior_labels(text, where, error):
    """The comma-separated labels of text.  An empty or repeated label, which
    would leave a behavior without records, and a label that no stripped log
    field can equal raise error naming where."""
    labels = tuple(text.split(","))
    for k, label in enumerate(labels):
        if not label or label in labels[:k]:
            raise error("%s: behavior label %r is %s"
                        % (where, label, "repeated" if label else "empty"))
        if label != label.strip(_BLANKS) or "\n" in label or "\r" in label:
            raise error("%s: behavior label %r starts or ends with whitespace or holds a "
                        "line end, so no log field can match it" % (where, label))
    return labels


def parse_interactions(path, behavior_labels=DEFAULT_BEHAVIORS, separator=None):
    """Read a raw interaction log, one block of bytes at a time.

    separator is "\t", "," or None, which splits a line on tabs if it holds
    one and on commas if not.  Returns (interactions, user_ids, item_ids):
    an Interactions record and the id lists that map dense index -> raw
    string in first-appearance order.  An error names the first bad line.
    """
    columns = [(np.empty((1, 0), dtype=np.uint64),) * 2 + (_EMPTY, _EMPTY)]
    lines_before = 0
    for block in _byte_blocks(path, cr=True):
        # A byte-order mark is skipped at the start of the log only.
        block = block if lines_before else block.removeprefix(codecs.BOM_UTF8)
        lines, block_columns = _log_block(path, block, lines_before, behavior_labels, separator)
        columns.append(block_columns)
        lines_before += lines
    # Lists that _first_appearance empties, so that each block is freed once copied.
    users, items, behavior, timestamp = map(list, zip(*columns))
    del columns
    (user, user_ids), (item, item_ids) = _first_appearance(users), _first_appearance(items)
    interactions = Interactions(user, item, np.concatenate(behavior), np.concatenate(timestamp))
    return interactions, user_ids, item_ids


# Raw-log bytes that shape a line: separators, line ends and the other
# _BLANKS.  Every other byte is part of a field.
_TAB, _COMMA, _BLANK, _LF, _CR = range(1, 6)
_LOG_CLASS = bytes({9: _TAB, 44: _COMMA, 10: _LF, 13: _CR}.get(
    b, _BLANK if chr(b) in _BLANKS else 0) for b in range(256))
# _PAD[r] sets the bytes after the first r of a big-endian word to 0xff,
# which UTF-8 never holds, so padded keys stay distinct.
_PAD = np.array([(1 << (64 - 8 * r)) - 1 for r in range(9)], dtype=np.uint64)
_STAMP = re.compile(r"[+-]?[0-9]+")


def _log_block(path, block, lines_before, behavior_labels, separator):
    """(lines, columns) of one block of a raw log: its line count, and the user
    and item keys, behaviors and timestamps of its records.  Lines and fields
    are spans between two of the block's structural bytes, and only those
    bytes are worked on."""
    kind = np.frombuffer(block.translate(_LOG_CLASS), dtype=np.uint8)
    # Structural bytes between a line end before the block and one after it,
    # which ends the last line if the block does not.
    at = np.concatenate(([-1], np.flatnonzero(kind), [len(block)]))
    cls = np.concatenate(([_LF], kind[at[1:-1]], [_BLANK if block[-1:] in b"\n\r" else _LF]))
    adjacent, blank = np.diff(at) == 1, cls != _COMMA
    # A \r ends a line unless a \n follows it.
    lf_next = np.append(adjacent & (cls[1:] == _LF), False)
    eol = np.flatnonzero((cls == _LF) | (cls == _CR) & ~lf_next)
    # Runs of adjacent blanks: after[i] is the offset past byte at[i] and the
    # blanks after it, before[i] the first offset of the blanks before it.
    cut = np.flatnonzero(~(adjacent & blank[:-1] & blank[1:]))
    run = np.repeat(np.arange(len(cut) + 1), np.diff(cut, prepend=-1, append=len(at) - 1))
    first, last = at[np.append(0, cut + 1)][run], at[np.append(cut, len(at) - 1)][run]
    after = np.append(np.where(adjacent & blank[1:], last[1:] + 1, at[:-1] + 1), 0)
    before = np.append(0, np.where(adjacent & blank[:-1], first[:-1], at[1:]))

    def span(left, right):
        """(start, stop) of the stripped field between structural bytes left and right."""
        start = np.minimum(after[left], at[right])
        return start, np.maximum(before[right], start)

    line_start, line_stop = span(eol[:-1], eol[1:])
    # Separators are the tabs or commas inside a stripped line; auto mode
    # takes tabs in a line that holds one.
    sep = np.flatnonzero((cls == _TAB) | (cls == _COMMA))
    is_tab, sep_line, lines = cls[sep] == _TAB, np.searchsorted(eol, sep) - 1, len(eol) - 1
    inside = (at[sep] >= line_start[sep_line]) & (at[sep] < line_stop[sep_line])
    tabbed = (np.bincount(sep_line[inside & is_tab], minlength=lines) > 0
              if separator is None else np.full(lines, separator == "\t"))
    keep = inside & (is_tab == tabbed[sep_line])
    sep, seps = sep[keep], np.bincount(sep_line[keep], minlength=lines)
    nonempty, good = line_stop > line_start, (seps == 2) | (seps == 3)
    rows = np.flatnonzero(nonempty & good)
    first_sep, four = (np.cumsum(seps) - seps)[rows], seps[rows] == 3
    third = np.where(four, sep[np.minimum(first_sep + 2, len(sep) - 1)], eol[rows + 1])
    bounds = [eol[rows], sep[first_sep], sep[first_sep + 1], third, eol[rows + 1]]
    fields = [span(left, right) for left, right in zip(bounds, bounds[1:])]
    keys = [_pack(block, start, stop - start, (stop - start).max(initial=0))
            for start, stop in fields[:2]]
    # Only comma mode can leave a tab inside an id; index_map.txt could not hold it.
    tabs = at[cls == _TAB] if separator == "," else at[:0]
    bad_id = sum(np.searchsorted(tabs, stop) - np.searchsorted(tabs, start)
                 for start, stop in fields[:2]) > 0
    # Labels are matched as keys; a field longer than every label matches none.
    labels = [label.encode("utf-8") for label in behavior_labels]
    sizes = np.array(list(map(len, labels)), dtype=np.int64)
    label_keys = _pack(b"".join(labels), np.cumsum(sizes) - sizes, sizes, sizes.max(initial=0))
    packed = _pack(block, fields[2][0], fields[2][1] - fields[2][0], sizes.max(initial=0))
    behavior = np.full(len(rows), -1, dtype=np.int64)
    for k in range(len(labels)):
        behavior[(packed == label_keys[:, k:k + 1]).all(axis=0)] = k
    timestamp, bad_stamp = _timestamps(block, *fields[3], four)
    bad = [np.flatnonzero(nonempty & ~good)[:1], rows[bad_id | (behavior < 0) | bad_stamp][:1]]
    bad_utf8 = -1
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad_byte, bad_utf8 = exc.start, np.searchsorted(at[eol], exc.start) - 1
            bad.append([bad_utf8])
    bad = np.concatenate(bad)
    if not bad.size:
        return lines, (keys[0], keys[1], behavior, timestamp)

    line = bad.min()
    where = "%s:%d:" % (path, lines_before + 1 + line)
    if line == bad_utf8:
        raise DataError("%s not UTF-8 text (byte 0x%02x)" % (where, block[bad_byte]))
    if not good[line]:
        raise DataError("%s expected 3 or 4 columns, got %d" % (where, seps[line] + 1))
    r = np.searchsorted(rows, line)
    user, item, label, stamp = (block[start[r]:stop[r]].decode("utf-8") for start, stop in fields)
    if bad_id[r]:
        raise DataError("%s id %r holds a tab, which a dataset dir cannot store"
                        % (where, user if "\t" in user else item))
    if behavior[r] < 0:
        raise DataError("%s unknown behavior %r (allowed: %s)"
                        % (where, label, ", ".join(behavior_labels)))
    raise DataError("%s %s" % (where, _int64_error(stamp, "timestamp")
                               if _STAMP.fullmatch(stamp) else "bad timestamp %r" % stamp))


def _pack(block, start, length, longest):
    """The fields block[start:start + length] as (longest // 8 + 1, n) big-endian
    uint64 words, padded with 0xff.  A longer field is cut after those words,
    where it still differs from every field of at most longest bytes."""
    words = np.ndarray((len(block) + 1,), dtype=">u8", buffer=block + bytes(8), strides=(1,))
    return np.array([words[np.minimum(start + k, len(block))].astype(np.uint64)
                     | _PAD[np.clip(length - k, 0, 8)] for k in range(0, longest + 1, 8)])


def _timestamps(block, start, stop, present):
    """The int64 timestamps in block[start:stop], 0 where not present, and a
    mask of the present ones that are not ASCII [+-]?[0-9]+ within int64.
    Digits are gathered a column at a time, from the last."""
    data = np.frombuffer(block + bytes(1), dtype=np.uint8)
    sign = data[start]
    digits = np.where(present, stop - start - ((sign == ord("+")) | (sign == ord("-"))), 0)
    column = np.arange(min(int(digits.max(initial=0)), _SAFE_TOKEN_BYTES))
    digit = np.where(column < digits[:, None], data[stop[:, None] - 1 - column] - np.uint8(48), 0)
    bad = present & ((digits == 0) | (digit > 9).any(axis=1))
    value = np.where(sign == ord("-"), -1, 1) * (digit.astype(np.int64) @ 10 ** column)
    # Longer tokens may leave int64, so Python's int reads them.
    for i in np.flatnonzero(present & (stop - start > _SAFE_TOKEN_BYTES)).tolist():
        text = block[start[i]:stop[i]].decode("latin-1")
        bad[i] = not _STAMP.fullmatch(text) or _int64_error(text, "timestamp") is not None
        value[i] = 0 if bad[i] else int(text)
    return value, bad


def _first_appearance(blocks):
    """Dense ids, numbered by first appearance, of keys given in a list of
    (width, n) blocks of words, which it empties, and the ids as str.  The
    keys are sorted a word at a time, from the last; a run of equal keys is
    one id, first seen at the run's least index."""
    keys = np.full((max(map(len, blocks)), sum(block.shape[1] for block in blocks)), _PAD[0])
    start = 0
    while blocks:
        block = blocks.pop(0)
        keys[:len(block), start:start + block.shape[1]] = block
        start += block.shape[1]
    order = np.argsort(keys[-1])
    for word in keys[-2::-1]:
        order = order[np.argsort(word[order], kind="stable")]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (np.diff(keys[:, order], axis=1) != 0).any(axis=0)
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    dense = np.empty_like(order)
    dense[order] = np.argsort(np.argsort(first))[np.cumsum(head) - 1]
    data = np.ascontiguousarray(keys[:, np.sort(first)].T, dtype=">u8").view(np.uint8)
    data = np.column_stack([data, np.full(len(data), ord("\n"), dtype=np.uint8)])
    return dense, data.tobytes().replace(b"\xff", b"").decode("utf-8").split("\n")[:-1]


def _int64_error(text, what):
    """Why a field is not an int64 (naming it ``what``), or None if it is one."""
    try:
        value = int(text)
    except ValueError:
        return "bad %s %r" % (what, text)
    if not -2 ** 63 <= value < 2 ** 63:
        return "%s %r outside the int64 range" % (what, text)
    return None


def build_dataset(interactions, num_behaviors, min_target=5):
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
    num_users = int(user.max()) + 1 if user.size else 0
    num_items = int(item.max()) + 1 if item.size else 0
    if num_items >= ITEM_LIMIT:
        raise DataError("item id %d: a dataset has fewer than 2^31 items" % (num_items - 1))

    # The dedup code and its sorted copy are freed before the first copies
    # are sorted, and the columns are read only at those records.
    code = (user * num_items + item) * num_behaviors + behavior
    order = np.argsort(code)  # unstable; each run of equal codes keeps its least index
    code = code[order]
    head = np.ones(len(code), dtype=bool)  # the first of each run of equal codes
    np.not_equal(code[1:], code[:-1], out=head[1:])
    del code
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    del order, head
    first.sort()

    target = num_behaviors - 1
    records = first[behavior[first] == target]
    target_users, target_items, target_stamps = user[records], item[records], timestamp[records]
    user_alive = np.ones(num_users, dtype=bool)
    item_alive = np.ones(num_items, dtype=bool)
    while True:
        live = user_alive[target_users] & item_alive[target_items]
        target_users, target_items = target_users[live], target_items[live]
        target_stamps = target_stamps[live]
        drop_users = user_alive & (np.bincount(target_users, minlength=num_users) < min_target)
        drop_items = item_alive & (np.bincount(target_items, minlength=num_items) < min_target)
        if not drop_users.any() and not drop_items.any():
            break
        user_alive &= ~drop_users
        item_alive &= ~drop_items

    kept_users = np.flatnonzero(user_alive)
    kept_items = np.flatnonzero(item_alive)
    num_kept = len(kept_users)
    dense_user = np.cumsum(user_alive, dtype=np.int64) - 1
    dense_item = np.cumsum(item_alive, dtype=np.int64) - 1
    first = first[user_alive[user[first]] & item_alive[item[first]]]

    # Records are unique, so sorted (behavior, user, item) codes order each user's items.
    code = (behavior[first] * num_kept + dense_user[user[first]]) * len(kept_items)
    rows, items = np.divmod(np.sort(code + dense_item[item[first]]), len(kept_items))
    sizes = np.bincount(rows, minlength=num_behaviors * num_kept).reshape(num_behaviors, num_kept)
    parts = np.split(items, np.cumsum(sizes.sum(axis=1))[:-1])  # one per behavior
    positives = list(map(PositiveStore, sizes, parts))
    # Chronological order; lexsort is stable, so file order breaks timestamp
    # ties (and stands in entirely when timestamps are absent).
    order = np.lexsort((target_stamps, target_users))
    target_order = PositiveStore(sizes[target], dense_item[target_items[order]])
    ds = BehaviorDataset(num_kept, len(kept_items), num_behaviors, positives, target_order)
    return ds, kept_users, kept_items


def leave_one_out_split(dataset, on_short="error"):
    """Hold out each user's last target record for test, second-last for validation.

    Users with fewer than MIN_SPLIT_POSITIVES target positives cannot be split;
    on_short selects whether that raises (default) or silently drops them,
    with the drop count reported on the returned split.  When no user is
    dropped, the split's stores of the auxiliary behaviors are the dataset's
    own; no layer writes into a store, so sharing one never mutates it.
    """
    if dataset.target_order is None:
        raise DataError("dataset has no target-order information; cannot split")
    if on_short not in ("error", "drop"):
        raise ValueError("on_short must be 'error' or 'drop'")

    order = dataset.target_order
    counts = np.diff(order.indptr)
    short = np.flatnonzero(counts < MIN_SPLIT_POSITIVES)
    if short.size and on_short == "error":
        worst = short[0]
        raise DataError(
            "user %d has %d target positives; at least %d are required to split"
            % (worst, counts[worst], MIN_SPLIT_POSITIVES)
        )
    keep = np.flatnonzero(counts >= MIN_SPLIT_POSITIVES)
    ends = order.indptr[keep + 1]
    test, validation = (order.items[ends - back].astype(np.int64) for back in (1, 2))

    positives = [store.take(keep) if short.size else store for store in dataset.positives]
    # The held-out items leave the target positives through one mask.
    target = positives.pop()
    row = np.repeat(np.arange(len(keep)), np.diff(target.indptr))
    trained = (target.items != test[row]) & (target.items != validation[row])
    positives.append(PositiveStore(np.bincount(row[trained], minlength=len(keep)),
                                   target.items[trained]))
    train = replace(dataset, num_users=len(keep), positives=positives, target_order=None)
    return SplitDataset(train, validation, test, keep, dropped_users=len(short))


def drop_behavior(split, k):
    """Remove one auxiliary behavior from a split (for data ablations)."""
    if k == split.train.num_behaviors - 1:
        raise DataError("cannot drop the target behavior")
    positives = split.train.positives[:k] + split.train.positives[k + 1:]
    train = replace(split.train, num_behaviors=len(positives), positives=positives)
    return replace(split, train=train)


def write_dataset_dir(out_dir, split, user_ids, item_ids, behavior_labels):
    """Serialize a split to a directory.

    Layout: meta.txt (counts and labels), index_map.txt (raw id to dense
    index, users then items), behavior_<k>.txt (one line per user: user
    index then space-separated sorted item indices), validation.txt and
    test.txt (user index, held-out item).  behavior_<k>.txt files of an
    earlier write with more behaviors are removed, so a rewritten dir holds
    the bytes of a fresh one.  meta.txt is removed first and written last,
    so a write that stops part way leaves no dataset.  The files of integers
    are written from the split's arrays, only read, one block of tokens at a time.
    """
    train = split.train
    if len(user_ids) != train.num_users or len(item_ids) != train.num_items:
        raise DataError(
            "id maps (%d users, %d items) do not match dataset (%d users, %d items)"
            % (len(user_ids), len(item_ids), train.num_users, train.num_items)
        )
    os.makedirs(out_dir, exist_ok=True)
    for file_name in os.listdir(out_dir):
        stale = _BEHAVIOR_FILE.fullmatch(file_name)
        if file_name == "meta.txt" or (stale and int(stale.group(1)) >= train.num_behaviors):
            os.remove(os.path.join(out_dir, file_name))
    # Every index is written through one table of decimal strings.
    names = list(map(str, range(max(train.num_users, train.num_items))))
    with open(os.path.join(out_dir, "index_map.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(map("u\t{}\t{}\n".format, user_ids, names))
        fh.writelines(map("i\t{}\t{}\n".format, item_ids, names))
    table = np.frombuffer((" ".join(names) + " ").encode("ascii"), dtype=np.uint8)
    starts = np.append(0, np.cumsum([len(name) + 1 for name in names]))
    files = [("behavior_%d.txt" % k, store.indptr, store.items)
             for k, store in enumerate(train.positives)]
    single = np.arange(train.num_users + 1)  # the indptr of one held-out item per user
    files += [("validation.txt", single, split.validation), ("test.txt", single, split.test)]
    for file_name, indptr, items in files:
        with open(os.path.join(out_dir, file_name), "wb") as fh:
            _write_rows(fh, indptr, items, table, starts)
    with open(os.path.join(out_dir, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write("num_users %d\n" % train.num_users)
        fh.write("num_items %d\n" % train.num_items)
        fh.write("num_behaviors %d\n" % train.num_behaviors)
        fh.write("behaviors %s\n" % ",".join(behavior_labels))
        fh.write("dropped_users %d\n" % split.dropped_users)


def _write_rows(fh, indptr, items, table, starts):
    """Writes a line per row u: u, then items[indptr[u]:indptr[u + 1]], each
    token t as table[starts[t]:starts[t + 1]], its decimal string and a space.
    A block of about pool.BLOCK_CELLS tokens is gathered at once, the space
    after each row's last token becomes a newline, and the block is one write."""
    num_users = len(indptr) - 1
    heads = indptr + np.arange(num_users + 1)  # the token offset of each row's user
    cuts = np.searchsorted(heads, np.arange(0, heads[-1], pool.BLOCK_CELLS))
    cuts = np.unique(np.append(cuts, num_users))
    for first, stop in zip(cuts.tolist(), cuts[1:].tolist()):
        tokens = np.insert(items[indptr[first]:indptr[stop]].astype(np.int64),
                           indptr[first:stop] - indptr[first], np.arange(first, stop))
        width = starts[tokens + 1] - starts[tokens]
        ends = np.cumsum(width)
        # Byte j of token i is table[starts[tokens[i]] + j].
        offsets = np.repeat(starts[tokens] - (ends - width), width)
        offsets += np.arange(len(offsets))
        data = table[offsets]
        data[ends[heads[first + 1:stop + 1] - heads[first] - 1] - 1] = ord("\n")
        fh.write(data)


def _byte_blocks(path, cr=False):
    """A file in blocks of about BLOCK_CHARS bytes, each cut after a line end:
    a newline, or also a carriage return when cr is true.  What follows the
    file's last cut comes last, as a block of its own.
    """
    pending = []
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(BLOCK_CHARS), b""):
            # A \r at the end of a chunk may begin a \r\n, so one more byte is
            # read, and a \r that is still the last byte is not cut after.
            chunk += fh.read(chunk.endswith(b"\r"))
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1) if cr else -1) + 1
            if not cut:
                pending.append(chunk)
                continue
            yield b"".join(pending + [chunk[:cut]])
            pending = [chunk[cut:]]
    if any(pending):
        yield b"".join(pending)


def _dataset_blocks(path):
    """_byte_blocks of a dataset file as (lines_before, block).  A file whose
    last byte is not a newline raises DataError naming its last line."""
    lines_before = 0
    for block in _byte_blocks(path):
        if not block.endswith(b"\n"):
            raise DataError("%s:%d: the file ends inside this line (no final newline)"
                            % (path, lines_before + 1))
        yield lines_before, block
        lines_before += block.count(b"\n")


def _text_blocks(path):
    """The lines of a UTF-8 dataset file in blocks: (lines_before, lines without newlines)."""
    for lines_before, block in _dataset_blocks(path):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("%s: not UTF-8 text (byte 0x%02x)"
                            % (_where(path, lines_before, block, exc.start),
                               block[exc.start])) from None
        yield lines_before, text.split("\n")[:-1]


# Dataset files of integers are ASCII: tokens of printable characters,
# separated by spaces, in lines ended by newlines.  Each byte's class comes
# from one table; a well-formed token holds only digits and a leading '-'.
_BAD, _SPACE, _NEWLINE, _DIGIT, _MINUS, _OTHER = range(6)
_BYTE_CLASS = bytes(
    _SPACE if b == 0x20 else _NEWLINE if b == 0x0a else _DIGIT if 0x30 <= b <= 0x39
    else _MINUS if b == 0x2d else _OTHER if 0x20 < b < 0x7f else _BAD
    for b in range(256)
)
# Tokens of at most this many bytes always fit int64 (18 digits, or '-' and 17).
_SAFE_TOKEN_BYTES = 18


def _int_blocks(path):
    """A dataset file of space-separated integers, one row per line, in blocks.

    Yields (first_line, values, starts, lengths): row r of a block is line
    first_line + r and holds values[starts[r]:starts[r] + lengths[r]].  An
    error names the first bad token or byte in file order.
    """
    for lines_before, block in _dataset_blocks(path):
        # kind[i + 1] is the class of block[i]; the block is read as if after
        # a newline, so a token at its first byte has an edge like the rest.
        kind = np.frombuffer((b"\n" + block).translate(_BYTE_CLASS), dtype=np.uint8)
        token = kind >= _DIGIT
        start = token[1:] > token[:-1]
        first = np.flatnonzero(start)  # byte offset of each token
        bad = len(block)
        if kind.min() == _BAD or kind.max() > _DIGIT:
            # The first byte outside the grammar: one outside printable ASCII,
            # space and newline, a printable byte other than a digit, or a '-'
            # that does not begin a token and precede a digit.
            body = kind[1:]
            digit_next = np.append(body[1:] == _DIGIT, False)
            hits = np.flatnonzero((body == _BAD) | (body == _OTHER)
                                  | ((body == _MINUS) & ~(start & digit_next)))
            bad = int(hits[0]) if hits.size else bad
        # fromstring saturates at the int64 limits, so longer tokens are checked first.
        long = first[np.diff(first, append=len(block)) > _SAFE_TOKEN_BYTES + 1]
        for at in long[long < bad].tolist():
            error = _int64_error(_token_text(block, token, at), "integer")
            if error:
                raise DataError("%s: %s" % (_where(path, lines_before, block, at), error))
        if bad < len(block):
            if kind[bad + 1] == _BAD:
                raise DataError("%s: byte 0x%02x is not allowed; dataset files hold integers "
                                "separated by spaces, one row per line"
                                % (_where(path, lines_before, block, bad), block[bad]))
            at = first[np.searchsorted(first, bad, side="right") - 1]
            raise DataError("%s: bad integer %r" % (_where(path, lines_before, block, bad),
                                                    _token_text(block, token, at)))
        newlines = np.flatnonzero(kind[1:] == _NEWLINE)
        lengths = np.diff(np.searchsorted(first, newlines), prepend=0)
        values = np.fromstring(block, dtype=np.int64, sep=" ") if first.size else _EMPTY
        yield lines_before + 1, values, np.cumsum(lengths) - lengths, lengths


def _token_text(block, token, at):
    """The token that starts at byte at; token[i + 1] marks a token byte block[i]."""
    return block[at:at + int(np.argmin(token[at + 1:]))].decode("ascii")


def _where(path, lines_before, block, at):
    """'path:line' of byte at of a block."""
    return "%s:%d" % (path, lines_before + 1 + block.count(b"\n", 0, at))


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


def _read_rows(path, num_users, num_items):
    """(lengths, items) of a per-user file, validated: line n holds user n - 1
    and then lengths[n - 1] strictly increasing items, end to end in int32 items."""
    items, lengths = [_EMPTY.astype(np.int32)], [_EMPTY]
    for first_line, values, starts, counts in _int_blocks(path):
        _check(path, first_line, counts == 0, "empty line, expected a user index")
        users = values[starts]
        wrong = np.flatnonzero(users != np.arange(first_line - 1, first_line - 1 + len(users)))
        if wrong.size:
            lineno = first_line + int(wrong[0])
            raise DataError("%s:%d: expected user %d, got %d"
                            % (path, lineno, lineno - 1, users[wrong[0]]))
        is_item = np.ones(len(values), dtype=bool)
        is_item[starts] = False
        _check(path, first_line, is_item & ((values < 0) | (values >= num_items)),
               "item %%d out of range (%d items)" % num_items, values, starts)
        _check(path, first_line, np.concatenate(([False], is_item[1:] & is_item[:-1]
                                                 & (values[1:] <= values[:-1]))),
               "items not strictly increasing at item %d", values, starts)
        items.append(values[is_item].astype(np.int32))  # each is below num_items
        lengths.append(counts - 1)
    lengths = np.concatenate(lengths)
    if len(lengths) != num_users:
        raise DataError("%s: %d lines for %d users" % (path, len(lengths), num_users))
    return lengths, np.concatenate(items)


def _read_heldout(path, num_users, num_items):
    """The held-out item of every user from validation.txt or test.txt, validated."""
    lengths, items = _read_rows(path, num_users, num_items)
    _check(path, 1, lengths != 1, "expected 'user item', got %d fields", lengths + 1)
    return items.astype(np.int64)


def _read_index_map(path, num_users, num_items):
    """The raw user ids and item ids by dense index from index_map.txt, validated.

    Line n holds user n - 1 while n <= num_users, and item n - 1 - num_users
    after that.
    """
    num_lines = num_users + num_items
    raws = []
    lines_read = 0
    for lines_before, lines in _text_blocks(path):
        lines_read = lines_before + len(lines)
        # Lines past the last item are left to the line count.
        lines = lines[:max(num_lines - lines_before, 0)]
        position = np.arange(lines_before, lines_before + len(lines))
        is_user = position < num_users
        kinds = np.where(is_user, "u", "i").tolist()
        dense = list(map(str, np.where(is_user, position, position - num_users).tolist()))
        fields = "\t".join(lines).split("\t")
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64,
                           count=len(lines))
        if not ((tabs == 2).all() and fields[0::3] == kinds and fields[2::3] == dense):
            for lineno, line, kind, index in zip(count(lines_before + 1), lines, kinds, dense):
                if line.count("\t") != 2 or line.split("\t")[::2] != [kind, index]:
                    raise DataError("%s:%d: expected '%s', a raw id and dense index %s, "
                                    "tab-separated" % (path, lineno, kind, index))
        raws.extend(fields[1::3])
    if lines_read != num_lines:
        raise DataError("%s: %d lines for %d users and %d items"
                        % (path, lines_read, num_users, num_items))
    return raws[:num_users], raws[num_users:]


def read_dataset_dir(dataset_dir):
    """Load a serialized split; returns (split, user_ids, item_ids, labels).

    meta.txt, written last, is read first, then the files in write order.  A key
    repeated in meta.txt, a missing, non-integer or zero user or item count,
    a behavior label count that is not num_behaviors, an empty or repeated
    label, a malformed line, an item out of range, a line that does not hold
    the user or dense index of its position, a file with too many or too few
    lines, positives that are not strictly increasing, a file that does not
    end in a newline, and a held-out item among its user's target positives
    raise DataError naming the file and the key or line.  validation.txt and
    test.txt get every check of behavior_<k>.txt, such as "empty line",
    before "expected 'user item'" for a line of other than one item.
    """
    meta_path = os.path.join(dataset_dir, "meta.txt")
    if not os.path.exists(meta_path):
        raise DataError("%s: not a dataset directory (missing meta.txt)" % dataset_dir)
    meta = {}
    for lines_before, lines in _text_blocks(meta_path):
        for lineno, line in enumerate(lines, lines_before + 1):
            key, _, value = line.strip().partition(" ")
            if key in meta:
                raise DataError("%s:%d: key %r is already set on an earlier line"
                                % (meta_path, lineno, key))
            meta[key] = value

    def count(key):
        text = meta.get(key)
        if text is None:
            raise DataError("%s: missing key %r" % (meta_path, key))
        if not (text.isascii() and text.isdigit()):
            raise DataError("%s: %s must be a non-negative integer, got %r"
                            % (meta_path, key, text))
        return int(text)

    num_users = count("num_users")
    num_items = count("num_items")
    if num_items >= ITEM_LIMIT:
        raise DataError("%s: num_items %d: a dataset has fewer than 2^31 items, so that every "
                        "item id fits int32" % (meta_path, num_items))
    if num_users == 0 or num_items == 0:
        raise DataError("%s: the dataset has %d users and %d items; it needs at least one "
                        "of each" % (meta_path, num_users, num_items))
    num_behaviors = count("num_behaviors")
    dropped_users = count("dropped_users")
    labels = (split_behavior_labels(meta["behaviors"], meta_path, DataError)
              if meta.get("behaviors") else ())
    if num_behaviors == 0 or len(labels) != num_behaviors:
        raise DataError("%s: %d behavior labels for num_behaviors %d; each of at least one "
                        "behavior needs a label" % (meta_path, len(labels), num_behaviors))

    # Read before any array of num_users or num_items entries is made, so
    # that a count larger than the lines listed fails here.
    user_ids, item_ids = _read_index_map(os.path.join(dataset_dir, "index_map.txt"),
                                         num_users, num_items)
    positives = [PositiveStore(*_read_rows(os.path.join(dataset_dir, "behavior_%d.txt" % k),
                                           num_users, num_items)) for k in range(num_behaviors)]
    validation, test = (_read_heldout(os.path.join(dataset_dir, name), num_users, num_items)
                        for name in ("validation.txt", "test.txt"))
    # Ranking leaves a user's target positives out of the candidates, so a
    # held-out item among them could not be ranked.
    users = np.arange(num_users, dtype=np.int64)
    owners = np.repeat(users, np.diff(positives[-1].indptr))
    for name, held in (("validation.txt", validation), ("test.txt", test)):
        clash = np.flatnonzero(positives[-1].items == held[owners])
        if clash.size:
            u = owners[clash[0]]
            raise DataError("%s: the held-out item %d of user %d is one of its target-behavior "
                            "training positives" % (os.path.join(dataset_dir, name), held[u], u))
    train = BehaviorDataset(num_users, num_items, num_behaviors, positives, None)
    split = SplitDataset(train, validation, test, users, dropped_users=dropped_users)
    return split, user_ids, item_ids, labels
