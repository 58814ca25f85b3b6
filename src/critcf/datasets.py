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

A dataset directory (write_dataset_dir, read_dataset_dir) holds meta.txt,
index_map.txt, behavior_<k>.txt, validation.txt and test.txt.  Every line
of every file ends in a newline, the last one included.  behavior_<k>.txt,
validation.txt and test.txt are ASCII: decimal tokens, optionally
negative, separated by spaces, with one line per user.  They are written
and read as whole arrays: the writer formats every index through one table
of decimal strings, and the reader classifies each block's bytes through
one 256-entry table and converts all of its tokens in one call.
"""

import os
import re
from dataclasses import dataclass
from itertools import compress, count, filterfalse, repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import DataError

DEFAULT_BEHAVIORS = ("view", "cart", "buy")

MIN_SPLIT_POSITIVES = 3  # target records to split: test, validation, one to train

# Characters of text parsed per block: the size hint of readlines for the
# raw log, and the bytes read at a time from dataset files.
BLOCK_CHARS = 1 << 16

_EMPTY = np.empty(0, dtype=np.int64)

_BEHAVIOR_FILE = re.compile(r"behavior_(0|[1-9][0-9]*)\.txt")


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
    blocks = [(_EMPTY,) * 4]
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
    # Only comma mode can leave a tab inside an id; index_map.txt could not hold it.
    bad_id = end
    if separator == "," and "\t" in text:
        bad_id = next((r for r, ids in enumerate(zip(users, items)) if "\t" in "".join(ids)),
                      end)

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

    first = min(end, bad_id, bad_behavior, bad_stamp)
    if first < len(rows):
        lineno = lines_before + 1 + [i for i, row in enumerate(stripped) if row][first]
        if first == end:
            if not separator and widths[first] == 1:
                detect_separator(rows[first])
            raise DataError("%s:%d: expected 3 or 4 columns, got %d"
                            % (path, lineno, widths[first]))
        if first == bad_id:
            raw = users[first] if "\t" in users[first] else items[first]
            raise DataError("%s:%d: id %r holds a tab, which a dataset dir cannot store"
                            % (path, lineno, raw))
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

    counts = np.fromiter(map(len, dataset.target_order), dtype=np.int64,
                         count=dataset.num_users)
    short = np.flatnonzero(counts < MIN_SPLIT_POSITIVES)
    if short.size and on_short == "error":
        worst = short[0]
        raise DataError(
            "user %d has %d target positives; at least %d are required to split"
            % (worst, counts[worst], MIN_SPLIT_POSITIVES)
        )
    keep = np.flatnonzero(counts >= MIN_SPLIT_POSITIVES)
    ends = np.cumsum(counts)[keep]
    order = np.concatenate([_EMPTY] + list(dataset.target_order))
    test, validation = order[ends - 1], order[ends - 2]

    target = dataset.num_behaviors - 1
    kept_users = keep.tolist()
    positives = [[dataset.positives[k][u].copy() for u in kept_users] for k in range(target)]
    # The held-out items leave the target positives through one mask over
    # the kept users' rows laid end to end.
    rows = [dataset.positives[target][u] for u in kept_users]
    items = np.concatenate([_EMPTY] + rows)
    row = np.repeat(np.arange(len(rows)), np.fromiter(map(len, rows), dtype=np.int64,
                                                      count=len(rows)))
    trained = (items != test[row]) & (items != validation[row])
    positives.append(_split_by_key(row[trained], items[trained], len(rows)))
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
    test.txt (user index, held-out item).  behavior_<k>.txt files of an
    earlier write with more behaviors are removed, so a rewritten dir holds
    the bytes of a fresh one.
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
        if stale and int(stale.group(1)) >= train.num_behaviors:
            os.remove(os.path.join(out_dir, file_name))
    # Every index is written through one table of decimal strings.
    names = list(map(str, range(max(train.num_users, train.num_items))))
    name = names.__getitem__
    with open(os.path.join(out_dir, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write("num_users %d\n" % train.num_users)
        fh.write("num_items %d\n" % train.num_items)
        fh.write("num_behaviors %d\n" % train.num_behaviors)
        fh.write("behaviors %s\n" % ",".join(behavior_labels))
        fh.write("dropped_users %d\n" % split.dropped_users)
    with open(os.path.join(out_dir, "index_map.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(map("u\t{}\t{}\n".format, user_ids, names))
        fh.writelines(map("i\t{}\t{}\n".format, item_ids, names))
    for k in range(train.num_behaviors):
        path = os.path.join(out_dir, "behavior_%d.txt" % k)
        with open(path, "w", encoding="utf-8") as fh:
            for u, items in enumerate(train.positives[k]):
                fh.write(" ".join([names[u], *map(name, items.tolist())]) + "\n")
    for file_name, held in (("validation.txt", split.validation), ("test.txt", split.test)):
        with open(os.path.join(out_dir, file_name), "w", encoding="utf-8") as fh:
            fh.writelines(map("{} {}\n".format, names, map(name, held.tolist())))


def _byte_blocks(path):
    """A dataset file in blocks of about BLOCK_CHARS bytes, each ending in a newline.

    Yields (lines_before, block).  A file whose last byte is not a newline
    raises DataError naming its last line.
    """
    lines_before = 0
    pending = []
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(BLOCK_CHARS), b""):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                pending.append(chunk)
                continue
            block = b"".join(pending + [chunk[:cut]])
            pending = [chunk[cut:]]
            yield lines_before, block
            lines_before += block.count(b"\n")
    if any(pending):
        raise DataError("%s:%d: the file ends inside this line (no final newline)"
                        % (path, lines_before + 1))


def _text_blocks(path):
    """The lines of a UTF-8 dataset file in blocks: (lines_before, lines without newlines)."""
    for lines_before, block in _byte_blocks(path):
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
    for lines_before, block in _byte_blocks(path):
        # kind[i + 1] is the class of block[i]; the block is read as if after
        # a newline, so a token at its first byte has an edge like the rest.
        kind = np.frombuffer((b"\n" + block).translate(_BYTE_CLASS), dtype=np.uint8)
        token = kind >= _DIGIT
        first = np.flatnonzero(token[1:] > token[:-1])  # byte offset of each token
        bad = len(block)
        if kind.min() == _BAD or kind.max() > _DIGIT:
            bad = _first_bad_byte(kind)
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


def _first_bad_byte(kind):
    """Offset of the first byte outside the token grammar, or the block length.

    kind is as in _int_blocks.  A bad byte is one outside printable ASCII,
    space and newline, a printable byte other than a digit, or a '-' that
    does not begin a token and precede a digit.
    """
    token = kind >= _DIGIT
    start = token[1:] > token[:-1]
    body = kind[1:]
    digit_next = np.append(body[1:] == _DIGIT, False)
    hits = np.flatnonzero((body == _BAD) | (body == _OTHER)
                          | ((body == _MINUS) & ~(start & digit_next)))
    return int(hits[0]) if hits.size else len(body)


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
    seen = np.zeros(num_users, dtype=bool)
    users, items, lengths = [_EMPTY], [_EMPTY], [_EMPTY]
    for first_line, values, starts, counts in _int_blocks(path):
        _check(path, first_line, counts == 0, "empty line, expected a user index")
        users.append(values[starts])
        _check_users(path, first_line, users[-1], num_users, seen)
        is_item = np.ones(len(values), dtype=bool)
        is_item[starts] = False
        _check(path, first_line, is_item & ((values < 0) | (values >= num_items)),
               "item %%d out of range (%d items)" % num_items, values, starts)
        _check(path, first_line, np.concatenate(([False], is_item[1:] & is_item[:-1]
                                                 & (values[1:] <= values[:-1]))),
               "items not strictly increasing at item %d", values, starts)
        items.append(values[is_item])
        lengths.append(counts - 1)
    missing = np.flatnonzero(~seen)
    if missing.size:
        raise DataError("%s: user %d has no line" % (path, missing[0]))
    # Each user is on exactly one line; take the rows in user order.
    items = np.concatenate(items)
    lengths = np.concatenate(lengths)
    ends = np.cumsum(lengths)
    order = np.argsort(np.concatenate(users))
    return [items[start:stop] for start, stop in zip((ends - lengths)[order].tolist(),
                                                     ends[order].tolist())]


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


def _read_index_map(path, num_users, num_items):
    """The raw user ids and item ids by dense index from index_map.txt, validated.

    Every dense index must be listed exactly once.
    """
    sizes = {"u": num_users, "i": num_items}
    found = {"u": ([], [], []), "i": ([], [], [])}  # dense indices, raw ids, line numbers
    for lines_before, lines in _text_blocks(path):
        fields = "\t".join(lines).split("\t")
        kinds, raws, dense = fields[0::3], fields[1::3], fields[2::3]
        digits = "".join(dense)
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64,
                           count=len(lines))
        if not ((tabs == 2).all() and set(kinds) <= set(sizes) and all(dense)
                and digits.isascii() and digits.isdigit()
                and max(map(len, dense), default=0) <= _SAFE_TOKEN_BYTES):
            _index_map_error(path, lines_before, lines, sizes)
        index = np.array(dense, dtype=np.int64)
        is_user = np.fromiter(map("u".__eq__, kinds), dtype=bool, count=len(kinds))
        if (index >= np.where(is_user, num_users, num_items)).any():
            _index_map_error(path, lines_before, lines, sizes)
        lineno = np.arange(lines_before + 1, lines_before + 1 + len(lines))
        for kind, mine in (("u", is_user), ("i", ~is_user)):
            found[kind][0].append(index[mine])
            found[kind][1].extend(compress(raws, mine.tolist()))
            found[kind][2].append(lineno[mine])
    ids = []
    for kind, what in (("u", "user"), ("i", "item")):
        index, raws, lineno = found[kind]
        index = np.concatenate([_EMPTY] + index)
        order = np.argsort(index, kind="stable")
        index, lineno = index[order], np.concatenate([_EMPTY] + lineno)[order]
        # Sorted, a complete table is 0, 1, 2, ...; the first entry out of
        # place is a repeat when below its position and follows a gap when above.
        wrong = np.flatnonzero(index != np.arange(len(index)))
        if wrong.size and index[wrong[0]] < wrong[0]:
            raise DataError("%s:%d: %s index %d is already listed on an earlier line"
                            % (path, lineno[wrong[0]], what, index[wrong[0]]))
        if wrong.size or len(index) < sizes[kind]:
            raise DataError("%s: %s index %d has no line"
                            % (path, what, wrong[0] if wrong.size else len(index)))
        ids.append(list(map(raws.__getitem__, order.tolist())))
    return ids


def _index_map_error(path, lines_before, lines, sizes):
    """Raise DataError at the first malformed line of an index_map.txt block."""
    for lineno, line in enumerate(lines, lines_before + 1):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] not in sizes:
            raise DataError("%s:%d: expected 'u' or 'i', a raw id and a dense index, "
                            "tab-separated" % (path, lineno))
        dense = fields[2]
        if not (dense.isascii() and dense.isdigit() and len(dense) <= _SAFE_TOKEN_BYTES
                and int(dense) < sizes[fields[0]]):
            raise DataError("%s:%d: dense index %r not in [0, %d)"
                            % (path, lineno, dense, sizes[fields[0]]))


def read_dataset_dir(dataset_dir):
    """Load a serialized split; returns (split, user_ids, item_ids, labels).

    A missing, non-integer or zero user or item count in meta.txt, a
    behavior label count that is not num_behaviors, a malformed line, an
    index out of range, a user or index listed twice or not at all in any
    file, positives that are not strictly increasing, a file that does not
    end in a newline, and a held-out item that is one of its user's
    target-behavior positives raise DataError naming the file and the key,
    line or user.
    """
    meta_path = os.path.join(dataset_dir, "meta.txt")
    if not os.path.exists(meta_path):
        raise DataError("%s: not a dataset directory (missing meta.txt)" % dataset_dir)
    meta = dict(line.strip().partition(" ")[::2]
                for _, lines in _text_blocks(meta_path) for line in lines)

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
    if num_users == 0 or num_items == 0:
        raise DataError("%s: the dataset has %d users and %d items; it needs at least one "
                        "of each" % (meta_path, num_users, num_items))
    num_behaviors = count("num_behaviors")
    dropped_users = count("dropped_users")
    labels = tuple(meta["behaviors"].split(",")) if meta.get("behaviors") else ()
    if num_behaviors == 0 or len(labels) != num_behaviors:
        raise DataError("%s: %d behavior labels for num_behaviors %d; each of at least one "
                        "behavior needs a label" % (meta_path, len(labels), num_behaviors))

    # Read before any array of num_users or num_items entries is made, so
    # that a count larger than the lines listed fails here.
    user_ids, item_ids = _read_index_map(os.path.join(dataset_dir, "index_map.txt"),
                                         num_users, num_items)
    positives = [
        _read_positives(os.path.join(dataset_dir, "behavior_%d.txt" % k), num_users, num_items)
        for k in range(num_behaviors)
    ]
    validation, test = (_read_heldout(os.path.join(dataset_dir, name), num_users, num_items)
                        for name in ("validation.txt", "test.txt"))
    # Ranking leaves a user's target positives out of the candidates, so a
    # held-out item among them could not be ranked.
    target = positives[-1]
    owners = np.repeat(np.arange(num_users),
                       np.fromiter(map(len, target), dtype=np.int64, count=num_users))
    items = np.concatenate(target)
    for name, held in (("validation.txt", validation), ("test.txt", test)):
        clash = np.flatnonzero(items == held[owners])
        if clash.size:
            u = owners[clash[0]]
            raise DataError("%s: the held-out item %d of user %d is one of its target-behavior "
                            "training positives" % (os.path.join(dataset_dir, name), held[u], u))
    train = BehaviorDataset(num_users, num_items, num_behaviors, positives, None)
    split = SplitDataset(train, validation, test, np.arange(num_users, dtype=np.int64),
                         dropped_users=dropped_users)
    return split, user_ids, item_ids, labels
