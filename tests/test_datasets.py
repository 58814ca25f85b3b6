import contextlib
import importlib.util
import io
import os
import re
import tempfile
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcf import datasets
from critcf.cli import main
from critcf.config import dataset_fingerprint
from critcf.datasets import (
    BehaviorDataset,
    DEFAULT_BEHAVIORS,
    Interactions,
    SplitDataset,
    build_dataset,
    detect_separator,
    drop_behavior,
    leave_one_out_split,
    parse_interactions,
    read_dataset_dir,
    write_dataset_dir,
)
from critcf.errors import DataError


# Reference oracles: the record-at-a-time ingestion that the columnar
# parse_interactions and build_dataset replaced.  Their outputs must agree
# exactly, except that the oracle parse accepts timestamps outside int64.

class Interaction(NamedTuple):
    user: int
    item: int
    behavior: int
    timestamp: Optional[int]


def oracle_parse_interactions(path, behavior_labels=DEFAULT_BEHAVIORS, separator=None):
    labels = {label: k for k, label in enumerate(behavior_labels)}
    interactions = []
    user_index = {}
    item_index = {}
    user_ids = []
    item_ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            sep = separator or detect_separator(line)
            parts = [p.strip() for p in line.split(sep)]
            if len(parts) not in (3, 4):
                raise DataError(
                    "%s:%d: expected 3 or 4 columns, got %d" % (path, lineno, len(parts))
                )
            user_raw, item_raw, behavior_raw = parts[0], parts[1], parts[2]
            for raw_id in (user_raw, item_raw):
                if "\t" in raw_id:
                    raise DataError("%s:%d: id %r holds a tab, which a dataset dir cannot "
                                    "store" % (path, lineno, raw_id))
            if behavior_raw not in labels:
                raise DataError(
                    "%s:%d: unknown behavior %r (allowed: %s)"
                    % (path, lineno, behavior_raw, ", ".join(behavior_labels))
                )
            timestamp = None
            if len(parts) == 4:
                try:
                    timestamp = int(parts[3])
                except ValueError:
                    raise DataError(
                        "%s:%d: bad timestamp %r" % (path, lineno, parts[3])
                    ) from None
            if user_raw not in user_index:
                user_index[user_raw] = len(user_ids)
                user_ids.append(user_raw)
            if item_raw not in item_index:
                item_index[item_raw] = len(item_ids)
                item_ids.append(item_raw)
            interactions.append(
                Interaction(user_index[user_raw], item_index[item_raw],
                            labels[behavior_raw], timestamp)
            )
    return interactions, user_ids, item_ids


def oracle_dedupe(interactions):
    seen = set()
    out = []
    for it in interactions:
        key = (it.user, it.item, it.behavior)
        if key not in seen:
            seen.add(key)
            out.append(it)
    return out


def oracle_build_dataset(interactions, num_behaviors, min_target=5,
                         num_users=None, num_items=None):
    for it in interactions:
        if not 0 <= it.behavior < num_behaviors:
            raise DataError(
                "behavior id %d out of range for %d behaviors" % (it.behavior, num_behaviors)
            )
    if num_users is None:
        num_users = max((it.user for it in interactions), default=-1) + 1
    if num_items is None:
        num_items = max((it.item for it in interactions), default=-1) + 1

    records = oracle_dedupe(interactions)
    target = num_behaviors - 1

    user_alive = np.ones(num_users, dtype=bool)
    item_alive = np.ones(num_items, dtype=bool)
    while True:
        user_counts = np.zeros(num_users, dtype=np.int64)
        item_counts = np.zeros(num_items, dtype=np.int64)
        for it in records:
            if it.behavior == target and user_alive[it.user] and item_alive[it.item]:
                user_counts[it.user] += 1
                item_counts[it.item] += 1
        drop_users = user_alive & (user_counts < min_target)
        drop_items = item_alive & (item_counts < min_target)
        if not drop_users.any() and not drop_items.any():
            break
        user_alive &= ~drop_users
        item_alive &= ~drop_items

    kept_users = np.flatnonzero(user_alive)
    kept_items = np.flatnonzero(item_alive)
    user_map = {old: new for new, old in enumerate(kept_users)}
    item_map = {old: new for new, old in enumerate(kept_items)}

    per_behavior = [[[] for _ in range(len(kept_users))] for _ in range(num_behaviors)]
    target_records = [[] for _ in range(len(kept_users))]
    for order, it in enumerate(records):
        if not (user_alive[it.user] and item_alive[it.item]):
            continue
        u, v = user_map[it.user], item_map[it.item]
        per_behavior[it.behavior][u].append(v)
        if it.behavior == target:
            ts = it.timestamp if it.timestamp is not None else 0
            target_records[u].append((ts, order, v))

    positives = [
        [np.array(sorted(items), dtype=np.int64) for items in per_user]
        for per_user in per_behavior
    ]
    target_order = [
        np.array([v for _, _, v in sorted(recs)], dtype=np.int64)
        for recs in target_records
    ]
    ds = BehaviorDataset(len(kept_users), len(kept_items), num_behaviors,
                         positives, target_order)
    return ds, kept_users, kept_items


# Reference oracles for the dataset-directory layers: the per-user split,
# the per-record writer and the text-mode integer reader that the
# whole-array leave_one_out_split, write_dataset_dir and _int_blocks
# replaced.  Their outputs must agree exactly; the oracle reader also takes
# tabs, carriage returns, other Unicode whitespace and int() spellings such
# as '+5' and '1_0', which dataset files no longer allow.

def oracle_leave_one_out_split(dataset, on_short="error"):
    if dataset.target_order is None:
        raise DataError("dataset has no target-order information; cannot split")
    if on_short not in ("error", "drop"):
        raise ValueError("on_short must be 'error' or 'drop'")

    short = {u for u in range(dataset.num_users)
             if len(dataset.target_order[u]) < datasets.MIN_SPLIT_POSITIVES}
    if short and on_short == "error":
        worst = min(short)
        raise DataError(
            "user %d has %d target positives; at least %d are required to split"
            % (worst, len(dataset.target_order[worst]), datasets.MIN_SPLIT_POSITIVES)
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


def oracle_write_dataset_dir(out_dir, split, user_ids, item_ids, behavior_labels):
    train = split.train
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


def oracle_int_blocks(path):
    for lines_before, lines in datasets._line_blocks(path):
        rows = [line.split() for line in lines]
        try:
            values = np.array(list(chain.from_iterable(rows)), dtype=np.int64)
        except (ValueError, OverflowError):
            for r, row in enumerate(rows):
                for token in row:
                    error = datasets._int64_error(token, "integer")
                    if error:
                        raise DataError("%s:%d: %s" % (path, lines_before + 1 + r, error)) \
                            from None
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        yield lines_before + 1, values, np.cumsum(lengths) - lengths, lengths


def columns(interactions):
    """The columnar form of a list of Interaction records."""
    fields = zip(*interactions) if interactions else ((),) * 4
    user, item, behavior, timestamp = (list(f) for f in fields)
    timestamp = [0 if t is None else t for t in timestamp]
    return Interactions(*(np.array(c, dtype=np.int64) for c in (user, item, behavior, timestamp)))


def assert_same_columns(got, expected):
    assert isinstance(got, Interactions)
    for a, b in zip(got, expected):
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def assert_same_dataset(got, expected):
    assert (got.num_users, got.num_items, got.num_behaviors) == \
        (expected.num_users, expected.num_items, expected.num_behaviors)
    assert len(got.positives) == len(expected.positives)
    for a, b in zip(got.positives, expected.positives):
        assert_same_arrays(a, b)
    if expected.target_order is None:
        assert got.target_order is None
    else:
        assert_same_arrays(got.target_order, expected.target_order)


def write_raw(tmp_path, text, name="raw.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_detect_separator():
    assert detect_separator("a\tb\tc") == "\t"
    assert detect_separator("a,b,c") == ","
    with pytest.raises(DataError):
        detect_separator("a b c")


def test_parse_first_appearance_indexing(tmp_path):
    path = write_raw(tmp_path, "alice\t17\tview\nbob\t17\tbuy\nalice\t9\tcart\n")
    interactions, user_ids, item_ids = parse_interactions(path)
    assert_same_columns(interactions, columns([
        Interaction(0, 0, 0, None),
        Interaction(1, 0, 2, None),
        Interaction(0, 1, 1, None),
    ]))
    assert user_ids == ["alice", "bob"]
    assert item_ids == ["17", "9"]


def test_parse_timestamps_and_comma(tmp_path):
    path = write_raw(tmp_path, "u1,i1,buy,100\nu1,i2,buy,90\n", name="raw.csv")
    interactions, _, _ = parse_interactions(path)
    assert interactions.timestamp[0] == 100
    assert interactions.timestamp[1] == 90


def test_parse_keeps_duplicates(tmp_path):
    path = write_raw(tmp_path, "a\tb\tbuy\na\tb\tbuy\n")
    interactions, _, _ = parse_interactions(path)
    assert len(interactions.user) == 2


def test_parse_empty_file(tmp_path):
    path = write_raw(tmp_path, "")
    interactions, user_ids, item_ids = parse_interactions(path)
    assert_same_columns(interactions, columns([]))
    assert user_ids == [] and item_ids == []


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write_raw(tmp_path, "a\tb\tbuy\na\tb\n")
    with pytest.raises(DataError, match=":2:"):
        parse_interactions(path)
    path = write_raw(tmp_path, "a\tb\tinspect\n")
    with pytest.raises(DataError, match="view"):
        parse_interactions(path)
    path = write_raw(tmp_path, "a\tb\tbuy\tsoon\n")
    with pytest.raises(DataError, match=":1:"):
        parse_interactions(path)


def buys(user, items, t0=0):
    return [Interaction(user, v, 2, t0 + i) for i, v in enumerate(items)]


def test_build_dataset_threshold_examples():
    # the threshold is inclusive on both sides: 5 users x 5 items of
    # complete buys put every user AND every item exactly at min_target=5
    complete = [it for u in range(5) for it in buys(u, [0, 1, 2, 3, 4])]
    kept, _, _ = build_dataset(columns(complete), 3, min_target=5, num_items=5)
    assert kept.num_users == 5
    assert len(kept.positives[2][0]) == 5

    # one user short of the threshold empties out (items lose support too)
    empty, _, _ = build_dataset(columns(buys(0, [0, 1, 2, 3])), 3, min_target=5, num_items=4)
    assert empty.num_users == 0
    assert empty.num_items == 0


def test_build_dataset_dedupes():
    interactions = [it for u in range(3) for it in buys(u, [0, 1, 2])]
    interactions.insert(1, Interaction(0, 0, 2, 99))
    ds, _, _ = build_dataset(columns(interactions), 3, min_target=3, num_items=3)
    assert ds.num_users == 3
    assert list(ds.positives[2][0]) == [0, 1, 2]
    # the first copy's timestamp wins in the target ordering
    assert list(ds.target_order[0]) == [0, 1, 2]


def test_build_dataset_iterative_filter():
    # users 0-2 form a stable 2-core on items 0-1; user 3 survives the
    # first pass (two buys) but loses item 2 to the item filter and must
    # fall in the second pass
    interactions = [it for u in range(3) for it in buys(u, [0, 1])]
    interactions += buys(3, [0, 2])
    ds, kept_users, kept_items = build_dataset(columns(interactions), 3, min_target=2,
                                               num_items=3)
    assert list(kept_users) == [0, 1, 2]
    assert list(kept_items) == [0, 1]
    assert all(list(ds.positives[2][u]) == [0, 1] for u in range(3))


def test_build_dataset_rejects_bad_behavior():
    with pytest.raises(DataError):
        build_dataset(columns([Interaction(0, 0, 5, None)]), 3, min_target=0)


def test_build_dataset_target_order_uses_time_then_input_order():
    interactions = [
        Interaction(0, 0, 2, 50),
        Interaction(0, 1, 2, 10),
        Interaction(0, 2, 2, 50),
        Interaction(0, 3, 2, None),
    ]
    ds, _, _ = build_dataset(columns(interactions), 3, min_target=0, num_items=4)
    # missing timestamp counts as 0; equal stamps keep file order
    assert list(ds.target_order[0]) == [3, 1, 0, 2]


def test_leave_one_out_split_basic():
    interactions = buys(0, [5, 3, 8]) + [Interaction(0, 1, 1, 0)]
    ds, _, _ = build_dataset(columns(interactions), 3, min_target=0, num_items=9)
    split = leave_one_out_split(ds)
    assert split.test[0] == 8
    assert split.validation[0] == 3
    assert list(split.train.positives[2][0]) == [5]
    # auxiliary cart positives untouched
    assert list(split.train.positives[1][0]) == [1]
    assert split.dropped_users == 0
    assert list(split.source_users) == [0]


def test_leave_one_out_split_five_items():
    ds, _, _ = build_dataset(columns(buys(0, [0, 1, 2, 3, 4])), 3, min_target=0, num_items=5)
    split = leave_one_out_split(ds)
    assert len(split.train.positives[2][0]) == 3
    assert split.test[0] == 4 and split.validation[0] == 3


def test_leave_one_out_split_short_user():
    ds, _, _ = build_dataset(columns(buys(0, [0, 1])), 3, min_target=0, num_items=2)
    with pytest.raises(DataError, match="user 0"):
        leave_one_out_split(ds)
    two_users = buys(0, [0, 1]) + buys(1, [0, 1, 2], t0=10)
    ds, _, _ = build_dataset(columns(two_users), 3, min_target=0, num_items=3)
    split = leave_one_out_split(ds, on_short="drop")
    assert split.dropped_users == 1
    assert split.train.num_users == 1
    assert list(split.source_users) == [1]
    assert split.test[0] == 2


def test_split_disjointness():
    rng = np.random.default_rng(0)
    interactions = []
    for u in range(12):
        items = rng.permutation(30)[: rng.integers(3, 9)]
        interactions += buys(u, list(items))
        for v in items[:2]:
            interactions.append(Interaction(u, int(v), 0, None))
    ds, _, _ = build_dataset(columns(interactions), 3, min_target=3, num_items=30)
    split = leave_one_out_split(ds)
    for u in range(split.train.num_users):
        train_pos = set(int(v) for v in split.train.positives[2][u])
        assert int(split.test[u]) not in train_pos
        assert int(split.validation[u]) not in train_pos
        assert split.test[u] != split.validation[u]


def test_filter_is_idempotent():
    rng = np.random.default_rng(1)
    interactions = []
    for u in range(10):
        items = rng.permutation(20)[: rng.integers(1, 8)]
        interactions += buys(u, list(items))
    ds, _, _ = build_dataset(columns(interactions), 3, min_target=3, num_items=20)
    rebuilt = [
        Interaction(u, int(v), 2, t)
        for u in range(ds.num_users)
        for t, v in enumerate(ds.target_order[u])
    ]
    again, kept_users, kept_items = build_dataset(columns(rebuilt), 3, min_target=3,
                                                  num_users=ds.num_users,
                                                  num_items=ds.num_items)
    assert again.num_users == ds.num_users
    assert again.num_items == ds.num_items
    assert list(kept_users) == list(range(ds.num_users))
    for u in range(ds.num_users):
        np.testing.assert_array_equal(again.positives[2][u], ds.positives[2][u])
        np.testing.assert_array_equal(again.target_order[u], ds.target_order[u])


def test_drop_behavior():
    positives = [
        [np.array([0, 1])], [np.array([1])], [np.array([0, 1, 2])],
    ]
    train = BehaviorDataset(1, 3, 3, positives)
    split = SplitDataset(train, np.array([2]), np.array([1]), np.array([0]))
    dropped = drop_behavior(split, 0)
    assert dropped.train.num_behaviors == 2
    assert list(dropped.train.positives[0][0]) == [1]
    assert list(dropped.train.positives[1][0]) == [0, 1, 2]
    with pytest.raises(DataError):
        drop_behavior(split, 2)


def test_dataset_dir_roundtrip(tmp_path):
    interactions = []
    for u in range(6):
        interactions += buys(u, [(u + j) % 15 for j in range(4)])
        interactions.append(Interaction(u, (u + 7) % 15, 0, None))
        interactions.append(Interaction(u, (u + 3) % 15, 1, None))
    ds, kept_users, kept_items = build_dataset(columns(interactions), 3, min_target=2,
                                               num_items=15)
    split = leave_one_out_split(ds)
    user_ids = ["u%d" % kept_users[u] for u in split.source_users]
    item_ids = ["i%d" % v for v in kept_items]
    out = str(tmp_path / "ds")
    write_dataset_dir(out, split, user_ids, item_ids, ("view", "cart", "buy"))
    loaded, loaded_users, loaded_items, labels = read_dataset_dir(out)
    assert (split.train.num_users, split.train.num_items) == (6, 7)
    assert labels == ("view", "cart", "buy")
    assert loaded_users == user_ids
    assert loaded_items == item_ids
    assert loaded.train.num_users == split.train.num_users
    for k in range(3):
        for u in range(split.train.num_users):
            np.testing.assert_array_equal(loaded.train.positives[k][u],
                                          split.train.positives[k][u])
    np.testing.assert_array_equal(loaded.validation, split.validation)
    np.testing.assert_array_equal(loaded.test, split.test)


def test_read_dataset_dir_missing(tmp_path):
    with pytest.raises(DataError):
        read_dataset_dir(str(tmp_path / "nope"))


# Generated logs for the oracle comparison: a few users and items (some
# non-ASCII) so duplicates and min-target cascades are common, mostly target
# records, padded fields, mixed separators and line endings, and now and
# then a malformed line.
USERS = ["u1", "u2", "u3", "ü", "用户", "a b"]
ITEMS = ["i1", "i2", "i3", "é9", "7", "x,y"]
PADS = ["", "", "", "", " ", "  ", "　", "\x0c", "\x85", "\t"]
STAMPS = st.one_of(st.integers(-3, 3), st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 10 ** 12]))
JUNK = [
    "no separator here", "u1\ti1", "u1,i1,buy,1,2", "u1\ti1\tinspect", "u1\ti1\tbuy\tsoon",
    "u1,i1,buy,1.5", "u1\ti1\tbuy\t", "u1\ti1\tbuy\t1_0", "u1\ti1\tbuy\t٣",
    "u1\t\ti1\tbuy", "\tu2\ti2\tbuy\t4\t",
]


@st.composite
def record_lines(draw, separators):
    behavior = draw(st.sampled_from(["buy", "buy", "buy", "cart", "view"]))
    fields = [draw(st.sampled_from(USERS)), draw(st.sampled_from(ITEMS)), behavior]
    if draw(st.booleans()):
        fields.append(str(draw(STAMPS)))
    pads = [draw(st.sampled_from(PADS)) for _ in range(2 * len(fields))]
    fields = [pads[2 * j] + f + pads[2 * j + 1] for j, f in enumerate(fields)]
    return draw(separators).join(fields)


@st.composite
def raw_logs(draw):
    """(log text, separator argument); lines use that separator when one is given."""
    separator = draw(st.sampled_from([None, None, "\t", ","]))
    separators = st.sampled_from(["\t", ","] if separator is None else [separator])
    lines = draw(st.lists(st.one_of(record_lines(separators), record_lines(separators),
                                    record_lines(separators),
                                    st.sampled_from(["", "   ", "\t", "　"])),
                          max_size=60))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(JUNK)))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings)), separator


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        return DataError, str(exc)


def assert_same_split(got, expected):
    assert isinstance(got, type(expected))
    if not isinstance(expected, SplitDataset):
        assert got == expected
        return
    assert_same_dataset(got.train, expected.train)
    for a, b in ((got.validation, expected.validation), (got.test, expected.test),
                 (got.source_users, expected.source_users)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got.dropped_users == expected.dropped_users


@settings(max_examples=300, deadline=None)
@example(log=("u1\t,i1,buy,3\nu2,i1,buy,4\n", ","), min_target=0, block_chars=1 << 20)
@example(log=("u1,i1,buy,3\nu2,i\t1,view\n", ","), min_target=0, block_chars=1 << 20)
@given(log=raw_logs(),
       min_target=st.integers(0, 4),
       block_chars=st.sampled_from([1, 16, 64, 1 << 20]))
def test_columnar_ingestion_equals_record_oracle(log, min_target, block_chars):
    text, separator = log
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "BLOCK_CHARS", block_chars)
        path = os.path.join(tmp, "raw.log")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        got = outcome(parse_interactions, path, separator=separator)
        expected = outcome(oracle_parse_interactions, path, separator=separator)
    if expected[0] is DataError:
        assert got == expected
        return
    interactions, user_ids, item_ids = got
    assert_same_columns(interactions, columns(expected[0]))
    assert (user_ids, item_ids) == (expected[1], expected[2])

    got = build_dataset(interactions, 3, min_target=min_target)
    expected = oracle_build_dataset(expected[0], 3, min_target=min_target)
    assert_same_dataset(got[0], expected[0])
    for a, b in zip(got[1:], expected[1:]):
        np.testing.assert_array_equal(a, b)
    for on_short in ("drop", "error"):
        assert_same_split(outcome(leave_one_out_split, got[0], on_short=on_short),
                          outcome(oracle_leave_one_out_split, expected[0], on_short=on_short))


@pytest.mark.parametrize("stamp,ok", [
    (2 ** 63 - 1, True), (-(2 ** 63), True), (2 ** 63, False), (-(2 ** 63) - 1, False),
])
def test_parse_timestamps_must_fit_int64(tmp_path, stamp, ok):
    path = write_raw(tmp_path, "a\tb\tbuy\t5\n\na\tc\tbuy\t%d\n" % stamp)
    if ok:
        interactions, _, _ = parse_interactions(path)
        assert interactions.timestamp.tolist() == [5, stamp]
    else:
        with pytest.raises(DataError, match=r":3: timestamp '%d' outside the int64 range"
                           % stamp):
            parse_interactions(path)


def test_parse_reports_first_bad_line_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "BLOCK_CHARS", 8)
    lines = ["u%d\ti%d\tbuy\t%d" % (n, n, n) for n in range(40)]
    lines[17] = "u17\ti17\tbuy\t2e3"
    lines[25] = "u25\ti25\tpurchase"
    path = write_raw(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r":18: bad timestamp '2e3'"):
        parse_interactions(path)


def _demo_toy_log(path):
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "04_prepare_raw_log.py")
    spec = importlib.util.spec_from_file_location("prepare_raw_log_demo", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_toy_log(path)


def _cli_test_log(path):
    # the log of tests/test_cli.py::test_prepare_roundtrip
    lines = []
    ts = 0
    for u in range(5):
        for v in range(6):
            lines.append("u%d\ti%d\tbuy\t%d" % (u, v, ts))
            ts += 1
        lines.append("u%d\ti0\tview\t%d" % (u, ts))
        ts += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# dataset_fingerprint of `critcf prepare --min-target 5` output as written
# by the record-at-a-time ingestion.
@pytest.mark.parametrize("write_log,digest", [
    (_cli_test_log, "c5c90d0ecf2d66190eed64d7e60a6764ba4f9a03598573ed535f64b749907c97"),
    (_demo_toy_log, "5ab634963a7f0b7ea943eecc48a5640ec0efc5706fbb61c22426b7fe656c4545"),
], ids=["cli-test-log", "demo-04-log"])
def test_prepare_output_is_pinned(tmp_path, capsys, write_log, digest):
    raw = str(tmp_path / "raw.tsv")
    write_log(raw)
    out = str(tmp_path / "prepared")
    assert main(["prepare", raw, out, "--min-target", "5"]) == 0
    capsys.readouterr()
    assert dataset_fingerprint(out) == digest


@pytest.mark.parametrize("block_chars", [256, 1 << 20])
def test_columnar_ingestion_equals_record_oracle_at_scale(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(datasets, "BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(5)
    n = 4000
    users = rng.integers(0, 150, size=n)
    items = (rng.zipf(1.6, size=n) - 1) % 90  # a popularity tail that the filter cuts
    kinds = rng.choice(["view", "cart", "buy"], size=n, p=[0.3, 0.2, 0.5])
    stamps = rng.integers(-50, 400, size=n)  # many ties and repeated records
    lines = ["u%d\tí%d\t%s\t%d" % row for row in zip(users, items, kinds, stamps)]
    path = write_raw(tmp_path, "\n".join(lines) + "\n")
    interactions, user_ids, item_ids = parse_interactions(path)
    expected, expected_users, expected_items = oracle_parse_interactions(path)
    assert_same_columns(interactions, columns(expected))
    assert (user_ids, item_ids) == (expected_users, expected_items)
    sizes = []
    for min_target in (1, 5, 7):
        got, got_users, got_items = build_dataset(interactions, 3, min_target=min_target)
        ds, kept_users, kept_items = oracle_build_dataset(expected, 3, min_target=min_target)
        assert_same_dataset(got, ds)
        np.testing.assert_array_equal(got_users, kept_users)
        np.testing.assert_array_equal(got_items, kept_items)
        assert_same_split(leave_one_out_split(got, on_short="drop"),
                          oracle_leave_one_out_split(ds, on_short="drop"))
        sizes.append((got.num_users, got.num_items))
    assert sizes == [(150, 84), (115, 32), (0, 0)]  # 7 cascades down to nothing


SMALL_SYNTH = ["--users", "12", "--items", "10", "--densities", "0.5,0.4,0.3",
               "--latent-dim", "3", "--seed", "2"]


@pytest.fixture
def small_dataset(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert main(["synth", out] + SMALL_SYNTH) == 0
    capsys.readouterr()
    return out


def test_rewrite_removes_only_stale_behavior_files(small_dataset):
    split, user_ids, item_ids, labels = read_dataset_dir(small_dataset)
    kept = ["notes.txt", "behavior_02.txt", "behavior_x.txt", "behavior_1.txt.bak"]
    for name in kept:
        open(os.path.join(small_dataset, name), "w").close()
    write_dataset_dir(small_dataset, drop_behavior(split, 0), user_ids, item_ids, labels[1:])
    assert sorted(os.listdir(small_dataset)) == sorted(
        kept + ["behavior_0.txt", "behavior_1.txt", "index_map.txt", "meta.txt", "test.txt",
                "validation.txt"])


def test_read_dataset_dir_in_small_blocks(small_dataset, monkeypatch):
    whole, _, _, _ = read_dataset_dir(small_dataset)
    monkeypatch.setattr(datasets, "BLOCK_CHARS", 8)
    blocks, _, _, _ = read_dataset_dir(small_dataset)
    assert_same_split(blocks, whole)


def _edit_line(lineno, text):
    """An edit of a file's bytes: line lineno becomes text, or goes when text is None."""
    def edit(data):
        lines = data.split(b"\n")
        if text is None:
            del lines[lineno - 1]
        else:
            lines[lineno - 1] = text.encode("utf-8") if isinstance(text, str) else text
        return b"\n".join(lines)
    return edit


def _edit_file(path, edit):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(data))


@pytest.mark.parametrize("name,edit,message", [
    ("test.txt", _edit_line(4, None), r"test.txt: user 3 has no held-out line"),
    ("validation.txt", _edit_line(12, None), r"validation.txt: user 11 has no held-out line"),
    ("behavior_1.txt", _edit_line(3, "2 1 10"),
     r"behavior_1.txt:3: item 10 out of range \(10 items\)"),
    ("behavior_0.txt", _edit_line(5, "4 -1 3"), r"behavior_0.txt:5: item -1 out of range"),
    ("behavior_2.txt", _edit_line(2, "12 3"),
     r"behavior_2.txt:2: user 12 out of range \(12 users\)"),
    ("test.txt", _edit_line(6, "5 10"), r"test.txt:6: item 10 out of range"),
    ("validation.txt", _edit_line(7, "-6 1"), r"validation.txt:7: user -6 out of range"),
    ("behavior_0.txt", _edit_line(3, "2 1 4 4 7"),
     r"behavior_0.txt:3: items not strictly increasing"),
    ("behavior_1.txt", _edit_line(8, "7 6 2"), r"behavior_1.txt:8: items not strictly increasing"),
    ("behavior_2.txt", _edit_line(9, ""), r"behavior_2.txt:9: empty line"),
    ("test.txt", _edit_line(2, "1 2 3"), r"test.txt:2: expected 'user item', got 3 fields"),
    ("behavior_1.txt", _edit_line(4, "3 1 x"), r"behavior_1.txt:4: bad integer 'x'"),
    ("behavior_2.txt", _edit_line(9, "2 1 3"),
     r"behavior_2.txt:9: user 2 is already listed on an earlier"),
    ("validation.txt", _edit_line(5, "1 4"),
     r"validation.txt:5: user 1 is already listed on an earlier"),
    ("test.txt", _edit_line(3, "1 2"), r"test.txt:3: user 1 is already listed on an earlier line"),
    ("behavior_0.txt", _edit_line(4, None), r"behavior_0.txt: user 3 has no line$"),
    ("behavior_1.txt", lambda data: data[:-3],
     r"behavior_1.txt:12: the file ends inside this line \(no final newline\)"),
    ("meta.txt", lambda data: data[:-1], r"meta.txt:5: the file ends inside this line"),
    ("behavior_2.txt", _edit_line(3, "2 9223372036854775808"),
     r"behavior_2.txt:3: integer '9223372036854775808' outside the int64 range"),
    ("behavior_0.txt", _edit_line(7, "6 +2"), r"behavior_0.txt:7: bad integer '\+2'"),
    ("behavior_0.txt", _edit_line(2, "1\t0 1"), r"behavior_0.txt:2: byte 0x09 is not allowed"),
    ("test.txt", _edit_line(5, "4 1\r"), r"test.txt:5: byte 0x0d is not allowed"),
    ("validation.txt", _edit_line(3, b"2 \xff"), r"validation.txt:3: byte 0xff is not allowed"),
    ("behavior_1.txt", _edit_line(6, "5 0 \u0663"), r"behavior_1.txt:6: byte 0xd9 is not allowed"),
    ("index_map.txt", _edit_line(13, None), r"index_map.txt: item index 0 has no line"),
    ("index_map.txt", _edit_line(3, "u\t1\t1"),
     r"index_map.txt:3: user index 1 is already listed on an earlier line"),
    ("index_map.txt", _edit_line(14, b"i\t\xff\t1"),
     r"index_map.txt:14: not UTF-8 text \(byte 0xff\)"),
    ("meta.txt", _edit_line(5, None), r"meta.txt: missing key 'dropped_users'"),
    ("meta.txt", _edit_line(4, "behaviors view,buy"),
     r"meta.txt: 2 behavior labels for num_behaviors 3"),
    ("validation.txt", _edit_line(1, "0 2"),
     r"validation.txt: the held-out item 2 of user 0 is one of its target-behavior training "
     r"positives$"),
], ids=["no-test-line", "no-validation-line", "item-too-large", "item-negative",
        "user-too-large", "heldout-item-too-large", "heldout-user-negative", "repeated-item",
        "falling-items", "empty-line", "three-fields", "bad-integer", "repeated-user",
        "repeated-heldout-user", "adjacent-heldout-user", "no-behavior-line", "truncated",
        "no-final-newline", "int64-overflow", "plus-sign", "tab", "carriage-return",
        "non-utf8", "non-ascii", "no-index-line", "repeated-index", "non-utf8-index",
        "no-dropped-users", "label-count", "heldout-is-positive"])
@pytest.mark.parametrize("block_chars", [8, 1 << 16])
def test_read_dataset_dir_rejects_corrupt_files(small_dataset, monkeypatch, block_chars,
                                                name, edit, message):
    monkeypatch.setattr(datasets, "BLOCK_CHARS", block_chars)
    read_dataset_dir(small_dataset)  # intact before the edit
    _edit_file(os.path.join(small_dataset, name), edit)
    with pytest.raises(DataError, match=message):
        read_dataset_dir(small_dataset)


@pytest.fixture(scope="module")
def small_dataset_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("lines") / "ds"
    assert main(["synth", str(out)] + SMALL_SYNTH) == 0
    return {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["behavior_0.txt", "behavior_1.txt", "behavior_2.txt",
                             "validation.txt", "test.txt"]),
       picks=st.tuples(st.integers(0, 11), st.integers(0, 11)),
       block_chars=st.sampled_from([8, 1 << 16]))
def test_a_repeated_user_line_is_rejected_at_its_second_copy(small_dataset_lines, name, picks,
                                                             block_chars):
    """A copy of any user's line, inserted anywhere after the original, names
    the copy's line; the later line never silently wins."""
    source, after = min(picks), max(picks)
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "BLOCK_CHARS", block_chars)
        lines = small_dataset_lines[name].splitlines(keepends=True)
        lines.insert(after + 1, lines[source])
        for file_name, text in dict(small_dataset_lines, **{name: "".join(lines)}).items():
            with open(os.path.join(out, file_name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with pytest.raises(DataError, match=r"%s:%d: user %d is already listed"
                           % (name, after + 2, source)):
            read_dataset_dir(out)


def test_evaluate_rejects_missing_heldout_line(small_dataset, tmp_path, capsys):
    # a missing test line once left the held-out item at -1, and evaluation
    # then ranked the last item and exited 0
    run = str(tmp_path / "run")
    assert main(["train", small_dataset, run, "--override", "epochs=1",
                 "--override", "d=4"]) == 0
    _edit_file(os.path.join(small_dataset, "test.txt"), _edit_line(4, None))
    capsys.readouterr()
    assert main(["evaluate", os.path.join(run, "checkpoint.txt"), small_dataset]) == 2
    assert "user 3 has no held-out line" in capsys.readouterr().err


BLOCK_SIZES = st.sampled_from([1, 8, 64, 1 << 16])
RAW_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                  max_size=4)


@st.composite
def random_splits(draw):
    """(split, user_ids, item_ids, labels) with empty rows and the largest item ids."""
    num_users = draw(st.integers(1, 12))
    num_items = draw(st.sampled_from([1, 2, 7, 40, 1000]))
    num_behaviors = draw(st.integers(1, 3))
    item = st.one_of(st.integers(0, num_items - 1), st.just(num_items - 1))
    positives = [[np.array(sorted(draw(st.sets(item, max_size=6))), dtype=np.int64)
                  for _ in range(num_users)] for _ in range(num_behaviors)]
    held = [np.array(draw(st.lists(item, min_size=num_users, max_size=num_users)),
                     dtype=np.int64) for _ in range(2)]
    # A held-out item is never among its user's target positives.
    positives[-1] = [np.setdiff1d(row, [held[0][u], held[1][u]])
                     for u, row in enumerate(positives[-1])]
    train = BehaviorDataset(num_users, num_items, num_behaviors, positives)
    split = SplitDataset(train, held[0], held[1], np.arange(num_users, dtype=np.int64),
                         dropped_users=draw(st.integers(0, 3)))
    user_ids = draw(st.lists(RAW_IDS, min_size=num_users, max_size=num_users))
    item_ids = [draw(RAW_IDS) if v < 50 else str(v) for v in range(num_items)]
    return split, user_ids, item_ids, ("view", "cart", "buy")[3 - num_behaviors:]


def _rows(blocks):
    """(values, lengths, line numbers) of every row of an _int_blocks stream."""
    values, lengths, lines = [], [], []
    for first_line, block_values, starts, block_lengths in blocks:
        np.testing.assert_array_equal(starts, np.cumsum(block_lengths) - block_lengths)
        values.append(block_values)
        lengths.append(block_lengths)
        lines.append(first_line + np.arange(len(block_lengths)))
    return [np.concatenate([np.empty(0, dtype=np.int64)] + c) for c in (values, lengths, lines)]


@settings(max_examples=80, deadline=None)
@given(case=random_splits(), block_chars=BLOCK_SIZES)
def test_dataset_dir_round_trip_equals_oracles(case, block_chars):
    split, user_ids, item_ids, labels = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "BLOCK_CHARS", block_chars)
        new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
        write_dataset_dir(new, split, user_ids, item_ids, labels)
        oracle_write_dataset_dir(old, split, user_ids, item_ids, labels)
        names = sorted(os.listdir(old))
        assert sorted(os.listdir(new)) == names
        for name in names:
            with open(os.path.join(new, name), "rb") as got, \
                    open(os.path.join(old, name), "rb") as expected:
                assert got.read() == expected.read(), name
        loaded, loaded_users, loaded_items, loaded_labels = read_dataset_dir(new)
        for name in names:
            if name not in ("meta.txt", "index_map.txt"):
                path = os.path.join(new, name)
                for got, expected in zip(_rows(datasets._int_blocks(path)),
                                         _rows(oracle_int_blocks(path))):
                    assert got.dtype == expected.dtype == np.int64
                    np.testing.assert_array_equal(got, expected)
        mp.setattr(datasets, "_int_blocks", oracle_int_blocks)
        expected = read_dataset_dir(new)
    assert_same_split(loaded, expected[0])
    assert_same_split(loaded, split)
    assert (loaded_users, loaded_items, loaded_labels) == (user_ids, item_ids, labels)
    assert expected[1:] == (user_ids, item_ids, labels)


INT64_EDGES = [0, -1, 2 ** 63 - 1, -(2 ** 63)]
TOKENS = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(str),
    st.sampled_from(INT64_EDGES).map(str),
    st.sampled_from(["007", "-0", str(2 ** 63), str(-(2 ** 63) - 1), "1" * 25]),
)
# Tokens that int() and the dataset grammar both reject.
JUNK_TOKENS = st.sampled_from(["x", "1.5", "--1", "5-", "-", "1e3", "0x1f", "a-1"])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(TOKENS, TOKENS, TOKENS, JUNK_TOKENS), max_size=5),
                     max_size=12),
       spaces=st.lists(st.sampled_from([" ", " ", " ", "  "]), min_size=80, max_size=80),
       pad=st.booleans(), block_chars=BLOCK_SIZES)
def test_int_blocks_equal_text_oracle(rows, spaces, pad, block_chars):
    """Values, row lengths and line numbers agree with the text-mode oracle,
    and so do the first error's line and message."""
    gaps = iter(spaces * 4)
    lines = [(" " if pad else "") + "".join(tok + next(gaps) for tok in row)[:-1]
             if row else "" for row in rows]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "BLOCK_CHARS", block_chars)
        path = os.path.join(tmp, "rows.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(line + "\n" for line in lines))
        got = outcome(lambda: _rows(datasets._int_blocks(path)))
        expected = outcome(lambda: _rows(oracle_int_blocks(path)))
    if expected[0] is DataError:
        assert got == expected
        return
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


DATASET_FILES = ["meta.txt", "index_map.txt", "behavior_0.txt", "behavior_1.txt",
                 "behavior_2.txt", "validation.txt", "test.txt"]


@st.composite
def corrupted_files(draw, files):
    """(file name, corrupted bytes, kind of corruption) for one file of a dataset dir."""
    name = draw(st.sampled_from(DATASET_FILES))
    data = files[name].encode("utf-8")
    lines = data.split(b"\n")[:-1]
    kind = draw(st.sampled_from(["delete", "duplicate", "alter", "truncate", "insert"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif kind == "alter":
        fields = lines[at].replace(b"\t", b" ").split(b" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(
            st.integers(-3, 2 ** 64).map(str), st.text("0123456789 -xu\t", max_size=8)
        )).encode("utf-8")
        lines[at] = (b"\t" if b"\t" in lines[at] else b" ").join(fields)
    if kind in ("truncate", "insert"):
        cut = draw(st.integers(0, len(data) - (kind == "truncate")))
        extra = draw(st.sampled_from(["\t", "\r", b"\xff", "é", "中"]))
        extra = extra if isinstance(extra, bytes) else extra.encode("utf-8")
        return name, data[:cut] + (extra + data[cut:] if kind == "insert" else b""), kind
    return name, b"".join(line + b"\n" for line in lines), kind


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_on_a_corrupted_dataset_dir_exits_0_or_2(small_dataset_lines, data):
    name, corrupted, kind = data.draw(corrupted_files(small_dataset_lines))
    with tempfile.TemporaryDirectory() as tmp:
        dataset_dir = os.path.join(tmp, "ds")
        os.mkdir(dataset_dir)
        for file_name, text in small_dataset_lines.items():
            with open(os.path.join(dataset_dir, file_name), "wb") as fh:
                fh.write(corrupted if file_name == name else text.encode("utf-8"))
        run = os.path.join(tmp, "run")
        commands = [["train", dataset_dir, run, "--override", "epochs=1", "--override", "d=4"],
                    ["evaluate", os.path.join(run, "checkpoint.txt"), dataset_dir]]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code:
                assert re.match(r"data error: %s/(%s)" % (re.escape(dataset_dir),
                                                          "|".join(map(re.escape, DATASET_FILES))),
                                err.getvalue()), err.getvalue()
                break
    if kind in ("delete", "truncate"):
        assert code == 2
