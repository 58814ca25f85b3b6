import importlib.util
import os
import tempfile
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
    from critcf.datasets import SplitDataset

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
    if not isinstance(expected, datasets.SplitDataset):
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
                          outcome(leave_one_out_split, expected[0], on_short=on_short))


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
                          leave_one_out_split(ds, on_short="drop"))
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


def test_read_dataset_dir_in_small_blocks(small_dataset, monkeypatch):
    whole, _, _, _ = read_dataset_dir(small_dataset)
    monkeypatch.setattr(datasets, "BLOCK_CHARS", 8)
    blocks, _, _, _ = read_dataset_dir(small_dataset)
    assert_same_split(blocks, whole)


def _edit_line(path, lineno, text):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if text is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,lineno,text,message", [
    ("test.txt", 4, None, r"test.txt: user 3 has no held-out line"),
    ("validation.txt", 12, None, r"validation.txt: user 11 has no held-out line"),
    ("behavior_1.txt", 3, "2 1 10", r"behavior_1.txt:3: item 10 out of range \(10 items\)"),
    ("behavior_0.txt", 5, "4 -1 3", r"behavior_0.txt:5: item -1 out of range"),
    ("behavior_2.txt", 2, "12 3", r"behavior_2.txt:2: user 12 out of range \(12 users\)"),
    ("test.txt", 6, "5 10", r"test.txt:6: item 10 out of range"),
    ("validation.txt", 7, "-6 1", r"validation.txt:7: user -6 out of range"),
    ("behavior_0.txt", 3, "2 1 4 4 7", r"behavior_0.txt:3: items not strictly increasing"),
    ("behavior_1.txt", 8, "7 6 2", r"behavior_1.txt:8: items not strictly increasing"),
    ("behavior_2.txt", 9, "", r"behavior_2.txt:9: empty line"),
    ("test.txt", 2, "1 2 3", r"test.txt:2: expected 'user item', got 3 fields"),
    ("behavior_1.txt", 4, "3 1 x", r"behavior_1.txt:4: bad integer 'x'"),
    ("behavior_2.txt", 9, "2 1 3", r"behavior_2.txt:9: user 2 is already listed on an earlier"),
    ("validation.txt", 5, "1 4", r"validation.txt:5: user 1 is already listed on an earlier"),
    ("test.txt", 3, "1 2", r"test.txt:3: user 1 is already listed on an earlier line"),
], ids=["no-test-line", "no-validation-line", "item-too-large", "item-negative",
        "user-too-large", "heldout-item-too-large", "heldout-user-negative", "repeated-item",
        "falling-items", "empty-line", "three-fields", "bad-integer", "repeated-user",
        "repeated-heldout-user", "adjacent-heldout-user"])
@pytest.mark.parametrize("block_chars", [8, 1 << 16])
def test_read_dataset_dir_rejects_corrupt_files(small_dataset, monkeypatch, block_chars,
                                                name, lineno, text, message):
    monkeypatch.setattr(datasets, "BLOCK_CHARS", block_chars)
    read_dataset_dir(small_dataset)  # intact before the edit
    _edit_line(os.path.join(small_dataset, name), lineno, text)
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
    _edit_line(os.path.join(small_dataset, "test.txt"), 4, None)
    capsys.readouterr()
    assert main(["evaluate", os.path.join(run, "checkpoint.txt"), small_dataset]) == 2
    assert "user 3 has no held-out line" in capsys.readouterr().err
