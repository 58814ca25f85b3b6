import contextlib
import io
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcf import pool
from critcf.cli import main
from critcf.config import dataset_fingerprint
from critcf.datasets import MIN_SPLIT_POSITIVES, leave_one_out_split
from critcf.errors import ConfigError, DataError
from critcf.synthetic import SynthConfig, _floored_cells, generate


def stable_sort_floored_mask(adjusted, count, floor):
    """Reference oracle for _floored_cells: the O(U*V log V) stable-sort form.

    Marks each user's ``floor`` largest entries, then the globally largest
    unmarked entries until exactly ``count`` are set.  Ties break toward the
    lower index (stable sort on the negated values).
    """
    num_users, num_items = adjusted.shape
    mask = np.zeros((num_users, num_items), dtype=bool)
    if floor > 0:
        top = np.argsort(-adjusted, axis=1, kind="stable")[:, :floor]
        np.put_along_axis(mask, top, True, axis=1)
    remaining = count - int(mask.sum())
    if remaining < 0:
        raise DataError(
            "count %d cannot honor a floor of %d items for each of %d users"
            % (count, floor, num_users)
        )
    if remaining > 0:
        flat = np.where(mask.ravel(), -np.inf, adjusted.ravel())
        order = np.argsort(-flat, kind="stable")[:remaining]
        mask.ravel()[order] = True
    return mask


def outcome(fn, adjusted, count, floor):
    """The mask, or the DataError message, so raising cases compare too."""
    try:
        return fn(adjusted, count, floor)
    except DataError as exc:
        return str(exc)


def floored_mask(adjusted, count, floor, rows=None):
    """_floored_cells on one behavior's whole array, filled in blocks of
    ``rows`` rows (pool.BLOCK_CELLS set to match), as a mask."""
    def fill(first, out):
        out[0] = adjusted[first:first + out.shape[1]]
        return True

    with mock.patch.object(pool, "BLOCK_CELLS", (rows or len(adjusted)) * adjusted.shape[1]):
        cells = _floored_cells(fill, adjusted.shape, [count], floor)[0]
    assert cells.dtype == np.int64 and np.all(np.diff(cells) > 0)
    mask = np.zeros(adjusted.shape, dtype=bool)
    mask.flat[cells] = True
    return mask


def assert_same_outcome(adjusted, count, floor, rows=None):
    expected = outcome(stable_sort_floored_mask, adjusted, count, floor)
    got = outcome(lambda *case: floored_mask(*case, rows=rows), adjusted, count, floor)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == bool
        np.testing.assert_array_equal(got, expected)


def small_cfg(**kw):
    base = dict(num_users=40, num_items=30, latent_dim=4,
                densities=(0.30, 0.20, 0.12), criterion_spread=0.5, seed=9)
    base.update(kw)
    return SynthConfig(**base)


def test_determinism():
    ds1, users1, items1 = generate(small_cfg())
    ds2, users2, items2 = generate(small_cfg())
    assert users1 == users2 and items1 == items2
    for k in range(ds1.num_behaviors):
        for u in range(ds1.num_users):
            np.testing.assert_array_equal(ds1.positives[k][u], ds2.positives[k][u])
    for u in range(ds1.num_users):
        np.testing.assert_array_equal(ds1.target_order[u], ds2.target_order[u])
    ds3, _, _ = generate(small_cfg(seed=10))
    assert any(not np.array_equal(ds1.positives[-1][u], ds3.positives[-1][u])
               for u in range(ds1.num_users))


def test_exact_behavior_counts():
    cfg = small_cfg()
    ds, _, _ = generate(cfg)
    total = cfg.num_users * cfg.num_items
    for k, rho in enumerate(cfg.densities):
        count = sum(len(p) for p in ds.positives[k])
        assert count == max(1, int(round(rho * total)))


def test_zero_spread_sets_nest():
    cfg = small_cfg(criterion_spread=0.0)
    ds, _, _ = generate(cfg)
    for k in range(ds.num_behaviors - 1):
        for u in range(ds.num_users):
            outer = set(map(int, ds.positives[k][u]))
            inner = set(map(int, ds.positives[k + 1][u]))
            assert inner <= outer


def test_target_floor_survives_split():
    cfg = small_cfg()
    ds, _, _ = generate(cfg)
    for u in range(ds.num_users):
        assert len(ds.positives[-1][u]) >= MIN_SPLIT_POSITIVES
    split = leave_one_out_split(ds, on_short="error")
    assert split.dropped_users == 0
    assert all(len(p) >= 1 for p in split.train.positives[-1])


def test_target_order_is_permutation():
    ds, _, _ = generate(small_cfg())
    for u in range(ds.num_users):
        assert sorted(map(int, ds.target_order[u])) == sorted(map(int, ds.positives[-1][u]))


def test_unreachable_target_density():
    with pytest.raises(ConfigError, match="need at least"):
        generate(small_cfg(densities=(0.30, 0.20, 0.05)))  # 0.05 * 30 = 1.5 < 3


def test_densities_must_not_increase():
    with pytest.raises(ConfigError, match="non-increasing"):
        generate(small_cfg(densities=(0.12, 0.20, 0.30)))


def test_density_range_checked():
    with pytest.raises(ConfigError):
        generate(small_cfg(densities=(0.30, 0.20, 0.0)))
    with pytest.raises(ConfigError):
        generate(small_cfg(densities=(1.5, 0.2, 0.12)))
    with pytest.raises(ConfigError, match="one or more"):
        generate(small_cfg(densities=()))


def test_floored_mask_shapes_and_ties():
    adjusted = np.zeros((3, 4))  # all tied: the lowest index wins everywhere
    mask = floored_mask(adjusted, 8, 2)
    assert int(mask.sum()) == 8
    # per-user floor takes the two lowest indices on ties
    assert mask[:, :2].all()
    # global fill continues in flat order: cells (0,2) then (0,3)
    assert mask[0, 2] and mask[0, 3]
    assert not mask[1, 2:].any() and not mask[2, 2:].any()


def test_floored_mask_count_below_floor_rejected():
    with pytest.raises(DataError, match="cannot honor"):
        floored_mask(np.zeros((4, 5)), 7, 2)  # needs 8 just for the floor


@pytest.mark.parametrize("shift", [0.5, -0.5])
def test_floored_mask_rejects_passes_that_disagree(monkeypatch, shift):
    # floor 1 marks 3, 7 and 11; the top 3 free values are then 10, 9 and 8,
    # so the second pass must see 2 cells above 8 and one tie at it.
    passes = iter([np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(3, 4) + shift])

    def fill(first, out):
        out[0] = next(passes)
        return True

    monkeypatch.setattr(pool, "BLOCK_CELLS", 3 * 4)
    with pytest.raises(RuntimeError, match="behavior 0: . cells marked instead of 6"):
        _floored_cells(fill, (3, 4), [6], 1)


def test_floored_mask_prefers_large_entries():
    rng = np.random.default_rng(0)
    adjusted = rng.normal(size=(5, 8))
    mask = floored_mask(adjusted, 20, 2)
    # every user's top-2 entries are in
    top2 = np.argsort(-adjusted, axis=1, kind="stable")[:, :2]
    for u in range(5):
        assert mask[u, top2[u]].all()
    # chosen cells outside the floor dominate unchosen cells globally
    floor_mask = np.zeros_like(mask)
    np.put_along_axis(floor_mask, top2, True, axis=1)
    filled = mask & ~floor_mask
    unchosen = ~mask
    assert adjusted[filled].min() >= adjusted[unchosen].max()


SELECTION_KINDS = ("normal", "ties", "signed_zero")


def selection_values(rng, kind, shape):
    """Random normals, small integers with many ties, or signed zeros."""
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(float)
    return rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)


@st.composite
def selection_inputs(draw):
    num_users = draw(st.integers(1, 7))
    num_items = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjusted = selection_values(rng, draw(st.sampled_from(SELECTION_KINDS)),
                                (num_users, num_items))
    if draw(st.booleans()):
        adjusted = np.asfortranarray(adjusted)
    floor = draw(st.integers(0, num_items + 1))
    count = draw(st.integers(0, num_users * num_items))
    rows = draw(st.integers(1, num_users))
    return adjusted, count, floor, rows


@settings(max_examples=400, deadline=None)
@given(selection_inputs())
def test_floored_mask_equals_stable_sort_oracle(case):
    assert_same_outcome(*case)


@pytest.mark.parametrize("kind", SELECTION_KINDS)
def test_floored_mask_equals_oracle_at_scale(monkeypatch, wide_pool, kind):
    # At 1 and 7 rows a block, several blocks are in flight at 2 and 3 workers.
    adjusted = selection_values(np.random.default_rng(17), kind, (300, 200))
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "WORKERS", workers)
        for count, floor in ((600, 0), (2400, 3), (9000, 7), (60000, 200)):
            for rows in (1, 7, 300):
                assert_same_outcome(adjusted, count, floor, rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--spread", "nan"],
    ["--spread", "inf"],
    ["--spread", "1e3"],
    ["--latent-dim", "0"],
    ["--latent-dim", "-2"],
])
def test_synth_rejects_non_finite_scores(tmp_path, capsys, argv):
    # A flag out of range is a configuration error; planted thresholds that
    # overflow inside generate are a data error.
    overflow = argv == ["--spread", "1e3"]
    out = tmp_path / "data"
    assert main(["synth", str(out)] + argv) == (2 if overflow else 1)
    err = capsys.readouterr().err
    assert err.startswith("data error: " if overflow else "config error: ") and argv[0] in err
    assert not out.exists()


@pytest.mark.parametrize("rows", [1, None])
def test_lowest_non_finite_behavior_is_reported(monkeypatch, wide_pool, rows):
    # Behavior 2 first goes non-finite in row 6 and behavior 0 only in row 35,
    # so a pass that stopped at the first bad block would name behavior 2.
    # At 3 workers the caller's and the pool's blocks set the shared failure
    # flags, with a short switch interval so that their updates interleave.
    cfg = small_cfg(criterion_spread=150.0, seed=28)
    if rows:
        monkeypatch.setattr(pool, "BLOCK_CELLS", rows * cfg.num_items)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 3):
            monkeypatch.setattr(pool, "WORKERS", workers)
            with pytest.raises(DataError) as exc:
                generate(cfg)
            assert str(exc.value) == ("behavior 0: criterion_spread (--spread) 150.0 puts the "
                                      "planted thresholds out of float range; use a smaller "
                                      "spread")
    finally:
        sys.setswitchinterval(interval)


def test_a_block_error_waits_for_the_blocks_in_flight(monkeypatch):
    # Block 1 runs on the pool and fails while blocks 2 and 3 are in flight.
    monkeypatch.setattr(pool, "WORKERS", 4)
    monkeypatch.setattr(pool, "BLOCK_CELLS", 1 * 5)
    started, finished = [], []

    def fill(first, out):
        started.append(first)
        if first == 1:
            raise MemoryError
        time.sleep(0.05)
        out[0] = first
        finished.append(first)
        return True

    with pytest.raises(MemoryError):
        _floored_cells(fill, (8, 5), [20], 2)
    assert sorted(started) == [0, 1, 2, 3] and sorted(finished) == [0, 2, 3]


def test_generate_holds_no_dense_float_array():
    # One U x V float64 array alone takes 8 bytes per cell, and one U x V
    # bool mask per behavior K bytes per cell.
    cfg = SynthConfig(num_users=2048, num_items=4000, densities=(0.014, 0.0037, 0.00175), seed=1)
    tracemalloc.start()
    try:
        generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cfg.num_users * cfg.num_items
    assert peak < cfg.num_users * cfg.num_items * cfg.num_behaviors


# dataset_fingerprint of `critcf synth` output dirs as written by the
# stable-sort selection, for every synth config the tests and demos use.
T3 = ["--densities", "0.4,0.3,0.25", "--latent-dim", "3"]
GOLDEN = [
    (["--users", "24", "--items", "18"] + T3 + ["--seed", "3"],
     "d00d26d1b4ab9503644c8ca0a1ee64e598ec6c7f2a9a010adac702572c7eaec2"),
    (["--users", "24", "--items", "18"] + T3 + ["--seed", "4"],
     "61762d6ed4da4da16eaf1167d59479bf9c4abdb3ee90d7068ddc4ad1c8d8e4e9"),
    (["--users", "30", "--items", "20"] + T3 + ["--seed", "5"],
     "f828452b1429fe5202cedf4be6c941253981169709945214191a6347ab431f67"),
    (["--users", "20", "--items", "15", "--densities", "0.4,0.3", "--behaviors", "click,buy",
      "--latent-dim", "3"],
     "e0defa70a526ef925dc26de963b7f8b3df50252338f3848e02f4ab943ea21428"),
    (["--users", "20", "--items", "15", "--densities", "0.4,0.3", "--behaviors", "click,buy",
      "--latent-dim", "3", "--spread", "0.3", "--seed", "1"],
     "98cbf403e4d35a1f8cd6f200d48d8ce1691ca39ce387fbc1ac3c4b414ea4873e"),
    (["--users", "15", "--items", "12"] + T3 + ["--spread", "0.3", "--seed", "2"],
     "407d4db949a480932d1af0e887deef01ef685f40ea07935884c59d2af69dd2b4"),
    (["--users", "40", "--items", "30", "--densities", "0.30,0.20,0.12", "--latent-dim", "4",
      "--seed", "9"],
     "3c3ec27dcefb28d1dea0de48b80db3369bc0ea6f9553103ed0aff76c82504158"),
    (["--users", "40", "--items", "30", "--densities", "0.30,0.20,0.12", "--latent-dim", "4",
      "--seed", "10"],
     "b0af6a4384ca7d009834ae875d5f1c2e0251e54b7564e4ebbc7e333b0c2989c5"),
    (["--users", "40", "--items", "30", "--densities", "0.30,0.20,0.12", "--latent-dim", "4",
      "--spread", "0", "--seed", "9"],
     "879aeb183a6c6e97721d80c554849c4681f45cd09b7f76e22a52c7575b1f2941"),
    (["--users", "120", "--items", "60", "--densities", "0.25,0.12,0.08", "--seed", "7"],
     "f527eb0eda0ea00a0d5cddb046be5ccae57af34935e6152863b4a16cb7501033"),
    (["--users", "150", "--items", "80", "--densities", "0.25,0.12,0.08", "--spread", "0.6",
      "--seed", "3"],
     "7b0556e27b64fd7544a4831f149a2c1a9d2a3a6f645ba02b40b271b495e34953"),
    (["--seed", "0"], "06154c235f0fe0ebb58a76ea8ca721ec0dc9171e06afffd31c711a610ed17330"),
    (["--seed", "1"], "c967e85a011441279939c03951bcb3f43f4d8a293bf173ad406fe002abbc847a"),
    (["--seed", "2"], "cfa5106ee197cbcf0752b3f76164733e397467e3218c6da78a7f961325ac9249"),
    (["--seed", "3"], "09b5740f77a27ea84a2d49095d4de1628d78465edf8f798c7cbaa77f1553c4bf"),
    (["--seed", "4"], "bdcf86207650a033797c2ca5d958bc4dfd2aa0b531572528f30ad3b1433a5820"),
    # the synth-gmf-wide and synth-lightgcn-graph benchmark shapes, fewer users
    (["--users", "64", "--items", "4000", "--densities", "0.014,0.0037,0.00175",
      "--seed", "301"],
     "8fdaaccea2c73c35a3dd64490821293e49f0737860239121045815497ab08512"),
    (["--users", "96", "--items", "1500", "--seed", "301"],
     "e1910d2e0e444c76aeca8b4d343187b07da393a830d765ce217405e4488d7007"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_synth_output_is_pinned(tmp_path, argv, digest):
    out = str(tmp_path / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", out] + argv) == 0
    assert dataset_fingerprint(out) == digest


# A spread config and the two benchmark shapes, in blocks of 1 and 3 rows.
SPLIT_GOLDEN = [GOLDEN[10], GOLDEN[-2], GOLDEN[-1]]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("argv,digest", SPLIT_GOLDEN,
                         ids=[" ".join(a) for a, _ in SPLIT_GOLDEN])
def test_synth_output_is_pinned_at_any_worker_count(tmp_path, monkeypatch, wide_pool, argv,
                                                    digest, rows, workers):
    monkeypatch.setattr(pool, "WORKERS", workers)
    monkeypatch.setattr(pool, "BLOCK_CELLS", rows * int(argv[argv.index("--items") + 1]))
    test_synth_output_is_pinned(tmp_path, argv, digest)
