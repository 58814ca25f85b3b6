import sys
import threading
import time

import pytest

from critcf import pool
from critcf.pool import block_rows


@pytest.fixture
def wide_pool(wide_pool):
    """conftest's wide pool, switching threads often."""
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        yield wide_pool
    finally:
        sys.setswitchinterval(interval)


class Recorder:
    """A build and a merge that record what in_order does with them; a
    build only records, since a pool thread's failure may go unread."""

    def __init__(self, workers, fail=None):
        self.workers, self.fail = workers, fail
        self.lock = threading.Lock()
        self.active = self.most = 0
        self.started, self.finished, self.merged = [], [], []

    def build(self, i, slot):
        with self.lock:
            # with the count of blocks merged before this one started
            self.started.append((i, slot, len(self.merged)))
            self.active += 1
            self.most = max(self.most, self.active)
        try:
            if i == self.fail:
                raise MemoryError
            time.sleep(0.005)
            return i, slot
        finally:
            with self.lock:
                self.active -= 1
                self.finished.append(i)

    def merge(self, i, slot, built):
        assert threading.current_thread() is threading.main_thread()
        assert built == (i, slot)
        self.merged.append(i)

    def check_builds(self):
        """Each block built once, in slot i % WORKERS, after the slot's
        previous block, i - WORKERS, was merged; at most WORKERS at once."""
        assert sorted(i for i, _, _ in self.started) == sorted(set(self.finished))
        for i, slot, merged in self.started:
            assert slot == i % self.workers and i - self.workers < merged
        assert self.most <= self.workers and self.active == 0


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", range(8))
def test_in_order_merges_in_index_order_within_the_slots(monkeypatch, wide_pool, workers,
                                                         count):
    monkeypatch.setattr(pool, "WORKERS", workers)
    record = Recorder(workers)
    pool.in_order(record.build, count, record.merge)
    assert record.merged == list(range(count))
    assert sorted(record.finished) == list(range(count))
    record.check_builds()


@pytest.mark.parametrize("fail", range(6))
def test_an_error_propagates_after_the_blocks_in_flight(monkeypatch, wide_pool, fail):
    # At 3 workers, blocks 0 and 3 build on the caller and the rest on the
    # pool; the failing block is merged by no one.
    monkeypatch.setattr(pool, "WORKERS", 3)
    record = Recorder(3, fail)
    with pytest.raises(MemoryError):
        pool.in_order(record.build, 8, record.merge)
    assert record.merged == list(range(fail))
    assert fail in record.finished
    record.check_builds()


def test_block_rows_hold_at_least_the_model_dim():
    # 8 rows of Beibei's 7977 items would read the (7977, 64) item table
    # for every 8 users
    assert block_rows(7977) == 8
    assert block_rows(7977, 64) == 64
    assert block_rows(600, 64) == 109
