from concurrent.futures import ThreadPoolExecutor

import pytest

from critcf import pool


@pytest.fixture
def wide_pool(monkeypatch):
    """A pool with more threads than any pool.WORKERS a test sets, so that
    only pool.in_order bounds the blocks in flight, whatever the machine's
    CPU count; the import-time pool has max(WORKERS - 1, 1) threads."""
    with ThreadPoolExecutor(8) as executor:
        monkeypatch.setattr(pool, "_POOL", executor)
        yield executor
