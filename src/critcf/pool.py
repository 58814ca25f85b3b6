"""How the package cuts its work into row blocks and runs them.

Its three users are synth's planted selection, LightGCN's propagation and
the row blocks of training and evaluation.  The first two run their blocks
on the one worker pool, only through ``in_order``, with the same bits at any
worker count.  WORKERS counts the calling thread, so the pool itself runs
WORKERS - 1 threads; at one usable CPU the caller does every piece alone.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

# Cells per row block of the planted affinity (no U x V float array is ever
# built) and of a training or evaluation step: a few (rows, V) float64 blocks
# stay in cache.
BLOCK_CELLS = 1 << 16
# One per usable CPU up to a cap.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)
_POOL = ThreadPoolExecutor(max(WORKERS - 1, 1))


def block_rows(num_items, dim=1):
    """Rows of a row block of about BLOCK_CELLS cells over num_items columns,
    and at least dim: a block scored against a (num_items, dim) table then
    has at least as many cells as the table, so the table's reads and its
    summed gradient cost no more per block than the block's own arrays."""
    return max(1, BLOCK_CELLS // max(num_items, 1), dim)


def in_order(build, count, merge):
    """``merge(i, slot, build(i, slot))`` for i in range(count), the merges
    on the caller in order of i.

    Block i builds into slot i % WORKERS once block i - WORKERS has been
    merged, so a caller-owned slot holds one block at a time and at most
    WORKERS blocks are in flight.  The caller builds the blocks of slot 0
    and the pool the rest.  On an error the blocks in flight finish before
    it propagates, so no block is still writing when the caller's frame
    unwinds.
    """
    workers = WORKERS
    futures = {}

    def launch(i):
        if i < count and i % workers:
            futures[i] = _POOL.submit(build, i, i % workers)

    try:
        for i in range(1, workers):
            launch(i)
        for i in range(count):
            slot = i % workers
            merge(i, slot, futures.pop(i).result() if slot else build(i, 0))
            launch(i + workers)
    finally:
        wait(futures.values())
