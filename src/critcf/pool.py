"""The package's one worker pool, for numpy work that releases the GIL.

WORKERS counts the calling thread, so the pool itself runs WORKERS - 1
threads; at one usable CPU the caller does every piece alone.  Its two
users, LightGCN propagation and the planted selection of ``synthetic``,
give the same bits at any count.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

# One per usable CPU up to a cap.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)
POOL = ThreadPoolExecutor(max(WORKERS - 1, 1))


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
            futures[i] = POOL.submit(build, i, i % workers)

    try:
        for i in range(1, workers):
            launch(i)
        for i in range(count):
            slot = i % workers
            merge(i, slot, futures.pop(i).result() if slot else build(i, 0))
            launch(i + workers)
    finally:
        wait(futures.values())
