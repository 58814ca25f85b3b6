"""Whole-file replacement for the files a run writes."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Yield a file open for writing that replaces path only when complete.

    The data goes to a temp file beside path, which os.replace moves onto
    path once the block exits normally, so a reader sees either the old file
    or the whole new one.  If the block raises, the temp file is deleted and
    path is left as it was.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
