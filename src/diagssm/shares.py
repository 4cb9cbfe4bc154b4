"""Contiguous shares of a batch's rows, run at once, one per available core.

:func:`_split_rows` cuts range(count) into one share per core, runs one on
the calling thread and hands each other to a daemon thread of a persistent
pool, made on first use, so no more threads are runnable than there are
cores.  The callers give every row its own output slot and compute it from
its own data, so their results do not depend on the share count.  Each
handed-over share runs in a copy of the caller's context, which carries
numpy's error state (``np.errstate``).  A share that raises is reported
once every share has finished.  The cores are the CPU affinity's.
"""

import contextvars
import os
import threading

# Floats per share below which a split does not pay for its hand-over: split
# at (4, 16, 1024), recurrent_short's layer_forward went from 2.1 to 2.7 ms.
_MIN_SHARE = 1 << 18


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                    # no affinity call on this platform
        return os.cpu_count() or 1


class _Worker:
    """A daemon thread that runs the jobs handed to it one at a time."""

    def __init__(self):
        self.job = None
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while True:
            self.go.acquire()
            self.job()
            self.done.release()


_pool = []
# Held while a split runs: a split that finds it held (one nested in a
# share, or one from another thread) runs on its own thread.
_busy = threading.Lock()


def _forget_pool():
    """In a forked child, which has none of the parent's threads."""
    global _busy
    _pool.clear()
    _busy = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _split_rows(count, run, row_floats, step=1):
    """run(lo, hi) over contiguous shares that cover range(count).

    Share edges fall on multiples of ``step``; the last share takes the
    remainder.  There are at most as many shares as cores, and each holds
    at least ``_MIN_SHARE`` floats at ``row_floats`` per row, so a small
    batch runs as one run(0, count) on the calling thread.  The first
    exception raised by a share, in share order, is raised here.
    """
    shares = min(_cores(), count // step, count * row_floats // _MIN_SHARE)
    if shares < 2 or not _busy.acquire(blocking=False):
        run(0, count)
        return
    errors = [None] * shares
    workers = []
    try:
        while len(_pool) < shares - 1:
            _pool.append(_Worker())
        cuts = [step * (count // step * i // shares) for i in range(shares)] + [count]

        def share(i):
            try:
                run(cuts[i], cuts[i + 1])
            except BaseException as exc:
                errors[i] = exc

        for i, worker in enumerate(_pool[:shares - 1], 1):
            worker.job = lambda i=i, ctx=contextvars.copy_context(): ctx.run(share, i)
            worker.go.release()
            workers.append(worker)
        share(0)
    finally:
        for worker in workers:
            _wait(worker.done)
            worker.job = None                 # lets go of the share's arrays
        _busy.release()
    for exc in errors:
        if exc is not None:
            raise exc


def _wait(lock):
    """lock.acquire(), resumed if a signal handler raises, which is then raised."""
    try:
        lock.acquire()
    except BaseException:
        _wait(lock)
        raise
