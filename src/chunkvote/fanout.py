"""Independent work spread over the usable cores, with the serial results.

``fan_out(work, items)`` returns ``[work(item) for item in items]``.  It
deals the items round robin to this process and to one forked child per
further usable CPU; each child sends its results back over a pipe with
``marshal``, so results must be marshallable (strings, lists, tuples,
numbers).  Results come back in item order, and a failure raises the
error of the lowest failing item, as the plain loop would.  A child
starts from this process's memory, so ``work`` and the items need no
pickling; a process with a second live thread is never forked, since the
child would inherit locks that thread may hold.
"""

from __future__ import annotations

import marshal
import os
import threading
from collections.abc import Callable, Sequence


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


def _work_through(work: Callable, share: Sequence) -> tuple[list, Exception | None]:
    """``work`` over ``share`` up to the first item that raises: the results
    before it and that item's exception, or None."""
    results: list = []
    try:
        for item in share:
            results.append(work(item))
    except Exception as exc:
        return results, exc
    return results, None


def _serve(work: Callable, share: Sequence, write: int):
    """A child's life: work through ``share``, send the results and the
    pickled exception, if any, to ``write``, and leave."""
    status = 1
    try:
        results, error = _work_through(work, share)
        carried = None
        if error is not None:
            import pickle

            try:
                carried = pickle.dumps(error)
            except Exception:
                carried = b""  # the parent runs the item again to raise it
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps((results, carried)))
        status = 0
    finally:
        os._exit(status)  # no exit handlers, no flush of inherited buffers


def _raise_carried(carried: bytes, work: Callable, item):
    """Raise the exception a child sent; one that could not be carried is
    raised again by running its item here."""
    import pickle

    try:
        error = pickle.loads(carried)
    except Exception:
        work(item)
        error = RuntimeError("an item failed in a worker process but not when run again")
    raise error


def fan_out(work: Callable, items: Sequence) -> list:
    """``[work(item) for item in items]``, the items spread over the usable CPUs.

    Runs the plain loop when there is one usable CPU, fewer than two items,
    no ``os.fork`` or more than one live thread.  Every child is reaped
    before this returns or raises.
    """
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [work(item) for item in items]
    children = []  # (pid, read end of its pipe), for workers 1 on
    done = False
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _serve(work, items[worker::workers], write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        shares = [_work_through(work, items[0::workers])]
        for pid, pipe in children:
            message = pipe.read()
            if not message:
                raise RuntimeError(f"worker process {pid} ended without sending its results")
            shares.append(marshal.loads(message))
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [
        (worker + workers * len(results), error)
        for worker, (results, error) in enumerate(shares) if error is not None
    ]
    if failures:
        index, error = min(failures, key=lambda failure: failure[0])
        if isinstance(error, Exception):
            raise error
        _raise_carried(error, work, items[index])
    merged: list = [None] * len(items)
    for worker, (results, _) in enumerate(shares):
        merged[worker::workers] = results
    return merged
