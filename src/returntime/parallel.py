"""Independent work on every usable CPU, in forked worker processes.

Workers are started with fork, not spawn: spawn re-imports the caller's
__main__, so a script without a ``if __name__ == "__main__"`` guard fails;
it would pickle the inputs into every worker, where a forked worker inherits
them; and it takes 0.5-0.8 s to start a worker where fork takes 0.04 s.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(n: int, per_worker: int) -> int:
    """How many processes n units of work are shared over: one per usable
    CPU, with at least per_worker units each, and one without fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(usable_cpus(), n // per_worker))


def _send_block(conn, fn: Callable, lo: int, hi: int) -> None:
    try:
        result = True, fn(lo, hi)
    except Exception as exc:  # raised again in the calling process
        result = False, exc
    conn.send(result)


def map_blocks(fn: Callable[[int, int], T], n: int, per_worker: int) -> list[T]:
    """[fn(lo, hi)] over contiguous blocks that cover range(n), in block
    order: one block per process of worker_count(n, per_worker). This
    process runs the first block while forked workers run the others. The
    exception of the first block that raises is raised here, as a loop over
    the blocks would raise it.

    The results are read on this thread: a result read on another thread
    (as a ProcessPoolExecutor does) is allocated in that thread's malloc
    arena, which keeps the memory after the result is freed.
    """
    workers = worker_count(n, per_worker)
    if workers == 1:
        return [fn(0, n)]
    bounds = [(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    context = multiprocessing.get_context("fork")
    started = []
    try:
        for lo, hi in bounds[1:]:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_send_block, args=(send, fn, lo, hi), daemon=True)
            process.start()
            send.close()
            started.append((process, receive))
        results = [fn(*bounds[0])]
        for process, receive in started:
            ok, result = receive.recv()
            if not ok:
                raise result
            results.append(result)
        return results
    except BaseException:
        for process, _ in started:
            process.terminate()  # its result is not needed
        raise
    finally:
        for process, receive in started:
            receive.close()
            process.join()
