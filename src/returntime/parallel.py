"""Independent tasks on every usable CPU, in forked worker processes.

Workers are started with fork, not spawn: spawn re-imports the caller's
__main__, so a script without a ``if __name__ == "__main__"`` guard fails;
it would pickle each task and its inputs into a worker, where a forked worker
inherits them, closures and the caller's OpenBLAS thread count included; and
it takes 0.5-0.8 s to start a worker where fork takes 0.04 s.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from typing import Callable, TypeVar

from .errors import ReturnTimeError

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


def _send_result(conn, task: Callable[[], T]) -> None:
    try:
        result = True, task()
    except Exception as exc:  # raised again in the calling process
        result = False, exc
    conn.send(result)


def run(tasks: list[Callable[[], T]]) -> list[T]:
    """[task() for task in tasks], each task in its own process: this process
    runs the first task while one forked worker runs each other task. The
    exception of the first task in order that raises is raised here, as the
    loop would raise it. A worker that ends without sending its result, such
    as one killed by a signal, raises ReturnTimeError. Callers size the list
    with worker_count, which allows one task where there is no fork.

    The results are read on this thread: a result read on another thread
    (as a process pool's result thread does) is allocated in that thread's
    malloc arena, which keeps the memory after the result is freed.
    """
    if len(tasks) <= 1:
        return [task() for task in tasks]
    context = multiprocessing.get_context("fork")
    started = []
    try:
        for task in tasks[1:]:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_send_result, args=(send, task), daemon=True)
            process.start()
            send.close()
            started.append((process, receive))
        results = [tasks[0]()]
        for process, receive in started:
            try:
                ok, result = receive.recv()
            except EOFError:
                process.join()
                raise ReturnTimeError(
                    f"worker process {process.pid} ended with exit code {process.exitcode} "
                    "before sending its result") from None
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


def map_blocks(fn: Callable[[int, int], T], n: int, per_worker: int) -> list[T]:
    """[fn(lo, hi)] over contiguous blocks that cover range(n), in block
    order: one block per process of worker_count(n, per_worker), run by run."""
    workers = worker_count(n, per_worker)
    return run([functools.partial(fn, n * i // workers, n * (i + 1) // workers)
                for i in range(workers)])
