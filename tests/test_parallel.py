"""parallel.run: each task but the first in a forked worker, results and
errors in task order."""

import multiprocessing
import os
import signal
import time

import pytest

from returntime import blas, parallel
from returntime.errors import ReturnTimeError

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork on this platform")


def failing(message, delay=0.0):
    def task():
        time.sleep(delay)
        raise ValueError(message)

    return task


def test_results_come_back_in_task_order():
    results = parallel.run([lambda i=i: (i, os.getpid()) for i in range(3)])
    assert [i for i, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3  # the first task runs here
    assert multiprocessing.active_children() == []


def test_one_task_forks_nothing(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_fork)
    assert parallel.run([os.getpid]) == [os.getpid()]
    assert parallel.run([]) == []


def test_the_first_task_in_order_that_raises_wins():
    # the third task raises at once, the second half a second later
    with pytest.raises(ValueError, match="^second$"):
        parallel.run([lambda: None, failing("second", 0.5), failing("third")])
    assert multiprocessing.active_children() == []


def test_an_error_here_stops_the_workers():
    started = time.monotonic()
    with pytest.raises(ValueError, match="^first$"):
        parallel.run([failing("first"), lambda: time.sleep(60)])
    assert time.monotonic() - started < 30
    assert multiprocessing.active_children() == []


def test_a_killed_worker_raises_one_error():
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(ReturnTimeError, match=r"ended with exit code -9 ") as raised:
        parallel.run([lambda: None, killed])
    assert raised.value.exit_code == 1
    assert multiprocessing.active_children() == []


def test_a_forked_task_keeps_the_one_thread_pin():
    with blas.one_thread() as record:
        here, forked = parallel.run([blas.threads, blas.threads])
    assert here == forked == (1 if record["pinned"] else None)
