import os

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance gate's per-criterion lines after the test run."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture()
def fan_out(monkeypatch, tmp_path_factory):
    """Splits work of any size into blocks. fan_out(cpus) sets the usable CPU
    count and returns a function that lists the (lo, hi) of every block run
    in a worker process from then on."""
    from returntime import data, parallel, synth

    for module, name in ((data, "_BYTES_PER_WORKER"), (data, "_ROWS_PER_WORKER"),
                         (synth, "_USERS_PER_WORKER")):
        monkeypatch.setattr(module, name, 1)
    log = tmp_path_factory.mktemp("fan-out") / "blocks"
    send_result = parallel._send_result

    def logged(conn, task):  # runs in the worker; a block's task is partial(fn, lo, hi)
        *_, lo, hi = task.args
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {lo} {hi}\n")
        send_result(conn, task)

    monkeypatch.setattr(parallel, "_send_result", logged)

    def worker_blocks() -> list[tuple[int, int]]:
        rows = [line.split() for line in log.read_text().splitlines()]
        assert all(int(pid) != os.getpid() for pid, _, _ in rows)
        return [(int(lo), int(hi)) for _, lo, hi in rows]

    def set_cpus(cpus: int):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        log.write_text("")
        return worker_blocks

    return set_cpus
