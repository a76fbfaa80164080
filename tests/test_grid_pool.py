"""Training on one OpenBLAS thread, and the w grid in rounds over forked
worker processes."""

import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import returntime
from returntime import blas, experiment, parallel
from returntime.cli import main
from returntime.errors import DataError

PACKAGE_ROOT = str(Path(returntime.__file__).resolve().parents[1])

GRID = [0.01, 0.05, 0.1]
# default network sizes, whose matrix products OpenBLAS splits across threads
SMALL = {
    "generator": {"user_count": 200},
    "training": {"rnn": {"epochs": 2}, "rnnsm": {"epochs": 2}},
    "network": {"preliminary_epochs": 1},
    "rnnsm": {"w_grid": GRID, "grid_epochs": 1},
}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(SMALL))
    assert main(["generate", "--config", str(cfg), "--out", str(base / "data"),
                 "--seed", "3"]) == 0
    return ["--config", str(cfg), "--config", str(base / "data" / "run_config.json")]


def train(cfgs, out, model="rnnsm"):
    rc = main(["train", "--model", model, *cfgs, "--out", str(out)])
    assert multiprocessing.active_children() == []
    return rc


def artifact(out):
    return {name: (out / name).read_bytes() for name in ("model.npz", "meta.json")}


@pytest.fixture(scope="module")
def in_process(small_data, tmp_path_factory):
    """The grid run as a loop in this process, as on a one-CPU host."""
    out = tmp_path_factory.mktemp("serial") / "rnnsm"
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "usable_cpus", lambda: 1)
        assert train(small_data, out) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert [w for w, _ in meta["w_grid_scores"]] == GRID
    assert len({c for _, c in meta["w_grid_scores"]}) == 3, "the candidates must not tie"
    return out


def test_one_cpu_grid_forks_nothing(small_data, in_process, tmp_path, monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_fork)
    assert train(small_data, tmp_path / "rnnsm") == 0
    assert artifact(tmp_path / "rnnsm") == artifact(in_process)


@pytest.mark.parametrize("cpus", [2, 3])
def test_grid_trains_the_same_bytes_on_any_cpu_count(small_data, in_process, tmp_path,
                                                     monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert train(small_data, tmp_path / "rnnsm") == 0
    assert artifact(tmp_path / "rnnsm") == artifact(in_process)


def order_grid(serial, third, tmp_path):
    """GRID reordered so that on 2 CPUs the third candidate, which runs beside
    the final fit for the leader of the first two, is the winner or the loser
    of the grid; and the config file that sets it."""
    scores = json.loads((serial / "meta.json").read_text())["w_grid_scores"]
    ranked = [w for w, _ in sorted(scores, key=lambda s: s[1])]  # worst first
    grid = ranked if third == "winner" else ranked[::-1]
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"rnnsm": {"w_grid": grid}}))
    return grid, str(cfg)


@pytest.mark.parametrize("third", ["loser", "winner"])
def test_pooled_grid_equals_in_process_loop(small_data, in_process, tmp_path, monkeypatch,
                                            caplog, third):
    """The final fit started for the early leader is kept when it wins, and
    fitted again, once, for a third candidate that overtakes it."""
    grid, cfg = order_grid(in_process, third, tmp_path)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with caplog.at_level(logging.INFO, logger="returntime.experiment"):
        assert train([*small_data, "--config", cfg], tmp_path / "rnnsm") == 0
    out = tmp_path / "rnnsm"
    assert (out / "model.npz").read_bytes() == (in_process / "model.npz").read_bytes()
    meta, expected = (json.loads((d / "meta.json").read_text()) for d in (out, in_process))
    scores = meta.pop("w_grid_scores")
    assert [w for w, _ in scores] == grid
    assert sorted(scores) == sorted(expected.pop("w_grid_scores"))
    assert meta == expected
    messages = [r.getMessage() for r in caplog.records]
    # every score is logged, in grid order
    assert [m for m in messages if "validation concordance" in m] == [
        f"w grid: w={w:g} validation concordance {c:.4f}" for w, c in scores]
    overtaken = [m for m in messages if "overtook" in m]
    assert overtaken == ([f"w grid: w={grid[2]:g} overtook w={grid[1]:g}; "
                          "fitting the final model again"] if third == "winner" else [])


def test_data_error_in_a_worker_exits_2(small_data, tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    fit = experiment.RnnsmFit.__call__

    def failing(self, w):  # only in a forked worker
        if os.getpid() != parent:
            raise DataError(f"synthetic failure for w={w:g} in process {os.getpid()}")
        return fit(self, w)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment.RnnsmFit, "__call__", failing)
    capsys.readouterr()
    assert train(small_data, tmp_path / "rnnsm") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    named = re.search(r"^error: synthetic failure for w=\S+ in process (\d+)$", err, re.M)
    assert named and int(named[1]) != parent


def test_killed_worker_exits_1(small_data, tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    fit = experiment.RnnsmFit.__call__

    def killed(self, w):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(self, w)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment.RnnsmFit, "__call__", killed)
    capsys.readouterr()
    assert train(small_data, tmp_path / "rnnsm") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and re.fullmatch(
        r"error: worker process \d+ ended with exit code -9 before sending its result",
        errors[0]), err


def test_one_thread_restores_the_previous_count():
    before = blas.threads()
    with blas.one_thread() as record:
        assert set(record) == {"name", "version", "core", "threads", "pinned"}
        assert record["pinned"] is (before is not None)
        assert record["threads"] == (1 if record["pinned"] else None)
        assert blas.threads() == (1 if record["pinned"] else None)
    assert blas.threads() == before


def run_cli(*args, env=None):
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)


def test_trained_bytes_do_not_depend_on_the_thread_count(small_data, tmp_path):
    for model in ("rnn", "rnnsm"):
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"{model}-{threads}"
            done = run_cli("-m", "returntime", "train", "--model", model, *small_data,
                           "--out", str(out), env={"OPENBLAS_NUM_THREADS": threads})
            assert done.returncode == 0, done.stderr
            assert "Traceback" not in done.stderr
            models.append((out / "model.npz").read_bytes())
            for name in ("manifest.json", "meta.json"):
                record = json.loads((out / name).read_text())["blas"]
                assert record["threads"] == (1 if record["pinned"] else None)
        assert models[0] == models[1], f"{model} model.npz depends on the thread count"


def test_unguarded_caller_script_trains_rnnsm(small_data, tmp_path):
    script = tmp_path / "caller.py"  # no `if __name__ == "__main__"` guard
    script.write_text(
        "import sys\n"
        "from returntime.cli import main\n"
        f"sys.exit(main(['train', '--model', 'rnnsm', *{small_data!r}, "
        f"'--out', {str(tmp_path / 'rnnsm')!r}]))\n"
    )
    done = run_cli(str(script))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert (tmp_path / "rnnsm" / "model.npz").exists()


def test_final_fit_runs_beside_the_third_candidate(small_data, in_process, tmp_path,
                                                   monkeypatch):
    """On 2 CPUs a three-point grid starts the final fit for the leader of the
    first two candidates while the third is still running, and trains the
    same bytes as the in-process loop."""
    select, fit = experiment.select_w, experiment.RnnsmFit.__call__
    finals = []  # the final fit select_w was given

    def selecting(train, config, dims, final):
        finals.append(final)
        return select(train, config, dims, final)

    def fitted(self, w):
        if self is finals[0]:
            (tmp_path / f"final-{w:g}").touch()
        elif w == GRID[2]:  # wait until a final fit has started, at most 60 s
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("final-*")) and time.monotonic() < deadline:
                time.sleep(0.01)
            (tmp_path / "third-saw").write_text(
                " ".join(p.name for p in tmp_path.glob("final-*")))
        return fit(self, w)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment, "select_w", selecting)
    monkeypatch.setattr(experiment.RnnsmFit, "__call__", fitted)
    assert train(small_data, tmp_path / "rnnsm") == 0
    early = (tmp_path / "third-saw").read_text().split()
    assert len(early) == 1 and early[0] in {f"final-{w:g}" for w in GRID[:2]}
    assert artifact(tmp_path / "rnnsm") == artifact(in_process)
