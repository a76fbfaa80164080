"""Training on one OpenBLAS thread, and the w grid in forked worker processes."""

import json
import logging
import multiprocessing
import os
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

# default network sizes, whose matrix products OpenBLAS splits across threads
SMALL = {
    "generator": {"user_count": 200},
    "training": {"rnn": {"epochs": 2}, "rnnsm": {"epochs": 2}},
    "network": {"preliminary_epochs": 1},
    "rnnsm": {"w_grid": [0.05, 0.5], "grid_epochs": 1},
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
        m.setattr(experiment, "ProcessPoolExecutor", None)  # any pool use fails
        assert train(small_data, out) == 0
    meta = json.loads((out / "meta.json").read_text())
    return artifact(out), meta["w_grid_scores"], meta["w"]


def finishing_last(slow_w, marker):
    """validation_predictions where the candidate slow_w starts only once the
    other candidate has finished, so the pool sees a known completion order."""
    original = experiment._Grid.validation_predictions

    def ordered(self, w):
        if w != slow_w:
            predicted = original(self, w)
            marker.touch()
            return predicted
        deadline = time.monotonic() + 120
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        return original(self, w)

    return ordered


@pytest.mark.parametrize("finishes_last", ["loser", "winner"])
def test_pooled_grid_equals_in_process_loop(small_data, in_process, tmp_path, monkeypatch,
                                            caplog, finishes_last):
    expected, scores, w = in_process
    assert [s[0] for s in scores] == SMALL["rnnsm"]["w_grid"]
    assert scores[0][1] != scores[1][1], "the two candidates must not tie"
    loser = next(v for v, _ in scores if v != w)
    slow = loser if finishes_last == "loser" else w
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment._Grid, "validation_predictions",
                        finishing_last(slow, tmp_path / "first-done"))
    with caplog.at_level(logging.INFO, logger="returntime.experiment"):
        assert train(small_data, tmp_path / "rnnsm") == 0
    assert artifact(tmp_path / "rnnsm") == expected
    messages = [r.getMessage() for r in caplog.records]
    # the parent logs every score, in grid order
    assert [m for m in messages if "validation concordance" in m] == [
        f"w grid: w={v:g} validation concordance {c:.4f}" for v, c in scores]
    # the final fit started for the early leader is discarded only when it loses
    overtaken = [m for m in messages if "overtook" in m]
    assert len(overtaken) == (finishes_last == "winner")


def test_data_error_in_a_worker_exits_2(small_data, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def failing(self, w):
        raise DataError(f"synthetic failure for w={w:g} in process {os.getpid()}")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment._Grid, "validation_predictions", failing)
    capsys.readouterr()
    assert train(small_data, tmp_path / "rnnsm") == 2
    err = capsys.readouterr().err
    assert "error: synthetic failure" in err and "Traceback" not in err
    assert f"in process {parent}\n" not in err


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


def test_final_fit_runs_beside_the_third_candidate(small_data, tmp_path_factory, tmp_path,
                                                   monkeypatch):
    """On 2 CPUs a three-point grid starts the final fit for the leader of the
    first two candidates while the third is still running, and trains the
    same bytes as the in-process loop."""
    grid = [0.01, 0.05, 0.1]
    cfg = tmp_path / "grid3.json"
    cfg.write_text(json.dumps({"rnnsm": {"w_grid": grid}}))
    cfgs = [*small_data, "--config", str(cfg)]
    serial = tmp_path_factory.mktemp("serial3") / "rnnsm"
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "usable_cpus", lambda: 1)
        m.setattr(experiment, "ProcessPoolExecutor", None)
        assert train(cfgs, serial) == 0

    candidate, fit = experiment._Grid.validation_predictions, experiment.RnnsmFit.__call__
    scoring = []  # per process: the candidate being scored, if any

    def scored(self, w):
        scoring.append(w)
        try:
            if w == grid[2]:  # wait until a final fit has started, at most 60 s
                deadline = time.monotonic() + 60
                while not list(tmp_path.glob("final-*")) and time.monotonic() < deadline:
                    time.sleep(0.01)
                (tmp_path / "third-saw").write_text(
                    " ".join(p.name for p in tmp_path.glob("final-*")))
            return candidate(self, w)
        finally:
            scoring.pop()

    def fitted(self, w):
        if not scoring:
            (tmp_path / f"final-{w:g}").touch()
        return fit(self, w)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment._Grid, "validation_predictions", scored)
    monkeypatch.setattr(experiment.RnnsmFit, "__call__", fitted)
    assert train(cfgs, tmp_path / "rnnsm") == 0
    early = (tmp_path / "third-saw").read_text().split()
    assert len(early) == 1 and early[0] in {f"final-{w:g}" for w in grid[:2]}
    assert artifact(tmp_path / "rnnsm") == artifact(serial)
