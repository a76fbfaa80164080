"""Tests of the benchmark itself, on a miniature workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, namespaces  # noqa: E402
from workloads import EVALUATE, MODELS, Client, Run, Workload, predict, train  # noqa: E402

from returntime.cli import main as cli_main  # noqa: E402

# every step of every workload, at a size that runs in seconds
TINY = Workload(
    "tiny", "every command at toy size",
    {
        "generator": {"user_count": 150},
        "training": {"rnn": {"epochs": 1}, "rnnsm": {"epochs": 1}},
        "rnnsm": {"w_grid": [0.05, 0.5]},
        "network": {"preliminary_epochs": 1},
    },
    setup=(train("baseline"),),
    timed=(train("rnn"), train("rnnsm"), train("cph")),
    tail=(*(predict(m, "test") for m in MODELS), EVALUATE),
)


def tiny_run(tmp_path: Path, traced: bool):
    work = tmp_path / ("traced" if traced else "untraced")
    work.mkdir()
    tracer = Tracer() if traced else None
    with (work / "cli.log").open("w") as log:
        run = Run(TINY, 5, work, Client(cli_main, log, tracer))
        if tracer is None:
            run.setup(0)
            run.setup(1)
            run.iterate()
            run.iterate()
            untraced = traced_iteration = None
        else:
            with tracer.active(run.problems):
                run.setup(0)
            untraced = [run.iterate()]
            with tracer.active(run.problems):
                traced_iteration = run.iterate()
            untraced.append(run.iterate())
        run.check_all()
    return run, tracer, untraced, traced_iteration


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    originals = {(ns.__name__, attr): obj for ns in namespaces() for attr, obj in vars(ns).items()}
    plain = tiny_run(tmp, traced=False)
    traced = tiny_run(tmp, traced=True)
    return plain, traced, originals


def test_untraced_run_is_correct_and_deterministic(runs):
    (run, _, _, _), _, _ = runs
    assert run.problem_lines() == []
    assert run.failed == 0 and run.attempted == 2 * 2 + 2 * 10
    first, second = run.iterations
    assert {k: v[0] for k, v in first.hashes.items()} == {k: v[0] for k, v in second.hashes.items()}
    assert set(first.hashes) == {"report.json", *(f"preds/{m}.csv" for m in MODELS)}


def test_tracing_changes_no_result_and_restores_every_function(runs):
    (plain, _, _, _), (run, tracer, untraced, traced), originals = runs
    assert run.problem_lines() == []
    hashes = lambda it: {k: v[0] for k, v in it.hashes.items()}  # noqa: E731
    assert all(hashes(it) == hashes(plain.iterations[0]) for it in (*untraced, traced))
    now = {(ns.__name__, attr): obj for ns in namespaces() for attr, obj in vars(ns).items()}
    assert all(now[key] is obj for key, obj in originals.items())
    # functions imported by name are wrapped where they are called
    names = {span[0] for span in tracer.spans}
    assert {"data.read_sessions_jsonl", "features.build_sequences", "quadrature.integrate",
            "synth.generate", "cox.expected_survival_time"} <= names


def test_metrics_match_benchmark_json(runs):
    (plain, _, _, _), (run, tracer, untraced, traced), _ = runs
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n in workloads.WORKLOADS if n != "cohort-10k"]
    end_to_end = plain.end_to_end(peak_rss_mb=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: workloads.unit(name) for name in end_to_end}
    layers = workloads.per_layer(tracer, untraced, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: workloads.unit(name) for name in layers}
    assert all(value > 0 for value in end_to_end.values())
    assert 0 < layers["features.pad_batch.useful_lane_share"] < 1
    assert 0 < layers["trace.covered_share"] <= 1


def test_checks_flag_bad_predictions(tmp_path):
    path = tmp_path / "cpha.csv"
    columns = ["model", "user_id", "predicted_return_days", "horizon_gap_days"]
    rows = [
        ["cpha", "u1", "5.0", "123.0"],   # fine: absence time is 3 days
        ["cpha", "u2", "2.0", "123.0"],   # below the absence time
        ["cpha", "u3", "-1.0", "100.0"],  # negative
        ["cpha", "u3", "nan", "100.0"],   # duplicate row, not finite
    ]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([columns, *rows])
    count, problems = checks.check_predictions(path, "cpha", {"u1", "u2", "u3", "u4"}, 120.0)
    assert count == 4
    assert len(problems) == 4
    assert "expected one row for each of 4 users" in problems[0]
    assert "< absence time" in problems[1]
