"""The benchmark's workloads and the closed loop that drives them.

A run drives the public CLI in-process (`returntime.cli.main`) with one
client: each command starts when the previous one returns. It sets the
workload up `setup_repeats` times, then repeats the workload's iteration
(timed steps, then untimed tail steps) until `--seconds` is used up, at
least once. The outputs of every iteration are checked; each command that
fails or whose output fails a check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

import checks
from tracing import Tracer

MODELS = ("baseline", "cph", "cpha", "rnn", "rnnsm", "rnnsma")
FAMILY = {"cpha": "cph", "rnnsma": "rnnsm"}


@dataclass(frozen=True)
class Step:
    command: str  # "train", "predict" or "evaluate"
    model: str | None = None
    split: str | None = None  # for predict: "train", "test" or "all"


def train(model: str) -> Step:
    return Step("train", model)


def predict(model: str, split: str) -> Step:
    return Step("predict", model, split)


EVALUATE = Step("evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overlay: dict  # merged over run_config.json by every command, and by generate
    setup: tuple[Step, ...]  # after `generate`
    timed: tuple[Step, ...]
    tail: tuple[Step, ...] = ()  # untimed, after the timed steps of each iteration
    setup_repeats: int = 1  # setup_s is the median over these


SHORT_SCHEDULE = {
    "training": {"rnn": {"epochs": 1}, "rnnsm": {"epochs": 1}},
    "rnnsm": {"w": 0.01},
    "network": {"preliminary_epochs": 1},
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "train-2k",
        "LSTM steps, Adam and the w-grid: train rnn and rnnsm at 2,000 users; no Cox or expectation work is timed",
        {"training": {"rnn": {"epochs": 4}, "rnnsm": {"epochs": 4}}},
        setup=(train("cph"),),
        timed=(train("rnn"), train("rnnsm")),
        tail=(*(predict(m, "all") for m in ("rnn", "rnnsm", "rnnsma")), EVALUATE),
        setup_repeats=2,
    ),
    Workload(
        "score-2k",
        "expectations and ingest: six predict calls over all 2,000 users and evaluate; forward pass only, no backward or Adam",
        SHORT_SCHEDULE,
        setup=tuple(train(m) for m in ("baseline", "cph", "rnn", "rnnsm")),
        timed=(*(predict(m, "all") for m in MODELS), EVALUATE),
        setup_repeats=2,
    ),
    Workload(
        "cohort-10k",
        "ingest at 5x scale, the Cox fit at 8k rows and concordance at 7.8k users; no net or expectation work",
        {"generator": {"user_count": 10000}},
        setup=(train("baseline"),),
        timed=(train("cph"), predict("baseline", "all"), EVALUATE),
    ),
)}


@dataclass
class Command:
    step: Step | None  # None for generate
    phase: str  # "setup", "timed" or "tail"
    seconds: float
    span: int | None = None  # index of its root span when traced
    problems: list[str] = field(default_factory=list)


class Client:
    """One closed-loop client over `returntime.cli.main`."""

    def __init__(self, cli_main: Callable[[list[str]], int], log: TextIO,
                 tracer: Tracer | None = None) -> None:
        self.cli_main = cli_main
        self.log = log
        self.tracer = tracer
        self.commands: list[Command] = []

    def run(self, argv: list[str], step: Step | None, phase: str) -> Command:
        traced = self.tracer is not None and self.tracer.installed
        span = self.tracer.span(f"cli.{argv[0]}") if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.log), span as index:
                rc = self.cli_main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=self.log)
            rc = "exception"
        command = Command(step, phase, time.perf_counter() - start, index)
        if rc != 0:
            command.problems.append(f"{' '.join(argv[:3])}: exit code {rc}")
        self.commands.append(command)
        return command


@dataclass
class Iteration:
    wall_s: float
    commands: list[Command]
    predictions: dict[str, tuple[Path, str, Command]]  # model -> (csv, split, command)
    report: tuple[Path, Command] | None
    rows: int = 0  # prediction rows written
    hashes: dict[str, tuple[str, Command]] = field(default_factory=dict)


class Run:
    """One workload at one seed: set-ups, iterations, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, work: Path, client: Client) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.client = client
        self.overlay = work / "overlay.json"
        self.overlay.write_text(json.dumps(workload.overlay, sort_keys=True))
        self.setup_seconds: list[float] = []
        self.iterations: list[Iteration] = []
        self.problems: list[str] = []  # failures not tied to one command
        self.run_config: Path | None = None
        self.artifacts: dict[str, Path] = {}
        self._data_hashes: list[str] = []

    # -- steps -------------------------------------------------------------

    def _config_args(self) -> list[str]:
        return ["--config", str(self.run_config), "--config", str(self.overlay)]

    def _steps(self, steps, phase: str, out: Path, iteration: Iteration | None) -> None:
        for step in steps:
            family = FAMILY.get(step.model, step.model)
            if step.command == "train":
                target = out / "models" / family
                self.client.run(["train", "--model", step.model, *self._config_args(),
                                 "--out", str(target)], step, phase)
                self.artifacts[family] = target
            elif step.command == "predict":
                target = out / "preds" / f"{step.model}.csv"
                command = self.client.run(
                    ["predict", "--model", step.model,
                     "--checkpoint", str(self.artifacts[family]), *self._config_args(),
                     "--split", step.split, "--out", str(target)], step, phase)
                iteration.predictions[step.model] = (target, step.split, command)
            else:
                target = out / "report"
                paths = [str(p) for p, _, _ in iteration.predictions.values()]
                command = self.client.run(["evaluate", "--pred", *paths, "--out", str(target)],
                                          step, phase)
                iteration.report = (target / "report.json", command)

    def setup(self, index: int) -> None:
        out = self.work / f"setup{index}"
        start = time.perf_counter()
        generate = self.client.run(
            ["generate", "--config", str(self.overlay), "--seed", str(self.seed),
             "--out", str(out / "data")], None, "setup")
        self.run_config = out / "data" / "run_config.json"
        self._steps(self.workload.setup, "setup", out, None)
        self.setup_seconds.append(time.perf_counter() - start)
        # every set-up must generate the same data
        hashes = [checks.file_hash(out / "data" / name)
                  for name in ("sessions.jsonl", "ground_truth.csv")
                  if (out / "data" / name).exists()]
        if index == 0:
            self._data_hashes = hashes
        elif hashes != self._data_hashes:
            generate.problems.append(f"set-up {index} generated different data than set-up 0")

    def iterate(self) -> Iteration:
        out = self.work / f"iteration{len(self.iterations)}"
        iteration = Iteration(0.0, [], {}, None)
        first = len(self.client.commands)
        start = time.perf_counter()
        self._steps(self.workload.timed, "timed", out, iteration)
        iteration.wall_s = time.perf_counter() - start
        self._steps(self.workload.tail, "tail", out, iteration)
        iteration.commands = self.client.commands[first:]
        self.iterations.append(iteration)
        return iteration

    # -- checks ------------------------------------------------------------

    def check(self, iteration: Iteration, users: dict[str, set[str]], window_days: float) -> None:
        for model, (path, split, command) in iteration.predictions.items():
            rows, problems = checks.check_predictions(path, model, users[split], window_days)
            iteration.rows += rows
            command.problems += problems
            if path.exists():
                iteration.hashes[f"preds/{model}.csv"] = (checks.file_hash(path), command)
        if iteration.report is not None:
            path, command = iteration.report
            report, problems = checks.read_report(path)
            command.problems += problems
            if report is not None:
                iteration.hashes["report.json"] = (checks.file_hash(path), command)
        # every iteration must write what the first one wrote
        reference = self.iterations[0].hashes
        for name, (digest, command) in iteration.hashes.items():
            if reference.get(name, (digest,))[0] != digest:
                command.problems.append(f"{name} differs from the first iteration's")

    def check_all(self) -> None:
        users = checks.split_user_ids(self.run_config)
        window_days = checks.prediction_window_days(self.run_config)
        for iteration in self.iterations:
            self.check(iteration, users, window_days)

    @property
    def attempted(self) -> int:
        return len(self.client.commands)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.client.commands if c.problems) + len(self.problems)

    def problem_lines(self) -> list[str]:
        return [p for c in self.client.commands for p in c.problems] + self.problems

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        """Every end-to-end metric this workload measures, by name."""
        metrics: dict[str, float] = {}
        if self.setup_seconds:
            metrics["setup_s"] = statistics.median(self.setup_seconds)
        metrics["wall_s"] = statistics.median(i.wall_s for i in self.iterations)
        for model in ("rnnsm", "rnn", "cph"):
            times = [c.seconds for c in self.client.commands
                     if c.step is not None and c.step.command == "train" and c.step.model == model]
            if times:
                metrics[f"train_{model}_s"] = statistics.median(times)
        rates = []
        for iteration in self.iterations:
            seconds = sum(c.seconds for _, _, c in iteration.predictions.values())
            if seconds > 0 and iteration.rows:
                rates.append(iteration.rows / seconds)
        if rates:
            metrics["predict_users_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = peak_rss_mb
        report = self._report()
        if "rnnsm" in report:
            metrics["c_index_rnnsm"] = report["rnnsm"]["concordance"]
        if "rnn" in report:
            metrics["rmse_rnn_days"] = report["rnn"]["rmse_days"]
        return metrics

    def _report(self) -> dict:
        if not self.iterations or self.iterations[0].report is None:
            return {}
        report, _ = checks.read_report(self.iterations[0].report[0])
        return (report or {}).get("models", {})


def per_layer(tracer: Tracer, untraced: list[Iteration], traced: Iteration) -> dict[str, float]:
    """Every per-layer metric, from the spans of a traced run."""
    spans = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name, stats in PER_LAYER.items():
        for stat in stats:
            calls, self_s = spans.get(name, (0, 0.0))
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = self_s
            elif stat == "useful_lane_share":
                value = counts["features.pad_batch.real_steps"] / max(counts["features.pad_batch.lanes"], 1)
            elif stat == "evals_per_call":
                value = counts["quadrature.integrate.evals"] / max(calls, 1)
            elif stat == "sessions_per_s":
                value = counts["data.read_sessions_jsonl.sessions"] / self_s if self_s > 0 else 0.0
            metrics[f"{name}.{stat}"] = value
    roots = {c.span for c in traced.commands if c.phase == "timed"}
    metrics["trace.covered_share"] = tracer.covered_seconds(roots) / traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced[-1].wall_s
    return metrics


# span name -> the statistics reported for it
PER_LAYER: dict[str, tuple[str, ...]] = {
    "net.forward_batch": ("calls", "self_s"),
    "net.backward_batch": ("calls", "self_s"),
    "net.apply_update_with_norm_projection": ("calls", "self_s"),
    "features.pad_batch": ("useful_lane_share",),
    "experiment.select_w": ("self_s",),
    "rnnsm.train_rnnsm": ("calls",),
    "experiment.resolve_embedding_dims": ("self_s",),
    "baselines.train_simple_rnn": ("self_s",),
    "rnnsm.expected_return_time": ("calls", "self_s"),
    "rnnsm.absence_conditioned_expectation": ("calls", "self_s"),
    "rnnsm.initial_output_bias": ("calls", "self_s"),
    "quadrature.integrate": ("evals_per_call",),
    "cox.expected_survival_time": ("calls", "self_s"),
    "cox.fit": ("self_s",),
    "cox.efron_partial_log_likelihood": ("calls",),
    "features.build_aggregates": ("self_s",),
    "data.read_sessions_jsonl": ("calls", "self_s", "sessions_per_s"),
    "data.assign_windows": ("self_s",),
    "data.stratified_split": ("self_s",),
    "features.build_sequences": ("self_s",),
    "metrics.concordance_index": ("calls", "self_s"),
    "metrics.read_predictions_csv": ("self_s",),
    "metrics.write_predictions_csv": ("self_s",),
    "metrics.build_report": ("self_s",),
    "synth.generate": ("self_s",),
}

UNITS = {
    "setup_s": "s", "wall_s": "s", "train_rnnsm_s": "s", "train_rnn_s": "s",
    "train_cph_s": "s", "predict_users_per_s": "users/s",
    "peak_rss_mb": "MB", "c_index_rnnsm": "ratio", "rmse_rnn_days": "days",
    "calls": "count", "self_s": "s", "useful_lane_share": "ratio",
    "evals_per_call": "count/call", "sessions_per_s": "1/s",
    "covered_share": "ratio", "overhead_s": "s",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, UNITS.get(metric.rsplit(".", 1)[-1], ""))
