"""Correctness checks on the outputs of the returntime CLI."""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

# Models whose prediction is the mean of a positive return time. The others
# may predict exactly 0 by design: `baseline` predicts the absence time, which
# is 0 for a user whose last session ends at the window start, and `rnn`
# clamps negative regression outputs to 0.
POSITIVE_MODELS = ("cph", "cpha", "rnnsm", "rnnsma")
# Models whose prediction is conditioned on the user's absence so far.
CONDITIONED_MODELS = ("cpha", "rnnsma")
# Slack for recomputing the absence time from the CSV's horizon gap.
ABSENCE_TOLERANCE_DAYS = 1e-9


def file_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def prediction_window_days(run_config: Path) -> float:
    """horizon_end - prediction_start, in days, from a run_config.json."""
    window = json.loads(Path(run_config).read_text())["window"]
    start = dt.datetime.fromisoformat(window["prediction_start_date"])
    end = dt.datetime.fromisoformat(window["horizon_end_date"])
    return (end - start).total_seconds() / 86400.0


def split_user_ids(run_config: Path) -> dict[str, set[str]]:
    """The user ids of each `--split` choice, as the CLI assembles them."""
    from returntime import experiment
    from returntime.config import load_config

    data = experiment.load_and_split(load_config([str(run_config)]))
    return {
        name: {u.user_id for u in subset.users}
        for name, subset in (("train", data.train), ("test", data.test), ("all", data.dataset))
    }


def check_predictions(
    path: Path, model: str, users: set[str], window_days: float
) -> tuple[int, list[str]]:
    """Return the row count and every problem found in one prediction CSV.

    One row per user of the split; every prediction finite and non-negative,
    and positive for the survival models; conditioned predictions at least the
    user's absence time, horizon_gap - (horizon_end - prediction_start).
    """
    if not Path(path).exists():
        return 0, [f"{path}: missing"]
    problems: list[str] = []
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = [row["user_id"] for row in rows]
    if len(ids) != len(users) or set(ids) != users:
        problems.append(
            f"{path}: {len(ids)} rows for {len(set(ids))} distinct users, "
            f"expected one row for each of {len(users)} users"
        )
    for row in rows:
        pred = float(row["predicted_return_days"])
        if row["model"] != model:
            problems.append(f"{path}: row for {row['user_id']} names model {row['model']!r}")
        elif not math.isfinite(pred) or pred < 0 or (pred == 0 and model in POSITIVE_MODELS):
            problems.append(f"{path}: {row['user_id']} has prediction {pred!r}")
        elif model in CONDITIONED_MODELS:
            absence = float(row["horizon_gap_days"]) - window_days
            if pred < absence - ABSENCE_TOLERANCE_DAYS:
                problems.append(
                    f"{path}: {row['user_id']} predicted {pred!r} < absence time {absence!r}"
                )
    return len(rows), problems


def read_report(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(Path(path).read_text()), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"{path}: unreadable report: {exc}"]
