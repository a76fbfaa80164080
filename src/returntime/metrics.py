"""Evaluation metrics and error breakdowns for return-time predictions.

Users who never return inside the prediction window are the positive class
for the binary metrics; their true return time is only known to exceed the
gap between their last session and the horizon.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import MODEL_NAMES, output_dir
from .data import offset_micros
from .errors import DataError, ValidationError

ACTIVE_DAY_CAP = 64  # terminal bucket collects users with this many or more


@dataclass(frozen=True)
class Predictions:
    """Predicted and true return gaps of n users as (n,) columns, in days from
    the end of each user's last observed session.

    ``observed`` is the true gap, or for a ``censored`` user the lower bound
    the horizon puts on it. ``last_end`` is NaN where unknown.
    """

    user_ids: Sequence[str]
    predicted: np.ndarray
    observed: np.ndarray
    censored: np.ndarray  # bool
    horizon_gap: np.ndarray
    active_days: np.ndarray  # int
    last_end: np.ndarray

    def __len__(self) -> int:
        return len(self.predicted)


def rmse_returning(table: Predictions) -> float:
    """Root mean squared error over uncensored users only."""
    returning = ~table.censored
    if not returning.any():
        raise DataError("RMSE needs at least one uncensored record")
    errs = table.predicted[returning] - table.observed[returning]
    return float(np.sqrt(np.mean(np.square(errs))))


def concordance_index(table: Predictions) -> float:
    """Harrell's C under right censoring.

    A pair is comparable when the earlier time belongs to an uncensored
    user and is strictly smaller than the other user's observed time or
    censoring bound. Tied predictions count one half.

    Users are walked from the latest observed time down, one group of
    equal times at a time: each event of a group is compared with the sorted
    predictions of all strictly later users, and the group's own
    predictions join them only after that. Pairs are counted as integers.
    """
    obs = table.observed
    event = (~table.censored).tolist()
    pred = table.predicted.tolist()
    order = np.argsort(-obs, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(obs[order])) + 1).tolist(), len(order)]
    later: list[float] = []  # sorted predictions of the users already walked
    concordant = tied = comparable = 0
    for start, end in zip(bounds, bounds[1:]):
        group = order[start:end].tolist()
        for i in group:
            if event[i]:
                low, high = bisect.bisect_left(later, pred[i]), bisect.bisect_right(later, pred[i])
                comparable += len(later)
                concordant += len(later) - high
                tied += high - low
        for i in group:
            bisect.insort(later, pred[i])
    if comparable == 0:
        raise DataError("concordance needs at least one comparable pair")
    return (concordant + 0.5 * tied) / comparable


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts + 1))[inverse]


def nonreturning_auc(table: Predictions, score_mode: str = "shifted") -> float:
    """AUC for classifying non-returning users.

    The default score is each user's predicted return gap minus their own
    censoring threshold (the gap from last session end to the horizon);
    "raw" scores by the predicted gap alone.
    """
    if score_mode not in ("shifted", "raw"):
        raise ValidationError(f"unknown AUC score mode {score_mode!r}")
    scores = table.predicted
    if score_mode == "shifted":
        scores = scores - table.horizon_gap
    positive = table.censored
    n_pos = int(positive.sum())
    n_neg = len(table) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("non-returning AUC needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def nonreturning_recall(table: Predictions) -> float:
    """Share of truly censored users predicted to return after the horizon."""
    censored = table.censored
    if not censored.any():
        raise DataError("non-returning recall needs at least one censored record")
    predicted_nonret = table.predicted > table.horizon_gap
    return float((predicted_nonret & censored).sum() / censored.sum())


def _active_day_bucket(count: int) -> str:
    return f"{ACTIVE_DAY_CAP}+" if count >= ACTIVE_DAY_CAP else str(count)


def error_breakdowns(table: Predictions) -> dict[str, dict]:
    """The report's five tables of one model, keyed by bucket: RMSE, mean
    error and user count grouped by true return week, and RMSE and user
    count grouped by active-day count with a terminal >= 64 bucket.
    Uncensored users only; empty buckets are omitted, and buckets are listed
    in increasing order. Each bucket keeps its users in table order."""
    returning = ~table.censored
    err = table.predicted[returning] - table.observed[returning]
    sq = err * err
    weeks = np.floor(table.observed[returning] / 7.0)
    days = np.minimum(table.active_days[returning], ACTIVE_DAY_CAP)
    by_week = [(str(int(week)), weeks == week) for week in np.unique(weeks)]
    by_days = [(_active_day_bucket(int(d)), days == d) for d in np.unique(days)]
    return {
        "rmse_by_week": {k: float(np.sqrt(np.mean(sq[m]))) for k, m in by_week},
        "mean_error_by_week": {k: float(np.mean(err[m])) for k, m in by_week},
        "n_by_week": {k: int(m.sum()) for k, m in by_week},
        "rmse_by_active_days": {k: float(np.sqrt(np.mean(sq[m]))) for k, m in by_days},
        "n_by_active_days": {k: int(m.sum()) for k, m in by_days},
    }


def _model_sort_key(name: str) -> tuple[int, str]:
    try:
        return (MODEL_NAMES.index(name), name)
    except ValueError:
        return (len(MODEL_NAMES), name)


def build_report(
    model_predictions: dict[str, Predictions],
    auc_score_mode: str = "shifted",
) -> dict:
    """Per-model metric table plus the week and active-day breakdowns, each
    with its bucket sizes (n_by_week, n_by_active_days)."""
    report: dict = {"models": {}, "tables": {
        "rmse_by_week": {}, "mean_error_by_week": {}, "n_by_week": {},
        "rmse_by_active_days": {}, "n_by_active_days": {},
    }, "n_users": {}}
    for name in sorted(model_predictions, key=_model_sort_key):
        table = model_predictions[name]
        report["n_users"][name] = len(table)
        # errors beyond the float range (predictions near 1e154 days and up)
        # give an inf RMSE rather than a warning
        with np.errstate(over="ignore"):
            report["models"][name] = {
                "rmse_days": rmse_returning(table),
                "concordance": concordance_index(table),
                "nonreturning_auc": nonreturning_auc(table, score_mode=auc_score_mode),
                "nonreturning_recall": nonreturning_recall(table),
            }
            tables = error_breakdowns(table)
        for kind, buckets in tables.items():
            report["tables"][kind][name] = buckets
    return report


def write_report(out_dir: str | Path, model_predictions: dict[str, Predictions],
                 auc_score_mode: str) -> dict:
    """build_report's report, written to out_dir as report.json and one CSV
    of (model, bucket, value) rows per RMSE and mean-error table."""
    out = output_dir(out_dir)
    report = build_report(model_predictions, auc_score_mode=auc_score_mode)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    for table in ("rmse_by_week", "mean_error_by_week", "rmse_by_active_days"):
        with open(out / f"{table}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["model", "bucket", "value"])
            for model_name, row in report["tables"][table].items():
                writer.writerows([model_name, bucket, repr(value)] for bucket, value in row.items())
    return report


# ---------------------------------------------------------------------------
# prediction CSV interchange

CSV_COLUMNS = (
    "model", "user_id", "predicted_return_days", "predicted_return_date",
    "is_censored_truth", "true_return_days", "censored_lower_bound_days",
    "horizon_gap_days", "active_day_count", "last_session_end_days",
)


def _csv_fields(values: list[str]) -> list[str]:
    """The values as csv.writer writes them: quoted, with inner quotes
    doubled, where one holds a comma, a quote, a \r or a \n."""
    joined = "".join(values)
    if not any(c in joined for c in ',"\r\n'):
        return values
    return [f'"{v.replace(chr(34), chr(34) * 2)}"' if any(c in v for c in ',"\r\n') else v
            for v in values]


def write_predictions_csv(
    path: str | Path,
    model_name: str,
    table: Predictions,
    epoch_iso: str | None = None,
) -> None:
    """One row per user, as csv.writer writes it. predicted_return_date is
    the date of epoch_iso + last_session_end_days + predicted_return_days on
    the epoch's own clock, empty where there is no epoch, the last end is
    unknown or the date is past year 9999."""
    n = len(table)
    known_end = ~np.isnan(table.last_end)
    date = [""] * n
    if epoch_iso is not None:
        epoch = dt.datetime.fromisoformat(epoch_iso.replace("Z", "+00:00"))
        with np.errstate(over="ignore"):  # an inf sum is past year 9999, as for floats
            days = table.last_end + table.predicted
        for value in days[known_end & np.isnan(days)][:1].tolist():
            dt.timedelta(days=value)  # a NaN prediction raises timedelta's ValueError
        micros, exists = offset_micros(epoch, days)
        date = np.where(exists, np.datetime_as_string(micros.astype("M8[us]"), unit="D"),
                        "").tolist()
    censored = table.censored.tolist()
    observed = list(map(repr, table.observed.tolist()))
    columns = [
        _csv_fields([model_name]) * n,
        _csv_fields(list(table.user_ids)),
        list(map(repr, table.predicted.tolist())),
        date,
        ["1" if c else "0" for c in censored],
        ["" if c else o for c, o in zip(censored, observed)],
        [o if c else "" for c, o in zip(censored, observed)],
        list(map(repr, table.horizon_gap.tolist())),
        list(map(str, table.active_days.tolist())),
        [repr(e) if k else "" for k, e in zip(known_end.tolist(), table.last_end.tolist())],
    ]
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns)), ""]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


def _not_negative(number: float) -> float:
    if number < 0:
        raise ValueError(f"negative value {number!r}")
    return number


def _check_row(path: Path, line: int, row: dict, model_name: str, earlier: int) -> None:
    """Raise the ValidationError of a bad prediction row, one row of
    read_predictions_csv's columns; earlier is the line on which the row's
    user id first appears."""
    if row["model"] != model_name:
        raise ValidationError(f"{path}:{line}: mixed model names in one prediction CSV")
    try:
        true, bound = row["true_return_days"], row["censored_lower_bound_days"]
        if bool(true) == bool(bound):
            raise ValueError("needs exactly one of true_return_days / censored_lower_bound_days")
        if row["is_censored_truth"] != ("1" if bound else "0"):
            raise ValueError(f"is_censored_truth {row['is_censored_truth']!r} is not "
                             f"{'1' if bound else '0'}, as the filled gap cell says")
        if earlier != line:
            raise ValueError(f"user {row['user_id']!r} repeats line {earlier}")
        _not_negative(_finite(row["predicted_return_days"]))
        _not_negative(_finite(true or bound))
        _not_negative(_finite(row["horizon_gap_days"]))
        np.int64(_not_negative(int(row["active_day_count"])))
        end = row["last_session_end_days"]
        if end:
            _not_negative(_finite(end))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}:{line}: bad prediction row: {exc}") from exc


def _converted(values: Sequence, convert, dtype, failed) -> np.ndarray:
    """[convert(v) for v in values] as an array of dtype, with failed in
    place of each value that convert rejects or dtype cannot hold."""
    try:
        return np.fromiter(map(convert, values), dtype, len(values))
    except (TypeError, ValueError, OverflowError):
        def one(value):
            try:
                return np.dtype(dtype).type(convert(value))
            except (TypeError, ValueError, OverflowError):
                return failed
        return np.array([one(v) for v in values], dtype=dtype)


def _not_negative_floats(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The values as float64, and the mask of those that are not numbers,
    not finite or negative."""
    numbers = _converted(values, float, np.float64, math.nan)
    return numbers, ~(np.isfinite(numbers) & (numbers >= 0))


def read_predictions_csv(path: str | Path) -> tuple[str, Predictions]:
    """Read a prediction CSV written by write_predictions_csv.

    The file is decoded as UTF-8. A file that is not UTF-8 or not CSV, or a
    row with a missing, non-numeric or non-finite value, with a negative
    prediction, gap, horizon gap, active-day count or last session end,
    with both or neither gap cell filled, with an is_censored_truth other
    than 1 for a censoring bound or 0 for a true gap, or with a user_id of
    an earlier row, raises ValidationError naming path:line; a missing
    column or a path that cannot be read, such as a missing file, names the
    path.

    Rows are read as csv.DictReader reads them: blank lines are skipped, a
    column named twice reads its last cell, and a short row reads None past
    its end. Every column is converted and checked at once; the first row
    that fails a check is checked again on its own (_check_row) for its
    error.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read prediction CSV: {exc.strerror or exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: prediction CSV is not UTF-8") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        numbered = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: not a CSV file: {exc}") from exc
    missing = set(CSV_COLUMNS) - set(header)
    if missing:
        raise ValidationError(f"{path}: prediction CSV missing columns {sorted(missing)}")
    if not numbered:
        raise ValidationError(f"{path}: prediction CSV is empty")
    lines, rows = zip(*numbered)
    index = {name: i for i, name in enumerate(header)}
    width = max(index[name] for name in CSV_COLUMNS) + 1
    if min(map(len, rows)) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    cells = list(zip(*rows))
    col = {name: cells[index[name]] for name in CSV_COLUMNS}

    n = len(rows)
    model_name = col["model"][0]
    true, bound = col["true_return_days"], col["censored_lower_bound_days"]
    censored = np.fromiter(map(bool, bound), bool, n)
    ids = col["user_id"]
    first = dict(zip(reversed(ids), reversed(lines)))  # user id -> the line it first appears on
    predicted, bad_predicted = _not_negative_floats(col["predicted_return_days"])
    observed, bad_observed = _not_negative_floats([t or b for t, b in zip(true, bound)])
    horizon_gap, bad_horizon_gap = _not_negative_floats(col["horizon_gap_days"])
    active_days = _converted(col["active_day_count"], int, np.int64, -1)
    ends = col["last_session_end_days"]
    known_end = np.fromiter(map(bool, ends), bool, n)
    last_end, bad_last_end = _not_negative_floats([e or "nan" for e in ends])
    bad = (
        (np.array(col["model"], dtype=object) != model_name)
        | (np.fromiter(map(bool, true), bool, n) == censored)
        | (np.array(col["is_censored_truth"], dtype=object) != np.where(censored, "1", "0"))
        | bad_predicted | bad_observed | bad_horizon_gap | (active_days < 0)
        | (known_end & bad_last_end)
    )
    if len(first) < n:
        bad |= np.array([first[u] != line for u, line in zip(ids, lines)])
    for i in np.flatnonzero(bad)[:1].tolist():
        _check_row(path, lines[i], {name: col[name][i] for name in CSV_COLUMNS}, model_name,
                   first[ids[i]])
    return model_name, Predictions(
        user_ids=list(ids), predicted=predicted, observed=observed, censored=censored,
        horizon_gap=horizon_gap, active_days=active_days, last_end=last_end,
    )
