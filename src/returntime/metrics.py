"""Evaluation metrics and error breakdowns for return-time predictions.

Users who never return inside the prediction window are the positive class
for the binary metrics; their true return time is only known to exceed the
gap between their last session and the horizon.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, ValidationError

MODEL_ORDER = ("baseline", "cph", "cpha", "rnn", "rnnsm", "rnnsma")
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


@dataclass
class Breakdowns:
    rmse_by_week: dict[int, float]
    mean_error_by_week: dict[int, float]
    n_by_week: dict[int, int]
    rmse_by_active_days: dict[str, float]
    n_by_active_days: dict[str, int]


def _active_day_bucket(count: int) -> str:
    return f"{ACTIVE_DAY_CAP}+" if count >= ACTIVE_DAY_CAP else str(count)


def error_breakdowns(table: Predictions) -> Breakdowns:
    """RMSE / mean error grouped by true return week, and RMSE grouped by
    active-day count with a terminal >= 64 bucket. Uncensored users only;
    empty buckets are omitted. Each bucket keeps its users in table order."""
    returning = ~table.censored
    err = table.predicted[returning] - table.observed[returning]
    sq = err * err
    weeks = np.floor(table.observed[returning] / 7.0)
    days = np.minimum(table.active_days[returning], ACTIVE_DAY_CAP)
    by_week = [(int(week), weeks == week) for week in np.unique(weeks)]
    by_days = [(_active_day_bucket(int(d)), days == d) for d in np.unique(days)]
    return Breakdowns(
        rmse_by_week={k: float(np.sqrt(np.mean(sq[m]))) for k, m in by_week},
        mean_error_by_week={k: float(np.mean(err[m])) for k, m in by_week},
        n_by_week={k: int(m.sum()) for k, m in by_week},
        rmse_by_active_days={k: float(np.sqrt(np.mean(sq[m]))) for k, m in by_days},
        n_by_active_days={k: int(m.sum()) for k, m in by_days},
    )


def _model_sort_key(name: str) -> tuple[int, str]:
    try:
        return (MODEL_ORDER.index(name), name)
    except ValueError:
        return (len(MODEL_ORDER), name)


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
            b = error_breakdowns(table)
        report["tables"]["rmse_by_week"][name] = {str(k): v for k, v in b.rmse_by_week.items()}
        report["tables"]["mean_error_by_week"][name] = {
            str(k): v for k, v in b.mean_error_by_week.items()
        }
        report["tables"]["n_by_week"][name] = {str(k): v for k, v in b.n_by_week.items()}
        report["tables"]["rmse_by_active_days"][name] = dict(b.rmse_by_active_days)
        report["tables"]["n_by_active_days"][name] = dict(b.n_by_active_days)
    return report


# ---------------------------------------------------------------------------
# prediction CSV interchange

CSV_COLUMNS = (
    "model", "user_id", "predicted_return_days", "predicted_return_date",
    "is_censored_truth", "true_return_days", "censored_lower_bound_days",
    "horizon_gap_days", "active_day_count", "last_session_end_days",
)


def write_predictions_csv(
    path: str | Path,
    model_name: str,
    table: Predictions,
    epoch_iso: str | None = None,
) -> None:
    epoch = None
    if epoch_iso is not None:
        epoch = dt.datetime.fromisoformat(epoch_iso.replace("Z", "+00:00"))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for user_id, pred, observed, censored, horizon_gap, active_days, last_end in zip(
            table.user_ids, table.predicted.tolist(), table.observed.tolist(),
            table.censored.tolist(), table.horizon_gap.tolist(), table.active_days.tolist(),
            table.last_end.tolist(),
        ):
            known_end = not math.isnan(last_end)
            date = ""  # where the last end is unknown or the date is past year 9999
            if epoch is not None and known_end:
                with contextlib.suppress(OverflowError):
                    date = (epoch + dt.timedelta(days=last_end + pred)).date().isoformat()
            writer.writerow([
                model_name,
                user_id,
                repr(pred),
                date,
                "1" if censored else "0",
                "" if censored else repr(observed),
                repr(observed) if censored else "",
                repr(horizon_gap),
                active_days,
                repr(last_end) if known_end else "",
            ])


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


def read_predictions_csv(path: str | Path) -> tuple[str, Predictions]:
    """Read a prediction CSV written by write_predictions_csv.

    The file is decoded as UTF-8. A file that is not UTF-8 or not CSV, or a
    row with a missing, non-numeric or non-finite value, with both or
    neither gap cell filled, with an is_censored_truth other than 1 for a
    censoring bound or 0 for a true gap, or with a user_id of an earlier row,
    raises ValidationError naming path:line; a missing column or a path
    that cannot be read, such as a missing file, names the path.
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
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        columns = reader.fieldnames or ()
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: not a CSV file: {exc}") from exc
    missing = set(CSV_COLUMNS) - set(columns)
    if missing:
        raise ValidationError(f"{path}: prediction CSV missing columns {sorted(missing)}")
    if not rows:
        raise ValidationError(f"{path}: prediction CSV is empty")
    model_name = rows[0][1]["model"]
    lines: dict[str, int] = {}  # user id -> its line, in file order
    predicted, observed, censored, horizon_gap, active_days, last_end = [], [], [], [], [], []
    for line, row in rows:
        if row["model"] != model_name:
            raise ValidationError(f"{path}:{line}: mixed model names in one prediction CSV")
        try:
            true, bound = row["true_return_days"], row["censored_lower_bound_days"]
            if bool(true) == bool(bound):
                raise ValueError(
                    "needs exactly one of true_return_days / censored_lower_bound_days")
            if row["is_censored_truth"] != ("1" if bound else "0"):
                raise ValueError(f"is_censored_truth {row['is_censored_truth']!r} is not "
                                 f"{'1' if bound else '0'}, as the filled gap cell says")
            if row["user_id"] in lines:
                raise ValueError(f"user {row['user_id']!r} repeats line {lines[row['user_id']]}")
            predicted.append(_finite(row["predicted_return_days"]))
            observed.append(_finite(true or bound))
            horizon_gap.append(_finite(row["horizon_gap_days"]))
            active_days.append(np.int64(int(row["active_day_count"])))
            end = row["last_session_end_days"]
            last_end.append(_finite(end) if end else math.nan)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{line}: bad prediction row: {exc}") from exc
        lines[row["user_id"]] = line
        censored.append(bool(bound))
    return model_name, Predictions(
        user_ids=list(lines), predicted=np.array(predicted), observed=np.array(observed),
        censored=np.array(censored), horizon_gap=np.array(horizon_gap),
        active_days=np.array(active_days, dtype=np.int64), last_end=np.array(last_end),
    )
