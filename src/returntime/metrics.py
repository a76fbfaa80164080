"""Evaluation metrics and error breakdowns for return-time predictions.

Users who never return inside the prediction window are the positive class
for the binary metrics; their true return time is only known to exceed the
gap between their last session and the horizon.
"""

from __future__ import annotations

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
class PredictionRecord:
    """One user's predicted and true return gap, both measured in days from
    the end of their last observed session."""

    user_id: str
    predicted_return_days: float
    true_return_days: float | None
    censored_lower_bound_days: float | None
    horizon_gap_days: float
    active_day_count: int
    last_session_end_days: float | None = None

    def __post_init__(self) -> None:
        if (self.true_return_days is None) == (self.censored_lower_bound_days is None):
            raise ValidationError(
                f"record for user {self.user_id!r} must carry exactly one of "
                "true_return_days / censored_lower_bound_days"
            )

    @property
    def is_censored(self) -> bool:
        return self.true_return_days is None

    @property
    def observed_days(self) -> float:
        if self.true_return_days is not None:
            return self.true_return_days
        return self.censored_lower_bound_days  # type: ignore[return-value]

    @property
    def true_return_week(self) -> int | None:
        if self.true_return_days is None:
            return None
        return int(math.floor(self.true_return_days / 7.0))


def rmse_returning(records: Sequence[PredictionRecord]) -> float:
    """Root mean squared error over uncensored records only."""
    errs = [
        r.predicted_return_days - r.true_return_days
        for r in records
        if r.true_return_days is not None
    ]
    if not errs:
        raise DataError("RMSE needs at least one uncensored record")
    return float(np.sqrt(np.mean(np.square(errs))))


def concordance_index(records: Sequence[PredictionRecord]) -> float:
    """Harrell's C under right censoring.

    A pair is comparable when the earlier time belongs to an uncensored
    record and is strictly smaller than the other record's observed time or
    censoring bound. Tied predictions count one half.
    """
    obs = np.array([r.observed_days for r in records])
    event = np.array([not r.is_censored for r in records])
    pred = np.array([r.predicted_return_days for r in records])
    concordant = 0.0
    comparable = 0
    for i in np.flatnonzero(event):
        later = obs > obs[i]
        comparable += int(later.sum())
        concordant += float(np.sum(pred[i] < pred[later]))
        concordant += 0.5 * float(np.sum(pred[i] == pred[later]))
    if comparable == 0:
        raise DataError("concordance needs at least one comparable pair")
    return concordant / comparable


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts + 1))[inverse]


def nonreturning_auc(
    records: Sequence[PredictionRecord],
    horizon_gaps: Sequence[float] | None = None,
    score_mode: str = "shifted",
) -> float:
    """AUC for classifying non-returning users.

    The default score is each user's predicted return gap minus their own
    censoring threshold (the gap from last session end to the horizon);
    "raw" scores by the predicted gap alone.
    """
    if score_mode not in ("shifted", "raw"):
        raise ValidationError(f"unknown AUC score mode {score_mode!r}")
    gaps = (
        np.asarray(horizon_gaps, dtype=float)
        if horizon_gaps is not None
        else np.array([r.horizon_gap_days for r in records])
    )
    pred = np.array([r.predicted_return_days for r in records])
    scores = pred - gaps if score_mode == "shifted" else pred
    positive = np.array([r.is_censored for r in records])
    n_pos = int(positive.sum())
    n_neg = len(records) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("non-returning AUC needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def nonreturning_recall(records: Sequence[PredictionRecord]) -> float:
    """Share of truly censored users predicted to return after the horizon."""
    censored = np.array([r.is_censored for r in records])
    if not censored.any():
        raise DataError("non-returning recall needs at least one censored record")
    predicted_nonret = np.array(
        [r.predicted_return_days > r.horizon_gap_days for r in records]
    )
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


def error_breakdowns(records: Sequence[PredictionRecord]) -> Breakdowns:
    """RMSE / mean error grouped by true return week, and RMSE grouped by
    active-day count with a terminal >= 64 bucket. Uncensored records only;
    empty buckets are omitted."""
    week_sq: dict[int, list[float]] = {}
    week_err: dict[int, list[float]] = {}
    day_sq: dict[str, list[float]] = {}
    for r in records:
        if r.true_return_days is None:
            continue
        err = r.predicted_return_days - r.true_return_days
        week = r.true_return_week
        week_sq.setdefault(week, []).append(err * err)
        week_err.setdefault(week, []).append(err)
        bucket = _active_day_bucket(r.active_day_count)
        day_sq.setdefault(bucket, []).append(err * err)
    buckets = sorted(day_sq, key=lambda b: math.inf if b.endswith("+") else int(b))
    return Breakdowns(
        rmse_by_week={k: float(np.sqrt(np.mean(v))) for k, v in sorted(week_sq.items())},
        mean_error_by_week={k: float(np.mean(v)) for k, v in sorted(week_err.items())},
        n_by_week={k: len(v) for k, v in sorted(week_sq.items())},
        rmse_by_active_days={k: float(np.sqrt(np.mean(day_sq[k]))) for k in buckets},
        n_by_active_days={k: len(day_sq[k]) for k in buckets},
    )


def _model_sort_key(name: str) -> tuple[int, str]:
    try:
        return (MODEL_ORDER.index(name), name)
    except ValueError:
        return (len(MODEL_ORDER), name)


def build_report(
    model_records: dict[str, list[PredictionRecord]],
    auc_score_mode: str = "shifted",
) -> dict:
    """Per-model metric table plus the week and active-day breakdowns, each
    with its bucket sizes (n_by_week, n_by_active_days)."""
    report: dict = {"models": {}, "tables": {
        "rmse_by_week": {}, "mean_error_by_week": {}, "n_by_week": {},
        "rmse_by_active_days": {}, "n_by_active_days": {},
    }, "n_users": {}}
    for name in sorted(model_records, key=_model_sort_key):
        records = model_records[name]
        report["n_users"][name] = len(records)
        # errors beyond the float range (predictions near 1e154 days and up)
        # give an inf RMSE rather than a warning
        with np.errstate(over="ignore"):
            report["models"][name] = {
                "rmse_days": rmse_returning(records),
                "concordance": concordance_index(records),
                "nonreturning_auc": nonreturning_auc(records, score_mode=auc_score_mode),
                "nonreturning_recall": nonreturning_recall(records),
            }
            b = error_breakdowns(records)
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
    records: Sequence[PredictionRecord],
    epoch_iso: str | None = None,
) -> None:
    epoch = None
    if epoch_iso is not None:
        epoch = dt.datetime.fromisoformat(epoch_iso.replace("Z", "+00:00"))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            date = ""
            if epoch is not None and r.last_session_end_days is not None:
                absolute = r.last_session_end_days + r.predicted_return_days
                date = (epoch + dt.timedelta(days=absolute)).date().isoformat()
            writer.writerow([
                model_name,
                r.user_id,
                repr(r.predicted_return_days),
                date,
                "1" if r.is_censored else "0",
                "" if r.true_return_days is None else repr(r.true_return_days),
                "" if r.censored_lower_bound_days is None else repr(r.censored_lower_bound_days),
                repr(r.horizon_gap_days),
                r.active_day_count,
                "" if r.last_session_end_days is None else repr(r.last_session_end_days),
            ])


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


def read_predictions_csv(path: str | Path) -> tuple[str, list[PredictionRecord]]:
    """Read a prediction CSV written by write_predictions_csv.

    The file is decoded as UTF-8. A file that is not UTF-8 or not CSV, or a
    row with a missing, non-numeric or non-finite value, raises
    ValidationError naming path:line; a missing column names the path.
    """
    path = Path(path)
    raw = path.read_bytes()
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
    records: list[PredictionRecord] = []
    for line, row in rows:
        if row["model"] != model_name:
            raise ValidationError(f"{path}:{line}: mixed model names in one prediction CSV")
        try:
            optional = {key: _finite(row[key]) if row[key] else None for key in (
                "true_return_days", "censored_lower_bound_days", "last_session_end_days")}
            records.append(PredictionRecord(
                user_id=row["user_id"],
                predicted_return_days=_finite(row["predicted_return_days"]),
                horizon_gap_days=_finite(row["horizon_gap_days"]),
                active_day_count=int(row["active_day_count"]),
                **optional,
            ))
        except (TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{line}: bad prediction row: {exc}") from exc
    return model_name, records
