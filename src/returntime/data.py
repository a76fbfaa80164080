"""Sessions, time windows, censoring labels, return-time targets, and dataset splitting.

Time is measured in days (float) since a dataset epoch. The observation
window is [0, prediction_start], the activity window [activity_start,
prediction_start], and the prediction window (prediction_start, horizon_end].
A user is censored when they have no session in the prediction window; their
final gap is then only known to exceed horizon_end minus their last session
end.

Sessions travel as columns (SessionColumns): from the generator to the
JSONL writer, and from the parse cache to the feature builders, whose
sequence table keeps the same layout up to the LSTM. A Dataset keeps each
user's sessions as one contiguous run of rows. Session and UserHistory
objects are built only on request.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import hashlib
import json
import logging
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, DataModelMismatchError, ValidationError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
CACHE_SUFFIX = ".parsed.npz"  # the parse cache of <sessions file> is <sessions file>.parsed.npz
CACHE_FORMAT_VERSION = 2  # bump when the cache layout or the parse result changes


@dataclass(frozen=True)
class Session:
    """One website visit; the atomic event of the per-user point process."""

    user_id: str
    start_time: float  # days since dataset epoch
    duration: float = 0.0  # days
    discrete_markers: dict = field(default_factory=dict)
    continuous_markers: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_time) or self.start_time < 0:
            raise ValidationError(
                f"session for user {self.user_id!r} has invalid start_time {self.start_time}"
            )
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ValidationError(
                f"session for user {self.user_id!r} has invalid duration {self.duration}"
            )

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True, eq=False)
class SessionColumns:
    """Sessions as (n,) columns, one row per session.

    ``user`` holds codes into ``user_ids``. Each discrete marker key maps to
    (values, present, codes): its distinct values, then per row a presence
    mask and a code into values. Each continuous key maps to (present,
    values). A row without the marker holds code 0 or value 0.0.
    """

    user_ids: list[str]
    user: np.ndarray  # int64
    start_time: np.ndarray  # days since dataset epoch
    duration: np.ndarray  # days
    discrete: dict[str, tuple[list, np.ndarray, np.ndarray]]
    continuous: dict[str, tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.start_time)

    @property
    def end_time(self) -> np.ndarray:
        return self.start_time + self.duration

    def __iter__(self) -> Iterator[Session]:
        """The rows as Session objects."""
        discrete: list[dict] = [{} for _ in range(len(self))]
        continuous: list[dict] = [{} for _ in range(len(self))]
        for key, (values, present, codes) in self.discrete.items():
            for row in np.flatnonzero(present).tolist():
                discrete[row][key] = values[codes[row]]
        for key, (present, column) in self.continuous.items():
            for row in np.flatnonzero(present).tolist():
                continuous[row][key] = float(column[row])
        return iter([
            Session(self.user_ids[user], start, duration, disc, cont)
            for user, start, duration, disc, cont in zip(
                self.user.tolist(), self.start_time.tolist(), self.duration.tolist(),
                discrete, continuous)
        ])

    def take(self, rows: np.ndarray) -> "SessionColumns":
        """The given rows, in the given order."""
        return SessionColumns(
            self.user_ids, self.user[rows], self.start_time[rows], self.duration[rows],
            {key: (values, present[rows], codes[rows])
             for key, (values, present, codes) in self.discrete.items()},
            {key: (present[rows], column[rows])
             for key, (present, column) in self.continuous.items()},
        )


class _ColumnBuilder:
    """Collects sessions row by row into a header of strings and (n,) columns.

    User ids and each discrete marker's values are coded by first
    appearance. Each marker key gets a presence mask and a value column per
    kind: codes into the header's value list for discrete markers, floats
    for continuous ones.
    """

    def __init__(self) -> None:
        self.user_codes: dict[str, int] = {}
        self.users: list[int] = []
        self.durations: list[float] = []
        self.discrete: dict[str, tuple[dict, list[int], list[int]]] = {}
        self.continuous: dict[str, tuple[list[int], list[float]]] = {}

    def add(self, user: str, duration: float, discrete: Iterable, continuous: Iterable) -> None:
        row = len(self.users)
        for key, value in discrete:
            codes, rows, values = self.discrete.setdefault(key, ({}, [], []))
            rows.append(row)
            values.append(codes.setdefault(value, len(codes)))
        for key, value in continuous:
            rows, values = self.continuous.setdefault(key, ([], []))
            rows.append(row)
            values.append(value)
        self.users.append(self.user_codes.setdefault(user, len(self.user_codes)))
        self.durations.append(duration)

    def build(self, start_time: list[float]) -> tuple[dict, dict[str, np.ndarray]]:
        header = {
            "user_ids": list(self.user_codes),
            "discrete": [[key, list(codes)] for key, (codes, _, _) in self.discrete.items()],
            "continuous": list(self.continuous),
        }
        arrays = {
            "user": np.array(self.users, dtype=np.int64),
            "start_time": np.array(start_time, dtype=float),
            "duration": np.array(self.durations, dtype=float),
        }
        n = len(self.users)
        for kind, markers, dtype in (
                ("discrete", [(r, c) for _, r, c in self.discrete.values()], np.int64),
                ("continuous", self.continuous.values(), float)):
            for i, (rows, values) in enumerate(markers):  # zero where the marker is absent
                present = arrays[f"{kind}_present_{i}"] = np.zeros(n, dtype=bool)
                column = arrays[f"{kind}_value_{i}"] = np.zeros(n, dtype=dtype)
                present[rows] = True
                column[rows] = values
        return header, arrays


def gather_runs(offsets: np.ndarray, users) -> tuple[np.ndarray, np.ndarray]:
    """Where user i owns rows offsets[i]:offsets[i + 1], the offsets and the
    source rows of the given users' runs laid end to end in the given order."""
    lengths = np.diff(offsets)[users]
    gathered = np.append(0, np.cumsum(lengths))
    return gathered, np.arange(gathered[-1]) + np.repeat(offsets[users] - gathered[:-1], lengths)


@dataclass(frozen=True)
class WindowConfig:
    """Activity / prediction window boundaries, in days since epoch."""

    activity_start: float
    prediction_start: float
    horizon_end: float

    def __post_init__(self) -> None:
        if not (0 < self.activity_start < self.prediction_start < self.horizon_end):
            raise ValidationError(
                "window boundaries must satisfy 0 < activity_start < "
                f"prediction_start < horizon_end, got ({self.activity_start}, "
                f"{self.prediction_start}, {self.horizon_end})"
            )

    def to_dict(self) -> dict:
        return {
            "activity_start": self.activity_start,
            "prediction_start": self.prediction_start,
            "horizon_end": self.horizon_end,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WindowConfig":
        return cls(d["activity_start"], d["prediction_start"], d["horizon_end"])


@dataclass(frozen=True)
class UserHistory:
    """Observation-window sessions of one user plus their return-time labels.

    ``final_gap`` runs from the end of the last observation-window session
    (clamped to prediction_start) to the first prediction-window session, or
    to horizon_end when the user is censored.
    """

    user_id: str
    sessions: tuple[Session, ...]
    return_targets: tuple[float, ...]
    final_gap: float
    is_censored: bool
    last_session_end: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Windowed users as columns.

    User i owns rows offsets[i]:offsets[i + 1] of ``sessions``: their
    observation-window sessions, merged and ordered by start, whose ``user``
    column holds i. Users are ordered by id. ``final_gap``, ``is_censored``
    and ``last_session_end`` are (n_users,) arrays with UserHistory's meaning.
    """

    sessions: SessionColumns
    offsets: np.ndarray  # (n_users + 1,) int64
    final_gap: np.ndarray
    is_censored: np.ndarray  # bool
    last_session_end: np.ndarray
    window: WindowConfig
    epoch_iso: str | None = None
    epoch_weekday: int = 0

    def __len__(self) -> int:
        return len(self.final_gap)

    @property
    def user_ids(self) -> list[str]:
        return self.sessions.user_ids

    @property
    def censored_fraction(self) -> float:
        return int(self.is_censored.sum()) / len(self) if len(self) else 0.0

    @property
    def absence_times(self) -> np.ndarray:
        return self.window.prediction_start - self.last_session_end

    @property
    def horizon_gaps(self) -> np.ndarray:
        return self.window.horizon_end - self.last_session_end

    @property
    def gaps(self) -> np.ndarray:
        """(n_sessions - 1,) next start minus end: entry r is the return
        target after row r when row r + 1 belongs to the same user."""
        s = self.sessions
        return s.start_time[1:] - s.end_time[:-1]

    @property
    def day_heads(self) -> np.ndarray:
        """Mask of the rows that open one of their user's active days."""
        day = np.floor(self.sessions.start_time)
        return (np.diff(self.sessions.user, prepend=-1) != 0) | (np.diff(day, prepend=-1) != 0)

    @property
    def active_day_counts(self) -> np.ndarray:
        return np.bincount(self.sessions.user[self.day_heads], minlength=len(self))

    @property
    def users(self) -> tuple[UserHistory, ...]:
        """The users as UserHistory objects."""
        sessions = list(self.sessions)
        gaps = self.gaps.tolist()
        bounds = self.offsets.tolist()
        return tuple(
            UserHistory(user_id, tuple(sessions[a:b]), tuple(gaps[a:b - 1]), *labels)
            for user_id, a, b, *labels in zip(
                self.user_ids, bounds, bounds[1:], self.final_gap.tolist(),
                self.is_censored.tolist(), self.last_session_end.tolist())
        )

    def subset(self, users: np.ndarray) -> "Dataset":
        """The users at the given indices, which must be increasing."""
        offsets, rows = gather_runs(self.offsets, users)
        sessions = dataclasses.replace(
            self.sessions.take(rows), user_ids=[self.user_ids[i] for i in users.tolist()],
            user=np.repeat(np.arange(len(users)), np.diff(offsets)),
        )
        return Dataset(sessions, offsets, self.final_gap[users], self.is_censored[users],
                       self.last_session_end[users], self.window, self.epoch_iso,
                       self.epoch_weekday)


def _merge_overlaps(s: SessionColumns, user: np.ndarray) -> SessionColumns:
    """Merge each session that starts before its user's previous one ends.

    Rows are ordered by (user, start). A merged session keeps the first
    one's start and discrete markers, ends at the later end, and sums the
    continuous markers; its end decides whether the next session merges too,
    so the users with an overlap are walked row by row.
    """
    overlaps = (user[1:] == user[:-1]) & (s.start_time[1:] <= s.end_time[:-1])
    if not overlaps.any():
        return s
    start, duration = s.start_time.tolist(), s.duration.tolist()
    continuous = {key: (present.tolist(), column.tolist())
                  for key, (present, column) in s.continuous.items()}
    keep = np.ones(len(s), dtype=bool)
    head = None
    for row in np.flatnonzero(np.isin(user, user[1:][overlaps])).tolist():
        head_end = None if head is None else start[head] + duration[head]
        if head_end is not None and user[row] == user[head] and start[row] <= head_end:
            duration[head] = max(head_end, start[row] + duration[row]) - start[head]
            for present, column in continuous.values():
                if present[row]:
                    column[head] += column[row]  # 0.0 + value when the head lacks the marker
                    present[head] = True
            keep[row] = False
        else:
            head = row
    return dataclasses.replace(
        s, duration=np.array(duration),
        continuous={key: (np.array(present), np.array(column))
                    for key, (present, column) in continuous.items()},
    ).take(keep)


def assign_windows(raw: SessionColumns, config: WindowConfig,
                   epoch_iso: str | None = None, epoch_weekday: int = 0) -> Dataset:
    """Window a raw session stream into labeled user histories.

    Keeps users with at least one session starting in the activity window,
    stores their observation-window sessions, and labels each user returning
    or censored from the prediction window.
    """
    late = raw.start_time > config.horizon_end
    if late.any():
        row = int(np.argmax(late))
        raise ValidationError(
            f"session for user {raw.user_ids[raw.user[row]]!r} at day "
            f"{float(raw.start_time[row])} starts after horizon_end {config.horizon_end}"
        )
    ids = sorted(raw.user_ids)
    rank = np.argsort(sorted(range(len(ids)), key=raw.user_ids.__getitem__))  # code -> id order
    user = rank[raw.user]
    step = np.diff(user)
    if np.all((step > 0) | ((step == 0) & (np.diff(raw.start_time) >= 0))):
        s = _merge_overlaps(raw, user)  # already in order, as user-major files are
    else:
        order = np.lexsort((raw.start_time, user))  # stable: equal starts keep file order
        s = _merge_overlaps(raw.take(order), user[order])
    user = rank[s.user]

    obs = s.start_time <= config.prediction_start
    # a user returns at the session after their last observation-window one
    returns = np.append((user[1:] == user[:-1]) & ~obs[1:], False)
    return_start = np.where(returns, np.append(s.start_time[1:], 0.0), np.nan)
    s, user, return_start = s.take(obs), user[obs], return_start[obs]
    heads = np.diff(user, prepend=-1) != 0
    offsets = np.append(np.flatnonzero(heads), len(s))
    last = offsets[1:] - 1
    last_end = np.minimum(s.end_time[last], config.prediction_start)
    returning = ~np.isnan(return_start[last])
    final_gap = np.where(returning, return_start[last] - last_end, config.horizon_end - last_end)
    observed = Dataset(
        dataclasses.replace(s, user_ids=[ids[r] for r in user[heads].tolist()],
                            user=np.cumsum(heads) - 1),
        offsets, final_gap, ~returning, last_end, config, epoch_iso, epoch_weekday,
    )
    return observed.subset(np.flatnonzero(s.start_time[last] >= config.activity_start))


def stratified_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split users into train/test with matched censored ratios."""
    if not (0 < test_fraction < 1):
        raise ValidationError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for stratum in (np.flatnonzero(~dataset.is_censored), np.flatnonzero(dataset.is_censored)):
        if len(stratum) < 2:
            raise DataError(
                "stratified_split needs at least 2 users in each of the "
                f"returning/censored strata, got {len(stratum)}"
            )
        n_test = int(round(len(stratum) * test_fraction))
        n_test = min(max(n_test, 1), len(stratum) - 1)
        order = rng.permutation(len(stratum))
        test.append(stratum[order[:n_test]])
        train.append(stratum[order[n_test:]])
    return (dataset.subset(np.sort(np.concatenate(train))),
            dataset.subset(np.sort(np.concatenate(test))))


def _parse_ts(value: str) -> dt.datetime:
    ts = dt.datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=dt.timezone.utc)
    return ts.astimezone(dt.timezone.utc)


class SessionsRead(tuple):
    """read_sessions_jsonl's (sessions, epoch_iso, epoch_weekday) triple.

    ``sha256`` is the hex digest of the sessions file's bytes.
    """

    sha256: str

    def __new__(cls, sessions: SessionColumns, epoch_iso: str, epoch_weekday: int,
                sha256: str) -> "SessionsRead":
        read = super().__new__(cls, (sessions, epoch_iso, epoch_weekday))
        read.sha256 = sha256
        return read


def read_sessions_jsonl(path: str | Path) -> SessionsRead:
    """Load the JSON-lines ingestion format.

    One session per line with fields user_id (string), start_ts (ISO-8601),
    duration_s (number), markers (object; string values become discrete
    markers, numeric values continuous ones). The epoch is midnight UTC of
    the earliest start_ts so time-of-day and weekday derivations stay aligned.
    Returns (sessions as SessionColumns in file order, epoch_iso,
    epoch_weekday), with the sha256 of the file's bytes as ``.sha256``; a
    malformed record, or a negative or non-finite duration, raises
    ValidationError naming path:lineno; a file that cannot be read, such as
    a missing one or a directory, raises DataModelMismatchError.

    The parse is cached beside the file as ``<name>.parsed.npz``, keyed by
    the sha256 of the file's bytes and CACHE_FORMAT_VERSION. The file is
    hashed on every read; a cache that is missing, stale, unreadable, or
    whose content fails its checksum or the duration check is ignored and
    rewritten, and one that cannot be written is skipped.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataModelMismatchError(
            f"cannot read sessions file {path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    cache = path.with_name(path.name + CACHE_SUFFIX)
    columns = _load_cache(cache, digest)
    if columns is None:
        columns = _parse_jsonl(path, raw, digest)
        _write_cache(cache, *columns)
    header, arrays = columns
    sessions = SessionColumns(
        header["user_ids"], arrays["user"], arrays["start_time"], arrays["duration"],
        {key: (values, arrays[f"discrete_present_{i}"], arrays[f"discrete_value_{i}"])
         for i, (key, values) in enumerate(header["discrete"])},
        {key: (arrays[f"continuous_present_{i}"], arrays[f"continuous_value_{i}"])
         for i, key in enumerate(header["continuous"])},
    )
    return SessionsRead(sessions, header["epoch_iso"], header["epoch_weekday"], digest)


def _parse_jsonl(path: Path, raw: bytes, digest: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode the JSON lines into _ColumnBuilder's header and columns.

    Lines split like a text-mode file (\\n, \\r\\n or \\r).
    """
    columns = _ColumnBuilder()
    stamps: list[dt.datetime] = []
    linenos: list[int] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            rec = json.loads(text)
            ts = _parse_ts(rec["start_ts"])
            user = str(rec["user_id"])
            duration = float(rec.get("duration_s", 0.0)) / SECONDS_PER_DAY
            markers = rec.get("markers") or {}
            columns.add(
                user, duration, [(k, v) for k, v in markers.items() if isinstance(v, str)],
                [(k, float(v)) for k, v in markers.items()
                 if isinstance(v, (int, float)) and not isinstance(v, bool)],
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad session record: {exc}") from exc
        stamps.append(ts)
        linenos.append(lineno)

    if stamps:
        epoch = min(stamps).replace(hour=0, minute=0, second=0, microsecond=0)
    else:
        epoch = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
    header, arrays = columns.build(
        [(ts - epoch).total_seconds() / SECONDS_PER_DAY for ts in stamps])
    header.update(version=CACHE_FORMAT_VERSION, sha256=digest, epoch_iso=epoch.isoformat(),
                  epoch_weekday=epoch.weekday())
    bad = np.flatnonzero(_bad_times(arrays))  # starts count from the earliest: only durations
    if bad.size:
        raise ValidationError(f"{path}:{linenos[bad[0]]}: bad session record: invalid duration "
                              f"{float(arrays['duration'][bad[0]])} days")
    return header, arrays


def _bad_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Mask of the rows whose start_time or duration is negative or not finite."""
    start, duration = arrays["start_time"], arrays["duration"]
    return ~(np.isfinite(start) & (start >= 0) & np.isfinite(duration) & (duration >= 0))


def check_times(s: SessionColumns) -> None:
    """Session's check of every row at once: the first row with a bad
    start_time or duration raises Session's ValidationError."""
    for row in np.flatnonzero(_bad_times(vars(s)))[:1].tolist():
        Session(s.user_ids[s.user[row]], float(s.start_time[row]), float(s.duration[row]))


def _digest(members: dict[str, np.ndarray]) -> np.ndarray:
    """sha256 of each member's name, dtype, shape and bytes, as (32,) uint8."""
    h = hashlib.sha256()
    for name in sorted(members):
        h.update(f"{name} {members[name].dtype.str} {members[name].shape}\n".encode())
        h.update(members[name].tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _load_cache(cache: Path, digest: str) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The cached (header, columns) for a file hashing to digest, else None."""
    try:
        # np.load leaks a file it opened itself when the archive is corrupt
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        if not np.array_equal(arrays.pop("digest"), _digest(arrays)):
            return None
        header = json.loads(arrays.pop("header").tobytes())
        if (header["version"] != CACHE_FORMAT_VERSION or header["sha256"] != digest
                or _bad_times(arrays).any()):
            return None
    except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, TypeError,
            ValueError, zipfile.BadZipFile):  # NotImplementedError, RuntimeError: zip flags
        return None
    return header, arrays


def _write_cache(cache: Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the cache to a temp file beside it, then rename it into place.

    An OSError, such as a read-only directory, leaves no file and only skips
    the cache.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=cache.name + ".", suffix=".tmp")
        members = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                   **arrays}
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, digest=_digest(members), **members)
        os.replace(tmp, cache)
    except OSError as exc:
        logger.info("sessions cache %s not written: %s", cache, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def write_sessions_jsonl(path: str | Path, sessions: SessionColumns, epoch_iso: str) -> None:
    """Write sessions in the ingestion format, timestamps relative to epoch_iso:
    per row, json.dumps(record, sort_keys=True) of its record, in which a key
    both discrete and continuous on the row takes the continuous value."""
    epoch = _parse_ts(epoch_iso)
    users = [json.dumps(u) for u in sessions.user_ids]
    fields = [[None] * len(sessions)]  # per marker key and row '"key": value', or None
    for key in sorted(set(sessions.discrete) | set(sessions.continuous)):
        name, column = json.dumps(key), np.full(len(sessions), None, dtype=object)
        if key in sessions.discrete:
            values, present, codes = sessions.discrete[key]
            encoded = np.array([f"{name}: {json.dumps(v)}" for v in values], dtype=object)
            column[present] = encoded[codes[present]]
        if key in sessions.continuous:
            present, values = sessions.continuous[key]
            column[present] = [f"{name}: {_json_float(x)}" for x in values[present].tolist()]
        fields.append(column.tolist())
    markers = (", ".join(filter(None, row)) for row in zip(*fields))
    with Path(path).open("w") as fh:
        fh.writelines(
            f'{{"duration_s": {_json_float(duration)}, "markers": {{{marker}}}, '
            f'"start_ts": "{(epoch + dt.timedelta(days=start)).isoformat()}", '
            f'"user_id": {users[user]}}}\n'
            for user, start, duration, marker in zip(
                sessions.user.tolist(), sessions.start_time.tolist(),
                (sessions.duration * SECONDS_PER_DAY).tolist(), markers)
        )


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def resolve_window_days(window_cfg: dict, epoch_iso: str | None) -> WindowConfig:
    """Build a WindowConfig from day offsets or ISO dates (needs the epoch)."""
    day_keys = ("activity_start", "prediction_start", "horizon_end")
    date_keys = ("activity_start_date", "prediction_start_date", "horizon_end_date")
    if all(k in window_cfg for k in day_keys):
        return WindowConfig(*(float(window_cfg[k]) for k in day_keys))
    if all(k in window_cfg for k in date_keys):
        if epoch_iso is None:
            raise ValidationError("date-based window config requires a dataset epoch")
        epoch = _parse_ts(epoch_iso)
        days = [
            (_parse_ts(str(window_cfg[k])) - epoch).total_seconds() / SECONDS_PER_DAY
            for k in date_keys
        ]
        return WindowConfig(*days)
    raise ValidationError(
        "window config must carry activity_start/prediction_start/horizon_end "
        "either as day offsets or as *_date ISO strings"
    )
