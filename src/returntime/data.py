"""Sessions, time windows, censoring labels, return-time targets, and dataset splitting.

Time is measured in days (float) since a dataset epoch, which a Dataset
keeps as its ISO string (epoch_weekday derives from it). The observation
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
import functools
import hashlib
import json
import logging
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import parallel
from .errors import DataError, DataModelMismatchError, ValidationError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
CACHE_SUFFIX = ".parsed.npz"  # the parse cache of <sessions file> is <sessions file>.parsed.npz
CACHE_FORMAT_VERSION = 5  # bump when the cache layout or the parse result changes
_BYTES_PER_WORKER = 4 << 20  # a parse block holds at least this many bytes of the file
_ROWS_PER_WORKER = 20_000  # a write block holds at least this many sessions
_UNIX_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_MICROSECOND = dt.timedelta(microseconds=1)
_NUMBERS = (int, float)  # the types a JSON number decodes to; a JSON bool is neither


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

    def __len__(self) -> int:
        return len(self.final_gap)

    @property
    def epoch_weekday(self) -> int:
        """The epoch's weekday in UTC, Monday 0; 0 when there is no epoch."""
        return 0 if self.epoch_iso is None else _parse_ts(self.epoch_iso).weekday()

    @property
    def user_ids(self) -> list[str]:
        return self.sessions.user_ids

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
                       self.last_session_end[users], self.window, self.epoch_iso)


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
                   epoch_iso: str | None = None) -> Dataset:
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
        offsets, final_gap, ~returning, last_end, config, epoch_iso,
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


def read_sessions_jsonl(path: str | Path) -> tuple[SessionColumns, str, str]:
    """Load the JSON-lines ingestion format.

    One session per line with fields user_id (string), start_ts (ISO-8601),
    duration_s (number), markers (object; string values become discrete
    markers, numeric values continuous ones). The epoch is midnight UTC of
    the earliest start_ts so time-of-day and weekday derivations stay aligned.
    Returns (sessions as SessionColumns in file order, epoch_iso, the sha256
    of the file's bytes); a malformed record, or a negative or non-finite
    duration, raises ValidationError naming path:lineno; a file that cannot
    be read, such as a missing one or a directory, raises
    DataModelMismatchError.

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
        _write_cache(cache, path, *columns)
    header, arrays = columns
    sessions = SessionColumns(
        header["user_ids"], arrays["user"], arrays["start_time"], arrays["duration"],
        {key: (values, arrays[f"discrete_present_{i}"], arrays[f"discrete_value_{i}"])
         for i, (key, values) in enumerate(header["discrete"])},
        {key: (arrays[f"continuous_present_{i}"], arrays[f"continuous_value_{i}"])
         for i, key in enumerate(header["continuous"])},
    )
    return sessions, header["epoch_iso"], digest


def _parse_jsonl(path: Path, raw: bytes, digest: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode the JSON lines into the cache's header and columns.

    Lines split like a text-mode file (\\n, \\r\\n or \\r). Blocks of at least
    _BYTES_PER_WORKER bytes, cut right after a \\n, are parsed on every
    usable CPU (parallel.map_blocks), then merged by _merge_blocks.
    """
    blocks = parallel.map_blocks(functools.partial(_parse_block, path, raw), len(raw),
                                 _BYTES_PER_WORKER)
    bad = next((b.bad_duration for b in blocks if b.bad_duration is not None), None)
    if bad is not None:
        raise ValidationError(
            f"{path}:{bad[0]}: bad session record: invalid duration {bad[1]} days")
    return _merge_blocks(path, blocks, digest)


def _merge_blocks(path: Path, blocks: list[_ParsedBlock],
                  digest: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The cache's header and columns of the blocks' records laid end to end,
    for the file at path, hashing to digest. User ids, marker keys and each
    key's discrete values are listed in sorted order, only those some row
    uses, and every block's codes are mapped onto those lists, so the cache
    does not depend on how the records are cut into blocks or coded in them;
    start_time counts from the epoch, midnight UTC of the earliest start.
    Starts that span 2^53 microseconds (about 285 years) or more from the
    epoch raise ValidationError: start_time would not be exact to the
    microsecond."""
    micros = np.concatenate([b.micros for b in blocks])
    epoch = _UNIX_EPOCH
    if micros.size:
        epoch += int(micros.min()) * _MICROSECOND
        epoch = epoch.replace(hour=0, minute=0, second=0, microsecond=0)
    base = (epoch - _UNIX_EPOCH) // _MICROSECOND
    since = micros - base
    span = int(since.max(initial=0))
    if span >= 2 ** 53:
        raise ValidationError(f"{path}: session starts span {span} microseconds from "
                              f"{epoch.isoformat()}, 2^53 or more (about 285 years)")

    user_ids, user = _sorted_codes([b.user_ids for b in blocks], [b.user for b in blocks])
    header = {
        "user_ids": user_ids, "discrete": [], "continuous": [],
        "version": CACHE_FORMAT_VERSION, "sha256": digest, "epoch_iso": epoch.isoformat(),
    }
    arrays = {
        "user": user,
        # exact below 2^53, so the division rounds once, as
        # timedelta.total_seconds does
        "start_time": since.astype(float) / 1e6 / SECONDS_PER_DAY,
        "duration": np.concatenate([b.duration for b in blocks]),
    }
    firsts = np.cumsum([0] + [len(b.duration) for b in blocks]).tolist()  # then the row count
    for kind in ("discrete", "continuous"):
        markers = [getattr(b, kind) for b in blocks]
        for i, key in enumerate(sorted(set().union(*markers))):
            # an entry ends in (rows, codes) for a discrete key, (rows, values) for a continuous one
            entries = [(m[key], first) for m, first in zip(markers, firsts) if key in m]
            if kind == "discrete":
                names, values = _sorted_codes([e[0] for e, _ in entries],
                                              [e[-1] for e, _ in entries])
                header[kind].append([key, names])
            else:
                values = np.concatenate([e[-1] for e, _ in entries])
                header[kind].append(key)
            rows = np.concatenate([e[-2] + first for e, first in entries])
            present = arrays[f"{kind}_present_{i}"] = np.zeros(firsts[-1], dtype=bool)
            column = arrays[f"{kind}_value_{i}"] = np.zeros(firsts[-1], dtype=values.dtype)
            present[rows] = True  # zero where the marker is absent
            column[rows] = values
    return header, arrays


def _sorted_codes(names: list[list], codes: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The names that some code uses, names[i][c] for code c of codes[i], in
    sorted order, and every code laid end to end as its name's position
    among them."""
    used = [np.unique(c).tolist() for c in codes]
    ordered = sorted({n[c] for n, cs in zip(names, used) for c in cs})
    position = {name: i for i, name in enumerate(ordered)}
    recoded = []
    for n, c, cs in zip(names, codes, used):
        lookup = np.zeros(len(n), dtype=np.int64)
        lookup[cs] = [position[n[code]] for code in cs]
        recoded.append(lookup[c])
    return ordered, np.concatenate(recoded)


@dataclass(frozen=True, eq=False)
class _ParsedBlock:
    """The records of a block of lines, parsed (_parse_block) or derived from
    the columns written (_parsed_rows). ``user`` holds codes into user_ids;
    each marker key maps to the rows that carry it and their codes into the
    key's values (discrete) or their values (continuous). The codes and the
    order of the lists are the block's own: _merge_blocks sorts them."""

    user_ids: list[str]
    user: np.ndarray  # int64
    micros: np.ndarray  # int64 start, in microseconds since the Unix epoch
    duration: np.ndarray  # days
    discrete: dict[str, tuple[list, np.ndarray, np.ndarray]]  # key -> (values, rows, codes)
    continuous: dict[str, tuple[np.ndarray, np.ndarray]]  # key -> (rows, values)
    bad_duration: tuple[int, float] | None  # line and days of the first negative or non-finite


def _line_start(raw: bytes, at: int) -> int:
    """The first offset from `at` on where a line starts after a \\n: 0
    for 0, else one past a \\n, or len(raw)."""
    return 0 if at == 0 else raw.find(b"\n", at - 1) + 1 or len(raw)


def _parse_block(path: Path, raw: bytes, lo: int, hi: int) -> _ParsedBlock:
    """Parse the lines of raw that start in [lo, hi) after a \\n, or at 0.

    A malformed record raises ValidationError naming path:line; a negative
    or non-finite duration is only recorded, as a malformed record anywhere
    in the file takes precedence.
    """
    start, end = _line_start(raw, lo), _line_start(raw, hi)
    # the lines before the block: one per \n or \r, less one per \r\n
    first = (1 + raw.count(b"\n", 0, start) + raw.count(b"\r", 0, start)
             - raw.count(b"\r\n", 0, start))
    scan_once = json.JSONDecoder().scan_once
    user_codes: dict[str, int] = {}
    users: list[int] = []
    micros: list[int] = []
    durations: list[float] = []
    discrete: dict[str, tuple[dict, list[int], list[int]]] = {}
    continuous: dict[str, tuple[list[int], list[float]]] = {}
    bad_duration = None
    for lineno, line in enumerate(raw[start:end].splitlines(), start=first):
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                rec, stop = scan_once(text, 0)
            except StopIteration:
                stop = None
            if stop != len(text):
                rec = json.loads(text)  # raises the error json.loads gives the line
            ts = _parse_ts(rec["start_ts"])
            user = str(rec["user_id"])
            duration = rec.get("duration_s", 0.0)
            if type(duration) not in _NUMBERS:
                raise TypeError(f"duration_s must be a number, got {duration!r}")
            duration = float(duration) / SECONDS_PER_DAY
            row = len(durations)
            for key, value in (rec.get("markers") or {}).items():
                if type(value) is str:
                    entry = discrete.get(key)
                    if entry is None:
                        entry = discrete[key] = ({}, [], [])
                    entry[1].append(row)
                    entry[2].append(entry[0].setdefault(value, len(entry[0])))
                elif type(value) in _NUMBERS:
                    entry = continuous.get(key)
                    if entry is None:
                        entry = continuous[key] = ([], [])
                    entry[0].append(row)
                    entry[1].append(float(value))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad session record: {exc}") from exc
        users.append(user_codes.setdefault(user, len(user_codes)))
        micros.append((ts - _UNIX_EPOCH) // _MICROSECOND)
        durations.append(duration)
        if bad_duration is None and not 0.0 <= duration < math.inf:
            bad_duration = (lineno, duration)
    return _ParsedBlock(
        list(user_codes), np.array(users, dtype=np.int64), np.array(micros, dtype=np.int64),
        np.array(durations, dtype=float),
        {key: (list(codes), np.array(rows, dtype=np.int64), np.array(values, dtype=np.int64))
         for key, (codes, rows, values) in discrete.items()},
        {key: (np.array(rows, dtype=np.int64), np.array(values, dtype=float))
         for key, (rows, values) in continuous.items()},
        bad_duration,
    )


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


def _write_cache(cache: Path, source: Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the cache to a temp file beside it, then rename it into place
    with the read and write permissions of the sessions file, source.

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
        os.chmod(tmp, os.stat(source).st_mode & 0o666)  # mkstemp's 0600 hides it from others
        os.replace(tmp, cache)
    except OSError as exc:
        logger.info("sessions cache %s not written: %s", cache, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def write_sessions_jsonl(path: str | Path, sessions: SessionColumns, epoch_iso: str) -> None:
    """Write sessions in the ingestion format, timestamps relative to epoch_iso:
    per row, json.dumps(record, sort_keys=True) of its record, in which a key
    both discrete and continuous on the row takes the continuous value.

    Blocks of at least _ROWS_PER_WORKER rows are formatted on every usable
    CPU (parallel.map_blocks). This process writes the first block's lines
    as it formats them, then the text of the others.

    The parse cache of a regular file is written too, from the columns:
    the one a first read_sessions_jsonl would parse and write, so that read
    decodes no JSON. Where _parsed_rows cannot derive a block exactly, no
    cache is written and the first read parses the file."""
    path = Path(path)
    epoch = _parse_ts(epoch_iso)
    with path.open("w") as fh:

        def block(lo: int, hi: int) -> tuple[str, _ParsedBlock | None]:
            lines, parsed = _format_rows(sessions.take(slice(lo, hi)), epoch)
            if lo == 0:  # map_blocks runs the first block in this process
                fh.writelines(lines)
                return "", parsed
            return "".join(lines), parsed

        blocks = parallel.map_blocks(block, len(sessions), _ROWS_PER_WORKER)
        fh.writelines(text for text, _ in blocks)
    if all(parsed is not None for _, parsed in blocks) and path.is_file():
        digest = hashlib.sha256()
        try:
            with path.open("rb") as fh:  # in chunks: the whole file would add its size to peak RSS
                for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
                    digest.update(chunk)
        except OSError as exc:
            logger.info("sessions cache of %s not written: %s", path, exc)
            return
        _write_cache(path.with_name(path.name + CACHE_SUFFIX), path,
                     *_merge_blocks(path, [parsed for _, parsed in blocks], digest.hexdigest()))


def _format_rows(sessions: SessionColumns,
                 epoch: dt.datetime) -> tuple[Iterator[str], _ParsedBlock | None]:
    """write_sessions_jsonl's lines of the sessions, and what _parse_block
    makes of them (_parsed_rows)."""
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
    stamps = [epoch + dt.timedelta(days=start) for start in sessions.start_time.tolist()]
    seconds = sessions.duration * SECONDS_PER_DAY
    lines = (
        f'{{"duration_s": {_json_float(duration)}, "markers": {{{marker}}}, '
        f'"start_ts": "{stamp.isoformat()}", "user_id": {users[user]}}}\n'
        for user, stamp, duration, marker in zip(
            sessions.user.tolist(), stamps, seconds.tolist(), markers)
    )
    micros = np.array([(stamp - _UNIX_EPOCH) // _MICROSECOND for stamp in stamps],
                      dtype=np.int64)
    return lines, _parsed_rows(sessions, micros, seconds)


def _parsed_rows(sessions: SessionColumns, micros: np.ndarray,
                 seconds: np.ndarray) -> _ParsedBlock | None:
    """What _parse_block makes of _format_rows's lines of the sessions, given
    each row's start in microseconds since the Unix epoch and duration_s,
    with the columns' own codes. None where that is not exact by
    construction: a user id, marker key or discrete value written that is
    not a str, a continuous value or duration_s that is not a finite
    float64, or a duration the parse rejects."""
    if seconds.dtype != np.float64:
        return None
    duration = seconds / SECONDS_PER_DAY  # as the parse divides duration_s
    if not np.all((duration >= 0) & (duration < math.inf)):
        return None
    if not all(type(key) is str for key in (*sessions.discrete, *sessions.continuous)):
        return None

    def str_names(names: list, codes: np.ndarray) -> bool:
        return all(type(names[c]) is str for c in np.unique(codes).tolist())

    if not str_names(sessions.user_ids, sessions.user):
        return None
    continuous = {}
    for key, (present, column) in sessions.continuous.items():
        rows = np.flatnonzero(present)
        if column.dtype != np.float64 or not np.isfinite(column[rows]).all():
            return None
        if len(rows):
            continuous[key] = (rows, column[rows])
    discrete = {}
    for key, (names, present, codes) in sessions.discrete.items():
        if key in sessions.continuous:  # where the row has both, the continuous value is written
            present = present & ~sessions.continuous[key][0]
        rows = np.flatnonzero(present)
        if not str_names(names, codes[rows]):
            return None
        if len(rows):
            discrete[key] = (names, rows, codes[rows])
    return _ParsedBlock(sessions.user_ids, sessions.user, micros, duration, discrete,
                        continuous, None)


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
