"""Sessions, time windows, censoring labels, return-time targets, and dataset splitting.

Time is measured in days (float) since a dataset epoch. The observation
window is [0, prediction_start], the activity window [activity_start,
prediction_start], and the prediction window (prediction_start, horizon_end].
A user is censored when they have no session in the prediction window; their
final gap is then only known to exceed horizon_end minus their last session
end.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import gc
import hashlib
import json
import logging
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ValidationError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
CACHE_SUFFIX = ".parsed.npz"  # the parse cache of <sessions file> is <sessions file>.parsed.npz
CACHE_FORMAT_VERSION = 1  # bump when the cache layout or the parse result changes


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

    @property
    def prediction_length(self) -> float:
        return self.horizon_end - self.prediction_start

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

    @property
    def last_session_start(self) -> float:
        return self.sessions[-1].start_time

    @property
    def first_session_start(self) -> float:
        return self.sessions[0].start_time


@dataclass(frozen=True)
class Dataset:
    """A windowed collection of user histories."""

    users: tuple[UserHistory, ...]
    window: WindowConfig
    epoch_iso: str | None = None
    epoch_weekday: int = 0

    def __len__(self) -> int:
        return len(self.users)

    @property
    def returning(self) -> tuple[UserHistory, ...]:
        return tuple(u for u in self.users if not u.is_censored)

    @property
    def censored(self) -> tuple[UserHistory, ...]:
        return tuple(u for u in self.users if u.is_censored)

    @property
    def censored_fraction(self) -> float:
        if not self.users:
            return 0.0
        return len(self.censored) / len(self.users)

    def absence_time(self, user: UserHistory) -> float:
        return self.window.prediction_start - user.last_session_end

    def horizon_gap(self, user: UserHistory) -> float:
        return self.window.horizon_end - user.last_session_end

    def to_raw_sessions(self) -> list[Session]:
        """Reconstruct a raw session stream that rebuilds this dataset.

        Returning users get one synthetic prediction-window session at their
        observed return time; only its start matters to assign_windows.
        """
        raw: list[Session] = []
        for user in self.users:
            raw.extend(user.sessions)
            if not user.is_censored:
                raw.append(
                    Session(
                        user_id=user.user_id,
                        start_time=user.last_session_end + user.final_gap,
                    )
                )
        return raw


def compute_return_targets(sessions: Sequence[Session]) -> list[float]:
    """Gaps between consecutive sessions: next start minus previous end."""
    if not sessions:
        raise ValidationError("compute_return_targets requires at least one session")
    targets: list[float] = []
    for prev, nxt in zip(sessions, sessions[1:]):
        if nxt.start_time <= prev.start_time:
            raise ValidationError(
                f"user {prev.user_id!r}: session times not strictly increasing "
                f"({prev.start_time} then {nxt.start_time})"
            )
        gap = nxt.start_time - prev.end_time
        if gap <= 0:
            raise ValidationError(
                f"user {prev.user_id!r}: session starting at {nxt.start_time} "
                f"overlaps previous session ending at {prev.end_time}"
            )
        targets.append(gap)
    return targets


def _merge_user_sessions(sessions: list[Session]) -> list[Session]:
    """Sort by start and merge duplicates/overlaps so gaps stay positive.

    Duplicate start times and sessions that begin before the previous one
    ends collapse into a single session: continuous markers are summed and
    the first session's discrete markers kept.
    """
    ordered = sorted(sessions, key=lambda s: s.start_time)
    merged: list[Session] = []
    for s in ordered:
        if merged and s.start_time <= merged[-1].end_time:
            prev = merged[-1]
            cont = dict(prev.continuous_markers)
            for k, v in s.continuous_markers.items():
                cont[k] = cont.get(k, 0.0) + v
            merged[-1] = Session(
                user_id=prev.user_id,
                start_time=prev.start_time,
                duration=max(prev.end_time, s.end_time) - prev.start_time,
                discrete_markers=prev.discrete_markers,
                continuous_markers=cont,
            )
        else:
            merged.append(s)
    return merged


def assign_windows(raw_sessions: Iterable[Session], config: WindowConfig,
                   epoch_iso: str | None = None, epoch_weekday: int = 0) -> Dataset:
    """Window a raw session stream into labeled user histories.

    Keeps users with at least one session starting in the activity window,
    stores their observation-window sessions, and labels each user returning
    or censored from the prediction window.
    """
    by_user: dict[str, list[Session]] = {}
    for s in raw_sessions:
        if s.start_time > config.horizon_end:
            raise ValidationError(
                f"session for user {s.user_id!r} at day {s.start_time} starts "
                f"after horizon_end {config.horizon_end}"
            )
        by_user.setdefault(s.user_id, []).append(s)

    users: list[UserHistory] = []
    for user_id in sorted(by_user):
        sessions = _merge_user_sessions(by_user[user_id])
        obs = [s for s in sessions if s.start_time <= config.prediction_start]
        post = [s for s in sessions if s.start_time > config.prediction_start]
        if not obs:
            continue
        active = any(
            config.activity_start <= s.start_time <= config.prediction_start
            for s in obs
        )
        if not active:
            continue
        last_end = min(obs[-1].end_time, config.prediction_start)
        if post:
            final_gap = post[0].start_time - last_end
            is_censored = False
        else:
            final_gap = config.horizon_end - last_end
            is_censored = True
        users.append(
            UserHistory(
                user_id=user_id,
                sessions=tuple(obs),
                return_targets=tuple(compute_return_targets(obs)),
                final_gap=final_gap,
                is_censored=is_censored,
                last_session_end=last_end,
            )
        )
    return Dataset(
        users=tuple(users),
        window=config,
        epoch_iso=epoch_iso,
        epoch_weekday=epoch_weekday,
    )


def stratified_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split users into train/test with matched censored ratios."""
    if not (0 < test_fraction < 1):
        raise ValidationError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_users: list[UserHistory] = []
    test_users: list[UserHistory] = []
    for stratum in (dataset.returning, dataset.censored):
        if len(stratum) < 2:
            raise DataError(
                "stratified_split needs at least 2 users in each of the "
                f"returning/censored strata, got {len(stratum)}"
            )
        n_test = int(round(len(stratum) * test_fraction))
        n_test = min(max(n_test, 1), len(stratum) - 1)
        order = rng.permutation(len(stratum))
        test_users.extend(stratum[i] for i in order[:n_test])
        train_users.extend(stratum[i] for i in order[n_test:])
    train_users.sort(key=lambda u: u.user_id)
    test_users.sort(key=lambda u: u.user_id)
    make = lambda users: Dataset(
        users=tuple(users),
        window=dataset.window,
        epoch_iso=dataset.epoch_iso,
        epoch_weekday=dataset.epoch_weekday,
    )
    return make(train_users), make(test_users)


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

    def __new__(cls, sessions: list[Session], epoch_iso: str, epoch_weekday: int,
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
    Returns (sessions, epoch_iso, epoch_weekday), with the sha256 of the
    file's bytes as ``.sha256``; a malformed record raises ValidationError
    naming path:lineno.

    The parse is cached beside the file as ``<name>.parsed.npz``, keyed by
    the sha256 of the file's bytes and CACHE_FORMAT_VERSION. The file is
    hashed on every read; a cache that is missing, stale or unreadable is
    ignored and rewritten, and one that cannot be written is skipped.
    """
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    cache = path.with_name(path.name + CACHE_SUFFIX)
    with _gc_paused():
        columns = _load_cache(cache, digest)
        parsed = columns is None
        if parsed:
            columns = _parse_jsonl(path, raw, digest)
        header, arrays = columns
        sessions = _sessions_from_columns(header, arrays)  # validates every session
    if parsed:
        _write_cache(cache, header, arrays)
    return SessionsRead(sessions, header["epoch_iso"], header["epoch_weekday"], digest)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    Reading a sessions file allocates a few hundred thousand dicts and
    Session objects, none of them in a reference cycle. With the collector
    on, each 700 allocations start a collection that finds nothing; in a
    process holding a large heap those passes took up to 40% of a cache hit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_jsonl(path: Path, raw: bytes, digest: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode the JSON lines into a header of strings and (rows,) columns.

    Lines split like a text-mode file (\\n, \\r\\n or \\r). Each marker
    key gets a presence mask and a value column per kind: codes into the
    header's value list for discrete markers, floats for continuous ones.
    """
    user_codes: dict[str, int] = {}
    users: list[int] = []
    stamps: list[dt.datetime] = []
    durations: list[float] = []
    discrete: dict[str, tuple[dict[str, int], list[int], list[int]]] = {}
    continuous: dict[str, tuple[list[int], list[float]]] = {}
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
            row = len(stamps)
            for key, value in markers.items():
                if isinstance(value, str):
                    codes, rows, values = discrete.setdefault(key, ({}, [], []))
                    rows.append(row)
                    values.append(codes.setdefault(value, len(codes)))
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    rows, values = continuous.setdefault(key, ([], []))
                    values.append(float(value))
                    rows.append(row)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad session record: {exc}") from exc
        users.append(user_codes.setdefault(user, len(user_codes)))
        stamps.append(ts)
        durations.append(duration)

    if stamps:
        epoch = min(stamps).replace(hour=0, minute=0, second=0, microsecond=0)
    else:
        epoch = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
    header = {
        "version": CACHE_FORMAT_VERSION,
        "sha256": digest,
        "epoch_iso": epoch.isoformat(),
        "epoch_weekday": epoch.weekday(),
        "user_ids": list(user_codes),
        "discrete": [[key, list(codes)] for key, (codes, _, _) in discrete.items()],
        "continuous": list(continuous),
    }
    arrays = {
        "user": np.array(users, dtype=np.int64),
        "start_time": np.array(
            [(ts - epoch).total_seconds() / SECONDS_PER_DAY for ts in stamps], dtype=float
        ),
        "duration": np.array(durations, dtype=float),
    }
    n = len(stamps)
    for i, (_, rows, codes) in enumerate(discrete.values()):
        arrays[f"discrete_present_{i}"], arrays[f"discrete_value_{i}"] = _marker_column(
            n, rows, np.array(codes, dtype=np.int64))
    for i, (rows, values) in enumerate(continuous.values()):
        arrays[f"continuous_present_{i}"], arrays[f"continuous_value_{i}"] = _marker_column(
            n, rows, np.array(values, dtype=float))
    return header, arrays


def _marker_column(n: int, rows: list[int], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n,) presence mask and (n,) values, zero where the marker is absent."""
    present = np.zeros(n, dtype=bool)
    present[rows] = True
    full = np.zeros(n, dtype=values.dtype)
    full[rows] = values
    return present, full


def _sessions_from_columns(header: dict, arrays: dict[str, np.ndarray]) -> list[Session]:
    """Sessions in file order from a header and columns of _parse_jsonl."""
    n = len(arrays["start_time"])
    discrete: list[dict] = [{} for _ in range(n)]
    continuous: list[dict] = [{} for _ in range(n)]
    for i, (key, values) in enumerate(header["discrete"]):
        present = arrays[f"discrete_present_{i}"]
        codes = arrays[f"discrete_value_{i}"][present].tolist()
        for row, code in zip(np.flatnonzero(present).tolist(), codes):
            discrete[row][key] = values[code]
    for i, key in enumerate(header["continuous"]):
        present = arrays[f"continuous_present_{i}"]
        values = arrays[f"continuous_value_{i}"][present].tolist()
        for row, value in zip(np.flatnonzero(present).tolist(), values):
            continuous[row][key] = value
    user_ids = header["user_ids"]
    return [
        Session(user_ids[user], start, duration, disc, cont)
        for user, start, duration, disc, cont in zip(
            arrays["user"].tolist(), arrays["start_time"].tolist(),
            arrays["duration"].tolist(), discrete, continuous,
        )
    ]


def _column_spec(header: dict) -> dict[str, tuple[str, int | None]]:
    """Expected columns: name -> (dtype kind, exclusive bound on codes or None)."""
    spec = {"user": ("i", len(header["user_ids"])), "start_time": ("f", None),
            "duration": ("f", None)}
    for i, (_, values) in enumerate(header["discrete"]):
        spec[f"discrete_present_{i}"] = ("b", None)
        spec[f"discrete_value_{i}"] = ("i", len(values))
    for i, _ in enumerate(header["continuous"]):
        spec[f"continuous_present_{i}"] = ("b", None)
        spec[f"continuous_value_{i}"] = ("f", None)
    return spec


def _load_cache(cache: Path, digest: str) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The cached (header, columns) for a file hashing to digest, else None."""
    try:
        with np.load(cache, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        header = json.loads(arrays.pop("header").tobytes())
        if header["version"] != CACHE_FORMAT_VERSION or header["sha256"] != digest:
            return None
        spec = _column_spec(header)
        if set(arrays) != set(spec):
            return None
        rows = (len(arrays["start_time"]),)
        for name, (kind, bound) in spec.items():
            column = arrays[name]
            if column.dtype.kind != kind or column.shape != rows:
                return None
            if bound is not None and column.size and not 0 <= column.min() <= column.max() < bound:
                return None
    except (EOFError, KeyError, OSError, TypeError, ValueError, zipfile.BadZipFile):
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
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                     **arrays)
        os.replace(tmp, cache)
    except OSError as exc:
        logger.info("sessions cache %s not written: %s", cache, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def write_sessions_jsonl(path: str | Path, sessions: Sequence[Session], epoch_iso: str) -> None:
    """Write sessions in the ingestion format, timestamps relative to epoch_iso."""
    epoch = _parse_ts(epoch_iso)
    path = Path(path)
    with path.open("w") as fh:
        for s in sessions:
            ts = epoch + dt.timedelta(days=s.start_time)
            markers: dict = {}
            markers.update(s.discrete_markers)
            markers.update(s.continuous_markers)
            fh.write(
                json.dumps(
                    {
                        "user_id": s.user_id,
                        "start_ts": ts.isoformat(),
                        "duration_s": s.duration * SECONDS_PER_DAY,
                        "markers": markers,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


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
