import datetime as dt
import json
import math
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from returntime import data
from returntime.data import (
    CACHE_FORMAT_VERSION,
    CACHE_SUFFIX,
    Dataset,
    Session,
    WindowConfig,
    assign_windows,
    read_sessions_jsonl,
    stratified_split,
    write_sessions_jsonl,
)
from returntime.errors import DataError, ValidationError

from oracles import (
    as_plain,
    cache_members,
    cached_read,
    cold_read_equals_cached,
    compute_return_targets,
    read_sessions_plain,
    session_columns,
    to_raw_sessions,
)

WINDOW = WindowConfig(activity_start=30.0, prediction_start=100.0, horizon_end=160.0)


def s(user, start, duration=0.0, **markers):
    return Session(user_id=user, start_time=start, duration=duration,
                   continuous_markers=markers)


class TestWindowConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            WindowConfig(activity_start=100.0, prediction_start=30.0, horizon_end=160.0)
        with pytest.raises(ValidationError):
            WindowConfig(activity_start=0.0, prediction_start=30.0, horizon_end=160.0)


class TestAssignWindows:
    def test_returning_user_final_gap_from_session_end(self):
        raw = [s("a", 10.0), s("a", 50.0, duration=0.5), s("a", 110.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        (user,) = ds.users
        assert not user.is_censored
        assert user.final_gap == pytest.approx(110.0 - 50.5)
        assert len(user.sessions) == 2  # prediction-window session not stored

    def test_censored_user_gap_to_horizon(self):
        raw = [s("a", 10.0), s("a", 90.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        (user,) = ds.users
        assert user.is_censored
        assert user.final_gap == pytest.approx(160.0 - 90.0)

    def test_user_without_activity_window_session_excluded(self):
        raw = [s("a", 5.0), s("a", 25.0)]
        assert len(assign_windows(session_columns(raw), WINDOW)) == 0

    def test_empty_input_is_empty_dataset(self):
        ds = assign_windows(session_columns([]), WINDOW)
        assert len(ds) == 0

    def test_session_after_horizon_rejected_naming_user(self):
        with pytest.raises(ValidationError, match="a"):
            assign_windows(session_columns([s("a", 50.0), s("a", 170.0)]), WINDOW)

    def test_duplicate_timestamps_merged(self):
        raw = [
            Session("a", 50.0, 0.01, {"device": "mobile"}, {"pages": 3.0}),
            Session("a", 50.0, 0.02, {"device": "tablet"}, {"pages": 5.0}),
        ]
        ds = assign_windows(session_columns(raw), WINDOW)
        (user,) = ds.users
        (merged,) = user.sessions
        assert merged.continuous_markers["pages"] == 8.0
        assert merged.discrete_markers["device"] == "mobile"
        assert merged.duration == pytest.approx(0.02)

    def test_overlapping_sessions_merged(self):
        raw = [s("a", 50.0, duration=2.0), s("a", 51.0, duration=0.5), s("a", 60.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        (user,) = ds.users
        assert len(user.sessions) == 2
        assert user.return_targets == (60.0 - 52.0,)

    def test_session_straddling_prediction_start_clamped(self):
        raw = [s("a", 99.5, duration=2.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        (user,) = ds.users
        assert user.last_session_end == 100.0
        assert user.final_gap == pytest.approx(60.0)

    def test_censoring_flag_matches_raw_rescan(self):
        rng = np.random.default_rng(1)
        raw = []
        for i in range(60):
            t = 0.0
            while True:
                t += rng.exponential(25.0)
                if t > 160.0:
                    break
                raw.append(s(f"u{i:03d}", t))
        ds = assign_windows(session_columns(raw), WINDOW)
        by_user = {}
        for sess in raw:
            by_user.setdefault(sess.user_id, []).append(sess.start_time)
        for user in ds.users:
            has_return = any(100.0 < t <= 160.0 for t in by_user[user.user_id])
            assert user.is_censored == (not has_return)
            if user.is_censored and user.last_session_end <= 100.0:
                assert user.final_gap >= 60.0

    def test_idempotent_on_reconstructed_raw_sessions(self):
        rng = np.random.default_rng(2)
        raw = []
        for i in range(40):
            t = rng.uniform(0, 40)
            while t <= 160.0:
                raw.append(s(f"u{i:03d}", t, duration=rng.uniform(0, 0.05)))
                t += rng.exponential(30.0)
        ds = assign_windows(session_columns(raw), WINDOW)
        rebuilt = assign_windows(session_columns(to_raw_sessions(ds.users)), WINDOW)
        assert rebuilt.users == ds.users


def dataset_columns(ds):
    """Every column of a Dataset, with discrete markers decoded to values, so
    datasets read from differently ordered files compare bit for bit."""
    s = ds.sessions
    columns = {"offsets": ds.offsets, "final_gap": ds.final_gap, "is_censored": ds.is_censored,
               "last_session_end": ds.last_session_end, "user": s.user,
               "start_time": s.start_time, "duration": s.duration}
    for key, (values, present, codes) in s.discrete.items():
        columns[f"{key}.present"] = present
        columns[f"{key}.values"] = np.array([str(values[c]) for c in codes[present].tolist()])
    for key, (present, column) in s.continuous.items():
        columns[f"{key}.present"], columns[f"{key}.column"] = present, column
    return (s.user_ids, ds.window, ds.epoch_iso, ds.epoch_weekday), {
        name: (a.dtype.str, a.shape, a.tobytes()) for name, a in columns.items()}


@st.composite
def shuffled_sessions(draw):
    """Sessions of a few users in any order, with equal starts within a user
    (which merge, keeping the first's markers) and sessions outside the
    windows."""
    users = st.sampled_from(["a", "b", "b2", "c"])
    starts = st.one_of(st.sampled_from([10.0, 29.5, 30.0, 64.25, 100.0, 120.0]),
                       st.floats(0.0, 160.0))
    sessions = []
    for _ in range(draw(st.integers(0, 40))):
        start = draw(starts)
        duration = draw(st.sampled_from([0.0, 0.01, 0.5]))
        device = draw(st.sampled_from(["mobile", "tablet", None]))
        pages = draw(st.one_of(st.none(), st.floats(0.0, 9.0)))
        sessions.append(Session(draw(users), start, min(duration, 160.0 - start),
                                {} if device is None else {"device": device},
                                {} if pages is None else {"pages": pages}))
    return draw(st.permutations(sessions))


class TestWindowsFromAnyOrder:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_sessions())
    def test_user_major_time_ordered_and_shuffled_rows_agree(self, raw):
        # sorts are stable, so sessions with equal (user, start) keep their order
        user_major = sorted(raw, key=lambda x: (x.user_id, x.start_time))
        time_ordered = sorted(raw, key=lambda x: x.start_time)
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("re-sorted")):
            want = dataset_columns(assign_windows(session_columns(user_major), WINDOW))
        assert dataset_columns(assign_windows(session_columns(time_ordered), WINDOW)) == want
        assert dataset_columns(assign_windows(session_columns(raw), WINDOW)) == want


class TestReturnTargets:
    def test_gap_measured_from_session_end(self):
        sessions = [s("a", 0.0, duration=1.0), s("a", 3.0, duration=0.5)]
        assert compute_return_targets(sessions) == [2.0]

    def test_single_session_empty(self):
        assert compute_return_targets([s("a", 0.0)]) == []

    def test_three_sessions(self):
        sessions = [s("a", 0.0), s("a", 2.0), s("a", 7.0)]
        assert compute_return_targets(sessions) == [2.0, 5.0]

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError):
            compute_return_targets([s("a", 5.0), s("a", 2.0)])


def _dataset_with(n_returning, n_censored):
    raw = []
    for i in range(n_returning):
        raw += [s(f"r{i:03d}", 50.0), s(f"r{i:03d}", 120.0)]
    for i in range(n_censored):
        raw += [s(f"c{i:03d}", 50.0)]
    return assign_windows(session_columns(raw), WINDOW)


class TestStratifiedSplit:
    def test_exact_stratification(self):
        ds = _dataset_with(60, 40)
        train, test = stratified_split(ds, 0.2, seed=0)
        assert len([u for u in test.users if not u.is_censored]) == 12
        assert len([u for u in test.users if u.is_censored]) == 8
        assert len(train) == 80

    def test_deterministic(self):
        ds = _dataset_with(30, 20)
        a = stratified_split(ds, 0.25, seed=42)
        b = stratified_split(ds, 0.25, seed=42)
        assert [u.user_id for u in a[0].users] == [u.user_id for u in b[0].users]
        assert [u.user_id for u in a[1].users] == [u.user_id for u in b[1].users]

    def test_ratio_gap_below_one_user(self):
        ds = _dataset_with(53, 29)
        train, test = stratified_split(ds, 0.3, seed=7)
        gap = abs(train.is_censored.mean() - test.is_censored.mean())
        assert gap < max(1 / len(train), 1 / len(test))

    def test_small_stratum_rejected(self):
        ds = _dataset_with(10, 1)
        with pytest.raises(DataError):
            stratified_split(ds, 0.2, seed=0)

    def test_partition_is_disjoint_and_complete(self):
        ds = _dataset_with(12, 9)
        train, test = stratified_split(ds, 0.4, seed=3)
        ids = sorted(u.user_id for u in train.users) + sorted(u.user_id for u in test.users)
        assert sorted(ids) == sorted(u.user_id for u in ds.users)


# ---------------------------------------------------------------------------
# timedelta arithmetic by columns

MICROSECOND = dt.timedelta(microseconds=1)
# 86,400,000,000 = 2**13 * 10,546,875, so for odd j the fraction j / 2**14
# of a day is 10,546,875 * j / 2 microseconds: an exact half
HALF_MICROSECOND_DAYS = st.builds(
    lambda whole, j, sign: sign * (whole + (2 * j + 1) / 2**14),
    st.integers(0, 3 * 10**6), st.integers(0, 2**13 - 1), st.sampled_from([1.0, -1.0]))
TIMEDELTA_DAYS = st.one_of(
    st.floats(0.0, 3e6),
    st.builds(lambda whole, off: whole + off, st.integers(0, 3 * 10**6), st.floats(-1e-6, 1e-6)),
    HALF_MICROSECOND_DAYS,
    st.floats(-1e-9, 1e-9),
    st.floats(-9.99e6, 9.99e6),
)


class TestTimedeltaMicros:
    @settings(max_examples=500, deadline=None)
    @given(days=st.lists(TIMEDELTA_DAYS, min_size=1, max_size=20))
    def test_is_cpythons_timedelta(self, days):
        expected = [dt.timedelta(days=x) // MICROSECOND for x in days]
        assert data.timedelta_micros(np.array(days)).tolist() == expected

    # j / 2**14 days for odd j truncates to 10,546,875 * (j - 1) / 2 + 5,273,437
    # microseconds, odd for j = 1, 5, ... and even for j = 3, 7, ...
    @pytest.mark.parametrize("days", [
        *((2 * j + 1) / 2**14 for j in range(4)), 1.0 + 1 / 2**14, 7.0 + 3 / 2**14,
        -(1.0 + 1 / 2**14), -(2.0 + 3 / 2**14)])
    def test_half_microsecond_ties_round_to_even(self, days):
        assert abs(np.modf(np.modf(days)[0] * 86400e6)[0]) == 0.5
        assert data.timedelta_micros(np.array([days])).tolist() == [
            dt.timedelta(days=days) // MICROSECOND]

    @pytest.mark.parametrize("days", [5e-324, -5e-324, 0.5 / 86400e6, 1.5 / 86400e6,
                                      -0.5 / 86400e6, 1e-300, 0.0, -0.0])
    def test_tiny_offsets(self, days):
        assert data.timedelta_micros(np.array([days])).tolist() == [
            dt.timedelta(days=days) // MICROSECOND]

    @settings(max_examples=300, deadline=None)
    @given(days=st.lists(st.one_of(
        # from 2020-01-01, datetime.max is 2,914,635 days less one microsecond away
        st.floats(2914634.99, 2914635.01),
        st.builds(lambda k: 2914635.0 - k / 86400e6, st.integers(-3, 3)),
        # whole microseconds around the last and first second of datetime
        st.builds(lambda k: k / 86400e6, st.integers(-1_000_010, 1_000_010)),
        st.floats(allow_nan=True), st.floats(-1e8, 1e8)), min_size=1, max_size=10),
        epoch_iso=st.sampled_from(["2020-01-01T00:00:00", "2020-01-01T00:00:00+00:00",
                                   "2020-01-01T00:00:00+02:00", "0001-01-02T05:00:00",
                                   "9999-12-31T23:59:59+02:00", "0001-01-01T00:00:01"]))
    @example(days=[999_999 / 86400e6, 1e6 / 86400e6], epoch_iso="9999-12-31T23:59:59+02:00")
    @example(days=[-1e6 / 86400e6, -1_000_001 / 86400e6], epoch_iso="0001-01-01T00:00:01")
    def test_offset_exists_where_the_datetime_sum_does(self, days, epoch_iso):
        epoch = dt.datetime.fromisoformat(epoch_iso)
        micros, exists = data.offset_micros(epoch, np.array(days))
        for x, got, ok in zip(days, micros.tolist(), exists.tolist()):
            try:
                stamp = (epoch + dt.timedelta(days=x)).replace(tzinfo=None)
            except (OverflowError, ValueError):
                assert not ok
            else:
                assert ok and got == (stamp - dt.datetime(1970, 1, 1)) // MICROSECOND


class TestJsonlRoundTrip:
    def test_round_trip_preserves_times(self, tmp_path):
        # earliest session on day 0 keeps the reader's midnight-based epoch
        # aligned with the writer's
        sessions = [
            Session("a", 0.25, 0.01, {"device": "mobile"}, {"pages_viewed": 4.0}),
            Session("a", 50.5, 0.02, {"device": "tablet"}, {"pages_viewed": 1.0}),
            Session("b", 99.9, 0.0, {}, {}),
        ]
        path = tmp_path / "sessions.jsonl"
        write_sessions_jsonl(path, session_columns(sessions), "2020-01-01T00:00:00+00:00")
        loaded, epoch_iso, _ = cold_read_equals_cached(path)
        assert epoch_iso.startswith("2020-01-01")
        assert [x.user_id for x in loaded] == ["a", "a", "b"]
        for orig, back in zip(sessions, loaded):
            assert back.start_time == pytest.approx(orig.start_time, abs=2e-11)
            assert back.duration == pytest.approx(orig.duration, abs=2e-11)
            assert back.discrete_markers == orig.discrete_markers
            assert back.continuous_markers == orig.continuous_markers

    @pytest.mark.parametrize("epoch_iso, weekday", [
        (None, 0), ("2020-01-01T00:00:00+00:00", 2), ("1970-01-01T00:00:00+00:00", 3),
        ("2020-01-01T23:00:00-05:00", 3), ("2020-01-02T01:00:00+02:00", 2),
    ])
    def test_epoch_weekday_is_the_epochs_weekday_in_utc(self, epoch_iso, weekday):
        ds = assign_windows(session_columns([s("a", 50.0)]), WINDOW, epoch_iso)
        assert ds.epoch_weekday == weekday
        assert ds.subset(np.arange(1)).epoch_weekday == weekday

    def test_starts_spanning_2_pow_53_microseconds_leave_no_cache(self, tmp_path):
        sessions = session_columns([Session("a", 0.5, 0.01, {}, {}),
                                    Session("b", 110000.0, 0.01, {}, {})])  # about 301 years
        path = tmp_path / "sessions.jsonl"
        with pytest.raises(ValidationError, match=r"2\^53 or more"):
            write_sessions_jsonl(path, sessions, "2000-01-01T00:00:00+00:00")
        assert not cache_of(path).exists()

    def test_identical_writes_are_byte_identical(self, tmp_path):
        sessions = session_columns(
            [Session("a", 1.2345, 0.01, {"device": "mobile"}, {"pages_viewed": 2.0})])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sessions_jsonl(p1, sessions, "2020-01-01T00:00:00+00:00")
        write_sessions_jsonl(p2, sessions, "2020-01-01T00:00:00+00:00")
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# the parse cache beside a sessions file

def cache_of(path):
    return Path(str(path) + CACHE_SUFFIX)


def cache_header(path):
    with np.load(cache_of(path)) as npz:
        return json.loads(npz["header"].tobytes())


def write_lines(path, lines):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def record(user, day, duration_s=60.0, **markers):
    ts = dt.datetime(2021, 3, 1, tzinfo=dt.timezone.utc) + dt.timedelta(days=day)
    return json.dumps({"user_id": user, "start_ts": ts.isoformat(),
                       "duration_s": duration_s, "markers": markers})


SAMPLE = [record("a", 0.5, device="mobile", pages=3), record("b", 2.25, pages=1.5),
          record("a", 7.0, device="desktop"), record("c", 9.0)]

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).flatmap(
    lambda t: st.sampled_from([t, t + "\x00", t + " ", t + "\x00 "])
)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                    st.floats(allow_nan=False), texts)
marker_values = st.one_of(scalars, st.lists(scalars, max_size=2),
                          st.dictionaries(texts, scalars, max_size=2))
BASE_TS = dt.datetime(2021, 3, 1, 12, tzinfo=dt.timezone.utc)


@st.composite
def session_records(draw):
    """One JSON line, or a blank one; starts come from a small pool so that
    duplicate and overlapping sessions occur."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "\t"]))
    rec = {
        "user_id": draw(st.one_of(texts, st.integers(-5, 5), finite)),
        "start_ts": draw(st.sampled_from([
            (BASE_TS + dt.timedelta(hours=h)).isoformat() for h in (0, 0, 1, 30, 300)
        ] + ["2021-03-02T08:00:00Z", "2021-03-02T08:00:00.5"])),
    }
    if draw(st.booleans()):
        rec["duration_s"] = draw(st.one_of(st.integers(0, 10**6), st.floats(0, 1e7)))
    markers = draw(st.one_of(st.just("absent"), st.none(),
                             st.dictionaries(texts, marker_values, max_size=4)))
    if markers != "absent":
        rec["markers"] = markers
    return json.dumps(rec, ensure_ascii=draw(st.booleans()))


class TestSessionsCache:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(session_records(), max_size=12))
    def test_hit_equals_miss_equals_plain_parse(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sessions.jsonl"
            write_lines(path, lines)
            plain = read_sessions_plain(path)
            miss = read_sessions_jsonl(path)
            assert cache_of(path).exists()
            hit = cached_read(path)
            assert as_plain(miss) == as_plain(hit) == plain
            assert miss[2] == hit[2] == data.hashlib.sha256(path.read_bytes()).hexdigest()

    def test_edited_file_reparses_and_rewrites_cache(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE)
        first = read_sessions_jsonl(path)
        old_cache = cache_of(path).read_bytes()
        write_lines(path, SAMPLE + [record("b", 3.0, pages=2)])
        second = read_sessions_jsonl(path)
        assert second[2] != first[2]  # the file's sha256
        assert as_plain(second) == read_sessions_plain(path)
        assert len(second[0]) == len(first[0]) + 1
        assert cache_of(path).read_bytes() != old_cache
        assert as_plain(cached_read(path)) == as_plain(second)

    @pytest.mark.parametrize("spoil", [
        lambda cache, other: cache.write_bytes(cache.read_bytes()[:len(cache.read_bytes()) // 2]),
        lambda cache, other: cache.write_bytes(b"not a zip archive"),
        lambda cache, other: rewrite_cache(cache, version=CACHE_FORMAT_VERSION + 1),
        lambda cache, other: cache.write_bytes(other.read_bytes()),
        lambda cache, other: rewrite_cache(cache, start_time=lambda a: a[:-1]),
        lambda cache, other: rewrite_cache(cache, user=lambda a: a + 10),
    ], ids=["truncated", "not-zip", "wrong-version", "wrong-hash", "short-column",
            "code-out-of-range"])
    def test_bad_cache_is_ignored_and_rewritten(self, tmp_path, spoil):
        # the other file has the same layout and user ids but other times
        other = tmp_path / "other.jsonl"
        write_lines(other, [line.replace("2021-03", "2021-04") for line in SAMPLE])
        read_sessions_jsonl(other)
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE)
        read_sessions_jsonl(path)
        spoil(cache_of(path), cache_of(other))
        read = read_sessions_jsonl(path)
        assert as_plain(read) == read_sessions_plain(path)
        with np.load(cache_of(path)) as npz:
            header = json.loads(npz["header"].tobytes())
        assert (header["version"], header["sha256"]) == (CACHE_FORMAT_VERSION, read[2])
        assert as_plain(cached_read(path)) == read_sessions_plain(path)

    @pytest.mark.parametrize("failing", ["mkstemp", "savez", "replace"])
    def test_failed_write_still_returns_the_parse(self, tmp_path, monkeypatch, failing):
        def fail(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        target = {"mkstemp": data.tempfile, "savez": data.np, "replace": data.os}[failing]
        monkeypatch.setattr(target, failing, fail)
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE)
        assert as_plain(read_sessions_jsonl(path)) == read_sessions_plain(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.jsonl"]

    def test_empty_file_reads_empty_through_the_cache(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        path.write_text("\n\n")
        assert as_plain(read_sessions_jsonl(path)) == ([], "1970-01-01T00:00:00+00:00")
        assert as_plain(cached_read(path)) == ([], "1970-01-01T00:00:00+00:00")

    @pytest.mark.parametrize("bad,message", [
        ('{"user_id": "d", "start_ts": 123}', ":5: bad session record"),
        (record("d", 1.0, duration_s=-5.0), "invalid duration"),
        (record("d", 1.0, duration_s="12"), ":5: bad session record: duration_s must be a number"),
        (record("d", 1.0, duration_s=True), ":5: bad session record: duration_s must be a number"),
    ], ids=["parse-error", "invalid-session", "duration-string", "duration-bool"])
    def test_bad_record_leaves_no_cache(self, tmp_path, bad, message):
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE + [bad])
        with pytest.raises(ValidationError, match=message):
            read_sessions_jsonl(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.jsonl"]

    def test_starts_up_to_2_pow_53_microseconds_apart_read_exactly(self, tmp_path):
        # SAMPLE's epoch is 2021-03-01T00:00Z; 2^53 us is about 285 years
        last = dt.datetime(2021, 3, 1, tzinfo=dt.timezone.utc) + dt.timedelta(
            microseconds=2 ** 53 - 1)
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE + [json.dumps({"user_id": "d", "start_ts": last.isoformat()})])
        assert as_plain(read_sessions_jsonl(path)) == read_sessions_plain(path)
        assert as_plain(cached_read(path)) == read_sessions_plain(path)

    def test_starts_2_pow_53_microseconds_apart_exit_2(self, tmp_path):
        last = dt.datetime(2021, 3, 1, tzinfo=dt.timezone.utc) + dt.timedelta(
            microseconds=2 ** 53)
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE + [json.dumps({"user_id": "d", "start_ts": last.isoformat()})])
        with pytest.raises(ValidationError, match=r"sessions.jsonl: session starts span "
                           r"9007199254740992 microseconds .* 2\^53") as info:
            read_sessions_jsonl(path)
        assert info.value.exit_code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.jsonl"]

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o755])
    def test_cache_takes_the_sessions_file_permissions(self, tmp_path, mode):
        path = tmp_path / "sessions.jsonl"
        write_lines(path, SAMPLE)
        path.chmod(mode)
        read_sessions_jsonl(path)
        assert stat.S_IMODE(cache_of(path).stat().st_mode) == mode & 0o666


def cache_contents(path):
    """The cache a parse of path writes: each member's dtype, shape and bytes."""
    cache_of(path).unlink(missing_ok=True)
    read_sessions_jsonl(path)
    return cache_members(path)


def parse_error(path):
    """The ValidationError message of parsing path, which must leave no cache."""
    cache_of(path).unlink(missing_ok=True)
    with pytest.raises(ValidationError) as error:
        read_sessions_jsonl(path)
    assert error.value.exit_code == 2
    assert not cache_of(path).exists()
    return str(error.value)


def cut_first_block(body: bytes, where: str, blocks: int) -> bytes:
    """body after a blank line of spaces long enough that the first of the
    given number of blocks would end where asked: just after a \\r\\n,
    between its \\r and \\n, or inside a line."""
    ends = {
        "after-crlf": lambda raw, at: raw[at - 2:at] == b"\r\n",
        "inside-crlf": lambda raw, at: raw[at - 1:at + 1] == b"\r\n",
        "mid-line": lambda raw, at: not set(raw[at - 1:at + 1]) & set(b"\r\n"),
    }[where]
    return next(raw for raw in (b" " * k + b"\n" + body for k in range(400))
                if ends(raw, len(raw) // blocks))


class TestForkedParse:
    """A parse split into blocks over forked workers gives the in-process parse."""

    @pytest.mark.parametrize("newlines,where,cpus", [
        ("\n", "mid-line", 2), ("\n", "mid-line", 3), ("\r\n", "after-crlf", 2),
        ("\r\n", "inside-crlf", 2), ("\r\n", "mid-line", 3), ("\r", "mid-line", 2),
        (("\n", "\r\n", "\r"), "mid-line", 2), (("\n", "\r\n", "\r"), "after-crlf", 3),
    ], ids=["lf-2", "lf-3", "crlf-after-2", "crlf-inside-2", "crlf-3", "cr-2", "mixed-2",
            "mixed-after-crlf-3"])
    def test_line_endings_and_blank_lines(self, tmp_path, fan_out, newlines, where, cpus):
        lines = SAMPLE + ["", "   ", "\t"] + [record("e", 3.0 + i, kind=str(i % 3))
                                                for i in range(9)]
        if isinstance(newlines, str):
            newlines = (newlines,)
        body = "".join(line + newlines[i % len(newlines)] for i, line in enumerate(lines))
        raw = cut_first_block(body.encode(), where, cpus)
        path = tmp_path / "sessions.jsonl"
        path.write_bytes(raw)
        fan_out(1)
        expected = cache_contents(path)
        worker_blocks = fan_out(cpus)
        assert cache_contents(path) == expected
        assert len(worker_blocks()) == cpus - 1
        assert as_plain(read_sessions_jsonl(path)) == read_sessions_plain(path)

        path.write_bytes(raw + b'{"user_id": "x"}\n')
        fan_out(1)
        expected = parse_error(path)
        assert f":{len(lines) + 2}: bad session record" in expected
        fan_out(cpus)
        assert parse_error(path) == expected

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cache_lists_names_in_sorted_order(self, tmp_path, fan_out, cpus):
        # users, marker keys and device values first appear out of sorted
        # order, and in another order in each block
        path = tmp_path / "sessions.jsonl"
        write_lines(path, [
            record("zed", 3.0, zone="eu", device="tablet", score=2),
            record("amy", 0.5, device="mobile", Plan="pro"),
            record("émile", 1.0, device="desktop", zone="as", pages=4.5),
            record("Bob", 2.0, device="tablet", kind="a"),
            record("10", 1.5, kind=3, zone="eu"),
            record("9", 4.0, device="mobile", Plan="free", pages=1),
        ])
        fan_out(1)
        expected = cache_contents(path)
        header = cache_header(path)
        assert header["user_ids"] == ["10", "9", "Bob", "amy", "zed", "émile"]
        assert header["discrete"] == [["Plan", ["free", "pro"]], ["device", [
            "desktop", "mobile", "tablet"]], ["kind", ["a"]], ["zone", ["as", "eu"]]]
        assert header["continuous"] == ["kind", "pages", "score"]
        worker_blocks = fan_out(cpus)
        assert cache_contents(path) == expected
        assert len(worker_blocks()) == cpus - 1
        assert as_plain(cached_read(path)) == read_sessions_plain(path)

    @pytest.mark.parametrize("case", ["last", "first-and-last", "duration-then-malformed",
                                      "duration-last", "duration-first-and-last"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_first_bad_line_is_reported_as_in_process(self, tmp_path, fan_out, case, cpus):
        lines = SAMPLE * 6
        malformed, negative = '{"user_id": "d", "start_ts": 123}', record("d", 1.0, -5.0)
        lines, lineno = {
            "last": (lines + [malformed], len(lines) + 1),
            "first-and-last": ([malformed] + lines + [malformed], 1),
            # a malformed record anywhere wins over a bad duration
            "duration-then-malformed": ([negative] + lines + [malformed], len(lines) + 2),
            "duration-last": (lines + [negative], len(lines) + 1),
            "duration-first-and-last": ([negative] + lines + [negative], 1),
        }[case]
        path = tmp_path / "sessions.jsonl"
        write_lines(path, lines)
        fan_out(1)
        expected = parse_error(path)
        assert f"{path}:{lineno}: bad session record" in expected
        worker_blocks = fan_out(cpus)
        assert parse_error(path) == expected
        if case != "first-and-last":  # else the workers may be stopped before they log
            assert len(worker_blocks()) == cpus - 1


def rewrite_cache(cache, version=None, header_edit=None, **edits):
    """Rewrite a cache in place with its header version, header or columns edited."""
    with np.load(cache) as npz:
        arrays = {name: npz[name] for name in npz.files}
    header = json.loads(arrays["header"].tobytes())
    if version is not None:
        header["version"] = version
    if header_edit is not None:
        header = header_edit(header)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    for name, edit in edits.items():
        arrays[name] = edit(arrays[name])
    with open(cache, "wb") as fh:
        np.savez(fh, **arrays)


COLUMN_EDITS = {
    "nan": lambda a: np.where(np.arange(a.size) == 0, np.nan, a),
    "negative": lambda a: ~a if a.dtype.kind == "b" else -a - 1,
    "unsorted": lambda a: a[::-1],
    "out-of-range": lambda a: ~a if a.dtype.kind == "b" else a + 10,
    "short": lambda a: a[:-1],
    "float32": lambda a: a.astype(np.float32),
}
member_names = st.sampled_from([
    "user", "start_time", "duration", "discrete_present_0", "discrete_value_0",
    "continuous_present_0", "continuous_value_0", "header", "digest",
])
cache_spoils = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.integers(0, 10**6)),
    st.tuples(st.just("bytes"), st.binary(max_size=64)),
    st.tuples(st.just("other"), st.none()),
    st.tuples(st.just("version"), st.integers(-1, CACHE_FORMAT_VERSION + 2)),
    st.tuples(st.just("user-ids"), st.none()),
    st.tuples(st.sampled_from(sorted(COLUMN_EDITS)), member_names),
)


def spoil_cache(cache, other, spoil):
    kind, arg = spoil
    raw = cache.read_bytes()
    if kind == "truncate":
        cache.write_bytes(raw[:int(len(raw) * arg)])
    elif kind == "flip":
        flipped = bytearray(raw)
        flipped[arg // 8 % len(raw)] ^= 1 << arg % 8
        cache.write_bytes(bytes(flipped))
    elif kind == "bytes":
        cache.write_bytes(arg)
    elif kind == "other":
        cache.write_bytes(other.read_bytes())
    elif kind == "version":
        rewrite_cache(cache, version=arg)
    elif kind == "user-ids":
        rewrite_cache(cache, header_edit=lambda h: {**h, "user_ids": h["user_ids"][::-1]})
    else:
        rewrite_cache(cache, **{arg: COLUMN_EDITS[kind]})


class TestFuzzedCache:
    # the first six are the spoiled caches of TestSessionsCache
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cache_spoils)
    @example(("truncate", 0.5))
    @example(("bytes", b"not a zip archive"))
    @example(("version", CACHE_FORMAT_VERSION + 1))
    @example(("other", None))
    @example(("short", "start_time"))
    @example(("out-of-range", "user"))
    @example(("unsorted", "start_time"))
    @example(("nan", "duration"))
    @example(("negative", "start_time"))
    def test_any_spoiled_cache_reads_as_the_plain_parse(self, spoil):
        with tempfile.TemporaryDirectory() as tmp:
            other = Path(tmp) / "other.jsonl"
            write_lines(other, [line.replace("2021-03", "2021-04") for line in SAMPLE])
            read_sessions_jsonl(other)
            path = Path(tmp) / "sessions.jsonl"
            write_lines(path, SAMPLE)
            read_sessions_jsonl(path)
            spoil_cache(cache_of(path), cache_of(other), spoil)
            plain = read_sessions_plain(path)
            assert as_plain(read_sessions_jsonl(path)) == plain
            assert as_plain(cached_read(path)) == plain


# ---------------------------------------------------------------------------
# the parse cache that write_sessions_jsonl writes

EPOCHS = ["2020-01-01T00:00:00+00:00", "2021-06-30T22:00:00Z", "2019-03-31T01:30:00+02:00"]
MARKER_KEYS = ["device", "plan", "ü key", "z"]
written_values = st.one_of(texts, st.integers(-3, 3), st.floats(allow_nan=False), st.booleans())
continuous_values = st.one_of(finite, st.sampled_from([0.0, -0.0, 2.5, math.inf, -math.inf]))


@st.composite
def columns_to_write(draw):
    """Arbitrary SessionColumns: ids that may repeat, discrete values of any
    JSON scalar type, keys that are discrete and continuous on one row or
    first carried late, and zero durations."""
    n = draw(st.integers(0, 8))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    user_ids = draw(st.lists(texts, min_size=1, max_size=4))
    discrete = {}
    for key in draw(st.lists(st.sampled_from(MARKER_KEYS), unique=True, max_size=3)):
        values = draw(st.lists(written_values, min_size=1, max_size=3))
        discrete[key] = (values, column(st.booleans(), bool),
                         column(st.integers(0, len(values) - 1), np.int64))
    continuous = {key: (column(st.booleans(), bool), column(continuous_values, float))
                  for key in draw(st.lists(st.sampled_from(MARKER_KEYS), unique=True,
                                           max_size=3))}
    sessions = data.SessionColumns(
        user_ids, column(st.integers(0, len(user_ids) - 1), np.int64),
        column(st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 2.5]), st.floats(0.0, 400.0)), float),
        column(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), float), discrete, continuous)
    return sessions, draw(st.sampled_from(EPOCHS))


def exactly_derivable(sessions):
    """Whether every discrete value written is a str and every continuous
    one finite: a key both discrete and continuous on a row is written with
    its continuous value."""
    for key, (values, present, codes) in sessions.discrete.items():
        if key in sessions.continuous:
            present = present & ~sessions.continuous[key][0]
        if not all(type(values[c]) is str for c in codes[present].tolist()):
            return False
    return all(np.isfinite(column[present]).all()
               for present, column in sessions.continuous.values())


def columns(*sessions):
    return session_columns(sessions)


class TestWrittenCache:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(columns_to_write())
    def test_cache_written_reads_as_the_cold_parse(self, case):
        sessions, epoch_iso = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sessions.jsonl"
            write_sessions_jsonl(path, sessions, epoch_iso)
            plain = read_sessions_plain(path)
            assert cache_of(path).exists() == exactly_derivable(sessions)
            if cache_of(path).exists():
                assert as_plain(cold_read_equals_cached(path)) == plain
            else:
                assert as_plain(read_sessions_jsonl(path)) == plain

    @pytest.mark.parametrize("sessions,written", [
        (columns(Session("a", 1.0, 0.0, {"device": 1})), False),
        (columns(Session("a", 1.0, 0.0, {"device": True})), False),
        (columns(Session("a", 1.0, 0.0, {}, {"score": math.inf})), False),
        (data.SessionColumns([5], np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1), {}, {}),
         False),
        (data.SessionColumns(["a"], np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1), {},
                             {"n": (np.ones(1, dtype=bool), np.array([3]))}), False),
        # the int value is not written: the row's continuous value is
        (columns(Session("a", 1.0, 0.0, {"x": 1}, {"x": 2.5})), True),
        (columns(Session("a", 1.0, 0.0, {"x": 1}), Session("a", 2.0, 0.0, {"x": "b"})), False),
    ], ids=["int-discrete", "bool-discrete", "inf-continuous", "int-user-id",
            "int-continuous-column", "int-discrete-under-continuous", "int-discrete-on-one-row"])
    def test_no_cache_unless_exact(self, tmp_path, sessions, written):
        path = tmp_path / "sessions.jsonl"
        write_sessions_jsonl(path, sessions, EPOCHS[0])
        assert cache_of(path).exists() == written
        assert as_plain(read_sessions_jsonl(path)) == read_sessions_plain(path)
        assert cache_of(path).exists()  # where the writer left none, the read wrote it

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unused_and_repeated_names_write_the_cold_parse_cache(self, tmp_path, fan_out,
                                                                   cpus):
        # "unused" and "never" name no row, codes 0 and 3 both name "zed" and
        # "tablet", and row 2 carries "kind" as discrete and continuous
        sessions = data.SessionColumns(
            ["zed", "unused", "amy", "zed"], np.array([0, 2, 3, 2]),
            np.array([3.0, 0.5, 1.0, 2.0]), np.full(4, 0.01),
            {"device": (["tablet", "never", "mobile", "tablet"],
                        np.array([True, True, True, False]), np.array([3, 2, 0, 1])),
             "kind": (["a"], np.array([True, False, True, False]), np.zeros(4, dtype=np.int64))},
            {"kind": (np.array([False, False, True, True]), np.array([0.0, 0.0, 2.5, 1.0]))},
        )
        path = tmp_path / "sessions.jsonl"
        worker_blocks = fan_out(cpus)
        write_sessions_jsonl(path, sessions, EPOCHS[0])
        assert len(worker_blocks()) == cpus - 1
        assert cache_header(path)["user_ids"] == ["amy", "zed"]
        assert cache_header(path)["discrete"] == [["device", ["mobile", "tablet"]],
                                                  ["kind", ["a"]]]
        assert as_plain(cold_read_equals_cached(path)) == read_sessions_plain(path)

    def test_non_str_marker_key_leaves_no_cache(self, tmp_path):
        sessions = data.SessionColumns(["a"], np.zeros(1, dtype=np.int64), np.ones(1),
                                       np.zeros(1), {}, {1: (np.ones(1, dtype=bool), np.ones(1))})
        path = tmp_path / "sessions.jsonl"
        write_sessions_jsonl(path, sessions, EPOCHS[0])
        assert not cache_of(path).exists()
        with pytest.raises(ValidationError, match=":1: bad session record"):
            read_sessions_jsonl(path)

