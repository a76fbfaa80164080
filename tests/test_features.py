import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from returntime import experiment
from returntime.cli import main
from returntime.config import load_config
from returntime.data import Session, WindowConfig, assign_windows, stratified_split
from returntime.errors import ValidationError
from returntime.synth import GeneratorConfig, generate

from oracles import (
    assign_windows_objects,
    build_aggregates_objects,
    build_sequences_objects,
    count_active_days,
    read_sessions_plain,
    session_columns,
)
from returntime.features import (
    FeatureConfig,
    Standardization,
    build_aggregates,
    build_sequences,
    pad_batch,
    select_embedding_dims,
)

WINDOW = WindowConfig(activity_start=1.0, prediction_start=10.0, horizon_end=30.0)


def s(user, start, duration=0.0, device="mobile", pages=2.0):
    return Session(
        user_id=user, start_time=start, duration=duration,
        discrete_markers={"device": device},
        continuous_markers={"pages_viewed": pages},
    )


def small_dataset():
    raw = [
        s("a", 0.2), s("a", 2.5), s("a", 4.1),        # censored, 3 active days
        s("b", 3.3), s("b", 3.5), s("b", 8.0), s("b", 12.0),  # returns at 12
        s("c", 6.0, device="tablet"),                  # single session, censored
    ]
    return assign_windows(session_columns(raw), WINDOW)


class TestAggregates:
    def test_example_user(self):
        raw = [s("a", 0.0), s("a", 2.0), s("a", 4.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        agg = build_aggregates(ds)
        row = dict(zip(agg.feature_names, agg.X[0]))
        assert row["session_count"] == 3.0
        assert row["mean_gap"] == 2.0
        assert row["absence_time"] == 6.0
        assert row["observation_span"] == 4.0
        assert row["missing_gap_flag"] == 0.0

    def test_single_session_user_flagged(self):
        ds = assign_windows(session_columns([s("c", 6.0)]), WINDOW)
        agg = build_aggregates(ds)
        row = dict(zip(agg.feature_names, agg.X[0]))
        assert row["mean_gap"] == 0.0
        assert row["std_gap"] == 0.0
        assert row["missing_gap_flag"] == 1.0

    def test_zscore_moments(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(500, 4))
        std = Standardization.fit(X)
        Z = std.apply(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_left_at_zero(self):
        X = np.hstack([np.ones((10, 1)), np.arange(10.0)[:, None]])
        std = Standardization.fit(X)
        Z = std.apply(X)
        assert np.all(Z[:, 0] == 0.0)

    def test_marker_universe_can_be_pinned(self):
        ds = small_dataset()
        agg = build_aggregates(ds, continuous_markers=["pages_viewed", "videos"])
        assert "mean_videos" in agg.feature_names
        assert np.all(agg.X[:, agg.feature_names.index("mean_videos")] == 0.0)


@st.composite
def long_histories(draw):
    """Users with 1 to 300 sessions each, across numpy's 8- and 128-element
    pairwise-summation blocks, some missing the pages marker."""
    counts = draw(st.lists(st.integers(1, 300) | st.sampled_from([1, 2, 3, 8, 9, 128, 129]),
                           min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = []
    for u, n in enumerate(counts):
        starts = np.sort(rng.uniform(0.0, 9.99, size=n))
        starts[-1] = rng.uniform(1.0, 9.99)  # in the activity window
        starts.sort()
        for start, duration, pages in zip(starts.tolist(), rng.exponential(1e-4, n).tolist(),
                                          rng.lognormal(1.0, 1.0, n).tolist()):
            markers = {"pages_viewed": pages} if pages > 1.0 or not raw else {}
            raw.append(Session(f"u{u}", start, duration, {}, markers))
    return raw


class TestAggregatesAgainstPerUserCalls:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(long_histories())
    def test_each_mean_and_std_equals_the_per_user_call(self, raw):
        ds = assign_windows(session_columns(raw), WINDOW)
        agg = build_aggregates(ds)
        gaps, offsets = ds.gaps, ds.offsets.tolist()
        columns = [ds.sessions.duration, ds.sessions.continuous["pages_viewed"][1]]
        want = np.zeros((len(ds), 4))
        for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
            if b - a >= 2:
                want[i, 0] = gaps[a:b - 1].mean()
            if b - a >= 3:
                want[i, 1] = gaps[a:b - 1].std()
            for j, column in enumerate(columns):
                want[i, 2 + j] = column[a:b].mean()
        assert agg.feature_names[2:6] == ["mean_gap", "std_gap", "mean_duration",
                                          "mean_pages_viewed"]
        assert_bitwise_equal(agg.X[:, 2:6], want)


def rows_of(seqs, i):
    """User i's (disc, cont, targets) rows of a sequence table."""
    a, b = seqs.offsets[i], seqs.offsets[i + 1]
    return seqs.disc[a:b], seqs.cont[a:b], seqs.targets[a:b]


class TestSequences:
    def test_truncation_to_most_recent_days(self):
        raw = [s("u", float(d) + 0.3) for d in range(70)] + [s("u", 75.0)]
        window = WindowConfig(activity_start=1.0, prediction_start=72.0, horizon_end=100.0)
        ds = assign_windows(session_columns(raw), window)
        seqs, stats = build_sequences(ds, FeatureConfig(max_steps=64))
        assert seqs.lengths.tolist() == [64]
        assert ds.active_day_counts.tolist() == [70]
        # elapsed input of the first retained step keeps the real gap
        raw_elapsed = seqs.cont[0, 0] * stats.std[0] + stats.mean[0]
        assert raw_elapsed == pytest.approx(1.0)

    def test_single_active_day_has_zero_elapsed(self):
        ds = assign_windows(session_columns([s("c", 6.0)]), WINDOW)
        seqs, stats = build_sequences(ds, FeatureConfig(max_steps=8))
        assert seqs.lengths.tolist() == [1]
        raw_elapsed = seqs.cont[0, 0] * stats.std[0] + stats.mean[0]
        assert raw_elapsed == pytest.approx(0.0)
        assert seqs.targets[0] == pytest.approx(30.0 - 6.0)

    def test_same_day_sessions_grouped(self):
        ds = assign_windows(session_columns([s("b", 3.3), s("b", 3.5), s("b", 8.0)]), WINDOW)
        seqs, stats = build_sequences(ds, FeatureConfig(max_steps=8))
        assert seqs.lengths.tolist() == [2]
        idx = stats.cont_channels.index("session_count")
        raw_count = seqs.cont[0, idx] * stats.std[idx] + stats.mean[idx]
        assert raw_count == pytest.approx(2.0)

    def test_targets_are_day_gaps_then_final_gap(self):
        ds = assign_windows(session_columns([s("b", 3.3), s("b", 8.0), s("b", 12.0)]), WINDOW)
        seqs, _ = build_sequences(ds, FeatureConfig(max_steps=8))
        assert len(seqs) == 1
        assert seqs.targets[0] == pytest.approx(5.0)  # day 3 -> day 8
        assert seqs.targets[-1] == pytest.approx(12.0 - 8.0)
        assert not seqs.censored[0]

    def test_unknown_category_maps_to_reserved_slot(self):
        train = small_dataset()
        _, stats = build_sequences(train, FeatureConfig(max_steps=8))
        test_ds = assign_windows(session_columns([s("z", 5.0, device="smartwatch")]), WINDOW)
        seqs, _ = build_sequences(test_ds, stats=stats)
        assert len(seqs) == 1
        device_col = stats.discrete_features.index("device")
        card = stats.cardinalities[device_col]
        assert seqs.disc[0, device_col] == card
        assert seqs.disc[0, device_col] < card + 1

    def test_all_indices_within_cardinality_plus_unknown(self):
        ds = small_dataset()
        seqs, stats = build_sequences(ds, FeatureConfig(max_steps=8))
        cards = np.asarray(stats.cardinalities)
        assert np.all(seqs.disc < cards + 1)
        assert np.all(seqs.disc >= 0)

    def test_test_mode_does_not_mutate_stats(self):
        train = small_dataset()
        _, stats = build_sequences(train, FeatureConfig(max_steps=8))
        frozen = copy.deepcopy(stats.to_dict())
        test_ds = assign_windows(session_columns([s("z", 5.0, pages=99.0)]), WINDOW)
        build_sequences(test_ds, stats=stats)
        assert stats.to_dict() == frozen

    def test_lengths_match_capped_active_days(self):
        ds = small_dataset()
        config = FeatureConfig(max_steps=2)
        seqs, _ = build_sequences(ds, config)
        assert len(seqs) == len(ds)
        for length, user in zip(seqs.lengths.tolist(), ds.users):
            assert length == min(count_active_days(user), 2)

    def test_per_session_mode(self):
        raw = [s("b", 3.3, duration=0.1), s("b", 3.5), s("b", 8.0)]
        ds = assign_windows(session_columns(raw), WINDOW)
        seqs, _ = build_sequences(ds, FeatureConfig(max_steps=8, per_session_steps=True))
        assert seqs.lengths.tolist() == [3]
        assert seqs.targets[0] == pytest.approx(3.5 - 3.4)

    def test_pad_batch_masks(self):
        ds = small_dataset()
        seqs, _ = build_sequences(ds, FeatureConfig(max_steps=8))
        batch = pad_batch(seqs, np.arange(len(seqs)))
        assert batch.disc.shape[0] == len(seqs)
        assert batch.lengths.tolist() == seqs.lengths.tolist()
        assert np.all(batch.targets > 0)


@pytest.fixture(scope="module")
def generated_sequences():
    cfg = GeneratorConfig(user_count=150, seed=13)
    dataset = assign_windows(generate(cfg)[0], cfg.window)
    seqs, stats = build_sequences(dataset, FeatureConfig(max_steps=16))
    return dataset, seqs, stats


class TestSequenceTable:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pad_batch_equals_per_user_padding(self, generated_sequences, data):
        _, seqs, _ = generated_sequences
        users = np.array(data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1,
                                            max_size=70)))
        batch = pad_batch(seqs, users)
        T = int(seqs.lengths[users].max())
        assert batch.disc.shape == (len(users), T, seqs.disc.shape[1])
        assert batch.disc.dtype == np.int64
        for i, u in enumerate(users.tolist()):
            disc, cont, targets = rows_of(seqs, u)
            L = len(targets)
            assert batch.lengths[i] == L and batch.censored[i] == seqs.censored[u]
            assert_bitwise_equal(batch.disc[i, :L], disc)
            assert_bitwise_equal(batch.cont[i, :L], cont)
            assert_bitwise_equal(batch.targets[i, :L], targets)
            assert np.all(batch.disc[i, L:] == 0) and np.all(batch.cont[i, L:] == 0.0)
            assert np.all(batch.targets[i, L:] == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_take_equals_building_on_the_subset(self, generated_sequences, data):
        dataset, seqs, stats = generated_sequences
        users = np.array(sorted(data.draw(st.sets(st.integers(0, len(seqs) - 1), max_size=70))),
                         dtype=np.int64)
        got = seqs.take(users)
        want, _ = build_sequences(dataset.subset(users), stats=stats)
        for name in ("disc", "cont", "targets", "offsets", "censored"):
            assert_bitwise_equal(getattr(got, name), getattr(want, name))

    def test_take_keeps_the_given_order(self, generated_sequences):
        _, seqs, _ = generated_sequences
        users = np.random.default_rng(3).permutation(len(seqs))[:40]
        got = seqs.take(users)
        assert_bitwise_equal(got.censored, seqs.censored[users])
        for i, u in enumerate(users.tolist()):
            for g, w in zip(rows_of(got, i), rows_of(seqs, u)):
                assert_bitwise_equal(g, w)


# ---------------------------------------------------------------------------
# the columnar path against the per-session object path, bit for bit

def assert_bitwise_equal(got, want):
    """Equal shape, dtype and bytes: np.array_equal, and the sign of each zero."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def assert_same_sequences(got, want):
    """Equal censoring flags and offsets, and each user's rows bit for bit."""
    assert_bitwise_equal(got.censored, want.censored)
    assert_bitwise_equal(got.offsets, want.offsets)
    assert got.disc.dtype == np.int64
    for i in range(len(want)):
        for g, w in zip(rows_of(got, i), rows_of(want, i)):
            assert_bitwise_equal(g, w)


def assert_matches_object_path(train, test, train_users, test_users):
    """Sequences in both step modes, fitted on train and applied to test,
    and aggregates, equal to the object path's on the same users."""
    window, weekday = train.window, train.epoch_weekday
    for per_session in (False, True):
        config = FeatureConfig(max_steps=8 if per_session else 64, per_session_steps=per_session)
        seqs, stats = build_sequences(train, config)
        want, want_stats = build_sequences_objects(train_users, weekday, config)
        assert stats.to_dict() == want_stats.to_dict()
        assert_bitwise_equal(stats.mean, want_stats.mean)
        assert_bitwise_equal(stats.std, want_stats.std)
        assert_same_sequences(seqs, want)
        seqs, _ = build_sequences(test, stats=stats)
        assert_same_sequences(seqs, build_sequences_objects(test_users, weekday, stats=stats)[0])
    agg = build_aggregates(train)
    X, names = build_aggregates_objects(train_users, window)
    assert (agg.feature_names, agg.user_ids) == (names, [u.user_id for u in train_users])
    assert_bitwise_equal(agg.X, X)
    pinned = build_aggregates(test, continuous_markers=agg.continuous_markers + ["absent"])
    X, _ = build_aggregates_objects(test_users, window, agg.continuous_markers + ["absent"])
    assert_bitwise_equal(pinned.X, X)


PROPERTY_WINDOW = WindowConfig(activity_start=10.0, prediction_start=20.0, horizon_end=30.0)


@st.composite
def session_streams(draw):
    """Sessions of a few users with duplicate and overlapping starts, sessions
    straddling prediction_start, same-day bursts, and missing markers."""
    users = st.sampled_from(["a", "b", "None", "c\x00"])
    starts = st.one_of(st.sampled_from([5.25, 5.5, 12.0, 19.9, 20.0, 20.5]),
                       st.floats(0.0, 30.0))
    durations = st.one_of(st.sampled_from([-0.0, 0.0, 0.01, 0.3, 2.0]), st.floats(0.0, 3.0))
    devices = st.sampled_from(["mobile", "tablet", "None", "smartwatch", None])
    values = st.one_of(st.none(), st.sampled_from([-0.0, 0.0, 0.1, 1e-17]),
                       st.floats(-5.0, 5.0))

    def session(user, start):
        device, pages, videos = draw(devices), draw(values), draw(values)
        return Session(
            user, start, min(draw(durations), 30.0 - start),
            {} if device is None else {"device": device},
            {k: v for k, v in (("pages", pages), ("videos", videos)) if v is not None},
        )

    sessions = [session(draw(users), draw(starts)) for _ in range(draw(st.integers(0, 25)))]
    for _ in range(draw(st.integers(0, 2))):  # a burst of nine or more on one day
        user, day = draw(users), draw(st.sampled_from([10, 12, 19]))
        fractions = draw(st.lists(st.floats(0.0, 0.99), min_size=9, max_size=14))
        sessions += [session(user, day + f) for f in fractions]
    return draw(st.permutations(sessions))


class TestObjectPathOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session_streams(), session_streams(), st.integers(0, 6))
    def test_random_streams_match_object_path(self, raw, other, weekday):
        dataset = assign_windows(session_columns(raw), PROPERTY_WINDOW, epoch_weekday=weekday)
        users = assign_windows_objects(raw, PROPERTY_WINDOW)
        assert dataset.users == users
        test = assign_windows(session_columns(other), PROPERTY_WINDOW, epoch_weekday=weekday)
        test_users = assign_windows_objects(other, PROPERTY_WINDOW)
        assert test.users == test_users
        if users and test_users:
            assert_matches_object_path(dataset, test, users, test_users)

    def test_default_data_matches_object_path(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "data"
            assert main(["generate", "--out", str(out), "--seed", "7"]) == 0
            data = experiment.load_and_split(load_config([str(out / "run_config.json")]))
            sessions, _, _ = read_sessions_plain(out / "sessions.jsonl")
        users = assign_windows_objects(sessions, data.dataset.window)
        assert data.dataset.users == users
        by_id = {u.user_id: u for u in users}
        train_users = tuple(by_id[i] for i in data.train.user_ids)
        test_users = tuple(by_id[i] for i in data.test.user_ids)
        assert data.train.users == train_users and data.test.users == test_users
        assert_matches_object_path(data.train, data.test, train_users, test_users)


class TestEmbeddingDimSelection:
    def test_rank_one_matrix_needs_one_dim(self):
        u = np.array([1.0, -1.0, 2.0, -2.0])
        u -= u.mean()
        v = np.array([0.6, 0.8, 0.0])
        emb = 3.0 * np.outer(u / np.linalg.norm(u), v)
        assert select_embedding_dims(emb, 0.9) == 1

    def test_isotropic_needs_all_dims(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(2000, 4))
        assert select_embedding_dims(emb, 0.9) == 4

    def test_zero_matrix_degenerates_to_one(self):
        assert select_embedding_dims(np.zeros((5, 3)), 0.9) == 1

    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            select_embedding_dims(np.eye(3), 1.5)
