import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from returntime.errors import DataError, ValidationError
from returntime.metrics import (
    CSV_COLUMNS,
    build_report,
    concordance_index,
    error_breakdowns,
    nonreturning_auc,
    nonreturning_recall,
    read_predictions_csv,
    rmse_returning,
    write_predictions_csv,
)

from oracles import (
    Record,
    auc_brute,
    concordance_brute,
    error_breakdowns_records,
    recall_brute,
    rmse_returning_records,
    table,
)


def rec(uid, pred, true=None, bound=None, horizon=100.0, days=5, last_end=None):
    return Record(
        user_id=uid,
        predicted_return_days=pred,
        true_return_days=true,
        censored_lower_bound_days=bound,
        horizon_gap_days=horizon,
        active_day_count=days,
        last_session_end_days=last_end,
    )


def random_records(rng, n=10):
    records = []
    for i in range(n):
        censored = rng.random() < 0.4
        pred = float(rng.choice([1.0, 2.0, 5.0, 10.0, 50.0, 120.0]))
        horizon = float(rng.uniform(60.0, 140.0))
        if censored:
            records.append(rec(f"u{i}", pred, bound=horizon, horizon=horizon))
        else:
            true = float(rng.choice([0.5, 2.0, 5.0, 9.0, 30.0, 80.0]))
            records.append(rec(f"u{i}", pred, true=true, horizon=horizon))
    return records


@st.composite
def tie_heavy_records(draw):
    """Few distinct observed times and predictions, censored and uncensored
    records mixed at the same times."""
    records = []
    for i in range(draw(st.integers(1, 25))):
        time = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        pred = draw(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 7.5]))
        if draw(st.booleans()):
            records.append(rec(f"u{i}", pred, bound=time))
        else:
            records.append(rec(f"u{i}", pred, true=time))
    return records


def assert_same_table(a, b):
    """Every column equal, bit for bit, with the same dtype."""
    assert list(a.user_ids) == list(b.user_ids)
    for column in ("predicted", "observed", "censored", "horizon_gap", "active_days", "last_end"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), column


@st.composite
def prediction_tables(draw):
    """Tables with non-ASCII (and CSV-quoted) user ids, censored rows and
    unknown (NaN) last session ends."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                        min_size=1, max_size=12, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    records = []
    for user_id in ids:
        gap, censored = draw(finite), draw(st.booleans())
        records.append(Record(
            user_id, draw(finite), None if censored else gap, gap if censored else None,
            draw(finite), draw(st.integers(-2**63, 2**63 - 1)), draw(st.none() | finite),
        ))
    return table(records)


class TestRecordInvariants:
    def test_exactly_one_truth_field(self, tmp_path):
        path = tmp_path / "p.csv"
        for true, bound in (("", ""), ("2.0", "3.0")):
            path.write_text(",".join(CSV_COLUMNS) + f"\nrnnsm,a,1.0,,0,{true},{bound},100.0,5,\n")
            with pytest.raises(ValidationError, match="exactly one"):
                read_predictions_csv(path)

    def test_week_derivation(self):
        b = error_breakdowns(table([
            rec("a", 1.0, true=13.9), rec("b", 1.0, true=14.0), rec("c", 1.0, bound=50.0)]))
        assert b.n_by_week == {1: 1, 2: 1}


class TestRmse:
    def test_perfect_predictions(self):
        records = [rec("a", 3.0, true=3.0), rec("b", 7.0, true=7.0)]
        assert rmse_returning(table(records)) == 0.0

    def test_hand_value(self):
        records = [rec("a", 2.0, true=1.0), rec("b", 2.0, true=3.0)]
        assert rmse_returning(table(records)) == pytest.approx(1.0)

    def test_censored_records_ignored(self):
        records = [rec("a", 2.0, true=1.0), rec("b", 2.0, true=3.0), rec("c", 9.0, bound=50.0)]
        assert rmse_returning(table(records)) == pytest.approx(1.0)

    def test_requires_uncensored(self):
        with pytest.raises(DataError):
            rmse_returning(table([rec("a", 1.0, bound=10.0)]))


class TestConcordance:
    def test_order_preserving_is_one(self):
        records = [rec("a", 10.0, true=1.0), rec("b", 20.0, true=2.0), rec("c", 30.0, true=3.0)]
        assert concordance_index(table(records)) == 1.0

    def test_reversed_is_zero(self):
        records = [rec("a", 30.0, true=1.0), rec("b", 20.0, true=2.0), rec("c", 10.0, true=3.0)]
        assert concordance_index(table(records)) == 0.0

    def test_censored_pair_comparability_hand_case(self):
        # censored bound 3 vs uncensored 5: not comparable; the uncensored 2
        # is comparable with both others
        a = rec("a", 4.0, true=5.0)
        b = rec("b", 9.0, bound=3.0)
        c = rec("c", 1.0, true=2.0)
        # pairs: (c,a) concordant (1<4), (c,b) concordant (1<9)
        assert concordance_index(table([a, b, c])) == 1.0
        # move c's prediction above both: zero concordant
        c_bad = rec("c", 99.0, true=2.0)
        assert concordance_index(table([a, b, c_bad])) == 0.0

    def test_predictions_equal_truths_scores_one(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(12):
            t = float(rng.uniform(1, 50))
            records.append(rec(f"u{i}", t, true=t))
        assert concordance_index(table(records)) == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            records = random_records(rng)
            try:
                fast = concordance_index(table(records))
            except DataError:
                continue
            assert fast == concordance_brute(records)

    @settings(max_examples=200, deadline=None)
    @given(records=tie_heavy_records())
    def test_matches_brute_force_under_heavy_ties(self, records):
        try:
            brute = concordance_brute(records)
        except ZeroDivisionError:
            with pytest.raises(DataError):
                concordance_index(table(records))
            return
        assert concordance_index(table(records)) == brute

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(DataError):
            concordance_index(table([rec("a", 1.0, bound=5.0), rec("b", 2.0, bound=6.0)]))


class TestNonReturningAuc:
    def test_perfect_separation(self):
        records = [rec("a", 200.0, bound=100.0), rec("b", 10.0, true=5.0)]
        assert nonreturning_auc(table(records)) == 1.0

    def test_all_tied_scores_half(self):
        records = [
            rec("a", 100.0, bound=100.0, horizon=100.0),
            rec("b", 100.0, true=5.0, horizon=100.0),
            rec("c", 100.0, true=7.0, horizon=100.0),
        ]
        assert nonreturning_auc(table(records)) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            records = random_records(rng)
            positive = [r.is_censored for r in records]
            if not (any(positive) and not all(positive)):
                continue
            scores = [r.predicted_return_days - r.horizon_gap_days for r in records]
            assert nonreturning_auc(table(records)) == auc_brute(scores, positive)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        records = random_records(rng, n=20)
        base = nonreturning_auc(table(records), score_mode="raw")
        transformed = [
            rec(r.user_id, float(np.exp(r.predicted_return_days / 50.0)),
                true=r.true_return_days, bound=r.censored_lower_bound_days,
                horizon=r.horizon_gap_days)
            for r in records
        ]
        assert nonreturning_auc(table(transformed), score_mode="raw") == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            nonreturning_auc(table([rec("a", 1.0, true=2.0)]))

    def test_nan_scores_terminate(self):
        # tied NaN scores share one rank; a rank walk comparing NaN to itself
        # never left the first NaN
        records = [rec("a", math.nan, bound=100.0), rec("b", math.nan, true=5.0),
                   rec("c", 10.0, true=5.0)]
        assert nonreturning_auc(table(records)) == 0.75


class TestNonReturningRecall:
    def test_baseline_style_predictions_score_zero(self):
        records = [rec("a", 40.0, bound=100.0, horizon=100.0), rec("b", 10.0, true=5.0)]
        assert nonreturning_recall(table(records)) == 0.0

    def test_all_beyond_horizon_is_one(self):
        records = [rec("a", 150.0, bound=100.0, horizon=100.0), rec("b", 140.0, bound=120.0, horizon=120.0)]
        assert nonreturning_recall(table(records)) == 1.0

    def test_hand_counted_mixed_instance(self):
        records = [
            rec("a", 150.0, bound=100.0, horizon=100.0),  # hit
            rec("b", 90.0, bound=100.0, horizon=100.0),   # miss
            rec("c", 130.0, bound=120.0, horizon=120.0),  # hit
            rec("d", 500.0, true=80.0, horizon=100.0),    # false alarm, not counted
            rec("e", 10.0, true=12.0, horizon=100.0),
        ]
        assert nonreturning_recall(table(records)) == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            records = random_records(rng)
            if not any(r.is_censored for r in records):
                continue
            assert nonreturning_recall(table(records)) == recall_brute(records)

    def test_monotone_in_constant_shift(self):
        rng = np.random.default_rng(5)
        records = random_records(rng, n=30)
        if not any(r.is_censored for r in records):
            pytest.skip("unlucky draw")
        base = nonreturning_recall(table(records))
        shifted = [
            rec(r.user_id, r.predicted_return_days + 25.0,
                true=r.true_return_days, bound=r.censored_lower_bound_days,
                horizon=r.horizon_gap_days)
            for r in records
        ]
        assert nonreturning_recall(table(shifted)) >= base

    def test_requires_a_censored_record(self):
        with pytest.raises(DataError):
            nonreturning_recall(table([rec("a", 1.0, true=2.0)]))


class TestBreakdowns:
    def test_single_user_week_bucket(self):
        b = error_breakdowns(table([rec("a", 12.0, true=10.0)]))
        assert b.rmse_by_week == {1: pytest.approx(2.0)}
        assert b.mean_error_by_week == {1: pytest.approx(2.0)}

    def test_terminal_active_day_bucket(self):
        b = error_breakdowns(table([rec("a", 5.0, true=4.0, days=70)]))
        assert list(b.rmse_by_active_days) == ["64+"]

    def test_bucket_rmse_matches_filtered_metric(self):
        rng = np.random.default_rng(6)
        records = [r for r in random_records(rng, 40) if not r.is_censored]
        b = error_breakdowns(table(records))
        for week, value in b.rmse_by_week.items():
            subset = [r for r in records if r.true_return_week == week]
            assert value == pytest.approx(rmse_returning(table(subset)))

    def test_squared_error_mass_is_partitioned(self):
        rng = np.random.default_rng(7)
        records = [r for r in random_records(rng, 60) if not r.is_censored]
        b = error_breakdowns(table(records))
        total = sum(
            b.rmse_by_week[w] ** 2 * b.n_by_week[w] for w in b.rmse_by_week
        )
        assert total == pytest.approx(rmse_returning(table(records)) ** 2 * len(records))

    def test_censored_users_not_bucketed(self):
        b = error_breakdowns(table([rec("a", 5.0, bound=10.0)]))
        assert b.rmse_by_week == {}


class TestReportAndCsv:
    def test_report_structure_single_model(self):
        rng = np.random.default_rng(8)
        records = random_records(rng, 30)
        report = build_report({"cph": table(records)})
        assert list(report["models"]) == ["cph"]
        row = report["models"]["cph"]
        assert set(row) == {"rmse_days", "concordance", "nonreturning_auc", "nonreturning_recall"}
        assert 0.0 <= row["concordance"] <= 1.0
        assert 0.0 <= row["nonreturning_auc"] <= 1.0
        assert 0.0 <= row["nonreturning_recall"] <= 1.0

    def test_report_carries_bucket_counts(self):
        rng = np.random.default_rng(11)
        records = random_records(rng, 40)
        report = build_report({"cph": table(records), "rnnsm": table(records[:25])})
        tables = report["tables"]
        for name, recs in (("cph", records), ("rnnsm", records[:25])):
            uncensored = sum(1 for r in recs if r.true_return_days is not None)
            assert uncensored > 0
            assert set(tables["n_by_week"][name]) == set(tables["rmse_by_week"][name])
            assert set(tables["n_by_active_days"][name]) == set(tables["rmse_by_active_days"][name])
            assert sum(tables["n_by_week"][name].values()) == uncensored
            assert sum(tables["n_by_active_days"][name].values()) == uncensored

    def test_model_ordering_canonical(self):
        rng = np.random.default_rng(9)
        records = random_records(rng, 30)
        report = build_report({"rnnsm": table(records), "baseline": table(records),
                               "cph": table(records)})
        assert list(report["models"]) == ["baseline", "cph", "rnnsm"]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        records = random_records(rng, 15)
        records = [
            rec(r.user_id, r.predicted_return_days, true=r.true_return_days,
                bound=r.censored_lower_bound_days, horizon=r.horizon_gap_days,
                days=r.active_day_count, last_end=300.0)
            for r in records
        ]
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, "rnnsm", table(records), epoch_iso="2020-01-01T00:00:00+00:00")
        name, loaded = read_predictions_csv(path)
        assert name == "rnnsm"
        assert_same_table(loaded, table(records))

    @pytest.mark.parametrize("predicted,date", [
        # 2020-01-01 + 300 days + 2,914,334.5 days is noon of 9999-12-31
        (2914334.5, "9999-12-31"), (1e7, ""),
    ], ids=["last-day", "past-year-9999"])
    def test_return_date_past_year_9999_is_empty(self, tmp_path, predicted, date):
        written = table([rec("a", predicted, true=2.0, last_end=300.0)])
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, "rnnsm", written, epoch_iso="2020-01-01T00:00:00+00:00")
        with path.open(newline="", encoding="utf-8") as fh:
            assert [row["predicted_return_date"] for row in csv.DictReader(fh)] == [date]
        _, loaded = read_predictions_csv(path)
        assert_same_table(loaded, written)

    @settings(max_examples=100, deadline=None)
    @given(written=prediction_tables())
    def test_csv_round_trips_every_column(self, tmp_path_factory, written):
        path = tmp_path_factory.mktemp("csv") / "preds.csv"
        write_predictions_csv(path, "rnnsm", written)
        name, loaded = read_predictions_csv(path)
        assert name == "rnnsm"
        assert_same_table(loaded, written)


@st.composite
def breakdown_records(draw):
    """Few distinct return weeks and active-day counts, so users tie in a
    bucket, buckets hold one user, and counts of 64 and more share the
    terminal bucket; optionally all users but one censored."""
    n = draw(st.integers(1, 30))
    all_but_one = draw(st.booleans())
    # many users in one week, so a bucket's mean sums several rounded values
    in_few_weeks = st.sampled_from([0, 1, 10]).flatmap(
        lambda week: st.floats(7.0 * week, 7.0 * week + 6.9))
    records = []
    for i in range(n):
        pred = draw(st.sampled_from([0.0, 3.0, 13.5, 60.0]) | st.floats(-50.0, 500.0))
        days = draw(st.sampled_from([1, 2, 63, 64, 65, 300]) | st.integers(0, 100))
        if i > 0 and (all_but_one or draw(st.booleans())):
            records.append(rec(f"u{i}", pred, bound=draw(st.floats(0.0, 200.0)), days=days))
        else:
            true = draw(st.sampled_from([0.0, 6.99, 7.0, 13.9, 14.0, 70.0]) | in_few_weeks)
            records.append(rec(f"u{i}", pred, true=true, days=days))
    return draw(st.permutations(records))


class TestColumnarMatchesRecords:
    @settings(max_examples=200, deadline=None)
    @given(records=breakdown_records())
    def test_error_breakdowns_bit_for_bit(self, records):
        assert repr(error_breakdowns(table(records))) == repr(error_breakdowns_records(records))

    @settings(max_examples=200, deadline=None)
    @given(records=breakdown_records())
    def test_rmse_returning_bit_for_bit(self, records):
        assert rmse_returning(table(records)).hex() == rmse_returning_records(records).hex()
