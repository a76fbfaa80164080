import math

import numpy as np
import pytest

from returntime.errors import DataError, ValidationError
from returntime.metrics import (
    PredictionRecord,
    build_report,
    concordance_index,
    error_breakdowns,
    nonreturning_auc,
    nonreturning_recall,
    read_predictions_csv,
    rmse_returning,
    write_predictions_csv,
)

from oracles import auc_brute, concordance_brute, recall_brute


def rec(uid, pred, true=None, bound=None, horizon=100.0, days=5, last_end=None):
    return PredictionRecord(
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


class TestRecordInvariants:
    def test_exactly_one_truth_field(self):
        with pytest.raises(ValidationError):
            rec("a", 1.0)
        with pytest.raises(ValidationError):
            rec("a", 1.0, true=2.0, bound=3.0)

    def test_week_derivation(self):
        assert rec("a", 1.0, true=13.9).true_return_week == 1
        assert rec("a", 1.0, bound=50.0).true_return_week is None


class TestRmse:
    def test_perfect_predictions(self):
        records = [rec("a", 3.0, true=3.0), rec("b", 7.0, true=7.0)]
        assert rmse_returning(records) == 0.0

    def test_hand_value(self):
        records = [rec("a", 2.0, true=1.0), rec("b", 2.0, true=3.0)]
        assert rmse_returning(records) == pytest.approx(1.0)

    def test_censored_records_ignored(self):
        records = [rec("a", 2.0, true=1.0), rec("b", 2.0, true=3.0), rec("c", 9.0, bound=50.0)]
        assert rmse_returning(records) == pytest.approx(1.0)

    def test_requires_uncensored(self):
        with pytest.raises(DataError):
            rmse_returning([rec("a", 1.0, bound=10.0)])


class TestConcordance:
    def test_order_preserving_is_one(self):
        records = [rec("a", 10.0, true=1.0), rec("b", 20.0, true=2.0), rec("c", 30.0, true=3.0)]
        assert concordance_index(records) == 1.0

    def test_reversed_is_zero(self):
        records = [rec("a", 30.0, true=1.0), rec("b", 20.0, true=2.0), rec("c", 10.0, true=3.0)]
        assert concordance_index(records) == 0.0

    def test_censored_pair_comparability_hand_case(self):
        # censored bound 3 vs uncensored 5: not comparable; the uncensored 2
        # is comparable with both others
        a = rec("a", 4.0, true=5.0)
        b = rec("b", 9.0, bound=3.0)
        c = rec("c", 1.0, true=2.0)
        # pairs: (c,a) concordant (1<4), (c,b) concordant (1<9)
        assert concordance_index([a, b, c]) == 1.0
        # move c's prediction above both: zero concordant
        c_bad = rec("c", 99.0, true=2.0)
        assert concordance_index([a, b, c_bad]) == 0.0

    def test_predictions_equal_truths_scores_one(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(12):
            t = float(rng.uniform(1, 50))
            records.append(rec(f"u{i}", t, true=t))
        assert concordance_index(records) == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            records = random_records(rng)
            try:
                fast = concordance_index(records)
            except DataError:
                continue
            assert fast == concordance_brute(records)

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(DataError):
            concordance_index([rec("a", 1.0, bound=5.0), rec("b", 2.0, bound=6.0)])


class TestNonReturningAuc:
    def test_perfect_separation(self):
        records = [rec("a", 200.0, bound=100.0), rec("b", 10.0, true=5.0)]
        assert nonreturning_auc(records) == 1.0

    def test_all_tied_scores_half(self):
        records = [
            rec("a", 100.0, bound=100.0, horizon=100.0),
            rec("b", 100.0, true=5.0, horizon=100.0),
            rec("c", 100.0, true=7.0, horizon=100.0),
        ]
        assert nonreturning_auc(records) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            records = random_records(rng)
            positive = [r.is_censored for r in records]
            if not (any(positive) and not all(positive)):
                continue
            scores = [r.predicted_return_days - r.horizon_gap_days for r in records]
            assert nonreturning_auc(records) == auc_brute(scores, positive)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        records = random_records(rng, n=20)
        base = nonreturning_auc(records, score_mode="raw")
        transformed = [
            rec(r.user_id, float(np.exp(r.predicted_return_days / 50.0)),
                true=r.true_return_days, bound=r.censored_lower_bound_days,
                horizon=r.horizon_gap_days)
            for r in records
        ]
        assert nonreturning_auc(transformed, score_mode="raw") == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            nonreturning_auc([rec("a", 1.0, true=2.0)])

    def test_nan_scores_terminate(self):
        # tied NaN scores share one rank; a rank walk comparing NaN to itself
        # never left the first NaN
        records = [rec("a", math.nan, bound=100.0), rec("b", math.nan, true=5.0),
                   rec("c", 10.0, true=5.0)]
        assert nonreturning_auc(records) == 0.75

    def test_explicit_horizon_gaps_override(self):
        records = [rec("a", 50.0, bound=100.0, horizon=100.0), rec("b", 50.0, true=5.0, horizon=100.0)]
        flipped = nonreturning_auc(records, horizon_gaps=[10.0, 90.0])
        assert flipped == 1.0


class TestNonReturningRecall:
    def test_baseline_style_predictions_score_zero(self):
        records = [rec("a", 40.0, bound=100.0, horizon=100.0), rec("b", 10.0, true=5.0)]
        assert nonreturning_recall(records) == 0.0

    def test_all_beyond_horizon_is_one(self):
        records = [rec("a", 150.0, bound=100.0, horizon=100.0), rec("b", 140.0, bound=120.0, horizon=120.0)]
        assert nonreturning_recall(records) == 1.0

    def test_hand_counted_mixed_instance(self):
        records = [
            rec("a", 150.0, bound=100.0, horizon=100.0),  # hit
            rec("b", 90.0, bound=100.0, horizon=100.0),   # miss
            rec("c", 130.0, bound=120.0, horizon=120.0),  # hit
            rec("d", 500.0, true=80.0, horizon=100.0),    # false alarm, not counted
            rec("e", 10.0, true=12.0, horizon=100.0),
        ]
        assert nonreturning_recall(records) == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            records = random_records(rng)
            if not any(r.is_censored for r in records):
                continue
            assert nonreturning_recall(records) == recall_brute(records)

    def test_monotone_in_constant_shift(self):
        rng = np.random.default_rng(5)
        records = random_records(rng, n=30)
        if not any(r.is_censored for r in records):
            pytest.skip("unlucky draw")
        base = nonreturning_recall(records)
        shifted = [
            rec(r.user_id, r.predicted_return_days + 25.0,
                true=r.true_return_days, bound=r.censored_lower_bound_days,
                horizon=r.horizon_gap_days)
            for r in records
        ]
        assert nonreturning_recall(shifted) >= base

    def test_requires_a_censored_record(self):
        with pytest.raises(DataError):
            nonreturning_recall([rec("a", 1.0, true=2.0)])


class TestBreakdowns:
    def test_single_user_week_bucket(self):
        b = error_breakdowns([rec("a", 12.0, true=10.0)])
        assert b.rmse_by_week == {1: pytest.approx(2.0)}
        assert b.mean_error_by_week == {1: pytest.approx(2.0)}

    def test_terminal_active_day_bucket(self):
        b = error_breakdowns([rec("a", 5.0, true=4.0, days=70)])
        assert list(b.rmse_by_active_days) == ["64+"]

    def test_bucket_rmse_matches_filtered_metric(self):
        rng = np.random.default_rng(6)
        records = [r for r in random_records(rng, 40) if not r.is_censored]
        b = error_breakdowns(records)
        for week, value in b.rmse_by_week.items():
            subset = [r for r in records if r.true_return_week == week]
            assert value == pytest.approx(rmse_returning(subset))

    def test_squared_error_mass_is_partitioned(self):
        rng = np.random.default_rng(7)
        records = [r for r in random_records(rng, 60) if not r.is_censored]
        b = error_breakdowns(records)
        total = sum(
            b.rmse_by_week[w] ** 2 * b.n_by_week[w] for w in b.rmse_by_week
        )
        assert total == pytest.approx(rmse_returning(records) ** 2 * len(records))

    def test_censored_users_not_bucketed(self):
        b = error_breakdowns([rec("a", 5.0, bound=10.0)])
        assert b.rmse_by_week == {}


class TestReportAndCsv:
    def test_report_structure_single_model(self):
        rng = np.random.default_rng(8)
        records = random_records(rng, 30)
        report = build_report({"cph": records})
        assert list(report["models"]) == ["cph"]
        row = report["models"]["cph"]
        assert set(row) == {"rmse_days", "concordance", "nonreturning_auc", "nonreturning_recall"}
        assert 0.0 <= row["concordance"] <= 1.0
        assert 0.0 <= row["nonreturning_auc"] <= 1.0
        assert 0.0 <= row["nonreturning_recall"] <= 1.0

    def test_report_carries_bucket_counts(self):
        rng = np.random.default_rng(11)
        records = random_records(rng, 40)
        report = build_report({"cph": records, "rnnsm": records[:25]})
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
        report = build_report({"rnnsm": records, "baseline": records, "cph": records})
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
        write_predictions_csv(path, "rnnsm", records, epoch_iso="2020-01-01T00:00:00+00:00")
        name, loaded = read_predictions_csv(path)
        assert name == "rnnsm"
        assert loaded == records
