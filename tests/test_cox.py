import json
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from returntime import cox
from returntime.errors import DataError, DataModelMismatchError, NumericalError, ValidationError

from oracles import (
    baseline_hazard_walk,
    breslow_partial_log_likelihood,
    cox_cumulative_hazard,
    cox_mean_residual,
    efron_by_group,
    efron_two_path,
    nelson_aalen,
)


def simulate_ph(n, beta_true, seed, base_rate=0.1, censor_at=30.0):
    """Exponential survival with a binary covariate and fixed-time censoring."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n).astype(float)
    rate = base_rate * np.exp(beta_true * x)
    t_event = rng.exponential(1.0 / rate)
    times = np.minimum(t_event, censor_at)
    events = t_event <= censor_at
    return x[:, None], times, events


class TestEfronPartialLikelihood:
    def test_two_subjects_at_beta_zero(self):
        X = np.array([[0.4], [-1.2]])
        value, _, _ = cox.efron_partial_log_likelihood(
            np.zeros(1), X, np.array([1.0, 2.0]), np.array([True, True])
        )
        assert value == -math.log(2.0)

    def test_tied_group_hand_computed(self):
        # two events tied at t=1 plus one at t=2, beta=0:
        # -log(3) - log(3 - 2/2) - log(1) = -log 6
        X = np.array([[0.3], [1.0], [-0.5]])
        value, _, _ = cox.efron_partial_log_likelihood(
            np.zeros(1), X, np.array([1.0, 1.0, 2.0]), np.array([True, True, True])
        )
        assert value == pytest.approx(-math.log(6.0), rel=1e-14)

    def test_equals_breslow_without_ties(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 12
            X = rng.normal(size=(n, 3))
            times = rng.permutation(np.arange(1.0, n + 1.0))  # unique
            events = rng.random(n) < 0.7
            events[0] = True
            beta = rng.normal(scale=0.5, size=3)
            efron_value, _, _ = cox.efron_partial_log_likelihood(beta, X, times, events)
            breslow_value = breslow_partial_log_likelihood(beta, X, times, events)
            assert efron_value == pytest.approx(breslow_value, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n, p = 10, 3
        X = rng.normal(size=(n, p))
        times = rng.uniform(1.0, 20.0, size=n)
        times[3] = times[7]  # one tie to exercise the correction
        events = np.array([True] * 7 + [False] * 3)
        beta = rng.normal(scale=0.4, size=p)
        _, grad, hess = cox.efron_partial_log_likelihood(beta, X, times, events)
        h = 1e-6
        for j in range(p):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            vp, gp, _ = cox.efron_partial_log_likelihood(bp, X, times, events)
            vm, gm, _ = cox.efron_partial_log_likelihood(bm, X, times, events)
            num = (vp - vm) / (2 * h)
            assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-9)
            num_hess_col = (gp - gm) / (2 * h)
            np.testing.assert_allclose(hess[:, j], num_hess_col, rtol=1e-5, atol=1e-7)

    def test_all_censored_rejected(self):
        with pytest.raises(DataError):
            cox.efron_partial_log_likelihood(
                np.zeros(1), np.ones((3, 1)), np.array([1.0, 2.0, 3.0]),
                np.array([False, False, False]),
            )

    def test_censored_rows_only_enter_risk_sets(self):
        # dropping a censored subject with the largest time changes nothing
        # except risk sets it belonged to; here it is in every risk set
        X = np.array([[0.5], [-0.5], [1.0]])
        times = np.array([1.0, 2.0, 5.0])
        events = np.array([True, True, False])
        beta = np.array([0.3])
        v_with, _, _ = cox.efron_partial_log_likelihood(beta, X, times, events)
        manual = (
            0.3 * 0.5 - math.log(math.exp(0.15) + math.exp(-0.15) + math.exp(0.3))
            + 0.3 * -0.5 - math.log(math.exp(-0.15) + math.exp(0.3))
        )
        assert v_with == pytest.approx(manual, rel=1e-12)


@st.composite
def heavy_ties(draw):
    """Rows on five base times, each moved by at most 4e-10 (which rounds
    back to the base) or by 1.6e-9 to 2.4e-9 (which rounds to base + 2e-9);
    row 0 is a censored row leading a tie group that holds an event, and the
    last two rows are events tied at the largest time."""
    n = draw(st.integers(4, 24))
    p = draw(st.integers(1, 3))
    base = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    jitter = draw(st.lists(st.sampled_from([-4, -1, 0, 1, 4, 16, 20, 24]),
                           min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    unit = st.floats(-2.0, 2.0, allow_nan=False)
    X = np.array(draw(st.lists(st.lists(unit, min_size=p, max_size=p), min_size=n, max_size=n)))
    beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    base[1], jitter[:2], events[:2] = base[0], [1, -1], [False, True]
    base[-2:], jitter[-2:], events[-2:] = [6, 6], [4, -4], [True, True]
    times = np.array(base, dtype=float) + np.array(jitter) * 1e-10
    return beta, X, times, np.array(events)


@st.composite
def untied(draw):
    """Distinct times on a 1/8-day grid, so no two round together, with
    censored rows and signed zeros among the covariates."""
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 3))
    times = np.array(draw(st.lists(st.integers(1, 400), min_size=n, max_size=n, unique=True)))
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    events[draw(st.integers(0, n - 1))] = True
    unit = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
    X = np.array(draw(st.lists(st.lists(unit, min_size=p, max_size=p), min_size=n, max_size=n)))
    beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    return beta, X, times / 8.0, events


def assert_efron_matches_by_group(beta, X, times, events):
    value, grad, hess = cox.efron_partial_log_likelihood(beta, X, times, events)
    ref_value, ref_grad, ref_hess = efron_by_group(beta, X, times, events)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hess, ref_hess, rtol=1e-12, atol=1e-12)


class TestEfronTies:
    @settings(max_examples=150, deadline=None)
    @given(case=heavy_ties())
    def test_matches_per_group_oracle(self, case):
        assert_efron_matches_by_group(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=untied())
    # a column of signed zeros: the Hessian holds +0.0 there, as the two-path form does
    @example(case=(np.array([0.5, -1.0]), np.array([[-0.0, 0.0], [-0.0, 1.0], [0.0, -0.0]]),
                   np.array([1.0, 2.0, 3.0]), np.array([True, True, False])))
    def test_untied_equals_two_path_bitwise(self, case):
        value, grad, hess = cox.efron_partial_log_likelihood(*case)
        ref_value, ref_grad, ref_hess = efron_two_path(*case)
        assert value.hex() == ref_value.hex()
        assert grad.tobytes() == ref_grad.tobytes() and hess.tobytes() == ref_hess.tobytes()

    @pytest.mark.parametrize("times,events", [
        ([3.0] * 5, [True] * 5),
        ([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0], [True] * 7),
        ([1.0, 2.0, 2.0, 2.0, 3.0], [True, False, True, True, True]),
        ([1.0, 2.0, 3.0], [False, True, False]),
    ], ids=["all-events-one-time", "every-group-tied", "tied-group-led-by-censored-row",
            "single-event"])
    def test_edge_cases_match_per_group_oracle(self, times, events):
        rng = np.random.default_rng(len(times))
        X = rng.normal(size=(len(times), 2))
        assert_efron_matches_by_group(np.array([0.4, -0.7]), X, np.array(times), np.array(events))

    @settings(max_examples=150, deadline=None)
    @given(case=heavy_ties())
    def test_baseline_equals_group_walk_bitwise(self, case):
        beta, X, times, events = case
        risk = np.exp(X @ beta)
        base_t, base_h = cox.baseline_hazard(times, events, risk)
        ref_t, ref_h = baseline_hazard_walk(times, events, risk)
        for got, ref in ((base_t, ref_t), (base_h, ref_h)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert base_t.tolist() == sorted(set(np.round(times[events], 9).tolist()))


class TestFit:
    def test_recovers_known_coefficient(self):
        X, times, events = simulate_ph(2000, beta_true=0.7, seed=11)
        model = cox.fit(X, times, events, feature_names=["group"])
        assert abs(model.beta[0] - 0.7) < 0.1

    def test_null_covariate_stays_near_zero(self):
        rng = np.random.default_rng(12)
        n = 1500
        x = rng.normal(size=(n, 1))
        times = rng.exponential(10.0, size=n)
        events = times < 25.0
        times = np.minimum(times, 25.0)
        model = cox.fit(x, times, events)
        _, _, hess = cox.efron_partial_log_likelihood(model.beta, x, times, events)
        se = math.sqrt(np.linalg.inv(-hess)[0, 0])
        assert abs(model.beta[0]) < 3 * se

    def test_shift_invariance_of_coefficients(self):
        X, times, events = simulate_ph(400, beta_true=0.5, seed=13)
        m1 = cox.fit(X, times, events)
        m2 = cox.fit(X + 17.0, times, events)
        assert m1.beta[0] == pytest.approx(m2.beta[0], abs=1e-6)
        assert m2.center[0] == pytest.approx(m1.center[0] + 17.0, rel=1e-12)
        x = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(cox.expected_survival_time(m2, x + 17.0, 0.0),
                                   cox.expected_survival_time(m1, x, 0.0), rtol=1e-6)

    def test_collinear_features_still_converge(self):
        X, times, events = simulate_ph(300, beta_true=0.4, seed=14)
        X2 = np.hstack([X, X.copy()])  # exactly collinear
        model = cox.fit(X2, times, events)
        assert np.all(np.isfinite(model.beta))

    def test_needs_two_events(self):
        with pytest.raises(DataError):
            cox.fit(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]),
                    np.array([True, False, False]))

    def test_baseline_with_unit_risk_is_nelson_aalen(self):
        rng = np.random.default_rng(15)
        times = rng.uniform(1.0, 30.0, size=40)
        times[5] = times[9]  # ties included
        events = rng.random(40) < 0.8
        events[:2] = True
        base_t, base_h = cox.baseline_hazard(times, events, np.ones(40))
        ref_t, ref_cum = nelson_aalen(np.round(times, 9), events)
        np.testing.assert_allclose(base_t, ref_t, rtol=0, atol=0)
        np.testing.assert_allclose(np.cumsum(base_h), ref_cum, rtol=1e-12)


class TestExpectedSurvivalTime:
    def hand_model(self):
        # hazard rate 0.5 on [0, 1), 1.0 afterwards
        return cox.CoxModel(
            feature_names=["x"],
            beta=np.array([0.0]),
            center=np.zeros(1),
            baseline_times=np.array([1.0, 2.0]),
            baseline_hazard=np.array([0.5, 1.0]),
        )

    def test_hand_built_two_step_baseline(self):
        model = self.hand_model()
        expected = (1 - math.exp(-0.5)) / 0.5 + math.exp(-0.5) / 1.0
        value = cox.expected_survival_time(model, np.array([0.0]), 0.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_fine_grid_quadrature_cross_check(self):
        model = self.hand_model()
        x = np.array([0.4])
        ref, _ = sp_integrate.quad(lambda t: model.survival(x, t), 0, 200.0, limit=500)
        assert cox.expected_survival_time(model, x, 0.0) == pytest.approx(ref, abs=1e-7)

    def test_conditioning_at_zero_matches_unconditioned(self):
        model = self.hand_model()
        x = np.array([0.3])
        a = cox.expected_survival_time(model, x, 0.0)
        b = cox.expected_survival_time(model, x, 0.0)
        assert a == b

    def test_conditioned_always_at_least_absence_time(self):
        model = self.hand_model()
        rng = np.random.default_rng(16)
        for _ in range(200):
            x = np.array([rng.normal()])
            t_s = rng.uniform(0, 10.0)
            value = cox.expected_survival_time(model, x, t_s)
            assert value >= t_s

    def test_conditional_oracle_by_quadrature(self):
        model = self.hand_model()
        x = np.array([0.25])
        t_s = 0.8
        num, _ = sp_integrate.quad(lambda t: model.survival(x, t), t_s, 300.0, limit=500)
        ref = t_s + num / model.survival(x, t_s)
        value = cox.expected_survival_time(model, x, t_s)
        assert value == pytest.approx(ref, abs=1e-7)

    def test_expectation_vanishes_for_extreme_risk(self):
        model = cox.CoxModel(
            feature_names=["x"],
            beta=np.array([1.0]),
            center=np.zeros(1),
            baseline_times=np.array([1.0, 2.0]),
            baseline_hazard=np.array([0.5, 1.0]),
        )
        values = [
            cox.expected_survival_time(model, np.array([k]), 0.0)
            for k in (0.0, 2.0, 8.0, 32.0, 128.0, 1000.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_baseline_survival_shape(self):
        X, times, events = simulate_ph(300, beta_true=0.6, seed=17)
        model = cox.fit(X, times, events)
        x = np.array([1.0])
        assert model.survival(x, 0.0) == 1.0
        grid = np.linspace(0.0, 50.0, 60)
        values = [model.survival(x, float(t)) for t in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_cumulative_hazard_scalar_and_array(self):
        model = cox.CoxModel(
            feature_names=["x"],
            beta=np.array([0.0]),
            center=np.zeros(1),
            baseline_times=np.array([1.0, 2.5, 4.0]),
            baseline_hazard=np.array([0.5, 0.3, 0.9]),
        )
        t = np.array([-1.0, 0.0, 0.4, 1.0, 1.7, 2.5, 3.0, 4.0, 9.0])
        values = model.cumulative_hazard(t)
        assert values.shape == t.shape
        scalars = [model.cumulative_hazard(float(v)) for v in t]
        assert all(isinstance(v, float) for v in scalars)
        assert values.tolist() == scalars == [cox_cumulative_hazard(model, v) for v in t]

    def test_negative_absence_rejected(self):
        with pytest.raises(ValidationError):
            cox.expected_survival_time(self.hand_model(), np.array([0.0]), -1.0)


class TestBatchedExpectation:
    """The (N, p) form against per-row calls, a per-piece scalar oracle and
    scipy quadrature, across more than one block of rows."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(19)
        n = 120
        X = rng.normal(size=(n, 2))
        rate = 0.1 * np.exp(X @ np.array([0.6, -0.4]))
        t_event = rng.exponential(1.0 / rate)
        events = t_event <= 40.0
        model = cox.fit(X, np.minimum(t_event, 40.0), events)
        knots = model.baseline_times
        rows = 3 * cox.EXPECTATION_BLOCK_ROWS - 100  # crosses two block boundaries
        x = rng.normal(size=(rows, 2))
        # absence times cycle through 0, strictly between knots, exactly on
        # a knot, and beyond the last knot
        mids = 0.5 * (knots[:-1] + knots[1:])
        cases = [
            np.zeros(rows),
            rng.choice(mids, size=rows),
            rng.choice(knots, size=rows),
            knots[-1] + rng.uniform(0.5, 30.0, size=rows),
        ]
        t_s = np.choose(np.arange(rows) % 4, cases)
        # risk scores beyond the saturation guard, once per block
        x[[7, cox.EXPECTATION_BLOCK_ROWS + 7, 2 * cox.EXPECTATION_BLOCK_ROWS + 9]] = (
            model.beta * 750.0 / (model.beta @ model.beta)
        )
        return model, x, t_s

    def test_array_equals_per_row_calls(self, fitted):
        model, x, t_s = fitted
        for condition in (False, True):
            batched = cox.expected_survival_time(model, x, t_s if condition else 0.0)
            assert batched.shape == (len(x),)
            rows = [
                cox.expected_survival_time(model, x[i], float(t_s[i]) if condition else 0.0)
                for i in range(len(x))
            ]
            assert all(isinstance(v, float) for v in rows)
            np.testing.assert_allclose(batched, rows, rtol=1e-12, atol=0)

    def test_matches_per_piece_oracle(self, fitted):
        model, x, t_s = fitted
        batched = cox.expected_survival_time(model, x, t_s)
        oracle = [t + cox_mean_residual(model, row, t) for row, t in zip(x, t_s)]
        np.testing.assert_allclose(batched, oracle, rtol=1e-12, atol=0)
        unconditioned = cox.expected_survival_time(model, x, 0.0)
        oracle = [cox_mean_residual(model, row, 0.0) for row in x]
        np.testing.assert_allclose(unconditioned, oracle, rtol=1e-12, atol=0)

    def test_saturated_rows_are_zero(self, fitted):
        model, x, t_s = fitted
        saturated = x @ model.beta > 700.0
        assert saturated.sum() == 3
        batched = cox.expected_survival_time(model, x, t_s)
        np.testing.assert_array_equal(batched[saturated], t_s[saturated])
        assert np.all(cox.expected_survival_time(model, x, 0.0)[saturated] == 0.0)

    def test_quadrature_oracle_on_a_sample(self, fitted):
        model, x, t_s = fitted
        knots = model.baseline_times
        batched = cox.expected_survival_time(model, x, t_s)
        for i in (0, 1, 2, 3, 300, 401, 502, 643):  # each absence-time case, all blocks
            a = float(t_s[i])
            end = max(a, knots[-1])
            inner = [k for k in knots if a < k < end]
            num = 0.0
            if end > a:
                num, _ = sp_integrate.quad(lambda t: model.survival(x[i], t), a, end,
                                           points=inner or None, limit=10 * len(knots))
            tail, _ = sp_integrate.quad(lambda t: model.survival(x[i], t), end, np.inf)
            ref = a + (num + tail) / model.survival(x[i], a)
            assert batched[i] == pytest.approx(ref, abs=1e-7)

    def test_survival_underflow_warned_once_per_call(self, fitted, caplog):
        model, x, t_s = fitted
        x = x.copy()
        x[:, :] = model.beta * 12.0 / (model.beta @ model.beta)  # lin = 12
        late = np.full(len(x), model.baseline_times[-1])
        with caplog.at_level(logging.WARNING, logger="returntime.cox"):
            values = cox.expected_survival_time(model, x, late)
        warnings = [r for r in caplog.records if "underflows" in r.getMessage()]
        assert len(warnings) == 1
        assert f"for {len(x)} of {len(x)} users" in warnings[0].getMessage()
        assert np.all(np.isfinite(values)) and np.all(values >= late)

    def test_overflowing_piece_rate_before_the_absence_time(self):
        # a 1e-9-day piece has rate 1e9; at lin = 690 rate * risk overflows,
        # which must not turn the zero-length pieces before t_s into nan
        model = cox.CoxModel(
            feature_names=["x"],
            beta=np.array([1.0]),
            center=np.zeros(1),
            baseline_times=np.array([1.0, 1.0 + 1e-9, 2.0]),
            baseline_hazard=np.array([0.5, 1.0, 1.0]),
        )
        x = np.array([[0.0], [690.0], [690.0]])
        t_s = np.array([1.5, 1.5, 0.0])
        values = cox.expected_survival_time(model, x, t_s)
        oracle = [t + cox_mean_residual(model, row, t) for row, t in zip(x, t_s)]
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0)

    def test_risk_underflow_raises_naming_the_row(self, fitted):
        model, x, _ = fitted
        x = x.copy()
        x[5] = model.center - model.beta * 800.0 / (model.beta @ model.beta)  # lin = -800
        with pytest.raises(NumericalError, match=r"user u5 \(linear predictor -800\)"):
            cox.expected_survival_time(model, x, 0.0, row_ids=[f"u{i}" for i in range(len(x))])
        with pytest.raises(NumericalError, match="row 0"):
            cox.expected_survival_time(model, x[5], 0.0)


class TestBatchIndependence:
    """A user's prediction must not depend on which other users share the
    call: every row equals the same row predicted within any permuted
    subset of the rows."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(23)
        p = 12
        X = rng.normal(5.0, 2.0, size=(400, p))
        t_event = rng.exponential(1.0 / (0.1 * np.exp((X - 5.0) @ rng.normal(0.0, 0.2, p))))
        model = cox.fit(X, np.minimum(t_event, 40.0), t_event <= 40.0)
        x = rng.normal(5.0, 2.0, size=(cox.EXPECTATION_BLOCK_ROWS + 44, p))
        return model, x, rng.uniform(0.0, 20.0, size=len(x))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_bit_identical_in_any_permuted_subset(self, wide, data):
        model, x, t_s = wide
        order = data.draw(st.permutations(range(len(x))))
        rows = np.array(order[:data.draw(st.integers(1, len(x)))])
        for absence in (t_s, np.zeros(len(x))):
            full = cox.expected_survival_time(model, x, absence)
            part = cox.expected_survival_time(model, x[rows], absence[rows])
            assert part.tobytes() == full[rows].tobytes()


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        X, times, events = simulate_ph(200, beta_true=0.5, seed=18)
        model = cox.fit(X, times, events, feature_names=["grp"])
        path = tmp_path / "cox.json"
        model.save(path)
        loaded = cox.CoxModel.load(path)
        assert loaded.feature_names == model.feature_names
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.center, model.center)
        np.testing.assert_array_equal(loaded.baseline_times, model.baseline_times)
        x = np.array([1.0])
        assert cox.expected_survival_time(loaded, x, 0.0) == cox.expected_survival_time(model, x, 0.0)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("center"),
        lambda d: d.update(center=[]),
        lambda d: d.update(center=[float("inf")]),
        lambda d: d.update(center=None),
        lambda d: d.update(beta=d["beta"] * 2, center=d["center"] * 2),
    ], ids=["missing", "wrong-length", "non-finite", "null", "more-coefficients-than-features"])
    def test_malformed_center_or_beta_unreadable(self, tmp_path, edit):
        X, times, events = simulate_ph(200, beta_true=0.5, seed=18)
        d = cox.fit(X, times, events).to_dict()
        edit(d)
        path = tmp_path / "cox.json"
        path.write_text(json.dumps(d))
        with pytest.raises(DataModelMismatchError, match="unreadable"):
            cox.CoxModel.load(path)

    @pytest.mark.parametrize("times,hazard", [([], []), ([1.0, 2.0], [0.5]), ([[1.0]], [[0.5]])],
                             ids=["empty", "unequal-lengths", "two-dimensional"])
    def test_malformed_baseline_rejected(self, times, hazard):
        with pytest.raises(ValidationError, match="baseline"):
            cox.CoxModel(feature_names=["x"], beta=np.array([0.0]), center=np.zeros(1),
                         baseline_times=np.array(times), baseline_hazard=np.array(hazard))
