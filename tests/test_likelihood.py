import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special

from returntime.errors import NumericalError, ValidationError
from returntime.features import PaddedBatch
from oracles import (
    absence_conditioned_expectation_scalar,
    batch_log_likelihood,
    expected_return_time_scalar,
    one_user_batch,
    per_step_loss,
    safe_density,
    safe_survival,
)

from returntime.rnnsm import (
    _batch_loss,
    absence_conditioned_expectation,
    expected_return_time,
)

PARAM_GRID = [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (2.0, 0.1)]


def one_user_loss(o, targets, censored, w):
    """The batch loss of one user: its value and its (T,) gradient."""
    losses, grad = _batch_loss(np.asarray(o, dtype=float)[None],
                               one_user_batch(targets, censored), w)
    return float(losses[0]), grad[0]


def log_density(o, w, gap):
    return batch_log_likelihood(o, w, gap, censored=False)


def log_survival(o, w, gap):
    return batch_log_likelihood(o, w, gap, censored=True)


class TestHazard:
    """The hazard the batch loss implies: f/S, from a returning and a
    censored one-step batch, is exp(o + w*dt)."""

    @staticmethod
    def hazard(o, w, dt):
        return math.exp(log_density(o, w, dt) - log_survival(o, w, dt))

    def test_at_origin(self):
        assert self.hazard(0.0, 1.0, 0.0) == 1.0

    def test_closed_form_value(self):
        assert self.hazard(math.log(2.0), 0.5, 2.0) == pytest.approx(2.0 * math.e, rel=1e-12)

    def test_monotone_in_elapsed_time(self):
        values = [self.hazard(0.3, 0.7, dt) for dt in np.linspace(0, 20, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_names_inputs(self):
        with pytest.raises(NumericalError, match="batch loss exponent 800 exceeds 700"):
            _batch_loss(np.array([[0.0]]), one_user_batch([800.0], False), 1.0)


class TestLogDensity:
    def test_density_at_origin_is_hazard_times_one(self):
        # f(0+) = hazard(0) * S(0) = exp(o); with o=0 the log tends to 0
        assert log_density(0.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("o,w", PARAM_GRID)
    def test_density_integrates_to_one(self, o, w):
        total, err = sp_integrate.quad(lambda g: safe_density(o, w, g), 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_equals_log_hazard_plus_log_survival(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            o = rng.uniform(-2, 2)
            w = rng.uniform(0.05, 2.0)
            gap = rng.uniform(0.01, 30.0)
            lhs = log_density(o, w, gap)
            rhs = o + w * gap + log_survival(o, w, gap)  # log hazard + log S
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLogSurvival:
    def test_zero_gap(self):
        assert log_survival(0.5, 1.0, 0.0) == 0.0

    def test_tends_to_minus_infinity(self):
        assert log_survival(0.0, 1.0, 600.0) < -1e100

    def test_underflowing_exp_o_with_a_long_gap(self):
        # exp(-800) underflows to 0 and w*gap = 750 overflows expm1; the
        # value comes from the difference form alone, with no warning
        assert log_survival(-800.0, 0.5, 1500.0) == pytest.approx(-math.exp(-50.0) / 0.5,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("o,w,gap", [(0.0, 1.0, 2.0), (1.0, 0.5, 4.0), (-1.0, 2.0, 1.5)])
    def test_equals_negative_integrated_hazard(self, o, w, gap):
        integral, _ = sp_integrate.quad(lambda t: math.exp(o + w * t), 0, gap, limit=200)
        assert log_survival(o, w, gap) == pytest.approx(-integral, abs=1e-8)


class TestSequenceLoss:
    def test_single_step_returning(self):
        loss, grad = one_user_loss(np.array([0.3]), np.array([2.0]), False, 0.5)
        assert loss == pytest.approx(per_step_loss([0.3], [2.0], False, 0.5))
        assert grad.shape == (1,)

    def test_single_step_censored(self):
        loss, _ = one_user_loss(np.array([0.3]), np.array([2.0]), True, 0.5)
        assert loss == pytest.approx(per_step_loss([0.3], [2.0], True, 0.5))

    def test_censored_sequence_mixes_terms(self):
        o = np.array([0.1, -0.2, 0.4])
        g = np.array([1.0, 3.0, 12.0])
        loss, _ = one_user_loss(o, g, True, 0.3)
        assert loss == pytest.approx(per_step_loss(o, g, True, 0.3), rel=1e-12)

    @pytest.mark.parametrize("censored", [False, True])
    def test_grad_matches_finite_differences(self, censored):
        rng = np.random.default_rng(1)
        for _ in range(5):
            o = rng.uniform(-1.5, 1.5, size=4)
            g = rng.uniform(0.2, 10.0, size=4)
            w = rng.uniform(0.05, 1.0)
            _, grad = one_user_loss(o, g, censored, w)
            h = 1e-6
            for j in range(4):
                op = o.copy(); op[j] += h
                om = o.copy(); om[j] -= h
                num = (one_user_loss(op, g, censored, w)[0]
                       - one_user_loss(om, g, censored, w)[0]) / (2 * h)
                assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("o,w,gap", [(0.3, 0.5, 2.0), (-0.5, 0.2, 12.0), (1.0, 1.0, 1.5)])
    def test_censored_term_equals_one_minus_cdf(self, o, w, gap):
        # the survival factor for a censored user's final gap must equal
        # 1 - CDF(final_gap) computed by integrating the density
        loss, _ = one_user_loss(np.array([o]), np.array([gap]), True, w)
        cdf, _ = sp_integrate.quad(lambda t: safe_density(o, w, t), 0, gap, limit=200)
        assert math.exp(-loss) == pytest.approx(1.0 - cdf, abs=1e-6)

    def test_returning_user_never_needs_survival_term(self):
        # with every step uncensored, the loss equals the pure density sum
        o = np.array([0.2, 0.1])
        g = np.array([1.5, 2.5])
        loss, _ = one_user_loss(o, g, False, 0.4)
        assert loss == pytest.approx(per_step_loss(o, g, False, 0.4), rel=1e-12)


@st.composite
def padded_batches(draw):
    """Outputs (B, T) and a PaddedBatch of B users with 1-7 steps each and
    mixed censoring; padded lanes hold drawn values too."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    B, T = len(lengths), max(lengths)

    def grid(values):
        return np.array(draw(st.lists(values, min_size=B * T, max_size=B * T))).reshape(B, T)

    o, targets = grid(st.floats(-5.0, 5.0)), grid(st.floats(0.01, 40.0))
    censored = np.array(draw(st.lists(st.booleans(), min_size=B, max_size=B)))
    batch = PaddedBatch(np.zeros((B, T, 0), dtype=np.int64), np.zeros((B, T, 0)), targets,
                        np.array(lengths), censored)
    return o, batch


class TestBatchLoss:
    @settings(max_examples=100, deadline=None)
    @given(case=padded_batches(), w=st.floats(0.01, 2.0))
    def test_per_user_losses_equal_the_per_step_terms(self, case, w):
        o, batch = case
        losses, grad = _batch_loss(o, batch, w)
        assert losses.shape == (len(o),)
        for i, L in enumerate(batch.lengths):
            ref = per_step_loss(o[i, :L].tolist(), batch.targets[i, :L].tolist(),
                                bool(batch.censored[i]), w)
            assert math.isclose(losses[i], ref, rel_tol=1e-12)
        padded = np.arange(o.shape[1])[None, :] >= batch.lengths[:, None]
        assert np.all(grad[padded] == 0.0)

    def test_overflow_guard_reads_real_steps_only(self):
        # a padded lane past the limit is ignored; the same value on a real
        # step of another user raises, naming its exponent o + w*gap
        o = np.array([[0.5, 0.0], [0.0, 0.0]])
        targets = np.array([[1.0, 900.0], [1.0, 900.0]])
        batch = PaddedBatch(np.zeros((2, 2, 0), dtype=np.int64), np.zeros((2, 2, 0)), targets,
                            np.array([1, 2]), np.array([False, True]))
        with pytest.raises(NumericalError, match="batch loss exponent 900 exceeds 700"):
            _batch_loss(o, batch, 1.0)
        losses, _ = _batch_loss(o, dataclasses.replace(batch, lengths=np.array([1, 1])), 1.0)
        assert np.all(np.isfinite(losses))


class TestExpectedReturnTime:
    def test_exponential_integral_oracle(self):
        # for o=0, w=1: E[T] = e * E1(1)
        expected = math.e * special.exp1(1.0)
        assert expected_return_time(0.0, 1.0) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("o,w", PARAM_GRID)
    def test_matches_independent_quadrature(self, o, w):
        ref, _ = sp_integrate.quad(lambda t: safe_survival(o, w, t), 0, np.inf, limit=300)
        assert expected_return_time(o, w) == pytest.approx(ref, abs=1e-6)

    def test_positive_on_grid(self):
        for o in np.linspace(-5, 5, 11):
            for w in (0.02, 0.3, 1.5):
                assert expected_return_time(float(o), w) > 0.0

    def test_strictly_decreasing_in_o(self):
        for w in (0.05, 0.5, 1.0):
            values = [expected_return_time(float(o), w) for o in np.linspace(-3, 4, 15)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_large_o_below_600_approaches_the_closed_form(self):
        # the quadrature still runs at o = 300; the mean is e^-o to leading order
        assert expected_return_time(300.0, 1.0) == pytest.approx(math.exp(-300.0), rel=1e-5)

    def test_large_o_closed_form(self):
        assert expected_return_time(650.0, 1.0) == pytest.approx(math.exp(-650.0))

    def test_very_negative_o(self):
        o, w = -30.0, 0.1
        ref, _ = sp_integrate.quad(lambda t: safe_survival(o, w, t), 0, 500.0, limit=400)
        assert expected_return_time(o, w) == pytest.approx(ref, rel=1e-6)

    def test_w_must_be_positive(self):
        with pytest.raises(ValidationError):
            expected_return_time(0.0, 0.0)
        with pytest.raises(ValidationError):
            expected_return_time(0.0, -0.3)


class TestAbsenceConditioning:
    def test_zero_absence_is_identical(self):
        for o, w in PARAM_GRID:
            assert absence_conditioned_expectation(o, w, 0.0) == expected_return_time(o, w)

    def test_never_below_absence_time(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            o = rng.uniform(-3, 3)
            w = rng.uniform(0.01, 2.0)
            t_s = rng.uniform(0.0, 50.0)
            assert absence_conditioned_expectation(o, w, t_s) >= t_s

    @pytest.mark.parametrize("o,w,t_s", [(0.0, 1.0, 0.5), (1.0, 0.5, 2.0), (-1.0, 0.2, 10.0)])
    def test_matches_conditional_moment_quadrature(self, o, w, t_s):
        # independent oracle straight from the definition:
        # E[T | T > t_s] = int_{t_s}^inf t f(t) dt / S(t_s)
        num, _ = sp_integrate.quad(
            lambda t: t * safe_density(o, w, t), t_s, np.inf, limit=300
        )
        ref = num / safe_survival(o, w, t_s)
        assert absence_conditioned_expectation(o, w, t_s) == pytest.approx(ref, abs=1e-6)

    def test_underflowing_survival_returns_absence_time(self):
        value = absence_conditioned_expectation(500.0, 2.0, 200.0)
        assert value == pytest.approx(200.0)

    def test_negative_absence_rejected(self):
        with pytest.raises(ValidationError):
            absence_conditioned_expectation(0.0, 1.0, -1.0)


outputs = st.lists(st.floats(-30.0, 650.0), min_size=1, max_size=6)
weights = st.floats(1e-3, 2.0)


class TestBatchedExpectation:
    """One array call against the per-user oracle (1e-12 relative) and
    against its own N = 1 calls (bit for bit)."""

    @settings(max_examples=60, deadline=None)
    @given(o=outputs, w=weights)
    @example(o=[650.0, 0.5, 600.5, -30.0], w=1e-3)
    @example(o=[-30.0, 601.0, 2.0], w=2.0)
    def test_expected_return_time(self, o, w):
        values = expected_return_time(np.array(o), w)
        assert values.shape == (len(o),)
        for value, o_i in zip(values, o):
            assert math.isclose(value, expected_return_time_scalar(o_i, w), rel_tol=1e-12)
            assert value == expected_return_time(o_i, w)

    @settings(max_examples=60, deadline=None)
    @given(o=outputs, w=weights, t_s=st.lists(st.floats(0.0, 300.0), min_size=6, max_size=6))
    @example(o=[1.0, 0.0, 650.0, -30.0], w=2.0, t_s=[300.0, 0.0, 0.0, 300.0])
    @example(o=[-5.0, 599.0], w=1e-3, t_s=[250.0, 1.5])
    def test_absence_conditioned_expectation(self, o, w, t_s):
        t_s = t_s[:len(o)]
        values = absence_conditioned_expectation(np.array(o), w, np.array(t_s))
        for value, o_i, t_i in zip(values, o, t_s):
            oracle = absence_conditioned_expectation_scalar(o_i, w, t_i)
            assert math.isclose(value, oracle, rel_tol=1e-12)
            assert value == absence_conditioned_expectation(o_i, w, t_i)

    def test_scalar_inputs_return_floats(self):
        assert type(expected_return_time(0.0, 1.0)) is float
        assert type(absence_conditioned_expectation(0.0, 1.0, 2.0)) is float

    def test_empty_batch(self):
        assert expected_return_time(np.array([]), 0.5).shape == (0,)
        assert absence_conditioned_expectation(np.array([]), 0.5, np.array([])).shape == (0,)

    def test_one_bad_output_names_it(self):
        with pytest.raises(ValidationError, match="nan"):
            expected_return_time(np.array([0.0, np.nan]), 0.5)
        with pytest.raises(ValidationError, match="-1"):
            absence_conditioned_expectation(np.array([0.0, 1.0]), 0.5, np.array([2.0, -1.0]))

    def test_underflow_warning_once_per_call_with_count(self, caplog):
        o = np.array([500.0, 0.0, 500.0, 450.0])
        t_s = np.array([200.0, 1.0, 100.0, 100.0])  # o + 2 t_s: 900, 2, 700, 650
        with caplog.at_level(logging.WARNING, logger="returntime.rnnsm"):
            absence_conditioned_expectation(o, 2.0, t_s)
            absence_conditioned_expectation(o[1:2], 2.0, t_s[1:2])
        messages = [r.getMessage() for r in caplog.records if "underflows" in r.getMessage()]
        assert len(messages) == 1
        assert "3 of 4 users" in messages[0]


class TestSurvivalCurve:
    def test_basic_shape(self):
        assert math.exp(log_survival(0.5, 0.3, 0.0)) == 1.0
        gaps = np.linspace(0, 40, 30)
        values = [math.exp(log_survival(0.5, 0.3, float(g))) for g in gaps]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3
