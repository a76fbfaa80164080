import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special

from returntime.errors import NumericalError, ValidationError
from oracles import safe_density, safe_survival

from returntime.rnnsm import (
    absence_conditioned_expectation,
    expected_return_time,
    hazard,
    log_density_return,
    log_survival,
    sequence_loss,
)

PARAM_GRID = [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (2.0, 0.1)]


class TestHazard:
    def test_at_origin(self):
        assert hazard(0.0, 1.0, 0.0) == 1.0

    def test_closed_form_value(self):
        assert hazard(math.log(2.0), 0.5, 2.0) == pytest.approx(2.0 * math.e, rel=1e-12)

    def test_monotone_in_elapsed_time(self):
        values = [hazard(0.3, 0.7, dt) for dt in np.linspace(0, 20, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_names_inputs(self):
        with pytest.raises(NumericalError, match="800"):
            hazard(0.0, 1.0, 800.0)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            hazard(0.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            hazard(0.0, 1.0, -0.5)


class TestLogDensity:
    def test_density_at_origin_is_hazard_times_one(self):
        # f(0+) = hazard(0) * S(0) = exp(o); with o=0 the log tends to 0
        assert log_density_return(0.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-9)

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
            lhs = log_density_return(o, w, gap)
            rhs = math.log(hazard(o, w, gap)) + log_survival(o, w, gap)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_non_positive_gap_rejected(self):
        with pytest.raises(ValidationError):
            log_density_return(0.0, 1.0, 0.0)


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
        integral, _ = sp_integrate.quad(lambda t: hazard(o, w, t), 0, gap, limit=200)
        assert log_survival(o, w, gap) == pytest.approx(-integral, abs=1e-8)


class TestSequenceLoss:
    def test_single_step_returning(self):
        loss, grad = sequence_loss(np.array([0.3]), np.array([2.0]), False, 0.5)
        assert loss == pytest.approx(-log_density_return(0.3, 0.5, 2.0))
        assert grad.shape == (1,)

    def test_single_step_censored(self):
        loss, _ = sequence_loss(np.array([0.3]), np.array([2.0]), True, 0.5)
        assert loss == pytest.approx(-log_survival(0.3, 0.5, 2.0))

    def test_censored_sequence_mixes_terms(self):
        o = np.array([0.1, -0.2, 0.4])
        g = np.array([1.0, 3.0, 12.0])
        loss, _ = sequence_loss(o, g, True, 0.3)
        expected = -(
            log_density_return(0.1, 0.3, 1.0)
            + log_density_return(-0.2, 0.3, 3.0)
            + log_survival(0.4, 0.3, 12.0)
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("censored", [False, True])
    def test_grad_matches_finite_differences(self, censored):
        rng = np.random.default_rng(1)
        for _ in range(5):
            o = rng.uniform(-1.5, 1.5, size=4)
            g = rng.uniform(0.2, 10.0, size=4)
            w = rng.uniform(0.05, 1.0)
            _, grad = sequence_loss(o, g, censored, w)
            h = 1e-6
            for j in range(4):
                op = o.copy(); op[j] += h
                om = o.copy(); om[j] -= h
                num = (sequence_loss(op, g, censored, w)[0]
                       - sequence_loss(om, g, censored, w)[0]) / (2 * h)
                assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sequence_loss(np.array([0.1, 0.2]), np.array([1.0]), False, 0.5)

    @pytest.mark.parametrize("o,w,gap", [(0.3, 0.5, 2.0), (-0.5, 0.2, 12.0), (1.0, 1.0, 1.5)])
    def test_censored_term_equals_one_minus_cdf(self, o, w, gap):
        # the survival factor for a censored user's final gap must equal
        # 1 - CDF(final_gap) computed by integrating the density
        loss, _ = sequence_loss(np.array([o]), np.array([gap]), True, w)
        cdf, _ = sp_integrate.quad(lambda t: safe_density(o, w, t), 0, gap, limit=200)
        assert math.exp(-loss) == pytest.approx(1.0 - cdf, abs=1e-6)

    def test_returning_user_never_needs_survival_term(self):
        # with every step uncensored, the loss equals the pure density sum
        o = np.array([0.2, 0.1])
        g = np.array([1.5, 2.5])
        loss, _ = sequence_loss(o, g, False, 0.4)
        expected = -(log_density_return(0.2, 0.4, 1.5) + log_density_return(0.1, 0.4, 2.5))
        assert loss == pytest.approx(expected, rel=1e-12)


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

    def test_horizon_hint_changes_nothing(self):
        a = expected_return_time(-0.5, 0.2)
        b = expected_return_time(-0.5, 0.2, horizon_hint=120.0)
        assert a == pytest.approx(b, abs=1e-7)

    def test_tail_bound_overflow_saturates(self):
        # the first tail bound at 4 * 120 days has exponent 300 + 480, past
        # exp's range; the survival there reads 0 instead of warning
        value = expected_return_time(300.0, 1.0, horizon_hint=120.0)
        assert 0.0 <= value < 1e-8

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


class TestSurvivalCurve:
    def test_basic_shape(self):
        assert math.exp(log_survival(0.5, 0.3, 0.0)) == 1.0
        gaps = np.linspace(0, 40, 30)
        values = [math.exp(log_survival(0.5, 0.3, float(g))) for g in gaps]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3
