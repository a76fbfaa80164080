import numpy as np
import pytest
from scipy import integrate as sp_integrate

from returntime.errors import QuadratureError
from returntime.quadrature import integrate

from oracles import integrate_heap


class TestIntegrate:
    def test_polynomial_is_exact(self):
        # K15 integrates polynomials up to degree 22 exactly on one panel
        value = integrate(lambda x: 3 * x ** 2, 0.0, 2.0, abs_tol=1e-12)
        assert value == pytest.approx(8.0, abs=1e-12)

    def test_exponential_decay(self):
        value = integrate(np.exp, -50.0, 0.0, abs_tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_oscillatory_against_scipy(self):
        f = lambda x: np.sin(x) * np.exp(-0.1 * x)
        ref, _ = sp_integrate.quad(lambda x: float(f(np.asarray(x))), 0.0, 60.0, limit=200)
        assert integrate(f, 0.0, 60.0, abs_tol=1e-10) == pytest.approx(ref, abs=1e-8)

    def test_empty_interval(self):
        assert integrate(np.exp, 1.0, 1.0) == 0.0

    def test_panel_budget_exhaustion_raises_with_diagnostics(self):
        spiky = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-15)
        with pytest.raises(QuadratureError, match="panels"):
            integrate(spiky, 0.0, 1.0, abs_tol=1e-14, max_panels=4)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            with np.errstate(divide="ignore"):
                integrate(lambda x: 1.0 / x, -1.0, 1.0)


class TestBatchedIntegrate:
    """Array limits: N problems in lockstep, row i of every node array being
    problem i's."""

    def test_rows_are_their_own_problems(self):
        rates = np.array([0.5, 1.0, 3.0, 10.0])
        upper = np.array([1.0, 5.0, 2.0, 0.3])
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(-rates[:, None] * x)

        values = integrate(f, 0.0, upper, abs_tol=1e-12)
        assert values.shape == (4,)
        np.testing.assert_allclose(values, (1.0 - np.exp(-rates * upper)) / rates, rtol=1e-12)
        assert all(len(shape) == 2 and shape[0] == 4 for shape in shapes)

    def test_each_row_equals_its_own_scalar_call_and_the_heap_oracle(self):
        rates = np.array([0.05, 0.7, 2.0, 40.0, 0.001])
        lower = np.array([0.0, -1.0, 2.0, 0.0, 3.0])
        upper = np.array([60.0, 4.0, 2.5, 1.0, 300.0])
        batched = integrate(lambda x: np.sin(x) * np.exp(-rates[:, None] * x) + 1.0,
                            lower, upper, abs_tol=1e-10)
        for i in range(5):
            f = lambda x, r=rates[i]: np.sin(x) * np.exp(-r * x) + 1.0
            assert batched[i] == integrate(lambda x: f(x[0])[None], lower[i], upper[i:i + 1],
                                           abs_tol=1e-10)[0]
            assert batched[i] == pytest.approx(
                integrate_heap(f, lower[i], upper[i], abs_tol=1e-10), rel=1e-12)

    def test_ties_split_the_leftmost_panel_as_the_heap_does(self):
        # a constant gives equal-width panels equal error estimates, and a
        # budget stops the run after a few splits
        seen, heap_seen = [], []
        constant = lambda x, log: log.append(x.reshape(-1, 15).copy()) or np.full(x.shape, 1e20)
        with pytest.raises(QuadratureError, match="panels"):
            integrate(lambda x: constant(x, seen), 0.0, 8.0, abs_tol=1e-300, max_panels=9)
        with pytest.raises(QuadratureError, match="panels"):
            integrate_heap(lambda x: constant(x, heap_seen), 0.0, 8.0, abs_tol=1e-300,
                           max_panels=9)
        assert np.array_equal(np.concatenate(seen), np.concatenate(heap_seen))

    def test_empty_rows_integrate_to_zero(self):
        values = integrate(lambda x: np.ones_like(x), np.array([0.0, 2.0, 1.0]),
                           np.array([1.0, 2.0, -1.0]))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1:].tolist() == [0.0, 0.0]
        assert integrate(np.exp, np.zeros(2), np.zeros(2)).tolist() == [0.0, 0.0]

    def test_one_hard_problem_exhausts_its_budget(self):
        offsets = np.array([1.0, 1e-15])
        spiky = lambda x: 1.0 / np.sqrt(np.abs(x) + offsets[:, None])
        with pytest.raises(QuadratureError, match="panels"):
            integrate(spiky, np.zeros(2), np.ones(2), abs_tol=1e-14, max_panels=4)

    def test_non_finite_value_in_one_problem_rejected(self):
        poles = np.array([5.0, 0.0])
        with pytest.raises(QuadratureError, match="non-finite"):
            with np.errstate(divide="ignore"):
                integrate(lambda x: 1.0 / (x - poles[:, None]), np.full(2, -1.0), np.ones(2))
