"""Cox proportional-hazards regression: Efron partial likelihood with exact
gradient and Hessian, Newton-Raphson fitting with step halving, the
Cox-Oakes baseline hazard, and expected survival times.

The fitted baseline stores a hazard mass at each distinct event time. For
expectations those masses are spread into piecewise-constant hazard rates
over the inter-event intervals, extrapolated beyond the last event at the
last rate, so the survival integral has a closed form on every piece.
Expectations are computed for many users at once: one array pass over a
(users, knots) block per block of at most EXPECTATION_BLOCK_ROWS users.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, DataModelMismatchError, NumericalError, ValidationError
from .features import Standardization

logger = logging.getLogger(__name__)

TIE_DECIMALS = 9  # event times rounded to 1e-9 days before tie grouping
EXPECTATION_BLOCK_ROWS = 256  # users per (users, knots) block; bounds temporaries


def _validate_inputs(X: np.ndarray, times: np.ndarray, events: np.ndarray) -> None:
    if X.ndim != 2 or len(times) != X.shape[0] or len(events) != X.shape[0]:
        raise ValidationError(
            f"shape mismatch: X {X.shape}, times {times.shape}, events {events.shape}"
        )
    if np.any(times <= 0):
        raise ValidationError("survival times must be positive")
    if not events.any():
        raise DataError("all observations are censored; nothing to fit")


def _tie_groups(
    times: np.ndarray, events: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by event time rounded to TIE_DECIMALS.

    Returns the stable sort order of the rounded times, the sorted rounded
    times, the first sorted index of each tie group and each group's event
    count.
    """
    rounded = np.round(np.asarray(times, dtype=float), TIE_DECIMALS)
    order = np.argsort(rounded, kind="mergesort")
    ts = rounded[order]
    starts = np.flatnonzero(np.append(True, ts[1:] != ts[:-1])[:ts.size])
    return order, ts, starts, np.add.reduceat(events[order].astype(np.int64), starts)


def efron_partial_log_likelihood(
    beta: np.ndarray,
    X: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Efron tie-corrected partial log-likelihood with gradient and Hessian.

    Censored rows enter only through the risk sets. The linear predictor is
    shifted by its maximum before exponentiation; the partial likelihood is
    exactly invariant to that shift.
    """
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    _validate_inputs(X, times, events)

    n, p = X.shape
    order, _, starts, group_events = _tie_groups(times, events)
    Xs = X[order]
    ev = events[order]

    eta = Xs @ beta
    shift = eta.max()
    r = np.exp(eta - shift)
    rx = r[:, None] * Xs
    rxx = rx[:, :, None] * Xs[:, None, :]

    # suffix sums: risk set at time t is everyone with time >= t
    S0 = np.cumsum(r[::-1])[::-1]
    S1 = np.cumsum(rx[::-1], axis=0)[::-1]
    S2 = np.cumsum(rxx[::-1], axis=0)[::-1]

    # the l-th of a tie group's d events (l = 0..d-1) sees the risk-set sums
    # at the group's first sorted row, which need not be an event, less l/d
    # of the group's event sums; an untied event has l = 0. Numerators and
    # denominators both live in shifted coordinates, so the shifts cancel.
    group = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
    idx = np.flatnonzero(ev)
    g = group[idx]
    frac = (np.arange(idx.size) - (np.cumsum(group_events) - group_events)[g]) / group_events[g]
    tied = ev & (group_events > 1)[group]  # event rows of tied groups
    s0d = np.bincount(group[tied], weights=r[tied], minlength=starts.size)
    s1d = np.zeros((starts.size, p))
    np.add.at(s1d, group[tied], rx[tied])
    k = starts[g]
    phi = S0[k] - frac * s0d[g]
    mu = (S1[k] - frac[:, None] * s1d[g]) / phi[:, None]
    value = float(np.sum(eta[idx] - shift - np.log(phi)))
    grad = np.sum(Xs[idx] - mu, axis=0)
    # the Hessian's tie term: each tied group's summed r x x^T, weighted by
    # the sum of (l/d)/phi over its events
    weight = np.bincount(g, weights=frac / phi, minlength=starts.size)
    ties = np.einsum("m,mij->ij", weight[group[tied]], rxx[tied])
    hess = np.einsum("mi,mj->ij", mu, mu) + ties - np.einsum("mij,m->ij", S2[k], 1.0 / phi)
    return value, grad, hess


@dataclass
class CoxModel:
    """Fitted coefficients plus the estimated baseline hazard step function."""

    feature_names: list[str]
    beta: np.ndarray
    center: np.ndarray           # the linear predictor is beta.(x - center)
    baseline_times: np.ndarray   # strictly increasing distinct event times
    baseline_hazard: np.ndarray  # hazard mass at each event time
    n_train: int = 0
    _rates: np.ndarray = field(init=False, repr=False)
    _cum_at_knots: np.ndarray = field(init=False, repr=False)
    _piece_left: np.ndarray = field(init=False, repr=False)
    _piece_rates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.baseline_times, dtype=float)
        h = np.asarray(self.baseline_hazard, dtype=float)
        if t.ndim != 1 or t.size == 0 or h.shape != t.shape:
            raise ValidationError(
                f"baseline needs equal-length, non-empty 1-d times and hazards, got "
                f"{t.shape} and {h.shape}")
        if np.any(np.diff(t) <= 0) or np.any(t <= 0):
            raise ValidationError("baseline event times must be positive and strictly increasing")
        if np.any(h < 0):
            raise ValidationError("baseline hazard values must be non-negative")
        self.beta = np.asarray(self.beta, dtype=float)
        c = self.center = np.asarray(self.center, dtype=float)
        p = len(self.feature_names)
        if not (self.beta.shape == c.shape == (p,) and np.all(np.isfinite(c))):
            raise ValidationError(f"{p} features need as many coefficients and finite center "
                                  f"values, got {self.beta} and {c}")
        self.baseline_times = t
        self.baseline_hazard = h
        widths = np.diff(np.concatenate([[0.0], t]))
        self._rates = h / widths
        self._cum_at_knots = np.concatenate([[0.0], np.cumsum(h)])  # Lambda(_piece_left)
        # piece j covers (_piece_left[j], t[j]]; index len(t) is the tail
        # beyond the last knot, at the last rate
        self._piece_left = np.concatenate([[0.0], t])
        self._piece_rates = np.append(self._rates, self._rates[-1:])

    @property
    def tail_rate(self) -> float:
        return float(self._rates[-1])

    def cumulative_hazard(self, t: float | np.ndarray) -> float | np.ndarray:
        """Baseline cumulative hazard, linear between event times; 0 for
        t <= 0. A scalar t gives a float, an array an array."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.baseline_times, t, side="left")
        value = self._cum_at_knots[i] + self._piece_rates[i] * (t - self._piece_left[i])
        value = np.where(t <= 0, 0.0, value)
        return float(value) if value.ndim == 0 else value

    def risk_score(self, x: np.ndarray) -> float:
        return float(_linear_predictor(np.atleast_2d(x), self.beta, self.center)[0])

    def survival(self, x: np.ndarray, t: float) -> float:
        """S(t | x) = exp(-exp(beta.(x - center)) * Lambda(t)), overflow-guarded."""
        if t <= 0:
            return 1.0
        ch = self.cumulative_hazard(t)
        if ch <= 0:
            return 1.0
        expo = self.risk_score(x) + math.log(ch)
        if expo > 700.0:
            return 0.0
        return math.exp(-math.exp(expo))

    def mean_residuals(self, lin: np.ndarray, a: np.ndarray) -> np.ndarray:
        """integral_a^inf S(z|x)/S(a|x) dz for every row, from its linear
        predictor lin = beta.(x - center), via the piecewise-exponential form.

        Rows are processed in blocks of EXPECTATION_BLOCK_ROWS. Rows with
        lin > 700 get 0; a zero risk score (exp underflow) is rejected by
        the caller, expected_survival_time.
        """
        lin = np.asarray(lin, dtype=float)
        a = np.asarray(a, dtype=float)
        out = np.empty(len(lin))
        underflows = 0
        for lo in range(0, len(lin), EXPECTATION_BLOCK_ROWS):
            rows = slice(lo, lo + EXPECTATION_BLOCK_ROWS)
            out[rows], n = self._mean_residual_block(lin[rows], a[rows])
            underflows += n
        if underflows:
            logger.warning(
                "survival at the absence time underflows for %d of %d users; "
                "their residual expectation is effectively zero", underflows, len(lin),
            )
        return out

    def _mean_residual_block(self, lin: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, int]:
        knots = self.baseline_times
        left = self._piece_left
        cum_left = self._cum_at_knots
        saturated = lin > 700.0
        risk = np.exp(np.minimum(lin, 700.0))
        cum_a = self.cumulative_hazard(a)
        # piece j starts at max(a, left[j]); pieces ending at or before a have
        # zero length and, with the clipped hazard drop, contribute exactly 0
        r = risk[:, None]
        gap = np.maximum(knots - np.maximum(a[:, None], left[:-1]), 0.0)
        drop = np.maximum(cum_left[:-1] - cum_a[:, None], 0.0)  # Lambda(start) - Lambda(a)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            underflows = int(np.count_nonzero(~saturated & (risk * cum_a > 700.0)))
            rho = self._rates * r
            pieces = np.exp(-r * drop) * -np.expm1(-rho * gap) / rho
            pieces[gap == 0.0] = 0.0  # rho may overflow, and inf * 0 is nan
            # beyond the last knot the clipped drop is 0, so a >= last knot
            # gives exactly 1 / (tail_rate * risk)
            tail_rel = -risk * np.maximum(cum_left[-1] - cum_a, 0.0)
            tail = np.where(tail_rel > -700.0, np.exp(tail_rel) / (self.tail_rate * risk), 0.0)
        return np.where(saturated, 0.0, pieces.sum(axis=1) + tail), underflows

    def to_dict(self) -> dict:
        return {
            "feature_names": self.feature_names,
            "beta": self.beta.tolist(),
            "center": self.center.tolist(),
            "baseline_times": self.baseline_times.tolist(),
            "baseline_hazard": self.baseline_hazard.tolist(),
            "n_train": self.n_train,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoxModel":
        return cls(
            feature_names=list(d["feature_names"]),
            beta=np.asarray(d["beta"], dtype=float),
            center=np.asarray(d["center"], dtype=float),
            baseline_times=np.asarray(d["baseline_times"], dtype=float),
            baseline_hazard=np.asarray(d["baseline_hazard"], dtype=float),
            n_train=int(d.get("n_train", 0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "CoxModel":
        """Read a saved model; an unreadable or invalid file raises
        DataModelMismatchError."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, KeyError, TypeError, ValueError, ValidationError) as exc:
            raise DataModelMismatchError(f"Cox model at {path} is unreadable: {exc}") from exc


def _linear_predictor(X: np.ndarray, beta: np.ndarray, center: np.ndarray) -> np.ndarray:
    """beta.(x - center) for each row x of X, each row summed on its own: a
    BLAS matrix-vector product rounds a row by its position in the batch."""
    return ((np.asarray(X, dtype=float) - center) * beta).sum(axis=1)


def baseline_hazard(
    times: np.ndarray, events: np.ndarray, risk_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hazard mass d_i / sum of risk scores over the risk set, per distinct
    event time. With unit risk scores this reduces to Nelson-Aalen increments."""
    events = np.asarray(events, dtype=bool)
    order, ts, starts, d = _tie_groups(times, events)
    suffix = np.cumsum(np.asarray(risk_scores, dtype=float)[order][::-1])[::-1]
    starts, d = starts[d > 0], d[d > 0]
    return ts[starts], d / suffix[starts]


def fit(
    X: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
    feature_names: Sequence[str] | None = None,
    max_iter: int = 100,
    grad_tol: float = 1e-7,
    ridge: float = 1e-6,
    condition_limit: float = 1e12,
) -> CoxModel:
    """Newton-Raphson with step halving on the Efron partial likelihood.

    Covariates are centered and scaled internally for conditioning; the
    returned beta is on the input scale and centered at the training means.
    A ridge term stabilizes the Hessian when near-singular (collinear covariates).
    """
    X = np.asarray(X, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    _validate_inputs(X, times, events)
    if events.sum() < 2:
        raise DataError(f"fit needs at least 2 events, got {int(events.sum())}")
    n, p = X.shape
    names = list(feature_names) if feature_names is not None else [f"x{i}" for i in range(p)]
    if len(names) != p:
        raise ValidationError(f"{len(names)} feature names for {p} columns")

    scaling = Standardization.fit(X)
    Xs = scaling.apply(X)

    beta = np.zeros(p)
    value, grad, hess = efron_partial_log_likelihood(beta, Xs, times, events)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < grad_tol:
            break
        neg_hess = -hess
        if not np.all(np.isfinite(neg_hess)) or np.linalg.cond(neg_hess) > condition_limit:
            neg_hess = neg_hess + ridge * np.eye(p)
        step = np.linalg.solve(neg_hess, grad)
        scale = 1.0
        # near the optimum the value only moves at rounding scale, so accept
        # steps that do not decrease it beyond float noise
        slack = 1e-9 * max(1.0, abs(value))
        for _ in range(40):
            candidate = beta + scale * step
            new_value, new_grad, new_hess = efron_partial_log_likelihood(
                candidate, Xs, times, events
            )
            if new_value > value - slack:
                beta, value, grad, hess = candidate, new_value, new_grad, new_hess
                break
            scale *= 0.5
        else:
            break  # no ascent direction left; convergence check decides below
    if np.max(np.abs(grad)) >= grad_tol:
        raise NumericalError(
            "Cox fit did not converge: final gradient max-norm "
            f"{np.max(np.abs(grad)):.3e} after {max_iter} iterations"
        )

    beta_raw = beta / scaling.std
    # the hazard masses use the risk exp(beta.(x - center)) that predictions use
    lin = _linear_predictor(X, beta_raw, scaling.mean)
    if np.max(np.abs(lin)) > 700.0:
        raise NumericalError("risk scores overflow at the fitted coefficients")
    base_t, base_h = baseline_hazard(times, events, np.exp(lin))
    return CoxModel(
        feature_names=names,
        beta=beta_raw,
        baseline_times=base_t,
        baseline_hazard=base_h,
        center=scaling.mean,
        n_train=n,
    )


def expected_survival_time(
    model: CoxModel,
    x: np.ndarray,
    t_s: float | np.ndarray,
    row_ids: Sequence[str] | None = None,
) -> float | np.ndarray:
    """E[T | T > t_s, x]: the expected survival time given survival past the
    absence time t_s; t_s = 0 gives the unconditioned E[T | x].

    Batched: x is one covariate row (p,) or N rows (N, p), and t_s a scalar
    or one absence time per row (N,). One row gives a float, N rows an (N,)
    array; both take the same array path. The expectation equals t_s plus
    the mean residual life, which never divides by an underflowing
    survival value. A risk score exp(beta.(x - center)) that underflows to
    0 would make the expectation infinite and raises NumericalError naming
    the first such row (by row_ids when given, else by index).
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    t_s = np.broadcast_to(np.asarray(t_s, dtype=float), (X.shape[0],))
    if np.any(t_s < 0):
        bad = t_s[np.argmax(t_s < 0)]
        raise ValidationError(f"absence time must be non-negative, got {bad}")
    lin = _linear_predictor(X, model.beta, model.center)
    underflow = np.flatnonzero(np.exp(np.minimum(lin, 0.0)) == 0.0)
    if underflow.size:
        k = int(underflow[0])
        name = f"user {row_ids[k]}" if row_ids is not None else f"row {k}"
        more = f" and {underflow.size - 1} more" if underflow.size > 1 else ""
        raise NumericalError(
            f"Cox risk score exp(beta.(x - center)) underflows to 0 for {name} (linear "
            f"predictor {lin[k]:.6g}){more}; the expected return time is unbounded"
        )
    values = t_s + model.mean_residuals(lin, t_s)
    return float(values[0]) if x.ndim == 1 else values
