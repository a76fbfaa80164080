"""Independent reference implementations used only as test oracles.

Everything here is deliberately written in the most direct way possible
(scalar loops, brute-force pair enumeration) so it shares no code path with
the package. The exceptions are the adapters that hand the package's batch
loss to scipy (batch_log_likelihood, safe_density and safe_survival): they
are what the quadrature oracles check.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np


def scalar_net_forward(params, config, disc, cont):
    """Step-by-step scalar re-implementation of the sequence network."""
    H = config.hidden_size
    F = config.fusion_size

    def sigmoid(x):
        return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))

    T = len(disc)
    outputs = []
    h_prev = [0.0] * H
    c_prev = [0.0] * H
    for t in range(T):
        u = []
        for k, name in enumerate(config.discrete_features):
            row = params[f"emb_{name}"][disc[t][k]]
            u.extend(float(v) for v in row)
        u.extend(float(v) for v in cont[t])
        x = []
        for f_idx in range(F):
            acc = float(params["fusion_b"][f_idx])
            for d_idx, u_val in enumerate(u):
                acc += float(params["fusion_w"][f_idx][d_idx]) * u_val
            x.append(math.tanh(acc))
        z = []
        for g_idx in range(4 * H):
            acc = float(params["lstm_b"][g_idx])
            for f_idx in range(F):
                acc += float(params["lstm_wx"][g_idx][f_idx]) * x[f_idx]
            for h_idx in range(H):
                acc += float(params["lstm_wh"][g_idx][h_idx]) * h_prev[h_idx]
            z.append(acc)
        c_t = []
        h_t = []
        for h_idx in range(H):
            i_g = sigmoid(z[h_idx])
            f_g = sigmoid(z[H + h_idx])
            g_g = math.tanh(z[2 * H + h_idx])
            o_g = sigmoid(z[3 * H + h_idx])
            c_val = f_g * c_prev[h_idx] + i_g * g_g
            c_t.append(c_val)
            h_t.append(o_g * math.tanh(c_val))
        o_val = float(params["out_b"][0])
        for h_idx in range(H):
            o_val += float(params["out_v"][h_idx]) * h_t[h_idx]
        outputs.append(o_val)
        h_prev, c_prev = h_t, c_t
    return outputs


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every entry of every
    tensor in params; loss_fn reads params by reference."""
    grads = {}
    for key, tensor in params.items():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads


def max_relative_error(analytic, numeric, abs_floor=1e-8):
    """Worst-case relative disagreement; coordinates equal to within the
    absolute floor count as exact."""
    worst = 0.0
    for key in analytic:
        a = np.asarray(analytic[key]).ravel()
        n = np.asarray(numeric[key]).ravel()
        for av, nv in zip(a, n):
            diff = abs(av - nv)
            if diff < abs_floor:
                continue
            worst = max(worst, diff / max(abs(av), abs(nv), abs_floor))
    return worst


def one_user_batch(targets, censored, disc=None, cont=None):
    """One user's (T,) gaps as a one-row PaddedBatch. The features default
    to zero channels, which the loss does not read."""
    from returntime.features import PaddedBatch

    T = len(targets)
    disc = np.zeros((T, 0), dtype=np.int64) if disc is None else disc
    cont = np.zeros((T, 0)) if cont is None else cont
    return PaddedBatch(disc[None], cont[None], np.asarray(targets, dtype=float)[None],
                       np.array([T]), np.array([censored]))


def batch_log_likelihood(o, w, gap, censored):
    """The package's likelihood term of one step, read off a one-step
    rnnsm._batch_loss batch: log f(gap) for a returning user, log S(gap) for
    a censored one. Not a reference: the oracles below check it."""
    from returntime.rnnsm import _batch_loss

    losses, _ = _batch_loss(np.array([[float(o)]]), one_user_batch([gap], censored), w)
    return -float(losses[0])


def safe_density(o, w, gap):
    """f(gap) from the batch loss, with the far tail evaluated as exactly 0,
    where the package's overflow guard would fire but the true value
    underflows."""
    if gap <= 0:
        return 0.0
    if o + w * gap > 600.0:
        return 0.0
    return math.exp(batch_log_likelihood(o, w, gap, censored=False))


def safe_survival(o, w, gap):
    """S(gap) from the batch loss; 1 at gap <= 0, 0 in the far tail."""
    if gap <= 0:
        return 1.0
    if o + w * gap > 600.0:
        return 0.0
    return math.exp(batch_log_likelihood(o, w, gap, censored=True))


def per_step_loss(o, targets, censored, w):
    """The textbook censored negative log-likelihood of one user under the
    hazard exp(o_t + w*dt) after step t: each gap contributes
    log f = o_t + w*gap + log S, and a censored user's final gap log S alone,
    with log S(gap) = -exp(o_t) * (exp(w*gap) - 1) / w."""
    total = 0.0
    for t, (o_t, gap) in enumerate(zip(o, targets)):
        log_s = -math.exp(o_t) * math.expm1(w * gap) / w
        total += log_s if censored and t == len(targets) - 1 else o_t + w * gap + log_s
    return -total


def breslow_partial_log_likelihood(beta, X, times, events):
    """Direct Breslow partial log-likelihood (no tie correction)."""
    beta = np.asarray(beta, dtype=float)
    eta = np.asarray(X, dtype=float) @ beta
    value = 0.0
    for i in range(len(times)):
        if not events[i]:
            continue
        risk = [j for j in range(len(times)) if times[j] >= times[i]]
        value += eta[i] - math.log(sum(math.exp(eta[j]) for j in risk))
    return value


def nelson_aalen(times, events):
    """Cumulative hazard increments d_i / |R(t_i)| at distinct event times."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    out_t = []
    out_h = []
    for t in sorted(set(times[events])):
        d = int(np.sum((times == t) & events))
        at_risk = int(np.sum(times >= t))
        out_t.append(t)
        out_h.append(d / at_risk)
    return np.asarray(out_t), np.cumsum(out_h)


class Record(NamedTuple):
    """One user's predicted and true return gap, both in days from the end of
    their last observed session: exactly one of true_return_days and
    censored_lower_bound_days is set."""

    user_id: str
    predicted_return_days: float
    true_return_days: float | None
    censored_lower_bound_days: float | None
    horizon_gap_days: float
    active_day_count: int
    last_session_end_days: float | None = None

    @property
    def is_censored(self):
        return self.true_return_days is None

    @property
    def observed_days(self):
        if self.true_return_days is not None:
            return self.true_return_days
        return self.censored_lower_bound_days

    @property
    def true_return_week(self):
        if self.true_return_days is None:
            return None
        return int(math.floor(self.true_return_days / 7.0))


def table(records):
    """returntime.metrics.Predictions of the records, in their order."""
    from returntime.metrics import Predictions

    return Predictions(
        user_ids=[r.user_id for r in records],
        predicted=np.array([r.predicted_return_days for r in records], dtype=float),
        observed=np.array([r.observed_days for r in records], dtype=float),
        censored=np.array([r.is_censored for r in records], dtype=bool),
        horizon_gap=np.array([r.horizon_gap_days for r in records], dtype=float),
        active_days=np.array([r.active_day_count for r in records], dtype=np.int64),
        last_end=np.array([math.nan if r.last_session_end_days is None
                           else r.last_session_end_days for r in records], dtype=float),
    )


def rmse_returning_records(records):
    """Root mean squared error over the uncensored records, one record at a time."""
    errs = [
        r.predicted_return_days - r.true_return_days
        for r in records
        if r.true_return_days is not None
    ]
    return float(np.sqrt(np.mean(np.square(errs))))


def error_breakdowns_records(records, cap=64):
    """returntime.metrics.error_breakdowns, one record at a time: each
    bucket's values are appended in record order."""
    week_sq, week_err, day_sq = {}, {}, {}
    for r in records:
        if r.true_return_days is None:
            continue
        err = r.predicted_return_days - r.true_return_days
        week = r.true_return_week
        week_sq.setdefault(week, []).append(err * err)
        week_err.setdefault(week, []).append(err)
        bucket = f"{cap}+" if r.active_day_count >= cap else str(r.active_day_count)
        day_sq.setdefault(bucket, []).append(err * err)
    buckets = sorted(day_sq, key=lambda b: math.inf if b.endswith("+") else int(b))
    return {
        "rmse_by_week": {str(k): float(np.sqrt(np.mean(v))) for k, v in sorted(week_sq.items())},
        "mean_error_by_week": {str(k): float(np.mean(v)) for k, v in sorted(week_err.items())},
        "n_by_week": {str(k): len(v) for k, v in sorted(week_sq.items())},
        "rmse_by_active_days": {k: float(np.sqrt(np.mean(day_sq[k]))) for k in buckets},
        "n_by_active_days": {k: len(day_sq[k]) for k in buckets},
    }


def concordance_brute(records):
    """Enumerate every ordered pair; comparable when the first is uncensored
    and strictly earlier than the second's observed time or bound."""
    concordant = 0.0
    comparable = 0
    for a in records:
        if a.is_censored:
            continue
        for b in records:
            if b is a:
                continue
            if a.observed_days < b.observed_days:
                comparable += 1
                if a.predicted_return_days < b.predicted_return_days:
                    concordant += 1.0
                elif a.predicted_return_days == b.predicted_return_days:
                    concordant += 0.5
    return concordant / comparable


def auc_brute(scores, positive):
    total = 0.0
    n_pairs = 0
    for i in range(len(scores)):
        if not positive[i]:
            continue
        for j in range(len(scores)):
            if positive[j]:
                continue
            n_pairs += 1
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / n_pairs


def recall_brute(records):
    hits = 0
    positives = 0
    for r in records:
        if r.is_censored:
            positives += 1
            if r.predicted_return_days > r.horizon_gap_days:
                hits += 1
    return hits / positives


def efron_by_group(beta, X, times, events, decimals=9):
    """Efron partial log-likelihood, gradient and Hessian, one distinct
    event time at a time: times rounded to the given decimals, the risk set
    and the tied events listed by scanning every row, and no shift of the
    linear predictor."""
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    t = np.round(np.asarray(times, dtype=float), decimals).tolist()
    n, p = X.shape
    eta = [float(X[i] @ beta) for i in range(n)]
    r = [math.exp(e) for e in eta]
    value, grad, hess = 0.0, np.zeros(p), np.zeros((p, p))
    for time in sorted({t[i] for i in range(n) if events[i]}):
        tied = [i for i in range(n) if events[i] and t[i] == time]
        risk = [i for i in range(n) if t[i] >= time]
        sums = [
            (sum(r[i] for i in rows), sum(r[i] * X[i] for i in rows),
             sum(r[i] * np.outer(X[i], X[i]) for i in rows))
            for rows in (risk, tied)
        ]
        (s0, s1, s2), (d0, d1, d2) = sums
        d = len(tied)
        for l, i in enumerate(tied):
            value += eta[i]
            grad += X[i]
            phi = s0 - l / d * d0
            mu = (s1 - l / d * d1) / phi
            value -= math.log(phi)
            grad -= mu
            hess -= (s2 - l / d * d2) / phi - np.outer(mu, mu)
    return value, grad, hess


def efron_two_path(
    beta: np.ndarray,
    X: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Efron partial log-likelihood, gradient and Hessian in two paths:
    untied events in one array pass, each tied group's events in a Python
    loop. The array pass is the reference, bit for bit, for untied data."""
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)

    n, p = X.shape
    rounded = np.round(times, 9)
    order = np.argsort(rounded, kind="mergesort")
    ts = rounded[order]
    starts = np.flatnonzero(np.append(True, ts[1:] != ts[:-1])[:ts.size])
    group_events = np.add.reduceat(events[order].astype(np.int64), starts)
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

    # first index of each row's tie group, and events in that group
    sizes = np.diff(starts, append=n)
    first_idx = np.repeat(starts, sizes)
    d_per_row = np.repeat(group_events, sizes)

    value = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))

    # untied events vectorized; numerators and denominators both live in
    # shifted coordinates, so the shifts cancel exactly
    single = ev & (d_per_row == 1)
    if single.any():
        k = first_idx[single]
        phi = S0[k]
        mu = S1[k] / phi[:, None]
        value += float(np.sum(eta[single] - shift - np.log(phi)))
        grad += np.sum(Xs[single] - mu, axis=0)
        hess -= np.einsum("mij,m->ij", S2[k], 1.0 / phi) - np.einsum("mi,mj->ij", mu, mu)

    # tied event groups with the Efron correction; a group's first row need
    # not itself be an event
    tied = group_events > 1
    for start, size in zip(starts[tied], sizes[tied]):
        d_idx = np.flatnonzero(ev[start:start + size]) + start
        d = len(d_idx)
        s0d = r[d_idx].sum()
        s1d = rx[d_idx].sum(axis=0)
        s2d = rxx[d_idx].sum(axis=0)
        value += float(eta[d_idx].sum() - shift * d)
        grad += Xs[d_idx].sum(axis=0)
        for l in range(d):
            frac = l / d
            phi = S0[start] - frac * s0d
            nu = S1[start] - frac * s1d
            M = S2[start] - frac * s2d
            value -= math.log(phi)
            mu = nu / phi
            grad -= mu
            hess -= M / phi - np.outer(mu, mu)
    return value, grad, hess


def baseline_hazard_walk(times, events, risk_scores, decimals=9):
    """Hazard mass per distinct event time by walking the sorted rows group
    by group, summing the risk set from the right as a running suffix sum."""
    times = np.round(np.asarray(times, dtype=float), decimals)
    order = np.argsort(times, kind="mergesort")
    ts = times[order]
    ev = np.asarray(events, dtype=bool)[order]
    suffix = np.cumsum(np.asarray(risk_scores, dtype=float)[order][::-1])[::-1]
    out_t, out_h = [], []
    start = 0
    while start < len(ts):
        stop = start
        while stop < len(ts) and ts[stop] == ts[start]:
            stop += 1
        d = int(ev[start:stop].sum())
        if d > 0:
            out_t.append(ts[start])
            out_h.append(d / suffix[start])
        start = stop
    return np.asarray(out_t, dtype=float), np.asarray(out_h, dtype=float)


def cox_cumulative_hazard(model, t):
    """Baseline cumulative hazard: the masses of the event times before t,
    plus the share of the next mass up to t, or the last rate beyond the
    last event time."""
    knots = [float(k) for k in model.baseline_times]
    masses = [float(h) for h in model.baseline_hazard]
    total, left = 0.0, 0.0
    for k, mass in zip(knots, masses):
        if t <= k:
            return total + mass / (k - left) * (t - left) if t > 0 else 0.0
        total, left = total + mass, k
    return total + masses[-1] / (knots[-1] - (knots[-2] if len(knots) > 1 else 0.0)) * (t - left)


def cox_linear_predictor(model, x):
    """beta.(x - center), summed feature by feature."""
    return sum((float(v) - float(c)) * float(b)
               for v, c, b in zip(x, model.center, model.beta))


def cox_survival(model, x, t):
    """S(t|x) = exp(-exp(beta.(x - center)) * Lambda(t)), with Lambda from
    cox_cumulative_hazard; 0 once the exponent passes 700."""
    cum = cox_cumulative_hazard(model, t)
    if cum <= 0:
        return 1.0
    expo = cox_linear_predictor(model, x) + math.log(cum)
    return 0.0 if expo > 700.0 else math.exp(-math.exp(expo))


def cox_mean_residual(model, x, a):
    """integral_a^inf S(z|x)/S(a|x) dz for a fitted Cox model, one piece of
    the baseline at a time: hazard rate h_j / (t_j - t_{j-1}) on each
    inter-event interval, the last rate beyond the last event, and the
    cumulative hazard at each piece start from cox_cumulative_hazard."""
    lin = cox_linear_predictor(model, x)
    if lin > 700.0:
        return 0.0
    risk = math.exp(lin)
    knots = [float(t) for t in model.baseline_times]
    masses = [float(h) for h in model.baseline_hazard]
    lefts = [0.0] + knots[:-1]
    cum_a = cox_cumulative_hazard(model, a)
    total = 0.0
    for left, right, mass in zip(lefts, knots, masses):
        if right <= a:
            continue
        start = max(a, left)
        rho = mass / (right - left) * risk
        weight = math.exp(-risk * (cox_cumulative_hazard(model, start) - cum_a))
        total += weight * -math.expm1(-rho * (right - start)) / rho
    tail_rate = masses[-1] / (knots[-1] - lefts[-1])
    start = max(a, knots[-1])
    total += math.exp(-risk * (cox_cumulative_hazard(model, start) - cum_a)) / (tail_rate * risk)
    return total


def parse_ts(value):
    """An ISO-8601 timestamp as an aware UTC datetime; naive means UTC."""
    ts = dt.datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=dt.timezone.utc)
    return ts.astimezone(dt.timezone.utc)


def read_sessions_plain(path):
    """Parse a sessions JSONL file record by record, without any cache:
    (sessions, epoch_iso), as returntime.data documents it."""
    from returntime.data import Session

    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        return [], "1970-01-01T00:00:00+00:00"
    stamps = [parse_ts(rec["start_ts"]) for rec in records]
    epoch = min(stamps).replace(hour=0, minute=0, second=0, microsecond=0)
    sessions = []
    for ts, rec in zip(stamps, records):
        markers = rec.get("markers") or {}
        sessions.append(Session(
            user_id=str(rec["user_id"]),
            start_time=(ts - epoch).total_seconds() / 86400.0,
            duration=float(rec.get("duration_s", 0.0)) / 86400.0,
            discrete_markers={k: v for k, v in markers.items() if isinstance(v, str)},
            continuous_markers={
                k: float(v) for k, v in markers.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
        ))
    return sessions, epoch.isoformat()


def session_columns(sessions):
    """returntime.data.SessionColumns of Session objects, in their order,
    with user ids, marker keys and discrete values coded by first appearance."""
    from returntime.data import SessionColumns

    sessions = list(sessions)
    user_ids = list(dict.fromkeys(s.user_id for s in sessions))

    def column(values, dtype):
        return np.array(values, dtype=dtype).reshape(len(sessions))

    discrete = {}
    for key in dict.fromkeys(k for s in sessions for k in s.discrete_markers):
        rows = [s.discrete_markers.get(key) for s in sessions]
        present = [key in s.discrete_markers for s in sessions]
        values = list(dict.fromkeys(v for v, p in zip(rows, present) if p))
        discrete[key] = (values, column(present, bool),
                         column([values.index(v) if p else 0 for v, p in zip(rows, present)],
                                np.int64))
    continuous = {}
    for key in dict.fromkeys(k for s in sessions for k in s.continuous_markers):
        continuous[key] = (column([key in s.continuous_markers for s in sessions], bool),
                           column([s.continuous_markers.get(key, 0.0) for s in sessions], float))
    return SessionColumns(
        user_ids, column([user_ids.index(s.user_id) for s in sessions], np.int64),
        column([s.start_time for s in sessions], float),
        column([s.duration for s in sessions], float), discrete, continuous,
    )


def write_sessions_jsonl_objects(path, sessions, epoch_iso):
    """returntime.data.write_sessions_jsonl over Session objects: one
    json.dumps per session."""
    epoch = parse_ts(epoch_iso)
    with open(path, "w") as fh:
        for s in sessions:
            markers = {**s.discrete_markers, **s.continuous_markers}
            fh.write(json.dumps({
                "user_id": s.user_id,
                "start_ts": (epoch + dt.timedelta(days=s.start_time)).isoformat(),
                "duration_s": s.duration * 86400.0,
                "markers": markers,
            }, sort_keys=True) + "\n")


def cache_members(path):
    """The parse cache beside a sessions file: each member's dtype, shape and
    bytes. The zip entries' write times are not members."""
    from returntime.data import CACHE_SUFFIX

    with np.load(str(path) + CACHE_SUFFIX) as npz:
        return {name: (npz[name].dtype, npz[name].shape, npz[name].tobytes())
                for name in npz.files}


def cached_read(path):
    """returntime.data.read_sessions_jsonl that fails unless it is served
    from the cache."""
    from unittest import mock

    from returntime import data

    with mock.patch.object(data, "_parse_jsonl", side_effect=AssertionError("parsed")):
        return data.read_sessions_jsonl(path)


def as_plain(read):
    """A read's (sessions, epoch_iso) with the sessions as a list."""
    sessions, epoch_iso, _ = read
    return list(sessions), epoch_iso


def cold_read_equals_cached(path):
    """Asserts that the parse cache beside path, which write_sessions_jsonl
    wrote, reads as a cold parse of path reads, and has the members of the
    cache that parse writes; returns the cold read."""
    from returntime.data import CACHE_SUFFIX, read_sessions_jsonl

    written = cache_members(path)
    hit = cached_read(path)
    Path(str(path) + CACHE_SUFFIX).unlink()
    cold = read_sessions_jsonl(path)
    assert cache_members(path) == written
    assert as_plain(hit) == as_plain(cold)
    assert hit[2] == cold[2]  # the sha256 of the file
    return cold


def generate_objects(config):
    """returntime.synth.generate as Session objects: every arrival out to
    sim_end, then a scalar draw per mark of every arrival, kept or not."""
    from returntime.data import Session
    from returntime.errors import ConfigError
    from returntime.synth import DEVICES, MINUTE, GroundTruthRow

    def simulate_user(user_id, cohort, rng):
        horizon = config.horizon_days
        t_p = config.window.prediction_start
        sim_end = horizon + 10.0 * config.prediction_window_days
        signup = rng.uniform(0.0, config.signup_spread * horizon)
        if cohort.lapse_multiplier > 1.0:
            lo, hi = cohort.lapse_window
            change_point = max(rng.uniform(lo, hi) * horizon, signup)
        else:
            change_point = math.inf

        def draw_gap(now):
            mu = cohort.gap_log_mean
            if now >= change_point:
                if cohort.lapse_taper_days > 0:
                    ramp = min(1.0, (now - change_point) / cohort.lapse_taper_days)
                else:
                    ramp = 1.0
                mu += math.log(cohort.lapse_multiplier) * ramp
            return float(rng.lognormal(mu, cohort.gap_log_sigma))

        night_owl = rng.random() < cohort.night_owl_prob
        first_gap = draw_gap(signup)
        t = signup + (rng.uniform(0.0, first_gap) if first_gap > 0 else 0.0)
        times = []
        while t <= sim_end and len(times) < config.session_cap:
            hour = rng.normal(1.5, 1.5) if night_owl else rng.normal(14.5, 3.0)
            mapped = math.floor(t) + float(hour % 24.0) / 24.0
            if times and mapped <= times[-1]:
                mapped = times[-1] + MINUTE
            times.append(mapped)
            t += draw_gap(t)
        times = [x for x in times if x <= sim_end]
        if not times or times[0] > horizon:
            return [], None

        primary = int(rng.choice(len(DEVICES), p=cohort.device_probs))
        sessions = []
        last_obs_end = None
        for j, start in enumerate(times):
            duration = float(rng.lognormal(config.duration_log_mean, config.duration_log_sigma))
            if j + 1 < len(times):
                duration = min(duration, 0.8 * (times[j + 1] - start))
            if rng.random() < 0.8:
                device = DEVICES[primary]
            else:
                device = DEVICES[(primary + 1 + int(rng.integers(0, len(DEVICES) - 1)))
                                 % len(DEVICES)]
            pages = max(1.0, float(np.round(rng.lognormal(cohort.pages_log_mean,
                                                          cohort.pages_log_sigma))))
            if start <= horizon:
                sessions.append(Session(user_id, start, duration, {"device": device},
                                        {"pages_viewed": pages}))
            if start <= t_p:
                last_obs_end = min(start + duration, t_p)
        first_post = next((x for x in times if x > t_p), None)
        if last_obs_end is None:
            return sessions, None
        return sessions, GroundTruthRow(
            user_id, cohort.name,
            (first_post - last_obs_end) if first_post is not None else None,
            first_post is not None and first_post <= horizon,
        )

    config.validate()
    fractions = np.array([c.fraction for c in config.cohorts])
    children = np.random.SeedSequence(config.seed).spawn(config.user_count)
    sessions, truths, n_empty = [], [], 0
    for i in range(config.user_count):
        rng = np.random.default_rng(children[i])
        cohort = config.cohorts[int(rng.choice(len(config.cohorts), p=fractions))]
        user_sessions, truth = simulate_user(f"u{i:05d}", cohort, rng)
        if not user_sessions:
            n_empty += 1
            continue
        sessions.extend(user_sessions)
        if truth is not None:
            truths.append(truth)
    if n_empty > config.user_count / 2:
        raise ConfigError(f"{n_empty} of {config.user_count} users produced no sessions")
    return sessions, truths


# ---------------------------------------------------------------------------
# the per-session object path: windowing, sequences and aggregates over
# Session and UserHistory objects, the reference for the columnar package code

def compute_return_targets(sessions):
    """Gaps between consecutive sessions: next start minus previous end."""
    from returntime.errors import ValidationError

    if not sessions:
        raise ValidationError("compute_return_targets requires at least one session")
    targets = []
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


def merge_user_sessions(sessions):
    """Sort by start and merge duplicates/overlaps: continuous markers summed,
    the first session's discrete markers kept."""
    from returntime.data import Session

    ordered = sorted(sessions, key=lambda s: s.start_time)
    merged = []
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


def assign_windows_objects(raw_sessions, config):
    """UserHistory per kept user, sorted by id, one session object at a time."""
    from returntime.data import UserHistory
    from returntime.errors import ValidationError

    by_user = {}
    for s in raw_sessions:
        if s.start_time > config.horizon_end:
            raise ValidationError(
                f"session for user {s.user_id!r} at day {s.start_time} starts "
                f"after horizon_end {config.horizon_end}"
            )
        by_user.setdefault(s.user_id, []).append(s)
    users = []
    for user_id in sorted(by_user):
        sessions = merge_user_sessions(by_user[user_id])
        obs = [s for s in sessions if s.start_time <= config.prediction_start]
        post = [s for s in sessions if s.start_time > config.prediction_start]
        if not obs or not any(config.activity_start <= s.start_time for s in obs):
            continue
        last_end = min(obs[-1].end_time, config.prediction_start)
        if post:
            final_gap, is_censored = post[0].start_time - last_end, False
        else:
            final_gap, is_censored = config.horizon_end - last_end, True
        users.append(UserHistory(
            user_id=user_id, sessions=tuple(obs),
            return_targets=tuple(compute_return_targets(obs)),
            final_gap=final_gap, is_censored=is_censored, last_session_end=last_end,
        ))
    return tuple(users)


def to_raw_sessions(users):
    """A raw session stream that rebuilds these users: returning users get
    one synthetic prediction-window session at their observed return time."""
    from returntime.data import Session

    raw = []
    for user in users:
        raw.extend(user.sessions)
        if not user.is_censored:
            raw.append(Session(user_id=user.user_id,
                               start_time=user.last_session_end + user.final_gap))
    return raw


def count_active_days(user):
    return len({math.floor(s.start_time) for s in user.sessions})


def _object_markers(users, kind):
    names = set()
    for user in users:
        for s in user.sessions:
            names.update(getattr(s, kind))
    return sorted(names)


def build_aggregates_objects(users, window, continuous_markers=None):
    """(X, feature names) of returntime.features.build_aggregates, row by row."""
    markers = (list(continuous_markers) if continuous_markers is not None
               else _object_markers(users, "continuous_markers"))
    names = (["session_count", "active_day_count", "mean_gap", "std_gap", "mean_duration"]
             + [f"mean_{m}" for m in markers]
             + ["absence_time", "observation_span", "missing_gap_flag"])
    rows = []
    for user in users:
        gaps = np.asarray(user.return_targets)
        row = [
            float(len(user.sessions)),
            float(count_active_days(user)),
            float(gaps.mean()) if gaps.size else 0.0,
            float(gaps.std()) if gaps.size >= 2 else 0.0,
            float(np.mean([s.duration for s in user.sessions])),
        ]
        for m in markers:
            row.append(float(np.mean([s.continuous_markers.get(m, 0.0) for s in user.sessions])))
        row.append(window.prediction_start - user.last_session_end)
        row.append(user.sessions[-1].start_time - user.sessions[0].start_time)
        row.append(0.0 if gaps.size else 1.0)
        rows.append(row)
    return np.asarray(rows, dtype=float).reshape(len(rows), len(names)), names


def _user_steps(user, epoch_weekday, markers, marker_features):
    """Raw (discrete values, continuous values, target) step rows of one user,
    one step per active day."""
    units, days = [], []
    for s in user.sessions:
        day = math.floor(s.start_time)
        if days and day == days[-1]:
            units[-1].append(s)
        else:
            units.append([s])
            days.append(day)
    gaps = [float(days[i + 1] - days[i]) for i in range(len(days) - 1)]
    steps_disc, steps_cont, targets = [], [], []
    for j, unit in enumerate(units):
        first = unit[0]
        day = math.floor(first.start_time)
        frac = first.start_time - day
        steps_disc.append([first.discrete_markers.get(m) for m in marker_features]
                          + [(day + epoch_weekday) % 7, day % 31, min(int(frac * 24.0), 23)])
        steps_cont.append(
            [gaps[j - 1] if j > 0 else 0.0, float(len(unit)),
             float(sum(s.duration for s in unit))]
            + [float(sum(s.continuous_markers.get(m, 0.0) for s in unit)) for m in markers]
        )
        targets.append(gaps[j] if j < len(gaps) else user.final_gap)
    return steps_disc, steps_cont, targets


def build_sequences_objects(users, epoch_weekday, config=None, stats=None):
    """returntime.features.build_sequences, one user and one step at a time."""
    from returntime.features import Sequences, SequenceStats

    if stats is None:
        markers = _object_markers(users, "continuous_markers")
        marker_features = _object_markers(users, "discrete_markers")
        vocabs = {}
        for name in marker_features:
            values = sorted({str(s.discrete_markers[name]) for u in users
                             for s in u.sessions if name in s.discrete_markers})
            vocabs[name] = {v: i for i, v in enumerate(values)}
        stats = SequenceStats(vocabs=vocabs, mean=np.empty(0), std=np.empty(0),
                              continuous_markers=markers, max_steps=config.max_steps)
        fitting = True
    else:
        markers = stats.continuous_markers
        marker_features = [n for n in stats.discrete_features if n in stats.vocabs]
        fitting = False

    raw = []
    for user in users:
        d, c, t = _user_steps(user, epoch_weekday, markers, marker_features)
        keep = stats.max_steps
        raw.append((user, d[-keep:], c[-keep:], t[-keep:]))
    if fitting:
        all_rows = np.concatenate([np.asarray(c, dtype=float) for _, _, c, _ in raw], axis=0)
        stats.mean = all_rows.mean(axis=0)
        std = all_rows.std(axis=0)
        stats.std = np.where(std == 0.0, 1.0, std)

    def encode(name, value):
        vocab = stats.vocabs.get(name)
        if vocab is None:
            return int(value)
        return vocab.get(str(value), len(vocab))  # the unknown slot

    discs, conts, targets = [], [], []
    for user, d_rows, c_rows, t_rows in raw:
        disc = np.empty((len(d_rows), len(stats.discrete_features)), dtype=np.int64)
        for j, row in enumerate(d_rows):
            for k, name in enumerate(stats.discrete_features):
                disc[j, k] = encode(name, row[k])
        discs.append(disc)
        conts.append((np.asarray(c_rows, dtype=float) - stats.mean) / stats.std)
        targets.append(np.asarray(t_rows, dtype=float))
    offsets = np.append(0, np.cumsum([len(t) for t in targets]))
    sequences = Sequences(np.concatenate(discs), np.concatenate(conts), np.concatenate(targets),
                          offsets, np.array([user.is_censored for user in users]))
    return sequences, stats


# ---------------------------------------------------------------------------
# rnnsm expectations one user at a time: the heap-driven G7/K15 quadrature and
# the per-user tail-doubling loop that the batched path replaced

_GK_NODES = np.array([
    0.000000000000000,
    -0.207784955007898, 0.207784955007898,
    -0.405845151377397, 0.405845151377397,
    -0.586087235467691, 0.586087235467691,
    -0.741531185599394, 0.741531185599394,
    -0.864864423359769, 0.864864423359769,
    -0.949107912342759, 0.949107912342759,
    -0.991455371120813, 0.991455371120813,
])
_G7_WEIGHTS = np.array([
    0.417959183673469,
    0.0, 0.0,
    0.381830050505119, 0.381830050505119,
    0.0, 0.0,
    0.279705391489277, 0.279705391489277,
    0.0, 0.0,
    0.129484966168870, 0.129484966168870,
    0.0, 0.0,
])
_K15_WEIGHTS = np.array([
    0.209482141084728,
    0.204432940075298, 0.204432940075298,
    0.190350578064785, 0.190350578064785,
    0.169004726639267, 0.169004726639267,
    0.140653259715525, 0.140653259715525,
    0.104790010322250, 0.104790010322250,
    0.063092092629979, 0.063092092629979,
    0.022935322010529, 0.022935322010529,
])


def _gk_panel(f, a, b):
    """One G7/K15 panel on [a, b]; returns (K15 value, error estimate)."""
    from returntime.errors import QuadratureError

    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise QuadratureError(f"integrand non-finite on [{a}, {b}]")
    k15 = half * float(fx @ _K15_WEIGHTS)
    g7 = half * float(fx @ _G7_WEIGHTS)
    diff = abs(k15 - g7)
    return k15, min(diff, (200.0 * diff) ** 1.5)


def integrate_heap(f, a, b, abs_tol=1e-8, max_panels=2000):
    """Adaptive G7/K15 on one interval: a heap pops the panel with the largest
    error estimate (ties to the leftmost) and splits it until the summed
    estimate is below abs_tol."""
    import heapq

    from returntime.errors import QuadratureError

    if b <= a:
        return 0.0
    value, err = _gk_panel(f, a, b)
    heap = [(-err, a, b, value)]
    total_err = err
    n_panels = 1
    while total_err > abs_tol:
        if n_panels >= max_panels:
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge: {n_panels} panels")
        neg_err, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk_panel(f, lo, mid)
        v2, e2 = _gk_panel(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total_err += e1 + e2 + neg_err
        n_panels += 1
    return float(sum(item[3] for item in heap))


def _hazard_integral(o, z, w):
    """(exp(o + z) - exp(o)) / w for a gap whose w*gap is z, grouped through
    expm1 up to z = 50; overflow saturates to inf."""
    with np.errstate(over="ignore"):
        e_o = np.exp(o)
        return np.where(z <= 50.0, e_o * np.expm1(np.minimum(z, 50.0)) / w,
                        (np.exp(o + z) - e_o) / w)


def expected_return_time_scalar(o, w, abs_tol=1e-8):
    """E[gap] for one network output: the survival integrated on [0, U], U
    doubled until S(U) < 1e-9 and the tail bound S(U)/hazard(U) is below
    abs_tol / 2; past o = 600 the value is e^-o."""
    from returntime.errors import NumericalError

    if o > 600.0:
        return math.exp(-o)
    log_level = math.log(1e-9)
    upper = float(np.logaddexp(0.0, math.log(-log_level * w) - o)) / w
    for _ in range(200):
        log_s = -float(_hazard_integral(o, w * upper, w))
        if log_s < log_level and log_s - (o + w * upper) < math.log(0.5 * abs_tol):
            break
        upper *= 2.0
    else:
        raise NumericalError(f"could not bound the survival tail for o={o}, w={w}")
    return integrate_heap(lambda t: np.exp(-_hazard_integral(o, w * t, w)), 0.0, upper,
                          abs_tol=abs_tol)


def absence_conditioned_expectation_scalar(o, w, t_s):
    """E[gap | gap > t_s] for one user: t_s plus the expectation at o + w*t_s,
    or t_s + e^-(o + w*t_s) (capped at 700) once that exceeds 600."""
    shifted = o + w * t_s
    if shifted > 600.0:
        return t_s + math.exp(-min(shifted, 700.0))
    return t_s + expected_return_time_scalar(shifted, w)
