"""Independent reference implementations used only as test oracles.

Everything here is deliberately written in the most direct way possible
(scalar loops, brute-force pair enumeration) so it shares no code path with
the package.
"""

from __future__ import annotations

import math

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


def safe_density(o, w, gap):
    """exp(log f(gap)) with the far tail evaluated as exactly 0, where the
    package's overflow guard would fire but the true value underflows."""
    from returntime.rnnsm import log_density_return

    if gap <= 0:
        return 0.0
    if o + w * gap > 600.0:
        return 0.0
    return math.exp(log_density_return(o, w, gap))


def safe_survival(o, w, gap):
    from returntime.rnnsm import log_survival

    if gap <= 0:
        return 1.0
    if o + w * gap > 600.0:
        return 0.0
    return math.exp(log_survival(o, w, gap))


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


def cox_mean_residual(model, x, a):
    """integral_a^inf S(z|x)/S(a|x) dz for a fitted Cox model, one piece of
    the baseline at a time: hazard rate h_j / (t_j - t_{j-1}) on each
    inter-event interval, the last rate beyond the last event, and the
    cumulative hazard at each piece start from cox_cumulative_hazard."""
    lin = float(np.dot(x, model.beta))
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


def read_sessions_plain(path):
    """Parse a sessions JSONL file record by record, without any cache:
    (sessions, epoch_iso, epoch_weekday), as returntime.data documents it."""
    import datetime as dt
    import json

    from returntime.data import Session

    def parse_ts(value):
        ts = dt.datetime.fromisoformat(value.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=dt.timezone.utc)
        return ts.astimezone(dt.timezone.utc)

    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        return [], "1970-01-01T00:00:00+00:00", 3
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
    return sessions, epoch.isoformat(), epoch.weekday()


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


def _user_steps(user, epoch_weekday, markers, marker_features, per_session):
    """Raw (discrete values, continuous values, target) step rows of one user."""
    if per_session:
        units = [[s] for s in user.sessions]
        gaps = list(user.return_targets)
    else:
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


def build_sequences_objects(users, window, epoch_weekday, config=None, stats=None):
    """returntime.features.build_sequences, one user and one step at a time."""
    from returntime.features import (
        DERIVED_CARDINALITIES,
        DERIVED_DISCRETE,
        SequenceStats,
        UserSequence,
    )

    if stats is None:
        markers = _object_markers(users, "continuous_markers")
        marker_features = _object_markers(users, "discrete_markers")
        vocabs = {}
        for name in marker_features:
            values = sorted({str(s.discrete_markers[name]) for u in users
                             for s in u.sessions if name in s.discrete_markers})
            vocabs[name] = {v: i for i, v in enumerate(values)}
        cont_channels = (["elapsed_days", "session_count", "total_duration"]
                         + [f"sum_{m}" for m in markers])
        stats = SequenceStats(
            discrete_features=marker_features + list(DERIVED_DISCRETE),
            cardinalities=([len(vocabs[n]) for n in marker_features]
                           + [DERIVED_CARDINALITIES[n] for n in DERIVED_DISCRETE]),
            vocabs=vocabs, cont_channels=cont_channels,
            mean=np.zeros(len(cont_channels)), std=np.ones(len(cont_channels)),
            continuous_markers=markers, max_steps=config.max_steps,
            per_session_steps=config.per_session_steps,
        )
        fitting = True
    else:
        markers = stats.continuous_markers
        marker_features = [n for n in stats.discrete_features if n in stats.vocabs]
        fitting = False

    raw = []
    for user in users:
        d, c, t = _user_steps(user, epoch_weekday, markers, marker_features,
                              stats.per_session_steps)
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
        card = stats.cardinalities[stats.discrete_features.index(name)]
        return vocab.get(str(value), card)

    sequences = []
    for user, d_rows, c_rows, t_rows in raw:
        disc = np.empty((len(d_rows), len(stats.discrete_features)), dtype=np.int64)
        for j, row in enumerate(d_rows):
            for k, name in enumerate(stats.discrete_features):
                disc[j, k] = encode(name, row[k])
        sequences.append(UserSequence(
            user_id=user.user_id, disc=disc,
            cont=(np.asarray(c_rows, dtype=float) - stats.mean) / stats.std,
            targets=np.asarray(t_rows, dtype=float), is_censored=user.is_censored,
            active_day_count=count_active_days(user), last_session_end=user.last_session_end,
            absence_time=window.prediction_start - user.last_session_end,
            horizon_gap=window.horizon_end - user.last_session_end,
        ))
    return sequences, stats
