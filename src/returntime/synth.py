"""Synthetic marked session streams with known per-user dynamics.

Users are drawn from cohorts with log-normal inter-session gaps sampled as a
renewal process; lapsing cohorts switch to longer gaps after a random change
point, which is what produces non-returning users at realistic rates. Each
session carries a device marker, a time-of-day drawn from a night/day
mixture, and a pages-viewed count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Session, WindowConfig, write_sessions_jsonl
from .errors import ConfigError

DEVICES = ("mobile", "desktop", "tablet")
MINUTE = 1.0 / (24.0 * 60.0)


@dataclass(frozen=True)
class CohortConfig:
    name: str
    fraction: float
    gap_log_mean: float  # log-days
    gap_log_sigma: float
    lapse_multiplier: float = 1.0  # >1 lengthens gaps after the change point
    lapse_window: tuple[float, float] = (0.3, 0.8)  # change point, as horizon fractions
    lapse_taper_days: float = 0.0  # 0 switches abruptly; >0 ramps the multiplier in
    device_probs: tuple[float, float, float] = (0.4, 0.4, 0.2)
    night_owl_prob: float = 0.2
    pages_log_mean: float = 2.5
    pages_log_sigma: float = 0.6


@dataclass(frozen=True)
class GeneratorConfig:
    user_count: int = 2000
    horizon_days: float = 540.0
    activity_window_days: float = 60.0
    prediction_window_days: float = 120.0
    cohorts: tuple[CohortConfig, ...] = (
        CohortConfig(
            name="heavy", fraction=0.18,
            gap_log_mean=math.log(2.5), gap_log_sigma=0.55,
            device_probs=(0.65, 0.20, 0.15), night_owl_prob=0.35,
            pages_log_mean=math.log(25.0),
        ),
        CohortConfig(
            name="regular", fraction=0.16,
            gap_log_mean=math.log(12.0), gap_log_sigma=0.70,
            device_probs=(0.40, 0.45, 0.15), night_owl_prob=0.15,
            pages_log_mean=math.log(12.0),
        ),
        CohortConfig(
            name="casual", fraction=0.20,
            gap_log_mean=math.log(85.0), gap_log_sigma=0.90,
            device_probs=(0.30, 0.50, 0.20), night_owl_prob=0.10,
            pages_log_mean=math.log(5.0),
        ),
        CohortConfig(
            name="lapsing", fraction=0.46,
            gap_log_mean=math.log(8.0), gap_log_sigma=0.70,
            lapse_multiplier=80.0, lapse_window=(0.55, 0.72), lapse_taper_days=45.0,
            device_probs=(0.25, 0.55, 0.20), night_owl_prob=0.20,
            pages_log_mean=math.log(8.0),
        ),
    )
    signup_spread: float = 0.6  # users join uniformly over this horizon share
    duration_log_mean: float = math.log(0.015)  # ~22 minutes
    duration_log_sigma: float = 0.5
    seed: int = 0
    epoch_iso: str = "2020-01-01T00:00:00+00:00"
    session_cap: int = 5000  # per user, guards runaway configs

    def validate(self) -> None:
        if self.user_count < 1:
            raise ConfigError(f"user_count must be >= 1, got {self.user_count}")
        if not self.cohorts:
            raise ConfigError("at least one cohort is required")
        total = sum(c.fraction for c in self.cohorts)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cohort fractions must sum to 1, got {total}")
        for c in self.cohorts:
            if c.gap_log_sigma < 0:
                raise ConfigError(f"cohort {c.name!r}: gap_log_sigma must be >= 0")
            if c.lapse_multiplier < 1.0:
                raise ConfigError(f"cohort {c.name!r}: lapse_multiplier must be >= 1")
            if abs(sum(c.device_probs) - 1.0) > 1e-9:
                raise ConfigError(f"cohort {c.name!r}: device_probs must sum to 1")
        if not (0 < self.activity_window_days
                and 0 < self.prediction_window_days
                and self.activity_window_days + self.prediction_window_days < self.horizon_days):
            raise ConfigError("windows must fit inside the horizon")
        if not (0 <= self.signup_spread < 1):
            raise ConfigError(f"signup_spread must lie in [0, 1), got {self.signup_spread}")

    @property
    def window(self) -> WindowConfig:
        t_p = self.horizon_days - self.prediction_window_days
        return WindowConfig(
            activity_start=t_p - self.activity_window_days,
            prediction_start=t_p,
            horizon_end=self.horizon_days,
        )


@dataclass(frozen=True)
class GroundTruthRow:
    user_id: str
    cohort: str
    true_return_days: float | None  # gap from last pre-window session end
    returns_within_horizon: bool


def _sample_hour(rng: np.random.Generator, night_owl: bool) -> float:
    if night_owl:
        h = rng.normal(1.5, 1.5)
    else:
        h = rng.normal(14.5, 3.0)
    return float(h % 24.0)


def _simulate_user(
    user_id: str, cohort: CohortConfig, config: GeneratorConfig, rng: np.random.Generator
) -> tuple[list[Session], GroundTruthRow | None]:
    horizon = config.horizon_days
    t_p = config.window.prediction_start
    sim_end = horizon + 10.0 * config.prediction_window_days

    signup = rng.uniform(0.0, config.signup_spread * horizon)
    if cohort.lapse_multiplier > 1.0:
        lo, hi = cohort.lapse_window
        change_point = max(rng.uniform(lo, hi) * horizon, signup)
    else:
        change_point = math.inf

    def draw_gap(now: float) -> float:
        mu = cohort.gap_log_mean
        if now >= change_point:
            if cohort.lapse_taper_days > 0:
                ramp = min(1.0, (now - change_point) / cohort.lapse_taper_days)
            else:
                ramp = 1.0
            mu += math.log(cohort.lapse_multiplier) * ramp
        return float(rng.lognormal(mu, cohort.gap_log_sigma))

    # renewal arrivals from the signup date onwards, remapped onto the
    # night/day hour mixture within each arrival's calendar day
    night_owl = rng.random() < cohort.night_owl_prob
    first_gap = draw_gap(signup)
    t = signup + (rng.uniform(0.0, first_gap) if first_gap > 0 else 0.0)
    times: list[float] = []
    while t <= sim_end and len(times) < config.session_cap:
        mapped = math.floor(t) + _sample_hour(rng, night_owl) / 24.0
        if times and mapped <= times[-1]:
            mapped = times[-1] + MINUTE
        times.append(mapped)
        t += draw_gap(t)

    times = [x for x in times if x <= sim_end]
    if not times or times[0] > horizon:
        return [], None

    primary = int(rng.choice(len(DEVICES), p=cohort.device_probs))
    sessions: list[Session] = []
    last_obs_end: float | None = None
    for j, start in enumerate(times):
        duration = float(rng.lognormal(config.duration_log_mean, config.duration_log_sigma))
        if j + 1 < len(times):
            duration = min(duration, 0.8 * (times[j + 1] - start))
        if rng.random() < 0.8:
            device = DEVICES[primary]
        else:
            device = DEVICES[(primary + 1 + int(rng.integers(0, len(DEVICES) - 1))) % len(DEVICES)]
        # round(x, 0) rounds half to even like np.round, keeps an overflowed
        # draw at inf, and costs a fraction of a numpy scalar call
        pages = max(1.0, round(rng.lognormal(cohort.pages_log_mean, cohort.pages_log_sigma), 0))
        if start <= horizon:
            sessions.append(
                Session(
                    user_id=user_id,
                    start_time=start,
                    duration=duration,
                    discrete_markers={"device": device},
                    continuous_markers={"pages_viewed": pages},
                )
            )
        if start <= t_p:
            last_obs_end = min(start + duration, t_p)

    first_post = next((x for x in times if x > t_p), None)
    if last_obs_end is None:
        truth = None  # user never appears before the prediction window
    else:
        truth = GroundTruthRow(
            user_id=user_id,
            cohort=cohort.name,
            true_return_days=(first_post - last_obs_end) if first_post is not None else None,
            returns_within_horizon=first_post is not None and first_post <= horizon,
        )
    return sessions, truth


def generate(config: GeneratorConfig) -> tuple[list[Session], list[GroundTruthRow]]:
    """All users' session streams plus per-user ground truth, deterministic
    per seed and independent per user."""
    config.validate()
    fractions = np.array([c.fraction for c in config.cohorts])
    children = np.random.SeedSequence(config.seed).spawn(config.user_count)

    sessions: list[Session] = []
    truths: list[GroundTruthRow] = []
    n_empty = 0
    for i in range(config.user_count):
        rng = np.random.default_rng(children[i])
        cohort = config.cohorts[int(rng.choice(len(config.cohorts), p=fractions))]
        user_sessions, truth = _simulate_user(f"u{i:05d}", cohort, config, rng)
        if not user_sessions:
            n_empty += 1
            continue
        sessions.extend(user_sessions)
        if truth is not None:
            truths.append(truth)
    if n_empty > config.user_count / 2:
        raise ConfigError(
            f"{n_empty} of {config.user_count} users produced no sessions; "
            "shorten the gap distributions or extend the horizon"
        )
    return sessions, truths


def write_ground_truth_csv(path: str | Path, rows: list[GroundTruthRow]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "cohort", "true_return_days", "returns_within_horizon"])
        for r in rows:
            writer.writerow([
                r.user_id,
                r.cohort,
                "" if r.true_return_days is None else repr(r.true_return_days),
                "1" if r.returns_within_horizon else "0",
            ])


def generate_to_files(config: GeneratorConfig, out_dir: str | Path) -> dict:
    """Write sessions.jsonl and ground_truth.csv; returns summary counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sessions, truths = generate(config)
    write_sessions_jsonl(out / "sessions.jsonl", sessions, config.epoch_iso)
    write_ground_truth_csv(out / "ground_truth.csv", truths)
    return {
        "sessions": len(sessions),
        "users_with_sessions": len({s.user_id for s in sessions}),
        "sessions_path": str(out / "sessions.jsonl"),
        "ground_truth_path": str(out / "ground_truth.csv"),
    }
