"""Synthetic marked session streams with known per-user dynamics.

Users are drawn from cohorts with log-normal inter-session gaps sampled as a
renewal process; lapsing cohorts switch to longer gaps after a random change
point, which is what produces non-returning users at realistic rates. Each
session carries a device marker, a time-of-day drawn from a night/day
mixture, and a pages-viewed count.

The run configuration's generator section names fields of GeneratorConfig,
which holds their defaults (GeneratorConfig.from_config).
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, get_args, get_type_hints

import numpy as np

from . import parallel
from .config import count, entries, finite, mapping, natural, output_dir, setting, text
from .data import SECONDS_PER_DAY, SessionColumns, WindowConfig, check_times, write_sessions_jsonl
from .errors import ConfigError

DEVICES = ("mobile", "desktop", "tablet")
MINUTE = 1.0 / (24.0 * 60.0)
_NORMAL_BLOCK = 256  # standard normals drawn at a time while walking a user's arrivals
_USERS_PER_WORKER = 500  # a generate block holds at least this many users


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
            if c.fraction < 0 or min(c.device_probs) < 0:
                raise ConfigError(f"cohort {c.name!r}: fraction and device_probs must be >= 0")
            if not (0 <= c.night_owl_prob <= 1):
                raise ConfigError(f"cohort {c.name!r}: night_owl_prob must lie in [0, 1]")
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
        try:
            epoch = dt.datetime.fromisoformat(self.epoch_iso)
        except ValueError as exc:
            raise ConfigError(f"epoch_iso must be an ISO date, got {self.epoch_iso!r}") from exc
        aware = epoch.replace(tzinfo=epoch.tzinfo or dt.timezone.utc)
        # a parse counts starts in microseconds as float64, exact below 2^53,
        # from midnight UTC of the earliest start: up to the epoch's time of
        # day in UTC before the epoch
        local = aware - aware.replace(hour=0, minute=0, second=0, microsecond=0)
        utc_time_of_day = (local - aware.utcoffset()).total_seconds() % SECONDS_PER_DAY
        if (self.horizon_days * SECONDS_PER_DAY + utc_time_of_day) * 1e6 >= 2 ** 53:
            raise ConfigError("horizon_days must be below 2^53 microseconds (about 104,249 "
                              "days) less the epoch's time of day in UTC, got "
                              f"{self.horizon_days} from {self.epoch_iso!r}")
        try:  # the window dates count from the epoch as written, the session starts in UTC
            for start in (epoch, aware.astimezone(dt.timezone.utc)):
                start + dt.timedelta(days=self.horizon_days)
        except OverflowError as exc:
            raise ConfigError(f"epoch_iso + horizon_days must fall before year 10000, got "
                              f"{self.epoch_iso!r} + {self.horizon_days} days") from exc

    @classmethod
    def from_config(cls, config: dict) -> "GeneratorConfig":
        """The run configuration's generator section, seeded with its seed.

        A key that names no field, or a value that its field's type
        rejects, raises ConfigError naming generator.<key> (a cohorts
        entry: generator.cohorts); a null value keeps the default."""
        convert = _converters(cls)
        del convert["seed"]  # the run seed
        section = setting(config, "generator", mapping, optional=True) or {}
        unknown = set(section) - set(convert)
        if unknown:
            raise ConfigError(f"unknown generator option(s): {sorted(unknown)}")
        gen = cls(seed=setting(config, "seed", natural),
                  **{name: setting(config, f"generator.{name}", convert[name])
                     for name, value in section.items() if value is not None})
        gen.validate()
        return gen

    @property
    def window(self) -> WindowConfig:
        t_p = self.horizon_days - self.prediction_window_days
        return WindowConfig(
            activity_start=t_p - self.activity_window_days,
            prediction_start=t_p,
            horizon_end=self.horizon_days,
        )

    def window_dates(self) -> dict[str, str]:
        """The window as the *_date settings of a run configuration."""
        epoch = dt.datetime.fromisoformat(self.epoch_iso)
        return {f"{name}_date": (epoch + dt.timedelta(days=days)).isoformat()
                for name, days in asdict(self.window).items()}


_SCALARS = {int: count, float: finite, str: text}


def _converters(cls) -> dict[str, Callable[[Any], Any]]:
    """The config converter of each field of the dataclass cls, by its
    declared type: int, float, str, a tuple of a fixed number of floats, or
    the cohorts."""
    hints = get_type_hints(cls)
    return {f.name: _SCALARS.get(hints[f.name]) or _tuple(get_args(hints[f.name]))
            for f in fields(cls)}


def _tuple(kinds: tuple) -> Callable[[Any], tuple]:
    """The converter of a tuple[*kinds] field: from a list of len(kinds)
    finite numbers, or for tuple[CohortConfig, ...] the cohorts."""
    if kinds == (CohortConfig, ...):
        return _cohorts

    def convert(value) -> tuple[float, ...]:
        values = tuple(finite(v) for v in entries(value))
        if len(values) != len(kinds):
            raise ValueError(f"expected {len(kinds)} numbers")
        return values

    return convert


def _cohorts(value) -> tuple[CohortConfig, ...]:
    """A list of mappings of CohortConfig fields; a bad entry raises
    ValueError naming its index."""
    convert = _converters(CohortConfig)
    cohorts = []
    for i, entry in enumerate(entries(value)):
        try:
            unknown = set(mapping(entry)) - set(convert)
            if unknown:
                raise ValueError(f"unknown field(s) {sorted(unknown)}")
            cohorts.append(CohortConfig(**{name: convert[name](v) for name, v in entry.items()}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"entry {i}: {exc}") from exc
    return tuple(cohorts)


@dataclass(frozen=True)
class GroundTruthRow:
    user_id: str
    cohort: str
    true_return_days: float | None  # gap from last pre-window session end
    returns_within_horizon: bool


def _lognormal(mu: float, sigma: float, z: float) -> float:
    """rng.lognormal(mu, sigma) whose standard normal draw was z: libm's exp
    of mu + sigma * z, as numpy computes it, and inf where that overflows."""
    try:
        return math.exp(mu + sigma * z)
    except OverflowError:
        return math.inf


def _simulate_user(
    user_id: str, cohort: CohortConfig, config: GeneratorConfig, rng: np.random.Generator
) -> tuple[list[tuple[float, float, int, float]], GroundTruthRow | None]:
    """(start, duration, device code, pages) of each session up to the
    horizon, and the user's ground truth. The stream draws the arrivals out
    to sim_end, two standard normals each (hour, gap), read here from blocks;
    then the marks of each arrival, of which only those up to the horizon
    are drawn, as no later draw is read."""
    horizon = config.horizon_days
    t_p = config.window.prediction_start
    sim_end = horizon + 10.0 * config.prediction_window_days

    signup = rng.uniform(0.0, config.signup_spread * horizon)
    if cohort.lapse_multiplier > 1.0:
        lo, hi = cohort.lapse_window
        change_point = max(rng.uniform(lo, hi) * horizon, signup)
    else:
        change_point = math.inf

    def gap(now: float, z: float) -> float:
        mu = cohort.gap_log_mean
        if now >= change_point:
            if cohort.lapse_taper_days > 0:
                ramp = min(1.0, (now - change_point) / cohort.lapse_taper_days)
            else:
                ramp = 1.0
            mu += math.log(cohort.lapse_multiplier) * ramp
        return _lognormal(mu, cohort.gap_log_sigma, z)

    # renewal arrivals from the signup date onwards, remapped onto the
    # night/day hour mixture within each arrival's calendar day
    night_owl = rng.random() < cohort.night_owl_prob
    hour_mean, hour_sigma = (1.5, 1.5) if night_owl else (14.5, 3.0)
    first_gap = gap(signup, rng.standard_normal())
    if math.isinf(first_gap):
        raise ConfigError(
            f"cohort {cohort.name!r}: a user's first gap overflows to infinity; lower its "
            "gap_log_mean, gap_log_sigma or lapse_multiplier"
        )
    t = signup + (rng.uniform(0.0, first_gap) if first_gap > 0 else 0.0)
    times: list[float] = []  # up to the first arrival past the horizon; later ones are never read
    arrivals = 0
    state = rng.bit_generator.state
    z: list[float] = []
    while t <= sim_end and arrivals < config.session_cap:
        if len(z) < 2 * arrivals + 2:
            z.extend(rng.standard_normal(_NORMAL_BLOCK).tolist())
        if not times or times[-1] <= horizon:
            mapped = math.floor(t) + ((hour_mean + hour_sigma * z[2 * arrivals]) % 24.0) / 24.0
            if times and mapped <= times[-1]:
                mapped = times[-1] + MINUTE
            times.append(mapped)
        t += gap(t, z[2 * arrivals + 1])
        arrivals += 1
    if not times or times[0] > horizon:
        return [], None
    rng.bit_generator.state = state
    rng.standard_normal(2 * arrivals)

    after = times.pop() if times[-1] > horizon else math.inf
    after = after if after <= sim_end else None  # arrivals past sim_end are never kept
    primary = int(rng.choice(len(DEVICES), p=cohort.device_probs))
    rows: list[tuple[float, float, int, float]] = []
    last_obs_end: float | None = None
    for start, following in zip(times, times[1:] + [after]):
        duration = _lognormal(config.duration_log_mean, config.duration_log_sigma,
                              rng.standard_normal())
        if following is not None:
            duration = min(duration, 0.8 * (following - start))
        if rng.random() < 0.8:
            device = primary
        else:
            device = (primary + 1 + int(rng.integers(0, len(DEVICES) - 1))) % len(DEVICES)
        # round(x, 0) rounds half to even like np.round and keeps inf
        pages = _lognormal(cohort.pages_log_mean, cohort.pages_log_sigma, rng.standard_normal())
        rows.append((start, duration, device, max(1.0, round(pages, 0))))
        if start <= t_p:
            last_obs_end = min(start + duration, t_p)

    first_post = next((x for x in times if x > t_p), after)
    if last_obs_end is None:
        truth = None  # user never appears before the prediction window
    else:
        truth = GroundTruthRow(
            user_id=user_id,
            cohort=cohort.name,
            true_return_days=(first_post - last_obs_end) if first_post is not None else None,
            returns_within_horizon=first_post is not None and first_post <= horizon,
        )
    return rows, truth


def _simulate_users(config: GeneratorConfig, children: list[np.random.SeedSequence],
                    lo: int, hi: int) -> tuple[list[str], np.ndarray, list[GroundTruthRow]]:
    """Users lo to hi - 1, each from their own seed: the ids of those with a
    session, their rows as an (n, 5) array of (user code counted from the
    block's first id, start, duration, device code, pages), and the ground
    truth."""
    fractions = np.array([c.fraction for c in config.cohorts])
    user_ids: list[str] = []
    rows: list[tuple] = []
    truths: list[GroundTruthRow] = []
    for i in range(lo, hi):
        rng = np.random.default_rng(children[i])
        cohort = config.cohorts[int(rng.choice(len(config.cohorts), p=fractions))]
        user_rows, truth = _simulate_user(f"u{i:05d}", cohort, config, rng)
        if not user_rows:
            continue
        rows.extend((len(user_ids), *row) for row in user_rows)
        user_ids.append(f"u{i:05d}")
        if truth is not None:
            truths.append(truth)
    return user_ids, np.array(rows, dtype=float).reshape(-1, 5), truths


def generate(config: GeneratorConfig) -> tuple[SessionColumns, list[GroundTruthRow]]:
    """All users' sessions as user-major columns plus per-user ground truth,
    deterministic per seed and independent per user. Only users with a
    session are in user_ids; a bad start or duration raises Session's
    ValidationError.

    Blocks of at least _USERS_PER_WORKER users are simulated on every
    usable CPU (parallel.map_blocks); the result does not depend on how
    many."""
    config.validate()
    children = np.random.SeedSequence(config.seed).spawn(config.user_count)
    blocks = parallel.map_blocks(functools.partial(_simulate_users, config, children),
                                 config.user_count, _USERS_PER_WORKER)
    user_ids: list[str] = []
    truths: list[GroundTruthRow] = []
    for block_ids, block_rows, block_truths in blocks:
        block_rows[:, 0] += len(user_ids)
        user_ids += block_ids
        truths += block_truths
    rows = np.concatenate([block_rows for _, block_rows, _ in blocks])
    user, start, duration, device, pages = rows.T.copy()
    present = np.ones(len(start), dtype=bool)
    sessions = SessionColumns(user_ids, user.astype(np.int64), start, duration,
                              {"device": (list(DEVICES), present, device.astype(np.int64))},
                              {"pages_viewed": (present, pages)})
    check_times(sessions)
    n_empty = config.user_count - len(user_ids)
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
    out = output_dir(out_dir)
    sessions, truths = generate(config)
    write_sessions_jsonl(out / "sessions.jsonl", sessions, config.epoch_iso)
    write_ground_truth_csv(out / "ground_truth.csv", truths)
    return {"sessions": len(sessions), "users_with_sessions": len(sessions.user_ids)}
