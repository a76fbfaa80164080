import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import returntime
from returntime.cli import main
from returntime.data import Session, assign_windows, read_sessions_jsonl, write_sessions_jsonl
from returntime.errors import ConfigError, ValidationError
from returntime.synth import (
    DEVICES,
    CohortConfig,
    GeneratorConfig,
    GroundTruthRow,
    generate,
    generate_to_files,
    write_ground_truth_csv,
)

from oracles import (
    cache_members,
    cold_read_equals_cached,
    generate_objects,
    session_columns,
    write_sessions_jsonl_objects,
)


def single_cohort_config(**overrides):
    cohort = CohortConfig(
        name="only", fraction=1.0,
        gap_log_mean=overrides.pop("gap_log_mean", math.log(5.0)),
        gap_log_sigma=overrides.pop("gap_log_sigma", 0.5),
        lapse_multiplier=overrides.pop("lapse_multiplier", 1.0),
        lapse_window=overrides.pop("lapse_window", (0.3, 0.8)),
        lapse_taper_days=overrides.pop("lapse_taper_days", 0.0),
        device_probs=(0.5, 0.3, 0.2),
    )
    return GeneratorConfig(cohorts=(cohort,), signup_spread=overrides.pop("signup_spread", 0.0),
                           **overrides)


def starts_by_user(sessions):
    """Each user's start times, in row order."""
    by_user = {}
    for user, start in zip(sessions.user.tolist(), sessions.start_time.tolist()):
        by_user.setdefault(sessions.user_ids[user], []).append(start)
    return by_user


class TestFromConfig:
    def test_every_field_is_read(self):
        cohort = CohortConfig(
            name="c", fraction=1.0, gap_log_mean=1.5, gap_log_sigma=0.4, lapse_multiplier=3.0,
            lapse_window=(0.4, 0.9), lapse_taper_days=7.0, device_probs=(0.5, 0.3, 0.2),
            night_owl_prob=0.3, pages_log_mean=2.0, pages_log_sigma=0.7,
        )
        want = GeneratorConfig(
            user_count=50, horizon_days=400.0, activity_window_days=50.0,
            prediction_window_days=100.0, cohorts=(cohort,), signup_spread=0.5,
            duration_log_mean=-4.0, duration_log_sigma=0.4, seed=11,
            epoch_iso="2021-03-01T00:00:00+00:00", session_cap=900,
        )
        # every value differs from its default, so a field that is not read fails
        bare_cohort = CohortConfig(name="", fraction=0.0, gap_log_mean=0.0, gap_log_sigma=0.0)
        for have, default, cls in ((want, GeneratorConfig(), GeneratorConfig),
                                   (cohort, bare_cohort, CohortConfig)):
            assert all(getattr(have, f.name) != getattr(default, f.name) for f in fields(cls))
        section = {f.name: getattr(want, f.name) for f in fields(GeneratorConfig)
                   if f.name != "seed"}
        section["cohorts"] = [{f.name: getattr(cohort, f.name) for f in fields(CohortConfig)}]
        config = json.loads(json.dumps({"seed": 11, "generator": section}))
        assert GeneratorConfig.from_config(config) == want

    def test_generator_seed_is_the_run_seed(self):
        with pytest.raises(ConfigError, match="unknown generator option"):
            GeneratorConfig.from_config({"seed": 1, "generator": {"seed": 2}})
        assert GeneratorConfig.from_config({"seed": 1, "generator": None}) == GeneratorConfig(seed=1)


class TestValidation:
    def test_fractions_must_sum_to_one(self):
        bad = GeneratorConfig(cohorts=(
            CohortConfig(name="a", fraction=0.6, gap_log_mean=1.0, gap_log_sigma=0.5),
            CohortConfig(name="b", fraction=0.6, gap_log_mean=1.0, gap_log_sigma=0.5),
        ))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_negative_sigma_rejected(self):
        bad = single_cohort_config(gap_log_sigma=-0.1)
        with pytest.raises(ConfigError):
            bad.validate()

    @pytest.mark.parametrize("cohorts, name", [
        ([{"name": "big", "fraction": 1.5}, {"name": "negative", "fraction": -0.5}], "negative"),
        ([{"name": "skewed", "fraction": 1.0, "device_probs": [1.5, -0.5, 0.0]}], "skewed"),
        ([{"name": "owls", "fraction": 1.0, "night_owl_prob": 7}], "owls"),
        ([{"name": "larks", "fraction": 1.0, "night_owl_prob": -0.1}], "larks"),
    ], ids=["fraction-negative", "device-probs-negative", "night-owl-prob-7",
            "night-owl-prob-negative"])
    def test_probability_out_of_range_exit_2(self, tmp_path, capsys, cohorts, name):
        # a negative fraction or device probability reached numpy's sampler,
        # and a night_owl_prob above 1 made every user a night owl
        cohorts = [{"gap_log_mean": 1.0, "gap_log_sigma": 0.5, **c} for c in cohorts]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": {"user_count": 10, "cohorts": cohorts}}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert f"cohort {name!r}" in err and "Traceback" not in err

    def test_windows_must_fit(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(horizon_days=100.0).validate()

    @pytest.mark.parametrize("generator, key", [
        ({"epoch_iso": "9999-06-01T00:00:00+00:00"}, "epoch_iso + horizon_days"),
        ({"horizon_days": 1e9}, "horizon_days"),
        ({"horizon_days": 2e6}, "horizon_days"),
        # half a day below the 2^53 microsecond bound, which the parse's
        # midnight UTC epoch, 23 hours before this one, carries past it
        ({"epoch_iso": "2020-01-01T23:00:00+00:00", "horizon_days": 104249.5}, "horizon_days"),
    ], ids=["epoch-near-year-10000", "horizon-1e9-days", "horizon-2e6-days",
            "epoch-at-23h-utc-horizon-within-a-day-of-the-bound"])
    def test_horizon_the_files_cannot_hold_exit_2(self, tmp_path, capsys, generator, key):
        # the first two ended in an OverflowError traceback while formatting
        # the lines; the third wrote a sessions file every later read
        # refused, and the fourth may: a start in its last half day lies
        # 2^53 microseconds or more past the parse's epoch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": {"user_count": 3, **generator}}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "sessions.jsonl").exists()

    def test_starving_config_reports_zero_session_users(self):
        # median gap of ~60k days: almost every user generates nothing
        cfg = single_cohort_config(user_count=40, gap_log_mean=11.0)
        with pytest.raises(ConfigError, match="no sessions"):
            generate(cfg)

    def test_infinite_duration_raises_sessions_validation_error(self):
        # the cap ends each stream before the horizon, so the last session
        # has no next start to cap its overflowed duration
        cfg = single_cohort_config(user_count=5, seed=2, duration_log_mean=800.0,
                                   session_cap=10)
        with pytest.raises(ValidationError) as want:
            generate_objects(cfg)
        with pytest.raises(ValidationError) as got:
            generate(cfg)
        assert str(got.value) == str(want.value)
        assert "invalid duration inf" in str(got.value)
        assert got.value.exit_code == 2


class TestDeterminismAndShape:
    def test_same_seed_same_stream(self):
        cfg = GeneratorConfig(user_count=50, seed=9)
        s1, t1 = generate(cfg)
        s2, t2 = generate(cfg)
        assert list(s1) == list(s2)
        assert t1 == t2

    def test_different_seed_differs(self):
        a, _ = generate(GeneratorConfig(user_count=50, seed=1))
        b, _ = generate(GeneratorConfig(user_count=50, seed=2))
        assert list(a) != list(b)

    def test_session_times_in_range_and_increasing(self):
        sessions, _ = generate(GeneratorConfig(user_count=80, seed=3))
        for times in starts_by_user(sessions).values():
            assert all(0.0 <= t <= 540.0 for t in times)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_rows_are_user_major_and_ids_name_users_with_sessions(self):
        sessions, _ = generate(GeneratorConfig(user_count=80, seed=3))
        assert np.array_equal(np.unique(sessions.user), np.arange(len(sessions.user_ids)))
        assert np.all(np.diff(sessions.user) >= 0)
        assert sessions.user_ids == sorted(sessions.user_ids)

    def test_degenerate_sigma_gives_constant_gaps(self):
        cfg = single_cohort_config(user_count=5, gap_log_mean=math.log(4.0),
                                   gap_log_sigma=0.0, seed=5)
        sessions, _ = generate(cfg)
        for times in starts_by_user(sessions).values():
            day_gaps = np.diff([math.floor(t) for t in times])
            # arrivals are 4 days apart exactly; the within-day hour remap
            # moves each session by less than a day
            assert np.all(np.isin(day_gaps, [3, 4, 5]))

    def test_monte_carlo_gap_mean_matches_closed_form(self):
        mu, sigma = math.log(5.0), 0.6
        rng = np.random.default_rng(11)
        draws = rng.lognormal(mu, sigma, size=100_000)
        analytic = math.exp(mu + sigma ** 2 / 2.0)
        assert abs(draws.mean() - analytic) / analytic < 0.02

    def test_markers_present(self):
        sessions, _ = generate(GeneratorConfig(user_count=20, seed=6))
        values, present, codes = sessions.discrete["device"]
        assert values == list(DEVICES) and present.all()
        assert set(codes.tolist()) <= {0, 1, 2}
        present, pages = sessions.continuous["pages_viewed"]
        assert present.all() and np.all(pages >= 1.0)
        for s in list(sessions)[:200]:
            assert s.discrete_markers["device"] in ("mobile", "desktop", "tablet")
            assert s.continuous_markers["pages_viewed"] >= 1.0


class TestCensoringCalibration:
    def test_default_config_censoring_fraction_in_band(self):
        cfg = GeneratorConfig(user_count=2000, seed=7)
        sessions, _ = generate(cfg)
        ds = assign_windows(sessions, cfg.window)
        assert 0.25 <= ds.is_censored.mean() <= 0.50

    def test_ground_truth_matches_dataset_labels(self):
        cfg = GeneratorConfig(user_count=300, seed=8)
        sessions, truths = generate(cfg)
        ds = assign_windows(sessions, cfg.window)
        by_id = {t.user_id: t for t in truths}
        for user in ds.users:
            truth = by_id[user.user_id]
            assert user.is_censored == (not truth.returns_within_horizon)
            if not user.is_censored:
                assert user.final_gap == pytest.approx(truth.true_return_days, abs=1e-9)


def assert_files_match_objects(cfg, tmp_path):
    """generate_to_files writes the bytes that the Session-object generator
    and the json.dumps writer write, and the cache that a cold parse of them
    writes; returns the object generator's output."""
    generate_to_files(cfg, tmp_path / "columns")
    cold_read_equals_cached(tmp_path / "columns" / "sessions.jsonl")
    sessions, truths = generate_objects(cfg)
    write_sessions_jsonl_objects(tmp_path / "objects.jsonl", sessions, cfg.epoch_iso)
    write_ground_truth_csv(tmp_path / "objects.csv", truths)
    assert ((tmp_path / "columns" / "sessions.jsonl").read_bytes()
            == (tmp_path / "objects.jsonl").read_bytes())
    assert ((tmp_path / "columns" / "ground_truth.csv").read_bytes()
            == (tmp_path / "objects.csv").read_bytes())
    return sessions, truths


class TestAgainstSessionObjects:
    def test_default_cohorts(self, tmp_path):
        sessions, truths = assert_files_match_objects(GeneratorConfig(user_count=150, seed=4),
                                                      tmp_path)
        assert len(sessions) > 1000 and len(truths) > 100

    def test_zero_gap_sigma(self, tmp_path):
        assert_files_match_objects(
            single_cohort_config(user_count=40, seed=5, gap_log_sigma=0.0), tmp_path)

    def test_taper_longer_than_the_horizon(self, tmp_path):
        cfg = single_cohort_config(user_count=120, seed=6, signup_spread=0.5,
                                   lapse_multiplier=30.0, lapse_taper_days=900.0)
        assert cfg.cohorts[0].lapse_taper_days > cfg.horizon_days
        assert_files_match_objects(cfg, tmp_path)

    def test_session_cap_that_is_hit(self, tmp_path):
        cfg = single_cohort_config(user_count=60, seed=7, gap_log_mean=0.0, session_cap=40)
        sessions, _ = assert_files_match_objects(cfg, tmp_path)
        counts = np.bincount(session_columns(sessions).user)
        assert counts.max() == 40 and np.all(counts <= 40)

    def test_lapse_gap_that_overflows(self, tmp_path):
        # exp(log(8) + log(1e308)) overflows: after the change point the next
        # gap is inf, which ends the stream
        cfg = single_cohort_config(user_count=80, seed=8, gap_log_mean=math.log(8.0),
                                   gap_log_sigma=0.1, lapse_multiplier=1e308,
                                   lapse_window=(0.3, 0.5), signup_spread=0.2)
        sessions, truths = assert_files_match_objects(cfg, tmp_path)
        assert max(s.start_time for s in sessions) < 0.5 * cfg.horizon_days + 10.0
        assert truths and not any(t.returns_within_horizon for t in truths)

    @pytest.mark.parametrize("seed, sessions_sha256, ground_truth_sha256", [
        (3, "8537bd5d458f68aded622895727ac95ca132fdd32780c6cfe08ef5a800db8698",
         "c0a02048176582e43801100e5898faf5f92ff145e7d79f737276773d86230621"),
        (7, "3771cde591ccc7812245f1cf9f3cb4da7d359443fe72c544e4dabf5c81ba10fe",
         "c036ede0e0c629d4ae16228ae10d765895f49353e1aa70f8a9cdd8dd7b6e7650"),
        (11, "8078537f82fd5e05059a63200e85709c26a902abf5b26a8f5e1faf72fb139db6",
         "4e3647ca4e5ee911a738458db219101c9d734960956a2566c44e85a9d8f3ed10"),
        (23, "0a1b967c5c1152238e70e9b0712e741e33636047ff3fc890a433bda6d7f82d84",
         "3e3fa4902012eae10e6edf3adcd8b283a9fab3fad09b94fdcdd8b8be9d277edd"),
    ])
    def test_default_data_bytes_are_pinned(self, tmp_path, seed, sessions_sha256,
                                           ground_truth_sha256):
        # the digests of the Session-object generator's files for these seeds
        generate_to_files(GeneratorConfig(seed=seed), tmp_path)
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("sessions.jsonl") == sessions_sha256
        assert digest("ground_truth.csv") == ground_truth_sha256
        cold_read_equals_cached(tmp_path / "sessions.jsonl")


class TestForkedBlocks:
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_files_and_cache_equal_the_in_process_run(self, tmp_path, fan_out, cpus):
        cfg = GeneratorConfig(user_count=90, seed=4)
        runs = {}
        for n in (1, cpus):
            worker_blocks = fan_out(n)
            out = tmp_path / f"cpus{n}"
            generate_to_files(cfg, out)
            # n - 1 worker blocks each of users and JSON lines, which write the cache
            assert len(worker_blocks()) == 2 * (n - 1)
            cache = cache_members(out / "sessions.jsonl")
            worker_blocks = fan_out(n)
            cold_read_equals_cached(out / "sessions.jsonl")
            assert len(worker_blocks()) == n - 1  # of the cold parse
            runs[n] = [(out / name).read_bytes() for name in ("sessions.jsonl",
                                                              "ground_truth.csv")], cache
        assert runs[cpus] == runs[1]
        # and both equal the Session-object generator
        assert_files_match_objects(cfg, tmp_path)

    def test_overflowing_first_gap_in_a_worker_block(self, fan_out):
        cohorts = (
            CohortConfig(name="steady", fraction=0.5, gap_log_mean=1.0, gap_log_sigma=0.5),
            CohortConfig(name="lapsing", fraction=0.5, gap_log_mean=1.0, gap_log_sigma=0.5,
                         lapse_multiplier=1e308),
        )
        cfg = GeneratorConfig(user_count=40, seed=8, cohorts=cohorts)
        fan_out(1)
        with pytest.raises(ConfigError, match="first gap overflows") as want:
            generate(cfg)
        worker_blocks = fan_out(2)
        # the first block, users 0-19, which this process runs, has no overflow
        generate(replace(cfg, user_count=20))
        with pytest.raises(ConfigError) as got:
            generate(cfg)
        assert worker_blocks() == [(10, 20), (20, 40)]
        assert str(got.value) == str(want.value)


class TestGeneratedCache:
    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(user_count=60, seed=1),
        GeneratorConfig(user_count=60, seed=2),
        single_cohort_config(user_count=40, seed=5, gap_log_sigma=0.0),
        single_cohort_config(user_count=120, seed=6, signup_spread=0.5, lapse_multiplier=30.0,
                             lapse_taper_days=900.0),
        single_cohort_config(user_count=60, seed=7, gap_log_mean=0.0, session_cap=40),
        single_cohort_config(user_count=80, seed=8, gap_log_mean=math.log(8.0),
                             gap_log_sigma=0.1, lapse_multiplier=1e308,
                             lapse_window=(0.3, 0.5), signup_spread=0.2),
    ], ids=["default-1", "default-2", "zero-sigma", "long-taper", "session-cap",
            "lapse-overflow"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_is_the_cache_a_cold_parse_writes(self, tmp_path, fan_out, cfg, cpus):
        fan_out(cpus)
        generate_to_files(cfg, tmp_path)
        cold_read_equals_cached(tmp_path / "sessions.jsonl")

    def test_cache_does_not_depend_on_the_hash_seed(self, tmp_path):
        # str hashes differ per PYTHONHASHSEED, so a set's order would leak here
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"generator": {"user_count": 40}}))
        package_root = str(Path(returntime.__file__).resolve().parents[1])
        members = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-m", "returntime", "generate", "--config",
                                   str(config), "--out", str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            members.append(cache_members(out / "sessions.jsonl"))
        assert members[0] == members[1]


class TestWriter:
    @pytest.mark.parametrize("epoch_iso", ["2020-01-01T00:00:00+00:00", "2021-06-30T22:00:00Z",
                                           "2019-03-31T01:30:00+02:00"])
    def test_matches_json_dumps_per_session(self, tmp_path, epoch_iso):
        sessions = [
            Session("ünïcode", 0.25, 0.01, {"device": "mobile", "plan": "pro"},
                    {"pages_viewed": 4.0}),
            Session("用户", 1.0 / 3.0, 0.0, {"plan": "frée"}, {"score": math.inf}),
            Session('quote"back\\slash', 50.5, 1e-9, {}, {"score": -math.inf, "plan": 2.5}),
            Session("ünïcode", 99.9, 0.02, {}, {}),
            Session("b", 12.75, 0.5, {"kind": "x", "dup": "text"}, {"dup": 0.1, "nan": math.nan}),
            Session("b", 1e-7, 2.0 / 7.0, {"device": "tablet"}, {"pages_viewed": -0.0}),
        ]
        write_sessions_jsonl(tmp_path / "columns.jsonl", session_columns(sessions), epoch_iso)
        write_sessions_jsonl_objects(tmp_path / "objects.jsonl", sessions, epoch_iso)
        written = (tmp_path / "columns.jsonl").read_bytes()
        assert written == (tmp_path / "objects.jsonl").read_bytes()
        assert written.isascii() and written.count(b"\n") == len(sessions)

    def test_no_sessions_and_no_markers(self, tmp_path):
        for name, sessions in (("empty", []), ("bare", [Session("a", 2.0), Session("b", 3.5)])):
            write_sessions_jsonl(tmp_path / f"{name}.jsonl", session_columns(sessions),
                                 "2020-01-01T00:00:00+00:00")
            write_sessions_jsonl_objects(tmp_path / f"{name}.ref", sessions,
                                         "2020-01-01T00:00:00+00:00")
            assert ((tmp_path / f"{name}.jsonl").read_bytes()
                    == (tmp_path / f"{name}.ref").read_bytes())
            cold_read_equals_cached(tmp_path / f"{name}.jsonl")


class TestFiles:
    def test_generate_to_files_round_trips(self, tmp_path):
        cfg = GeneratorConfig(user_count=30, seed=10)
        summary = generate_to_files(cfg, tmp_path)
        # sparse cohorts can leave a user with no sessions at all
        assert 25 <= summary["users_with_sessions"] <= 30
        sessions, epoch_iso, _ = read_sessions_jsonl(tmp_path / "sessions.jsonl")
        assert len(sessions) == summary["sessions"]
        # the reader re-bases the epoch to midnight of the earliest session
        assert epoch_iso.startswith("2020-01-")
        assert min(s.start_time for s in sessions) < 1.0

    def test_ground_truth_csv_format(self, tmp_path):
        rows = [
            GroundTruthRow("u1", "heavy", 3.5, True),
            GroundTruthRow("u2", "lapsing", None, False),
        ]
        path = tmp_path / "gt.csv"
        write_ground_truth_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,cohort,true_return_days,returns_within_horizon"
        assert lines[1] == "u1,heavy,3.5,1"
        assert lines[2] == "u2,lapsing,,0"
