import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import returntime
from returntime import data, experiment, metrics
from returntime.cli import main
from returntime.config import load_config, model_family
from returntime.errors import DataError
from returntime.features import SequenceStats

from oracles import (
    Record,
    as_plain,
    cache_members,
    cached_read,
    cold_read_equals_cached,
    read_sessions_plain,
    table,
)

TINY_GEN = {
    "generator": {"user_count": 60},
    "training": {"rnn": {"epochs": 2}},
    "network": {"preliminary_epochs": 1, "hidden_size": 8, "fusion_size": 8},
}


def cohort(**changes):
    """A generator cohort entry with the given fields changed or added."""
    return {"name": "a", "fraction": 1.0, "gap_log_mean": 1.0, "gap_log_sigma": 0.5, **changes}


def edited(edit):
    """A corruption that applies edit to the artifact's JSON object."""
    def corrupt(raw):
        payload = json.loads(raw)
        edit(payload)
        return json.dumps(payload).encode()

    return corrupt


def edited_param(edit, name="lstm_wh"):
    """A corruption that replaces one parameter array of a model.npz by
    edit(array)."""
    def corrupt(raw):
        with np.load(io.BytesIO(raw)) as npz:
            arrays = dict(npz)
        arrays[f"param::{name}"] = edit(arrays[f"param::{name}"])
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()

    return corrupt


def first_listed(key, value):
    """A JSON edit that sets the first entry of the list at key to value."""
    return edited(lambda d: d.update({key: [value, *d[key][1:]]}))


def first_entry(value):
    def edit(array):
        array = array.copy()
        array.flat[0] = value
        return array

    return edit


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def generated(tmp_path):
    cfg = write_cfg(tmp_path, TINY_GEN)
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    return cfg, out


class TestGenerate:
    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_GEN)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
        for name in ("sessions.jsonl", "ground_truth.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # run_config embeds the output path; everything else must match
        rc_a = json.loads((tmp_path / "a" / "run_config.json").read_text())
        rc_b = json.loads((tmp_path / "b" / "run_config.json").read_text())
        rc_a["data"] = rc_b["data"] = None
        assert rc_a == rc_b

    def test_python_m_runs_the_cli(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_GEN)
        package_root = str(Path(returntime.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}

        def run(*args):
            return subprocess.run([sys.executable, "-m", "returntime", *args], env=env,
                                  capture_output=True, text=True, timeout=300)

        done = run("generate", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5")
        assert done.returncode == 0, done.stderr
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
        assert ((tmp_path / "a" / "sessions.jsonl").read_bytes()
                == (tmp_path / "b" / "sessions.jsonl").read_bytes())
        failed = run("train", "--model", "baseline", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m"))
        assert failed.returncode == 2
        assert "error:" in failed.stderr and "Traceback" not in failed.stderr

    def test_invalid_cohort_fractions_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "generator": {
                "user_count": 10,
                "cohorts": [
                    {"name": "a", "fraction": 0.7, "gap_log_mean": 1.0, "gap_log_sigma": 0.5},
                    {"name": "b", "fraction": 0.7, "gap_log_mean": 1.0, "gap_log_sigma": 0.5},
                ],
            }
        })
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_epoch_iso_not_a_date_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"generator": {"user_count": 10, "epoch_iso": "not a date"}})
        capsys.readouterr()
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "epoch_iso" in err and "Traceback" not in err

    def test_unknown_generator_option_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"generator": {"user_count": 10, "typo_field": 1}})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_overflowing_first_gap_exit_2(self, tmp_path, capsys):
        # a change point clamped to the signup puts the first gap on the
        # lapsed scale at once, where 1e308 times the gap overflows
        cfg = write_cfg(tmp_path, {"generator": {"user_count": 200, "cohorts": [
            cohort(name="steady", fraction=0.5),
            cohort(name="lapsing", fraction=0.5, lapse_multiplier=1e308, lapse_taper_days=0.0),
        ]}})
        capsys.readouterr()
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--seed", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cohort 'lapsing'") and "overflows" in err

    def test_overflowing_first_gap_in_a_worker_exit_2(self, tmp_path, capsys, fan_out):
        # with seed 8 the first user to overflow is user 24, in the second of two blocks
        cfg = write_cfg(tmp_path, {"generator": {"user_count": 40, "cohorts": [
            cohort(name="steady", fraction=0.5),
            cohort(name="lapsing", fraction=0.5, lapse_multiplier=1e308, lapse_taper_days=0.0),
        ]}})
        errors = []
        for cpus in (1, 2):
            worker_blocks = fan_out(cpus)
            capsys.readouterr()
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x"),
                         "--seed", "8"]) == 2
            errors.append(capsys.readouterr().err)
        assert worker_blocks() == [(20, 40)]
        assert errors[1] == errors[0]
        assert errors[0].startswith("error: cohort 'lapsing'") and "Traceback" not in errors[0]

    @pytest.mark.parametrize("failing", ["mkstemp", "savez", "replace"])
    def test_failed_cache_write_exit_0(self, tmp_path, monkeypatch, failing):
        cfg = write_cfg(tmp_path, TINY_GEN)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0

        def fail(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        target = {"mkstemp": data.tempfile, "savez": data.np, "replace": data.os}[failing]
        with monkeypatch.context() as m:
            m.setattr(target, failing, fail)
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b"),
                         "--seed", "5"]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        cache = "sessions.jsonl" + data.CACHE_SUFFIX
        assert sorted(p.name for p in b.iterdir()) == sorted(
            p.name for p in a.iterdir() if p.name != cache)
        for name in ("sessions.jsonl", "ground_truth.csv"):
            assert (b / name).read_bytes() == (a / name).read_bytes()
        with mock.patch.object(data, "_parse_jsonl", wraps=data._parse_jsonl) as parse:
            data.read_sessions_jsonl(b / "sessions.jsonl")
        assert parse.call_count == 1
        assert cache_members(b / "sessions.jsonl") == cache_members(a / "sessions.jsonl")

    def test_stale_cache_of_an_earlier_generate_is_replaced(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_GEN)
        out = tmp_path / "data"
        for seed in ("3", "5"):
            assert main(["generate", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        assert as_plain(cold_read_equals_cached(out / "sessions.jsonl")) == read_sessions_plain(
            out / "sessions.jsonl")

    def test_sessions_edited_after_generate_are_parsed_again(self, generated):
        _, out = generated
        path = out / "sessions.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:]))
        with mock.patch.object(data, "_parse_jsonl", wraps=data._parse_jsonl) as parse:
            read = data.read_sessions_jsonl(path)
        assert parse.call_count == 1
        assert as_plain(read) == read_sessions_plain(path)
        assert as_plain(cached_read(path)) == as_plain(read)

    def test_manifest_has_hash_and_versions(self, generated):
        _, out = generated
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert len(manifest["config_hash"]) == 64
        assert set(manifest["versions"]) == {"returntime", "numpy", "python"}


class TestTrainPredictEvaluate:
    def test_unknown_model_exit_2(self, generated, tmp_path):
        cfg, out = generated
        rc = main(["train", "--model", "mystery", "--config", cfg,
                   "--config", str(out / "run_config.json"),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        rc = main(["train", "--model", "baseline", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    @pytest.mark.parametrize("payload, key", [
        ({"trainig": {"rnnsm": {"epochs": 1}}}, "trainig"),
        ({"features": {"max_step": 8}}, "features.max_step"),
        # the removed per-session step mode left no setting
        ({"features": {"per_session_steps": False}}, "features.per_session_steps"),
    ])
    def test_unknown_config_key_exit_2(self, generated, tmp_path, capsys, payload, key):
        cfg, out = generated
        typo = write_cfg(tmp_path, payload, name="typo.json")
        capsys.readouterr()
        assert main(["train", "--model", "baseline", "--config", cfg,
                     "--config", str(out / "run_config.json"), "--config", typo,
                     "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "m").exists()

    def test_missing_sessions_file_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "data": {"sessions": str(tmp_path / "missing.jsonl")},
            "window": {"activity_start": 10.0, "prediction_start": 20.0, "horizon_end": 30.0},
        })
        assert main(["train", "--model", "baseline", "--config", cfg,
                     "--out", str(tmp_path / "m")]) == 3

    def test_predict_missing_checkpoint_exit_3(self, generated, tmp_path):
        cfg, out = generated
        rc = main(["predict", "--model", "cph", "--checkpoint", str(tmp_path / "nothing"),
                   "--config", cfg, "--config", str(out / "run_config.json"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 3

    def test_predict_wrong_family_exit_3(self, generated, tmp_path):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "cph", *cfgs, "--out", str(tmp_path / "cox")]) == 0
        rc = main(["predict", "--model", "rnnsm", "--checkpoint", str(tmp_path / "cox"),
                   *cfgs, "--out", str(tmp_path / "p.csv")])
        assert rc == 3

    def test_end_to_end_single_model_report(self, generated, tmp_path):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "cph", *cfgs, "--out", str(tmp_path / "cox")]) == 0
        assert main(["predict", "--model", "cpha", "--checkpoint", str(tmp_path / "cox"),
                     *cfgs, "--out", str(tmp_path / "cpha.csv")]) == 0
        assert main(["evaluate", "--pred", str(tmp_path / "cpha.csv"),
                     "--out", str(tmp_path / "report")]) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert list(report["models"]) == ["cpha"]
        for table in ("rmse_by_week", "mean_error_by_week", "rmse_by_active_days"):
            assert (tmp_path / "report" / f"{table}.csv").exists()

    @pytest.mark.parametrize("model,name,corrupt", [
        ("rnn", "model.npz", lambda raw: raw[:3000]),
        ("rnn", "model.npz", lambda raw: b"not a zip archive"),
        # the archive directory's offset field: zipfile seeks before the file start
        ("rnn", "model.npz", lambda raw: raw[:-4] + bytes([raw[-4] ^ 1]) + raw[-3:]),
        ("rnn", "model.npz", edited_param(first_entry(np.nan))),
        ("rnn", "model.npz", edited_param(first_entry(-np.inf))),
        ("rnn", "model.npz", edited_param(lambda a: a.astype(np.float64))),
        ("rnn", "model.npz", edited_param(lambda a: a.astype(np.int64))),
        ("rnn", "model.npz", edited_param(lambda a: a + 1j)),
        ("rnn", "meta.json", lambda raw: raw[:len(raw) // 2]),
        ("cph", "model.json", lambda raw: raw[:len(raw) // 2]),
        ("cph", "meta.json", lambda raw: b"[]"),
        ("cph", "meta.json", edited(lambda d: d.update(continuous_markers=[[1]]))),
        ("cph", "model.json", edited(lambda d: d.pop("center"))),
        ("cph", "model.json", edited(lambda d: d.update(center=d["center"][1:]))),
        ("cph", "model.json", edited(lambda d: d.update(center=[None] * len(d["center"])))),
        ("cph", "model.json", edited(lambda d: d.update(baseline_times=[], baseline_hazard=[]))),
        ("cph", "model.json", edited(lambda d: d.update(baseline_times=d["baseline_times"][::-1]))),
        ("cph", "model.json", edited(
            lambda d: d.update(baseline_hazard=[-h for h in d["baseline_hazard"]]))),
        ("cph", "model.json", first_listed("beta", float("nan"))),
        ("cph", "model.json", first_listed("baseline_times", float("nan"))),
        ("cph", "model.json", first_listed("baseline_hazard", float("nan"))),
        ("cph", "model.json", first_listed("baseline_hazard", float("inf"))),
    ], ids=["npz-truncated", "npz-not-zip", "npz-directory-offset", "npz-param-nan",
            "npz-param-inf", "npz-param-float64", "npz-param-int64", "npz-param-complex", "meta-truncated",
            "cox-json-truncated",
            "meta-list", "cph-markers-not-strings", "cox-json-without-center",
            "cox-center-wrong-length", "cox-center-non-finite", "cox-empty-baseline",
            "cox-knots-descending", "cox-negative-hazard", "cox-beta-nan", "cox-times-nan",
            "cox-hazard-nan", "cox-hazard-inf"])
    def test_corrupt_artifact_exit_3(self, generated, tmp_path, capsys, model, name, corrupt):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        artifact = tmp_path / model
        assert main(["train", "--model", model, *cfgs, "--out", str(artifact)]) == 0
        path = artifact / name
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        target = tmp_path / "p.csv"
        rc = main(["predict", "--model", model, "--checkpoint", str(artifact), *cfgs,
                   "--out", str(target)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("error:") == 1 and "unreadable" in err and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("case,code", [
        ("config-dir", 2), ("config-not-utf-8", 2), ("data-dir", 3), ("pred-dir", 2),
        ("meta-dir", 3), ("cox-model-dir", 3),
    ])
    def test_unreadable_input_path_exits_cleanly(self, generated, tmp_path, capsys, case, code):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        bad = tmp_path / "bad"
        if case == "config-not-utf-8":
            bad.write_bytes(b'{"seed": "\xff"}')
        elif case in ("meta-dir", "cox-model-dir"):
            assert main(["train", "--model", "cph", *cfgs, "--out", str(tmp_path / "cox")]) == 0
            bad = tmp_path / "cox" / ("meta.json" if case == "meta-dir" else "model.json")
            bad.unlink()
            bad.mkdir()
        else:
            bad.mkdir()
        train = ["train", "--model", "baseline", "--out", str(tmp_path / "m")]
        argv = {
            "config-dir": [*train, "--config", str(bad)],
            "config-not-utf-8": [*train, "--config", str(bad)],
            "data-dir": [*train, *cfgs, "--data", str(bad)],
            "pred-dir": ["evaluate", "--pred", str(bad), "--out", str(tmp_path / "report")],
            "meta-dir": ["predict", "--model", "cph", "--checkpoint", str(tmp_path / "cox"),
                         *cfgs, "--out", str(tmp_path / "p.csv")],
        }
        argv["cox-model-dir"] = argv["meta-dir"]
        capsys.readouterr()
        assert main(argv[case]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(bad) in err
        if code == 3 and case != "data-dir":
            assert "unreadable" in err

    @pytest.mark.parametrize("case,code", [
        ("config", 2), ("data", 3), ("checkpoint", 3), ("rnn-model-npz", 3),
        ("cox-model-json", 3), ("pred", 2),
    ])
    def test_missing_input_exits_cleanly(self, generated, tmp_path, capsys, case, code):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        missing = tmp_path / "missing"
        model = {"rnn-model-npz": "rnn", "cox-model-json": "cph"}.get(case, "cph")
        artifact = tmp_path / model
        if case in ("rnn-model-npz", "cox-model-json"):
            assert main(["train", "--model", model, *cfgs, "--out", str(artifact)]) == 0
            missing = artifact / ("model.npz" if model == "rnn" else "model.json")
            missing.unlink()
        elif case == "checkpoint":
            artifact = missing
        train = ["train", "--model", "baseline", "--out", str(tmp_path / "m")]
        predict = ["predict", "--model", model, "--checkpoint", str(artifact), *cfgs,
                   "--out", str(tmp_path / "p.csv")]
        argv = {
            "config": [*train, "--config", str(missing)],
            "data": [*train, *cfgs, "--data", str(missing)],
            "pred": ["evaluate", "--pred", str(missing), "--out", str(tmp_path / "report")],
        }.get(case, predict)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(missing) in err

    def test_unsupported_checkpoint_version_exit_3(self, generated, tmp_path, capsys):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "rnn", *cfgs, "--out", str(tmp_path / "rnn")]) == 0
        assert json.loads((tmp_path / "rnn" / "meta.json").read_text())["diverged"] is False
        path = tmp_path / "rnn" / "model.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        # the Adam moments are not persisted
        assert all(k == "meta" or k.startswith("param::") for k in arrays)
        meta = json.loads(arrays["meta"].tobytes().decode())
        # the training record lives in meta.json only
        assert sorted(meta) == ["embedding_dims", "fusion_size", "hidden_size", "kind", "stats",
                                "version", "w"]
        stats = meta["stats"]
        assert sorted(stats) == ["continuous_markers", "max_steps", "mean", "std", "vocabs"]
        params = {k: a for k, a in arrays.items() if k != "meta"}
        # a version 1 checkpoint also carried the Adam moments and step,
        # versions 1 and 2 held float64 params, version 3 held float32
        # params under a header that stated the network's inputs twice, and
        # version 4 stored the feature lists that derive from the statistics
        float64 = {k: a.astype(np.float64) for k, a in params.items()}
        moments = {f"adam_{m}::{k[len('param::'):]}": np.zeros_like(a)
                   for k, a in float64.items() for m in "mv"}
        derived = SequenceStats.from_dict(stats)
        stats4 = {**stats, "discrete_features": derived.discrete_features,
                  "cardinalities": derived.cardinalities, "cont_channels": derived.cont_channels}
        for version, extra, members in ((1, {"adam_step": 12}, {**float64, **moments}),
                                        (2, {}, float64), (3, {}, params),
                                        (4, {"stats": stats4}, params), (99, {}, params)):
            header = json.dumps({**meta, "version": version, **extra}).encode()
            np.savez(path, meta=np.frombuffer(header, dtype=np.uint8), **members)
            capsys.readouterr()
            rc = main(["predict", "--model", "rnn", "--checkpoint", str(tmp_path / "rnn"),
                       *cfgs, "--out", str(tmp_path / "p.csv")])
            err = capsys.readouterr().err
            assert rc == 3
            assert f"unsupported checkpoint version {version}" in err and "retrain" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command,target", [
        ("generate", "file/sub"), ("generate", "file"), ("train", "file/sub"), ("train", "file"),
        ("evaluate", "file/sub"), ("evaluate", "file"), ("predict", "dir"),
    ])
    def test_bad_out_path_exit_2(self, generated, tmp_path, capsys, command, target):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        if command in ("evaluate", "predict"):
            assert main(["train", "--model", "baseline", *cfgs, "--out", str(tmp_path / "bl")]) == 0
            assert main(["predict", "--model", "baseline", "--checkpoint", str(tmp_path / "bl"),
                         *cfgs, "--out", str(tmp_path / "p.csv")]) == 0
        (tmp_path / "file").write_text("in the way\n")
        (tmp_path / "dir").mkdir()
        argv = {
            "generate": ["generate", "--config", cfg],
            "train": ["train", "--model", "baseline", *cfgs],
            "evaluate": ["evaluate", "--pred", str(tmp_path / "p.csv")],
            "predict": ["predict", "--model", "baseline", "--checkpoint", str(tmp_path / "bl"),
                        *cfgs],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / target) in err
        assert (tmp_path / "file").read_text() == "in the way\n"

    @pytest.mark.parametrize("target", ["file/p.csv", "dir"])
    def test_bad_predict_out_fails_before_scoring(self, generated, tmp_path, capsys,
                                                  monkeypatch, target):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "baseline", *cfgs, "--out", str(tmp_path / "bl")]) == 0
        (tmp_path / "file").write_text("in the way\n")
        (tmp_path / "dir").mkdir()

        def not_reached(*args, **kwargs):
            raise AssertionError("predict read the data before checking --out")

        monkeypatch.setattr(experiment, "load_and_split", not_reached)
        monkeypatch.setattr(experiment, "predict_model", not_reached)
        capsys.readouterr()
        assert main(["predict", "--model", "baseline", "--checkpoint", str(tmp_path / "bl"),
                     *cfgs, "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / target.split("/")[0]) in err

    def test_split_seed_zero_recorded_in_meta(self, generated, tmp_path):
        cfg, out = generated
        split_cfg = write_cfg(tmp_path, {"split": {"seed": 0}}, name="split.json")
        assert main(["train", "--model", "baseline", "--config", cfg,
                     "--config", str(out / "run_config.json"), "--config", split_cfg,
                     "--seed", "3", "--out", str(tmp_path / "bl")]) == 0
        meta = json.loads((tmp_path / "bl" / "meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["split"]["seed"] == 0

    def test_predict_split_from_other_seed_exit_3(self, generated, tmp_path, capsys):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        model = tmp_path / "bl"
        assert main(["train", "--model", "baseline", *cfgs, "--seed", "7",
                     "--out", str(model)]) == 0
        meta = json.loads((model / "meta.json").read_text())
        assert len(meta["split"]["train_users_sha256"]) == 64

        def predict(seed, split):
            target = tmp_path / f"p{seed}{split}.csv"
            target.unlink(missing_ok=True)
            rc = main(["predict", "--model", "baseline", "--checkpoint", str(model), *cfgs,
                       "--seed", str(seed), "--split", split, "--out", str(target)])
            return rc, target.exists()

        assert predict(7, "test") == (0, True)
        capsys.readouterr()
        assert predict(8, "test") == (3, False)
        assert predict(8, "train") == (3, False)
        err = capsys.readouterr().err
        assert "train split" in err and "Traceback" not in err
        assert predict(8, "all") == (0, True)
        # an artifact that records no split hash cannot vouch for its split
        del meta["split"]["train_users_sha256"]
        (model / "meta.json").write_text(json.dumps(meta))
        assert predict(7, "test") == (3, False)

    def test_predict_all_draws_no_split(self, generated, tmp_path):
        # four users are too few to split, but --split all needs no split
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "baseline", *cfgs, "--out", str(tmp_path / "bl")]) == 0
        records = [json.loads(line) for line in (out / "sessions.jsonl").read_text().splitlines()]
        # the user of the earliest session keeps the epoch, and so the windows
        first = min(records, key=lambda rec: dt.datetime.fromisoformat(rec["start_ts"]))
        others = sorted({rec["user_id"] for rec in records} - {first["user_id"]})
        keep = {first["user_id"], *others[:3]}
        few = tmp_path / "few.jsonl"
        few.write_text("".join(json.dumps(rec) + "\n" for rec in records if rec["user_id"] in keep))
        config = load_config([cfg, str(out / "run_config.json")], {"data": {"sessions": str(few)}})
        with pytest.raises(DataError, match="stratified_split needs at least 2 users"):
            experiment.load_and_split(config)
        target = tmp_path / "p.csv"
        assert main(["predict", "--model", "baseline", "--checkpoint", str(tmp_path / "bl"),
                     *cfgs, "--data", str(few), "--split", "all", "--out", str(target)]) == 0
        with target.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        windowed, _ = experiment.load_dataset(config)
        assert [row["user_id"] for row in rows] == list(windowed.user_ids)
        assert len(rows) > 0

    def test_non_finite_activation_exit_4(self, generated, tmp_path, capsys):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "rnn", *cfgs, "--out", str(tmp_path / "rnn")]) == 0
        path = tmp_path / "rnn" / "model.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        # every parameter is finite (a NaN one is unreadable, exit 3), but each
        # h entry is tanh(c) with c >= 1, so the output head's sum passes
        # float32's 3.4e38
        arrays["param::lstm_wx"][:] = arrays["param::lstm_wh"][:] = 0.0
        arrays["param::lstm_b"][:] = 20.0
        arrays["param::out_v"][:] = 3e38
        np.savez(path, **arrays)
        capsys.readouterr()
        target = tmp_path / "p.csv"
        rc = main(["predict", "--model", "rnn", "--checkpoint", str(tmp_path / "rnn"),
                   *cfgs, "--out", str(target)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "non-finite activation" in err and "Traceback" not in err
        assert not target.exists()

    def test_cox_risk_underflow_exit_4(self, generated, tmp_path, capsys):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "cph", *cfgs, "--out", str(tmp_path / "cox")]) == 0
        path = tmp_path / "cox" / "model.json"
        model = json.loads(path.read_text())
        model["beta"] = [-1e4] * len(model["beta"])
        path.write_text(json.dumps(model))
        capsys.readouterr()
        for name in ("cph", "cpha"):
            target = tmp_path / f"{name}.csv"
            rc = main(["predict", "--model", name, "--checkpoint", str(tmp_path / "cox"),
                       *cfgs, "--out", str(target)])
            err = capsys.readouterr().err
            assert rc == 4
            assert not target.exists()
            assert "error: Cox risk score" in err and "linear predictor" in err
            assert "Traceback" not in err

    def test_numerical_failure_exit_4(self, generated, tmp_path, monkeypatch):
        from returntime import cli
        from returntime.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli.experiment, "train_model", boom)
        cfg, out = generated
        rc = main(["train", "--model", "baseline", "--config", cfg,
                   "--config", str(out / "run_config.json"),
                   "--out", str(tmp_path / "m")])
        assert rc == 4

    def test_duplicate_prediction_files_rejected(self, generated, tmp_path):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        assert main(["train", "--model", "baseline", *cfgs, "--out", str(tmp_path / "bl")]) == 0
        assert main(["predict", "--model", "baseline", "--checkpoint", str(tmp_path / "bl"),
                     *cfgs, "--out", str(tmp_path / "p.csv")]) == 0
        rc = main(["evaluate", "--pred", str(tmp_path / "p.csv"), str(tmp_path / "p.csv"),
                   "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_predict_after_sessions_edit_exit_3(self, generated, tmp_path, capsys):
        cfg, out = generated
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json")]
        sessions = out / "sessions.jsonl"
        model = tmp_path / "bl"
        assert main(["train", "--model", "baseline", *cfgs, "--out", str(model)]) == 0
        meta_path = model / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["split"]["sessions_sha256"] == hashlib.sha256(sessions.read_bytes()).hexdigest()

        def predict(split):
            target = tmp_path / f"p{split}.csv"
            target.unlink(missing_ok=True)
            rc = main(["predict", "--model", "baseline", "--checkpoint", str(model), *cfgs,
                       "--split", split, "--out", str(target)])
            return rc, target.exists()

        def train_ids():
            loaded = experiment.load_and_split(load_config([cfg, str(out / "run_config.json")]))
            return experiment.train_users_sha256(loaded.train), loaded

        assert predict("test") == (0, True)
        # an artifact that records no sessions hash cannot vouch for its split
        del meta["split"]["sessions_sha256"]
        meta_path.write_text(json.dumps(meta))
        assert predict("test") == (3, False)
        assert main(["train", "--model", "baseline", *cfgs, "--out", str(model)]) == 0

        # one more session for an existing user, one second after one of theirs
        before, loaded = train_ids()
        users = {u.user_id for u in loaded.dataset.users}
        line = next(rec for rec in map(json.loads, sessions.read_text().splitlines())
                    if rec["user_id"] in users)
        start = dt.datetime.fromisoformat(line["start_ts"]) + dt.timedelta(seconds=1)
        with sessions.open("a") as fh:
            fh.write(json.dumps({**line, "start_ts": start.isoformat()}) + "\n")
        assert train_ids()[0] == before
        capsys.readouterr()
        assert predict("test") == (3, False)
        assert predict("train") == (3, False)
        err = capsys.readouterr().err
        assert "sessions file" in err and "Traceback" not in err
        assert predict("all") == (0, True)

    @pytest.mark.parametrize("bad", [
        b'{"user_id": "x", "start_ts": 123}',
        b'["user_id", "x"]',
        b'{"user_id": "x", "start_ts": "2020-03-01T00:00:00", "duration_s": "abc"}',
        b'{"user_id": "x", "start_ts": "2020-03-01T00:00:00", "markers": [1]}',
        b'{"user_id": "x", "start_ts": "2020-03-01T00:00:00", "markers": {"d": "\xff"}}',
        b'{"start_ts": "2020-03-01T00:00:00"}',
        b'{"user_id": "x", "start_ts": "2020-03-01T00:00:00", "duration_s": 1e999999}',
        b'{"user_id": "x", "start_ts": "2020-03-01T00:00:00", "duration_s": -5}',
    ], ids=["start-ts-number", "json-array", "duration-not-a-number", "markers-list",
            "not-utf-8", "no-user-id", "duration-overflows", "duration-negative"])
    def test_malformed_record_exit_2(self, generated, tmp_path, capsys, bad):
        cfg, out = generated
        path = tmp_path / "bad.jsonl"
        path.write_bytes(bad + b"\n" + (out / "sessions.jsonl").read_bytes())
        capsys.readouterr()
        rc = main(["train", "--model", "baseline", "--config", cfg,
                   "--config", str(out / "run_config.json"), "--data", str(path),
                   "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert f"{path}:1: bad session record" in err
        assert not Path(str(path) + data.CACHE_SUFFIX).exists()

    def test_malformed_last_line_exit_2_in_a_worker(self, generated, tmp_path, capsys,
                                                    fan_out):
        cfg, out = generated
        path = tmp_path / "bad.jsonl"
        sessions = (out / "sessions.jsonl").read_bytes()
        path.write_bytes(sessions + b'{"user_id": "x", "start_ts": 123}\n')
        errors = []
        for cpus in (1, 2):
            worker_blocks = fan_out(cpus)
            capsys.readouterr()
            rc = main(["train", "--model", "baseline", "--config", cfg,
                       "--config", str(out / "run_config.json"), "--data", str(path),
                       "--out", str(tmp_path / "m")])
            assert rc == 2
            errors.append(capsys.readouterr().err)
        assert len(worker_blocks()) == 1
        assert errors[1] == errors[0]
        lineno = len(sessions.splitlines()) + 1
        assert errors[0].startswith(f"error: {path}:{lineno}: bad session record")
        assert not Path(str(path) + data.CACHE_SUFFIX).exists()

    @pytest.mark.parametrize("command,payload,key", [
        ("rnn", {"training": {"rnn": None}}, "training.rnn"),
        ("baseline", {"features": {"max_steps": "abc"}}, "features.max_steps"),
        ("baseline", {"features": {"max_steps": float("inf")}}, "features.max_steps"),
        ("baseline", {"split": {"test_fraction": "x"}}, "split.test_fraction"),
        ("baseline", {"seed": "x"}, "seed"),
        ("baseline", {"window": {"activity_start_date": 5}}, "window.activity_start_date"),
        ("baseline", {"data": {"sessions": ""}}, "data.sessions"),
        ("rnn", {"network": {"hidden_size": 0}}, "network.hidden_size"),
        ("rnn", {"network": {"embedding_dims": {"device": "x"}}}, "network.embedding_dims"),
        ("rnnsm", {"rnnsm": {"w_grid": "0.1"}}, "rnnsm.w_grid"),
        ("rnnsm", {"rnnsm": {"w_grid": [0.05, float("nan")]}}, "rnnsm.w_grid"),
        ("rnnsm", {"rnnsm": {"w": float("inf")}}, "rnnsm.w"),
        ("rnnsm", {"rnnsm": {"w": float("nan")}}, "rnnsm.w"),
        ("rnnsm", {"rnnsm": {"grid_epochs": -1}}, "rnnsm.grid_epochs"),
        ("rnn", {"training": {"rnn": {"epochs": -3}}}, "training.rnn.epochs"),
        ("rnnsm", {"training": {"rnnsm": {"learning_rate": float("nan")}}},
         "training.rnnsm.learning_rate"),
        ("rnn", {"training": {"rnn": {"clip_norm": -1}}}, "training.rnn.clip_norm"),
        ("rnn", {"network": {"preliminary_epochs": 0}}, "network.preliminary_epochs"),
        ("generate", {"generator": {"user_count": "many"}}, "generator.user_count"),
        ("generate", {"generator": {"cohorts": {"name": "a"}}}, "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [5]}}, "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(fraction="x")]}}, "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(fraction=float("nan"))]}},
         "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(name=5)]}}, "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(gap_log_sigma=None)]}},
         "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(device_probs=[1.0])]}},
         "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(lapse_window="ab")]}},
         "generator.cohorts"),
        ("generate", {"generator": {"cohorts": [cohort(typo=1)]}}, "generator.cohorts"),
        # a list payload is passed as command-line arguments
        ("generate", ["--seed", "-1"], "seed"),
        ("generate", {"seed": -5}, "seed"),
        ("baseline", ["--seed", "-3"], "seed"),
        ("rnnsm", ["--seed", "-3"], "seed"),
        ("baseline", {"split": {"seed": -2}}, "split.seed"),
        ("baseline", {"seed": 7.9}, "seed"),
        ("rnn", {"training": {"rnn": {"epochs": 2.9}}}, "training.rnn.epochs"),
        ("rnn", {"network": {"hidden_size": True}}, "network.hidden_size"),
        ("rnn", {"training": {"rnn": {"batch_size": "7"}}}, "training.rnn.batch_size"),
        ("rnn", {"training": {"rnn": {"learning_rate": "0.5"}}}, "training.rnn.learning_rate"),
        ("rnnsm", {"rnnsm": {"w": True}}, "rnnsm.w"),
        ("baseline", {"features": {"max_steps": 2.5}}, "features.max_steps"),
        ("baseline", {"features": {"max_steps": True}}, "features.max_steps"),
        ("baseline", {"split": {"test_fraction": True}}, "split.test_fraction"),
        ("baseline", {"split": {"test_fraction": "0.2"}}, "split.test_fraction"),
        ("rnnsm", {"rnnsm": {"validation_fraction": "0.2"}}, "rnnsm.validation_fraction"),
        ("rnn", {"features": {"variance_threshold": "0.9"}}, "features.variance_threshold"),
        ("baseline", {"window": {"activity_start": "360", "prediction_start": 420,
                                 "horizon_end": 540}}, "window.activity_start"),
        ("generate", {"generator": {"user_count": True}}, "generator.user_count"),
        ("generate", {"generator": {"user_count": 60.5}}, "generator.user_count"),
        ("generate", {"generator": {"horizon_days": "540"}}, "generator.horizon_days"),
        ("generate", {"generator": {"cohorts": [cohort(fraction=True)]}}, "generator.cohorts"),
    ], ids=["training-rnn-null", "max-steps-text", "max-steps-inf",
            "test-fraction-text", "seed-text", "window-date-number", "sessions-empty",
            "hidden-size-zero", "embedding-dim-text", "w-grid-text", "w-grid-nan", "w-inf",
            "w-nan", "grid-epochs-negative", "epochs-negative", "learning-rate-nan",
            "clip-norm-negative", "preliminary-epochs-zero", "user-count-text",
            "cohorts-mapping", "cohort-entry-number", "cohort-fraction-text",
            "cohort-fraction-nan", "cohort-name-number", "cohort-sigma-null", "cohort-device-probs-short",
            "cohort-lapse-window-text", "cohort-unknown-field", "seed-flag-negative-generate",
            "seed-negative-generate", "seed-flag-negative-baseline", "seed-flag-negative-rnnsm",
            "split-seed-negative", "seed-fraction", "epochs-fraction", "hidden-size-bool",
            "batch-size-text", "learning-rate-text", "w-bool", "max-steps-fraction",
            "max-steps-bool", "test-fraction-bool", "test-fraction-numeric-text",
            "validation-fraction-text", "variance-threshold-text", "window-offset-text",
            "user-count-bool", "user-count-fraction", "horizon-text", "cohort-fraction-bool"])
    def test_wrong_typed_setting_exit_2(self, generated, tmp_path, capsys, command, payload,
                                        key):
        cfg, out = generated
        flags = payload if isinstance(payload, list) else []
        bad = write_cfg(tmp_path, {} if flags else payload, name="bad.json")
        if command == "generate":
            argv = ["generate", "--config", cfg, "--config", bad, "--out", str(tmp_path / "g")]
        else:
            argv = ["train", "--model", command, "--config", cfg,
                    "--config", str(out / "run_config.json"), "--config", bad,
                    "--out", str(tmp_path / "m")]
        capsys.readouterr()
        rc = main(argv + flags)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config key {key}" in err
        assert "Traceback" not in err

    def test_outputs_identical_on_cold_and_warm_cache(self, generated, tmp_path, monkeypatch):
        cfg, out = generated
        schedule = write_cfg(tmp_path, {
            "training": {"rnn": {"epochs": 2}, "rnnsm": {"epochs": 2}},
            "rnnsm": {"w_grid": [0.05, 0.1], "grid_epochs": 1},
        }, name="schedule.json")
        cfgs = ["--config", cfg, "--config", str(out / "run_config.json"), "--config", schedule]
        models = ("baseline", "cph", "cpha", "rnn", "rnnsm", "rnnsma")

        def pipeline(base):
            for model in ("baseline", "cph", "rnn", "rnnsm"):
                assert main(["train", "--model", model, *cfgs,
                             "--out", str(base / "models" / model)]) == 0
            for model in models:
                assert main(["predict", "--model", model, *cfgs,
                             "--checkpoint", str(base / "models" / model_family(model)),
                             "--out", str(base / "preds" / f"{model}.csv")]) == 0
            assert main(["evaluate", "--pred", *[str(base / "preds" / f"{m}.csv") for m in models],
                         "--out", str(base / "report")]) == 0
            return {p.relative_to(base): p.read_bytes()
                    for p in sorted(base.rglob("*")) if p.suffix in (".csv", ".json")
                    and p.parent.name in ("preds", "report")}

        with monkeypatch.context() as m:  # every read parses and rewrites the cache
            m.setattr(data, "_load_cache", lambda cache, digest: None)
            cold = pipeline(tmp_path / "cold")
        with monkeypatch.context() as m:  # every read is served from the cache
            m.setattr(data, "_parse_jsonl", lambda *args: pytest.fail("parsed on a warm cache"))
            warm = pipeline(tmp_path / "warm")
        assert len(cold) == 6 + 1 + 3 + 1  # predictions, report.json, breakdowns, manifest
        assert cold == warm

        # a user's prediction does not depend on the other users predicted with it
        def rows(path):
            text = path.read_text(encoding="utf-8")
            return {r["user_id"]: r for r in csv.DictReader(io.StringIO(text, newline=""))}

        base = tmp_path / "warm"
        for model in models:
            target = base / "all" / f"{model}.csv"
            assert main(["predict", "--model", model, *cfgs, "--split", "all",
                         "--checkpoint", str(base / "models" / model_family(model)),
                         "--out", str(target)]) == 0
            test, everyone = rows(base / "preds" / f"{model}.csv"), rows(target)
            assert test and set(test) < set(everyone)
            for user, row in test.items():
                other = everyone[user]
                if model.startswith("rnn"):  # the scoring pass sees other users' rows
                    got, want = (float(r["predicted_return_days"]) for r in (row, other))
                    assert abs(got - want) <= 1e-12 * abs(want)
                    derived = ("predicted_return_days", "predicted_return_date")
                    row, other = ({k: v for k, v in r.items() if k not in derived}
                                  for r in (row, other))
                assert row == other


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6,
)
timestamps = st.datetimes(
    timezones=st.builds(dt.timezone, st.timedeltas(min_value=-dt.timedelta(hours=23),
                                                   max_value=dt.timedelta(hours=23)))
).map(dt.datetime.isoformat)
mutations = st.one_of(
    st.tuples(st.just("line"), st.binary(max_size=40)),
    st.tuples(st.just("line"), st.text(max_size=40).map(str.encode)),
    st.tuples(st.just("record"), json_values),
    st.tuples(st.sampled_from(["user_id", "start_ts", "duration_s", "markers"]),
              st.one_of(json_values, timestamps, st.just(KeyError))),
)


@pytest.fixture(scope="module")
def trained_recurrent(tmp_path_factory):
    """Generated data and an rnn and an rnnsm artifact, shared read-only."""
    base = tmp_path_factory.mktemp("recurrent")
    cfg = write_cfg(base, {**TINY_GEN, "training": {"rnn": {"epochs": 2}, "rnnsm": {"epochs": 1}},
                           "rnnsm": {"w": 0.1}})
    assert main(["generate", "--config", cfg, "--out", str(base / "data"), "--seed", "3"]) == 0
    cfgs = ["--config", cfg, "--config", str(base / "data" / "run_config.json")]
    for model in ("rnn", "rnnsm"):
        assert main(["train", "--model", model, *cfgs, "--out", str(base / model)]) == 0
    return cfgs, base


def predict_with_header(trained_recurrent, tmp_path, model, edit):
    """Predict with a copy of the model's artifact whose model.npz header was
    replaced by edit(header); returns the exit code, stderr and the CSV path."""
    cfgs, base = trained_recurrent
    artifact = tmp_path / model
    shutil.copytree(base / model, artifact)
    path = artifact / "model.npz"
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = edit(json.loads(arrays["meta"].tobytes().decode()))
    arrays["meta"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    target = tmp_path / "p.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["predict", "--model", model, "--checkpoint", str(artifact), *cfgs,
                   "--out", str(target)])
    return rc, err.getvalue(), target


def with_header(**changes):
    return lambda header: {**header, **changes}


def with_stats(**changes):
    return lambda header: with_header(stats={**header["stats"], **changes})(header)


def with_vocab_code(code):
    """The header with the first code of its first vocab replaced by code."""
    def edit(header):
        vocabs = header["stats"]["vocabs"]
        name = min(vocabs)
        value = min(vocabs[name])
        return with_stats(vocabs={**vocabs, name: {**vocabs[name], value: code}})(header)

    return edit


def with_channel(header):
    """The header with one more continuous marker, and so one more channel,
    than the params were trained on."""
    stats = header["stats"]
    return with_stats(continuous_markers=stats["continuous_markers"] + ["extra"],
                      mean=stats["mean"] + [0.0], std=stats["std"] + [1.0])(header)


def with_vocab(name, vocab):
    """The header with the vocab of name set to vocab."""
    return lambda header: with_stats(vocabs={**header["stats"]["vocabs"], name: vocab})(header)


@pytest.mark.parametrize("model,edit", [
    ("rnnsm", with_header(w="0.1")),
    ("rnnsm", with_header(w=None)),
    ("rnnsm", with_header(w=-1.0)),
    ("rnnsm", with_header(w=float("nan"))),
    ("rnn", with_header(w=0.5)),
    ("rnnsm", with_header(embedding_dims=5)),
    ("rnnsm", lambda header: [header]),
    ("rnnsm", with_header(stats=[])),
    ("rnnsm", with_stats(vocabs=[])),
    ("rnnsm", with_header(fusion_size="8")),
    ("rnnsm", with_header(hidden_size=4)),
    ("rnnsm", with_header(hidden_size=8.0)),
    ("rnn", lambda header: with_header(embedding_dims=header["embedding_dims"][1:])(header)),
    ("rnnsm", lambda header: with_header(embedding_dims=[0] * len(header["embedding_dims"]))(
        header)),
    ("rnn", with_channel),
    ("rnnsm", lambda header: with_stats(mean=[0.0])(header)),
    ("rnn", lambda header: with_stats(std=["a"] * len(header["stats"]["std"]))(header)),
    ("rnnsm", lambda header: with_stats(mean=[float("nan"), *header["stats"]["mean"][1:]])(
        header)),
    ("rnn", lambda header: with_stats(std=[0.0, *header["stats"]["std"][1:]])(header)),
    ("rnnsm", with_stats(continuous_markers=[[1]])),
    ("rnn", with_vocab("device", ["mobile"])),
    ("rnnsm", with_vocab_code("x")),
    ("rnnsm", with_vocab_code(10**6)),
    ("rnn", with_vocab_code(-1)),
    ("rnnsm", with_stats(max_steps=0)),
    ("rnnsm", with_stats(max_steps=-3)),
    ("rnn", with_vocab("hour_of_day", {"a": 0})),
], ids=["w-text", "w-null", "w-negative", "w-nan", "rnn-w-number", "embedding-dims-number",
        "header-list", "stats-list", "vocabs-list", "fusion-size-text", "hidden-size-edited",
        "hidden-size-float", "embedding-dims-short", "embedding-dims-zero",
        "n-continuous-edited", "stats-mean-short", "stats-std-text", "stats-mean-nan",
        "stats-std-zero", "markers-not-strings",
        "vocab-list", "vocab-code-text", "vocab-code-too-large",
        "vocab-code-negative", "max-steps-zero", "max-steps-negative", "vocab-derived-name"])
def test_malformed_checkpoint_header_exit_3(trained_recurrent, tmp_path, model, edit):
    rc, err, target = predict_with_header(trained_recurrent, tmp_path, model, edit)
    assert rc == 3, err
    assert err.count("error:") == 1 and "unreadable" in err
    assert "Traceback" not in err
    assert not target.exists()


def test_checkpoint_with_a_training_record_still_loads(trained_recurrent, tmp_path):
    # extra header keys are ignored, such as the loss trace and the
    # divergence flag that meta.json keeps and that some version 2
    # checkpoints also carried
    rc, err, kept = predict_with_header(trained_recurrent, tmp_path / "a", "rnnsm",
                                        lambda header: header)
    assert rc == 0, err
    rc, err, old = predict_with_header(trained_recurrent, tmp_path / "b", "rnnsm",
                                       with_header(loss_trace=5, diverged="no"))
    assert rc == 0, err
    assert old.read_bytes() == kept.read_bytes()


@pytest.mark.parametrize("name", ["hour_of_day", "day_of_week", "day_of_month"])
def test_marker_named_after_a_derived_feature_exit_2(trained_recurrent, tmp_path, capsys, name):
    # one embedding table served the marker and the derived feature of that
    # name, both columns read the marker's codes, and training exited 0
    cfgs, base = trained_recurrent
    path = tmp_path / "sessions.jsonl"
    lines = (base / "data" / "sessions.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for i, rec in enumerate(records):
        rec["markers"][name] = "ab"[i % 2]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    cfgs = [*cfgs, "--config", write_cfg(tmp_path, {"data": {"sessions": str(path)}})]
    capsys.readouterr()
    for argv in (["train", "--model", "rnnsm", *cfgs, "--out", str(tmp_path / "rnnsm")],
                 ["predict", "--model", "rnn", "--checkpoint", str(base / "rnn"), *cfgs,
                  "--split", "all", "--out", str(tmp_path / "p.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and repr(name) in err and "Traceback" not in err
    assert not (tmp_path / "rnnsm" / "model.npz").exists()
    assert not (tmp_path / "p.csv").exists()


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(base, TINY_GEN)
    assert main(["generate", "--config", cfg, "--out", str(base / "data"), "--seed", "3"]) == 0
    return cfg, base / "data"


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 10**6), mutation=mutations)
def test_one_mutated_record_exits_0_or_2(fuzz_data, index, mutation):
    cfg, out = fuzz_data
    lines = (out / "sessions.jsonl").read_bytes().splitlines()
    index %= len(lines)
    kind, value = mutation
    if kind == "line":
        lines[index] = value.replace(b"\n", b" ").replace(b"\r", b" ")
    elif kind == "record":
        lines[index] = json.dumps(value).encode()
    else:
        rec = json.loads(lines[index])
        if value is KeyError:
            del rec[kind]
        else:
            rec[kind] = value
        lines[index] = json.dumps(rec).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["train", "--model", "baseline", "--config", cfg,
                       "--config", str(out / "run_config.json"), "--data", str(path),
                       "--out", str(Path(tmp) / "m")])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def prediction_csv(path, model="rnnsm"):
    """A valid prediction CSV of six users, two of them censored."""
    records = [
        Record(f"u{i}", pred, true, bound, 120.0, days, 3.5)
        for i, (pred, true, bound, days) in enumerate([
            (4.0, 2.5, None, 3), (30.0, None, 95.0, 1), (1.5, 1.0, None, 12),
            (200.0, None, 110.0, 2), (9.0, 14.0, None, 5), (6.0, 7.5, None, 64),
        ])
    ]
    metrics.write_predictions_csv(path, model, table(records),
                                  epoch_iso="2020-01-01T00:00:00+00:00")
    return path


def evaluate(path, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["evaluate", "--pred", str(path), "--out", str(out)])
    return rc, err.getvalue()


def test_breakdown_csv_quotes_model_names(tmp_path):
    name = 'my,"model'
    rc, err = evaluate(prediction_csv(tmp_path / "p.csv", model=name), tmp_path / "report")
    assert rc == 0, err
    for table_name in ("rmse_by_week", "mean_error_by_week", "rmse_by_active_days"):
        with open(tmp_path / "report" / f"{table_name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "bucket", "value"]
        assert len(rows) > 1
        assert all(len(row) == 3 and row[0] == name for row in rows[1:])


@pytest.mark.parametrize("column,value", [
    ("predicted_return_days", b"abc"),
    ("predicted_return_days", b"nan"),
    ("horizon_gap_days", b"1e999"),
    ("active_day_count", b"2.5"),
    ("user_id", b"u\xff"),
    (None, None),
    ("is_censored_truth", b"2"),
    ("is_censored_truth", b"1"),
    ("user_id", b"u0"),
    ("censored_lower_bound_days", b"5.0"),
    ("active_day_count", b"-5"),
    ("true_return_days", b"-1.0"),
    (("is_censored_truth", "true_return_days", "censored_lower_bound_days"),
     (b"1", b"", b"-95.0")),
    ("horizon_gap_days", b"-120.0"),
    ("predicted_return_days", b"-50.0"),
    ("last_session_end_days", b"-3.0"),
], ids=["prediction-text", "prediction-nan", "horizon-overflows", "active-days-float",
        "not-utf-8", "short-row", "censored-flag-not-0-or-1", "censored-flag-disagrees",
        "repeated-user", "both-gap-cells", "active-days-negative", "true-gap-negative",
        "censoring-bound-negative", "horizon-gap-negative", "prediction-negative",
        "last-end-negative"])
def test_malformed_prediction_csv_exit_2(tmp_path, column, value):
    path = prediction_csv(tmp_path / "p.csv")
    lines = path.read_bytes().split(b"\r\n")
    header = lines[0].split(b",")
    cells = lines[3].split(b",")
    if column is None:
        del cells[-3:]
    else:  # one cell, or a tuple of cells and a tuple of their values
        edits = zip(column, value) if isinstance(column, tuple) else [(column, value)]
        for name, cell in edits:
            cells[header.index(name.encode())] = cell
    lines[3] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    rc, err = evaluate(path, tmp_path / "report")
    assert rc == 2
    assert f"error: {path}:4: " in err
    assert "Traceback" not in err


csv_cells = st.one_of(
    st.text(max_size=12), st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["", "nan", "inf", "-0.0", "1e999", '"', "1,2", "\x00"]),
)
csv_mutations = st.one_of(
    st.tuples(st.just("line"), st.binary(max_size=60)),
    st.tuples(st.just("cell"), st.tuples(st.integers(0, 20), csv_cells)),
    st.tuples(st.just("cut"), st.integers(0, 20)),
    st.tuples(st.just("flip"), st.tuples(st.integers(0, 10**6), st.integers(0, 7))),
)


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, 10**6), mutation=csv_mutations)
def test_one_mutated_prediction_csv_exits_0_or_2(index, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = prediction_csv(Path(tmp) / "p.csv")
        raw = path.read_bytes()
        lines = raw.split(b"\r\n")
        index %= len(lines)
        kind, value = mutation
        if kind == "line":
            lines[index] = value
        elif kind == "cell":
            cells = lines[index].split(b",")
            cells[value[0] % len(cells)] = value[1].encode("utf-8", "surrogatepass")
            lines[index] = b",".join(cells)
        elif kind == "cut":
            lines[index] = b",".join(lines[index].split(b",")[:value])
        if kind == "flip":
            flipped = bytearray(raw)
            flipped[value[0] % len(raw)] ^= 1 << value[1]
            path.write_bytes(bytes(flipped))
        else:
            path.write_bytes(b"\r\n".join(lines))
        rc, err = evaluate(path, Path(tmp) / "report")
    assert rc in (0, 2), err
    assert "Traceback" not in err
