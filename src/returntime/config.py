"""Run configuration: defaults, file loading, merging, and hashing."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
import platform
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import ConfigError

MODEL_NAMES = ("baseline", "rnn", "cph", "cpha", "rnnsm", "rnnsma")

DEFAULTS: dict = {
    "seed": 7,
    "data": {"sessions": None},
    "window": None,  # day offsets or *_date ISO strings; generate fills this in
    "split": {"test_fraction": 0.2, "seed": None},  # None draws the split with the run seed
    "features": {"max_steps": 64, "variance_threshold": 0.9},
    "network": {
        "hidden_size": 32,
        "fusion_size": 32,
        "embedding_dims": "auto",  # or {feature: dim}
        "preliminary_dim": 10,
        "preliminary_epochs": 2,
    },
    "training": {
        "rnnsm": {"epochs": 20, "batch_size": 64, "learning_rate": 0.01, "clip_norm": 5.0},
        "rnn": {"epochs": 30, "batch_size": 64, "learning_rate": 0.05, "clip_norm": 5.0},
    },
    "rnnsm": {
        "w": None,  # fixed value skips the grid search
        # 0.5 and 1.0 won on none of 24 seeds at these settings (README, "Models in brief")
        "w_grid": [0.01, 0.05, 0.1],
        "grid_epochs": None,  # None runs the grid at the full epoch budget
        "validation_fraction": 0.2,
    },
    "evaluation": {"auc_score_mode": "shifted"},
    "generator": None,  # synth.GeneratorConfig's fields; it holds their defaults
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _unknown_keys(config: dict, defaults: dict, prefix: str = "") -> list[str]:
    """The dotted paths in config that DEFAULTS does not hold. Keys under a
    setting whose default is not a mapping (window, network.embedding_dims,
    generator) are the setting's own; GeneratorConfig.from_config checks the
    generator's."""
    unknown = []
    for key, value in config.items():
        path = prefix + key
        if key not in defaults:
            unknown.append(path)
        elif isinstance(value, dict) and isinstance(defaults[key], dict):
            unknown += _unknown_keys(value, defaults[key], path + ".")
    return unknown


def load_config(
    paths: str | Path | list[str] | None = None, overrides: dict | None = None
) -> dict:
    """Defaults, overlaid with config files in order, then CLI overrides.

    A key in a file that no setting reads raises ConfigError."""
    config = copy.deepcopy(DEFAULTS)
    if paths is None:
        paths = []
    elif isinstance(paths, (str, Path)):
        paths = [paths]
    for path in paths:
        try:
            file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = _unknown_keys(file_cfg, DEFAULTS)
        if unknown:
            raise ConfigError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
        config = _deep_merge(config, file_cfg)
    if overrides:
        config = _deep_merge(config, overrides)
    return config


def setting(config: dict, key: str, convert: Callable[[Any], Any], optional: bool = False):
    """The value at a dotted key ("training.rnn.epochs"), passed through convert.

    A value that is missing or null (also under a section that is not a
    mapping) gives None when optional and a ConfigError otherwise, as does a
    value that convert rejects; the error names the key.
    """
    value = config
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    if value is None:
        if optional:
            return None
        raise ConfigError(f"config key {key} is missing or null")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key} = {value!r}: {exc}") from exc


def _of_type(kind: type, name: str) -> Callable[[Any], Any]:
    """A converter that passes values of kind, except "", through."""

    def check(value):
        if not isinstance(value, kind) or value == "":
            raise TypeError(f"expected {name}")
        return value

    return check


entries = _of_type(list, "a list")
mapping = _of_type(dict, "a mapping")
text = _of_type(str, "a non-empty string")


def finite(value) -> float:
    """A finite number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("expected a number")
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def positive(value) -> float:
    """A positive finite number."""
    if finite(value) <= 0:
        raise ValueError("expected a positive finite number")
    return float(value)


def positives(value) -> list[float]:
    """A non-empty list of positive finite numbers."""
    values = [positive(v) for v in entries(value)]
    if not values:
        raise ValueError("expected at least one value")
    return values


def _integer(least: int) -> Callable[[Any], int]:
    """A converter to integers of at least least; a number with a fraction
    is not one."""

    def convert(value) -> int:
        finite(value)
        if value != int(value) or value < least:
            raise ValueError(f"expected an integer of at least {least}")
        return int(value)

    return convert


count = _integer(1)
natural = _integer(0)  # a seed


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def manifest_for(command: str, config: dict, **extra) -> dict:
    return {
        **extra,
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "versions": {
            "returntime": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def output_dir(path: str | Path) -> Path:
    """path, made a directory with its parents; an OSError raises ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def write_manifest(out_dir: str | Path, command: str, config: dict, **extra) -> None:
    """manifest.json: command, config and its hash, seed, versions, and any
    extra entries (train adds its BLAS record)."""
    out = output_dir(out_dir)
    (out / "manifest.json").write_text(
        json.dumps(manifest_for(command, config, **extra), sort_keys=True, indent=2)
    )


def validate_model_name(name: str) -> str:
    if name not in MODEL_NAMES:
        raise ConfigError(
            f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}"
        )
    return name


def model_family(name: str) -> str:
    """The artifact family a model name trains and predicts with.

    cpha and rnnsma reuse the cph and rnnsm artifacts: they differ only in
    conditioning the prediction on the user's absence so far.
    """
    return {"cpha": "cph", "rnnsma": "rnnsm"}.get(validate_model_name(name), name)
