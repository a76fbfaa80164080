"""Command-line entry point: generate, train, predict, evaluate.

Every run writes a manifest (config hash, seed, versions) into its output
directory so identical configurations are verifiably identical runs.

Exit codes: 0 success, 2 config or input validation error, 3 data/model
mismatch (including missing files at predict time), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import sys
from pathlib import Path

from . import experiment, metrics
from .config import (
    count, entries, finite, load_config, mapping, output_dir, setting, text,
    validate_model_name, write_manifest,
)
from .errors import ConfigError, ReturnTimeError
from .synth import CohortConfig, GeneratorConfig, generate_to_files

logger = logging.getLogger(__name__)

_GENERATOR_SCALARS = {
    "user_count": count, "horizon_days": float, "activity_window_days": float,
    "prediction_window_days": float, "signup_spread": float, "duration_log_mean": float,
    "duration_log_sigma": float, "session_cap": count, "epoch_iso": text,
}


def _finites(length: int):
    def convert(value) -> tuple[float, ...]:
        values = tuple(finite(v) for v in entries(value))
        if len(values) != length:
            raise ValueError(f"expected {length} numbers")
        return values

    return convert


_COHORT_FIELDS = {
    "name": text, "fraction": finite, "gap_log_mean": finite, "gap_log_sigma": finite,
    "lapse_multiplier": finite, "lapse_window": _finites(2), "lapse_taper_days": finite,
    "device_probs": _finites(3), "night_owl_prob": finite, "pages_log_mean": finite,
    "pages_log_sigma": finite,
}


def generator_from_config(config: dict) -> GeneratorConfig:
    unknown = (set(setting(config, "generator", mapping, optional=True) or ())
               - set(_GENERATOR_SCALARS) - {"cohorts"})
    if unknown:
        raise ConfigError(f"unknown generator option(s): {sorted(unknown)}")
    kwargs = {name: setting(config, f"generator.{name}", convert, optional=True)
              for name, convert in _GENERATOR_SCALARS.items()}
    kwargs = {name: value for name, value in kwargs.items() if value is not None}
    cohorts = setting(config, "generator.cohorts", entries, optional=True)
    if cohorts is not None:
        parsed = []
        for c in cohorts:
            try:
                unknown = set(mapping(c)) - set(_COHORT_FIELDS)
                if unknown:
                    raise ValueError(f"unknown field(s) {sorted(unknown)}")
                parsed.append(CohortConfig(**{k: _COHORT_FIELDS[k](v) for k, v in c.items()}))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key generator.cohorts: bad entry {c!r}: {exc}") from exc
        kwargs["cohorts"] = tuple(parsed)
    gen = GeneratorConfig(seed=setting(config, "seed", int), **kwargs)
    gen.validate()
    return gen


def _window_dates(gen: GeneratorConfig) -> dict:
    epoch = dt.datetime.fromisoformat(gen.epoch_iso)
    window = gen.window
    as_date = lambda days: (epoch + dt.timedelta(days=days)).isoformat()
    return {
        "activity_start_date": as_date(window.activity_start),
        "prediction_start_date": as_date(window.prediction_start),
        "horizon_end_date": as_date(window.horizon_end),
    }


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config, _cli_overrides(args))
    gen = generator_from_config(config)
    out = Path(args.out)
    summary = generate_to_files(gen, out)
    run_config = {
        "seed": setting(config, "seed", int),
        "data": {"sessions": str(out / "sessions.jsonl")},
        "window": _window_dates(gen),
    }
    (out / "run_config.json").write_text(json.dumps(run_config, sort_keys=True, indent=2))
    write_manifest(out, "generate", config)
    print(
        f"generated {summary['sessions']} sessions for "
        f"{summary['users_with_sessions']} users under {out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config, _cli_overrides(args))
    model_name = validate_model_name(args.model)
    data = experiment.load_and_split(config)
    meta = experiment.train_model(model_name, data, config, args.out)
    write_manifest(args.out, f"train:{model_name}", config, blas=meta["blas"])
    extras = ""
    if "w" in meta:
        extras = f" (w={meta['w']})"
    print(f"trained {model_name}{extras}; artifact under {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    config = load_config(args.config, _cli_overrides(args))
    model_name = validate_model_name(args.model)
    out = Path(args.out)
    output_dir(out.parent)  # a bad --out fails before any user is scored
    if out.is_dir():
        raise ConfigError(f"cannot write predictions to {out}: it is a directory")
    data = experiment.load_and_split(config)
    subset = {"train": data.train, "test": data.test, "all": data.dataset}[args.split]
    split = None if args.split == "all" else experiment.split_identity(data)
    table = experiment.predict_model(model_name, args.checkpoint, subset, split=split)
    try:
        metrics.write_predictions_csv(out, model_name, table, epoch_iso=subset.epoch_iso)
    except OSError as exc:
        raise ConfigError(f"cannot write predictions to {out}: {exc.strerror or exc}") from exc
    print(f"wrote {len(table)} predictions for {model_name} to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config, _cli_overrides(args))
    model_predictions: dict[str, metrics.Predictions] = {}
    for path in args.pred:
        name, table = metrics.read_predictions_csv(path)
        if name in model_predictions:
            raise ConfigError(f"duplicate predictions for model {name!r}")
        model_predictions[name] = table
    report = experiment.write_report(
        args.out, model_predictions,
        auc_score_mode=setting(config, "evaluation.auc_score_mode", text),
    )
    write_manifest(args.out, "evaluate", config)
    width = max(len(m) for m in report["models"])
    print(f"{'model'.ljust(width)}  rmse_days  concordance  nr_auc  nr_recall")
    for name, row in report["models"].items():
        print(
            f"{name.ljust(width)}  {row['rmse_days']:9.2f}  {row['concordance']:11.3f}"
            f"  {row['nonreturning_auc']:6.3f}  {row['nonreturning_recall']:9.3f}"
        )
    return 0


def _cli_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "data", None) is not None:
        overrides["data"] = {"sessions": args.data}
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="returntime",
        description="Return-time prediction for web users under right censoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_data: bool = True) -> None:
        p.add_argument(
            "--config", action="append", default=None,
            help="JSON run configuration file; repeatable, later files win",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        if with_data:
            p.add_argument("--data", help="sessions JSONL path (overrides config)")

    p = sub.add_parser("generate", help="write a synthetic session dataset")
    common(p, with_data=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model on the train split")
    common(p)
    p.add_argument("--model", required=True, help="baseline|rnn|cph|cpha|rnnsm|rnnsma")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predictions for one model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--checkpoint", required=True, help="artifact directory from train")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--out", required=True, help="prediction CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metric report over prediction CSVs")
    common(p, with_data=False)
    p.add_argument("--pred", nargs="+", required=True, help="prediction CSV files")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReturnTimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
