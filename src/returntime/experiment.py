"""Experiment plumbing shared by the CLI: dataset assembly, model training
dispatch, prediction dispatch, and report emission."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, cox, metrics, net, rnnsm
from .config import boolean, count, mapping, model_family, numbers, setting, text
from .data import (
    Dataset,
    assign_windows,
    read_sessions_jsonl,
    resolve_window_days,
    stratified_split,
)
from .errors import ConfigError, DataModelMismatchError
from .features import (
    FeatureConfig,
    SequenceStats,
    Standardization,
    build_aggregates,
    build_sequences,
    select_embedding_dims,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass
class LoadedData:
    dataset: Dataset
    train: Dataset
    test: Dataset
    window_days: dict
    sessions_sha256: str  # of the sessions file's bytes


def load_and_split(config: dict) -> LoadedData:
    sessions_path = setting(config, "data.sessions", text)
    if not Path(sessions_path).exists():
        raise DataModelMismatchError(f"sessions file not found: {sessions_path}")
    read = read_sessions_jsonl(sessions_path)
    sessions, epoch_iso, epoch_weekday = read
    # day offsets are numbers, *_date entries ISO strings
    window_cfg = {
        key: setting(config, f"window.{key}", text if key.endswith("_date") else float)
        for key in setting(config, "window", mapping)
    }
    window = resolve_window_days(window_cfg, epoch_iso)
    dataset = assign_windows(sessions, window, epoch_iso=epoch_iso,
                             epoch_weekday=epoch_weekday)
    train, test = stratified_split(
        dataset, setting(config, "split.test_fraction", float), _split_seed(config)
    )
    return LoadedData(
        dataset=dataset, train=train, test=test,
        window_days=window.to_dict(), sessions_sha256=read.sha256,
    )


def _split_seed(config: dict) -> int:
    """split.seed when set (0 included), else the run seed."""
    seed = setting(config, "split.seed", int, optional=True)
    return seed if seed is not None else setting(config, "seed", int)


def train_users_sha256(train: Dataset) -> str:
    """sha256 of the sorted train user ids, one per line."""
    ids = sorted(train.user_ids)
    return hashlib.sha256("\n".join(ids).encode()).hexdigest()


def split_identity(data: LoadedData) -> dict[str, str]:
    """The split's identity: the sessions file's and the train user ids' sha256."""
    return {
        "sessions_sha256": data.sessions_sha256,
        "train_users_sha256": train_users_sha256(data.train),
    }


def feature_config(config: dict) -> FeatureConfig:
    return FeatureConfig(
        max_steps=setting(config, "features.max_steps", int),
        per_session_steps=setting(config, "features.per_session_steps", boolean),
        variance_threshold=setting(config, "features.variance_threshold", float),
    )


def training_config(config: dict, model: str, seed_offset: int = 0) -> rnnsm.TrainingConfig:
    return rnnsm.TrainingConfig(
        epochs=setting(config, f"training.{model}.epochs", int),
        batch_size=setting(config, f"training.{model}.batch_size", count),
        learning_rate=setting(config, f"training.{model}.learning_rate", float),
        clip_norm=setting(config, f"training.{model}.clip_norm", float),
        seed=setting(config, "seed", int) + seed_offset,
    )


def _net_config(stats: SequenceStats, dims: dict[str, int], config: dict) -> net.NetConfig:
    return net.NetConfig(
        discrete_features=tuple(stats.discrete_features),
        cardinalities=tuple(stats.cardinalities),
        embedding_dims=tuple(dims[name] for name in stats.discrete_features),
        n_continuous=len(stats.cont_channels),
        fusion_size=setting(config, "network.fusion_size", count),
        hidden_size=setting(config, "network.hidden_size", count),
    )


def _embedding_dims(value) -> str | dict[str, int]:
    """"auto", or a mapping of feature name to a dimension of at least 1."""
    if value == "auto":
        return value
    if not isinstance(value, dict):
        raise TypeError("expected 'auto' or a mapping")
    return {name: count(dim) for name, dim in value.items()}


def resolve_embedding_dims(
    train_seqs, stats: SequenceStats, config: dict, family: str, w_hint: float = 0.1
) -> dict[str, int]:
    """Either take dims from the config or run the preliminary-model PCA
    selection: train wide embeddings briefly with the family's own loss,
    then keep the dimensions explaining more than the variance threshold."""
    dims_option = setting(config, "network.embedding_dims", _embedding_dims)
    if isinstance(dims_option, dict):
        missing = set(stats.discrete_features) - set(dims_option)
        if missing:
            raise ConfigError(f"embedding_dims missing features {sorted(missing)}")
        return {k: dims_option[k] for k in stats.discrete_features}

    wide = setting(config, "network.preliminary_dim", count)
    prelim_config = _net_config(stats, dict.fromkeys(stats.discrete_features, wide), config)
    prelim_train = replace(
        training_config(config, family, seed_offset=101),
        epochs=setting(config, "network.preliminary_epochs", int),
    )
    if family == "rnn":
        prelim = baselines.train_simple_rnn(train_seqs, prelim_config, stats, prelim_train)
    else:
        prelim = rnnsm.train_rnnsm(train_seqs, prelim_config, stats, w_hint, prelim_train)
    threshold = feature_config(config).variance_threshold
    dims = {name: select_embedding_dims(prelim.params[f"emb_{name}"], threshold)
            for name in stats.discrete_features}
    logger.info("embedding dimensions from preliminary %s model: %s", family, dims)
    return dims


def select_w(train: Dataset, config: dict, dims: dict[str, int]) -> float:
    """Grid search over the current-influence weight on validation concordance.

    Each candidate trains a model with the final architecture and schedule on
    a held-out split of the train data, so the selection sees the same
    capacity the final model will have.
    """
    w = setting(config, "rnnsm.w", float, optional=True)
    if w is not None:
        return w
    grid = setting(config, "rnnsm.w_grid", numbers)
    if not grid or any(w <= 0 for w in grid):
        raise ConfigError("config key rnnsm.w_grid must list positive values")
    if len(grid) == 1:
        return grid[0]
    fit_ds, val_ds = stratified_split(
        train, setting(config, "rnnsm.validation_fraction", float),
        setting(config, "seed", int) + 17,
    )
    fcfg = feature_config(config)
    fit_seqs, stats = build_sequences(fit_ds, fcfg)
    val_seqs, _ = build_sequences(val_ds, stats=stats)
    net_cfg = _net_config(stats, dims, config)
    tcfg = training_config(config, "rnnsm", seed_offset=31)
    grid_epochs = setting(config, "rnnsm.grid_epochs", int, optional=True)
    if grid_epochs is not None:
        tcfg = replace(tcfg, epochs=grid_epochs)
    scores = []
    for w in grid:
        model = rnnsm.train_rnnsm(fit_seqs, net_cfg, stats, w=w, config=tcfg)
        c = metrics.concordance_index(prediction_records(val_ds, rnnsm.predict(model, val_seqs)))
        scores.append((c, -w))
        logger.info("w grid: w=%g validation concordance %.4f", w, c)
    best = max(range(len(grid)), key=lambda i: scores[i])
    return grid[best]


# ---------------------------------------------------------------------------
# training dispatch

def train_model(model_name: str, data: LoadedData, config: dict, out_dir: str | Path) -> dict:
    """Fit one model family on the train split and persist its artifact.

    cpha and rnnsma alias the cph / rnnsm artifacts since only prediction
    differs. Returns the metadata dictionary that was written next to the
    artifact.
    """
    family = model_family(model_name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fcfg = feature_config(config)
    meta: dict = {
        "model_family": family,
        "window_days": data.window_days,
        "split": {
            "test_fraction": setting(config, "split.test_fraction", float),
            "seed": _split_seed(config),
            **split_identity(data),
        },
        "features": {
            "max_steps": fcfg.max_steps,
            "per_session_steps": fcfg.per_session_steps,
        },
        "seed": setting(config, "seed", int),
    }

    if family == "baseline":
        (out / "model.json").write_text(json.dumps({"kind": "baseline"}, indent=2))

    elif family == "cph":
        agg = build_aggregates(data.train)
        standardization = Standardization.fit(agg.X, agg.feature_names)
        model = cox.fit(standardization.apply(agg.X), data.train.final_gap,
                        ~data.train.is_censored,
                        feature_names=agg.feature_names)
        model.save(out / "model.json")
        meta["standardization"] = standardization.to_dict()
        meta["continuous_markers"] = agg.continuous_markers
        meta["beta"] = model.beta.tolist()

    else:
        seqs, stats = build_sequences(data.train, fcfg)
        dims = resolve_embedding_dims(seqs, stats, config, family=family)
        net_cfg = _net_config(stats, dims, config)
        if family == "rnn":
            model = baselines.train_simple_rnn(seqs, net_cfg, stats, training_config(config, "rnn"))
        else:
            meta["w"] = w = select_w(data.train, config, dims)
            model = rnnsm.train_rnnsm(seqs, net_cfg, stats, w, training_config(config, "rnnsm"))
        rnnsm.save_model(out / "model.npz", model)
        stats.save(out / "norm_stats.json")
        meta["embedding_dims"] = dims
        meta["loss_trace"] = model.loss_trace
        meta["diverged"] = model.diverged

    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    return meta


# ---------------------------------------------------------------------------
# prediction dispatch

def prediction_records(
    dataset: Dataset, predicted: np.ndarray
) -> list[metrics.PredictionRecord]:
    """One record per user of dataset, in order, from (N,) predicted gaps."""
    return [
        metrics.PredictionRecord(
            user_id=user_id,
            predicted_return_days=float(pred),
            true_return_days=None if censored else final_gap,
            censored_lower_bound_days=final_gap if censored else None,
            horizon_gap_days=horizon_gap,
            active_day_count=active_days,
            last_session_end_days=last_end,
        )
        for user_id, pred, censored, final_gap, horizon_gap, active_days, last_end in zip(
            dataset.user_ids, predicted, dataset.is_censored.tolist(),
            dataset.final_gap.tolist(), dataset.horizon_gaps.tolist(),
            dataset.active_day_counts.tolist(), dataset.last_session_end.tolist(),
        )
    ]


def predict_model(
    model_name: str,
    artifact_dir: str | Path,
    dataset: Dataset,
    split: dict[str, str] | None = None,
) -> list[metrics.PredictionRecord]:
    """Predict every user of dataset with the artifact in artifact_dir.

    When split is given (predicting one side of a split), it is this run's
    split_identity and must equal the one the artifact recorded, so a split
    drawn with another seed or from other data cannot pass training users
    off as test users.
    """
    family = model_family(model_name)
    conditioned = model_name != family
    artifact = Path(artifact_dir)
    meta_path = artifact / "meta.json"
    if not meta_path.exists():
        raise DataModelMismatchError(f"no model metadata at {meta_path}")

    def unreadable(detail) -> DataModelMismatchError:
        return DataModelMismatchError(f"model metadata at {meta_path} is unreadable: {detail}")

    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise unreadable(exc) from exc
    if not isinstance(meta, dict):
        raise unreadable(f"expected a JSON object, got {type(meta).__name__}")
    if meta.get("model_family") != family:
        raise DataModelMismatchError(
            f"artifact at {artifact} holds a {meta.get('model_family')!r} model, "
            f"cannot predict with {model_name!r}"
        )
    if meta.get("window_days") != dataset.window.to_dict():
        raise DataModelMismatchError(
            "dataset windows do not match the windows the model was trained with"
        )
    if split is not None:
        recorded = meta.get("split")
        recorded = recorded if isinstance(recorded, dict) else {}
        for key, what in (("sessions_sha256", "sessions file"),
                          ("train_users_sha256", "train split")):
            if recorded.get(key) != split[key]:
                theirs = str(recorded[key])[:12] if recorded.get(key) else "none recorded"
                raise DataModelMismatchError(
                    f"this run's {what} (sha256 {split[key][:12]}) is not the one the model "
                    f"was trained on ({theirs}); use the training data and split seed, "
                    "or predict --split all"
                )
    if family == "baseline":
        predicted = baselines.baseline_predict(dataset)
    elif family == "cph":
        model = cox.CoxModel.load(artifact / "model.json")
        try:
            standardization = Standardization.from_dict(meta["standardization"])
            markers = list(meta["continuous_markers"])
        except (KeyError, TypeError) as exc:
            raise unreadable(f"{type(exc).__name__}: {exc}") from exc
        agg = build_aggregates(dataset, continuous_markers=markers)
        if agg.feature_names != standardization.feature_names:
            raise DataModelMismatchError(
                "aggregate feature schema does not match the trained model")
        predicted = cox.expected_survival_time(
            model, standardization.apply(agg.X), condition_on_absence=conditioned,
            t_s=dataset.absence_times, row_ids=dataset.user_ids,
        )
    else:
        model = rnnsm.load_model(artifact / "model.npz", family)
        seqs, _ = build_sequences(dataset, stats=model.stats)
        if family == "rnn":
            predicted = baselines.predict_simple_rnn(model, seqs)
        else:
            predicted = rnnsm.predict(
                model, seqs, condition_on_absence=conditioned,
                horizon_hint=dataset.window.prediction_length,
            )
    return prediction_records(dataset, predicted)


# ---------------------------------------------------------------------------
# report emission

def write_report(out_dir: str | Path, model_records: dict, auc_score_mode: str) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = metrics.build_report(model_records, auc_score_mode=auc_score_mode)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    for table in ("rmse_by_week", "mean_error_by_week", "rmse_by_active_days"):
        lines = ["model,bucket,value"]
        for model_name, row in report["tables"][table].items():
            for bucket, value in row.items():
                lines.append(f"{model_name},{bucket},{value!r}")
        (out / f"{table}.csv").write_text("\n".join(lines) + "\n")
    return report
