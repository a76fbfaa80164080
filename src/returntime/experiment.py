"""Experiment plumbing shared by the CLI: dataset assembly, model training
dispatch, prediction dispatch, and report emission."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, cox, metrics, net, rnnsm
from .config import model_family
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
    sessions_path = (config.get("data") or {}).get("sessions")
    if not sessions_path:
        raise ConfigError("config carries no data.sessions path")
    if not Path(sessions_path).exists():
        raise DataModelMismatchError(f"sessions file not found: {sessions_path}")
    read = read_sessions_jsonl(sessions_path)
    sessions, epoch_iso, epoch_weekday = read
    window_cfg = config.get("window")
    if not window_cfg:
        raise ConfigError("config carries no window section")
    window = resolve_window_days(window_cfg, epoch_iso)
    dataset = assign_windows(sessions, window, epoch_iso=epoch_iso,
                             epoch_weekday=epoch_weekday)
    split_cfg = config.get("split") or {}
    train, test = stratified_split(
        dataset, float(split_cfg.get("test_fraction", 0.2)), _split_seed(config)
    )
    return LoadedData(
        dataset=dataset, train=train, test=test,
        window_days=window.to_dict(), sessions_sha256=read.sha256,
    )


def _split_seed(config: dict) -> int:
    """split.seed when set (0 included), else the run seed."""
    seed = (config.get("split") or {}).get("seed")
    return int(seed if seed is not None else config["seed"])


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
    f = config.get("features") or {}
    return FeatureConfig(
        max_steps=int(f.get("max_steps", 64)),
        per_session_steps=bool(f.get("per_session_steps", False)),
        variance_threshold=float(f.get("variance_threshold", 0.9)),
    )


def training_config(config: dict, model: str, seed_offset: int = 0) -> rnnsm.TrainingConfig:
    t = (config.get("training") or {}).get(model, {})
    return rnnsm.TrainingConfig(
        epochs=int(t.get("epochs", 20)),
        batch_size=int(t.get("batch_size", 64)),
        learning_rate=float(t.get("learning_rate", 0.01)),
        clip_norm=float(t.get("clip_norm", 5.0)),
        seed=int(config["seed"]) + seed_offset,
    )


def _net_config(stats: SequenceStats, dims: dict[str, int], config: dict) -> net.NetConfig:
    n = config.get("network") or {}
    return net.NetConfig(
        discrete_features=tuple(stats.discrete_features),
        cardinalities=tuple(stats.cardinalities),
        embedding_dims=tuple(int(dims[name]) for name in stats.discrete_features),
        n_continuous=len(stats.cont_channels),
        fusion_size=int(n.get("fusion_size", 32)),
        hidden_size=int(n.get("hidden_size", 32)),
    )


def resolve_embedding_dims(
    train_seqs, stats: SequenceStats, config: dict, family: str, w_hint: float = 0.1
) -> dict[str, int]:
    """Either take dims from the config or run the preliminary-model PCA
    selection: train wide embeddings briefly with the family's own loss,
    then keep the dimensions explaining more than the variance threshold."""
    n = config.get("network") or {}
    dims_option = n.get("embedding_dims", "auto")
    if isinstance(dims_option, dict):
        missing = set(stats.discrete_features) - set(dims_option)
        if missing:
            raise ConfigError(f"embedding_dims missing features {sorted(missing)}")
        return {k: int(dims_option[k]) for k in stats.discrete_features}
    if dims_option != "auto":
        raise ConfigError("network.embedding_dims must be 'auto' or a mapping")

    wide = int(n.get("preliminary_dim", 10))
    prelim_config = net.NetConfig(
        discrete_features=tuple(stats.discrete_features),
        cardinalities=tuple(stats.cardinalities),
        embedding_dims=tuple(wide for _ in stats.discrete_features),
        n_continuous=len(stats.cont_channels),
        fusion_size=int(n.get("fusion_size", 32)),
        hidden_size=int(n.get("hidden_size", 32)),
    )
    base = training_config(config, family, seed_offset=101)
    prelim_train = rnnsm.TrainingConfig(
        epochs=int(n.get("preliminary_epochs", 2)),
        batch_size=base.batch_size,
        learning_rate=base.learning_rate,
        clip_norm=base.clip_norm,
        seed=base.seed,
    )
    if family == "rnn":
        prelim_params = baselines.train_simple_rnn(
            train_seqs, prelim_config, stats, prelim_train
        ).params
    else:
        prelim_params = rnnsm.train_rnnsm(
            train_seqs, prelim_config, stats, w=w_hint, config=prelim_train
        ).params
    threshold = feature_config(config).variance_threshold
    dims = {
        name: select_embedding_dims(prelim_params[f"emb_{name}"], threshold)
        for name in stats.discrete_features
    }
    logger.info("embedding dimensions from preliminary %s model: %s", family, dims)
    return dims


def select_w(train: Dataset, config: dict, dims: dict[str, int]) -> float:
    """Grid search over the current-influence weight on validation concordance.

    Each candidate trains a model with the final architecture and schedule on
    a held-out split of the train data, so the selection sees the same
    capacity the final model will have.
    """
    r = config.get("rnnsm") or {}
    if r.get("w") is not None:
        return float(r["w"])
    grid = [float(w) for w in r.get("w_grid", [0.01, 0.05, 0.1, 0.5, 1.0])]
    if any(w <= 0 for w in grid):
        raise ConfigError("w grid values must be positive")
    if len(grid) == 1:
        return grid[0]
    fit_ds, val_ds = stratified_split(
        train, float(r.get("validation_fraction", 0.2)), int(config["seed"]) + 17
    )
    fcfg = feature_config(config)
    fit_seqs, stats = build_sequences(fit_ds, fcfg)
    val_seqs, _ = build_sequences(val_ds, stats=stats)
    net_cfg = _net_config(stats, dims, config)
    base = training_config(config, "rnnsm", seed_offset=31)
    grid_epochs = r.get("grid_epochs")
    epochs = int(grid_epochs) if grid_epochs is not None else base.epochs
    scores = []
    for w in grid:
        tcfg = rnnsm.TrainingConfig(
            epochs=epochs, batch_size=base.batch_size,
            learning_rate=base.learning_rate, clip_norm=base.clip_norm, seed=base.seed,
        )
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
            "test_fraction": float((config.get("split") or {}).get("test_fraction", 0.2)),
            "seed": _split_seed(config),
            **split_identity(data),
        },
        "features": {
            "max_steps": fcfg.max_steps,
            "per_session_steps": fcfg.per_session_steps,
        },
        "seed": int(config["seed"]),
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
            model = baselines.train_simple_rnn(
                seqs, net_cfg, stats, training_config(config, "rnn")
            )
        else:
            w = select_w(data.train, config, dims)
            meta["w"] = w
            model = rnnsm.train_rnnsm(
                seqs, net_cfg, stats, w=w, config=training_config(config, "rnnsm")
            )
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


def _cox_predictions(model, standardization, markers, dataset, condition):
    agg = build_aggregates(dataset, continuous_markers=markers)
    if agg.feature_names != standardization.feature_names:
        raise DataModelMismatchError(
            "aggregate feature schema does not match the trained model"
        )
    return cox.expected_survival_time(
        model, standardization.apply(agg.X), condition_on_absence=condition,
        t_s=dataset.absence_times, row_ids=dataset.user_ids,
    )


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
        predicted = _cox_predictions(
            model, standardization, markers, dataset, condition=conditioned,
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
