"""Experiment plumbing shared by the CLI: dataset assembly, model training
dispatch and prediction dispatch."""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, blas, cox, metrics, net, parallel, rnnsm
from .config import (
    count, finite, mapping, model_family, natural, output_dir, positive, positives, setting, text,
)
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
    Sequences,
    build_aggregates,
    build_sequences,
    select_embedding_dims,
)

logger = logging.getLogger(__name__)

PRELIMINARY_W = 0.1  # current-influence weight of the preliminary rnnsm model


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass
class LoadedData:
    dataset: Dataset
    train: Dataset
    test: Dataset
    sessions_sha256: str  # of the sessions file's bytes


def load_dataset(config: dict) -> tuple[Dataset, str]:
    """The windowed users of data.sessions, and the sha256 of the file's bytes."""
    sessions, epoch_iso, sha256 = read_sessions_jsonl(setting(config, "data.sessions", text))
    # day offsets are numbers, *_date entries ISO strings
    window_cfg = {
        key: setting(config, f"window.{key}", text if key.endswith("_date") else finite)
        for key in setting(config, "window", mapping)
    }
    return assign_windows(sessions, resolve_window_days(window_cfg, epoch_iso), epoch_iso), sha256


def load_and_split(config: dict) -> LoadedData:
    dataset, sessions_sha256 = load_dataset(config)
    train, test = stratified_split(
        dataset, setting(config, "split.test_fraction", finite), _split_seed(config)
    )
    return LoadedData(dataset=dataset, train=train, test=test, sessions_sha256=sessions_sha256)


def _split_seed(config: dict) -> int:
    """split.seed when set (0 included), else the run seed."""
    seed = setting(config, "split.seed", natural, optional=True)
    return seed if seed is not None else setting(config, "seed", natural)


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
        max_steps=setting(config, "features.max_steps", count),
        variance_threshold=setting(config, "features.variance_threshold", finite),
    )


def training_config(config: dict, model: str, seed_offset: int = 0) -> rnnsm.TrainingConfig:
    return rnnsm.TrainingConfig(
        epochs=setting(config, f"training.{model}.epochs", count),
        batch_size=setting(config, f"training.{model}.batch_size", count),
        learning_rate=setting(config, f"training.{model}.learning_rate", positive),
        clip_norm=setting(config, f"training.{model}.clip_norm", positive),
        seed=setting(config, "seed", natural) + seed_offset,
    )


def _net_config(stats: SequenceStats, dims: dict[str, int], config: dict) -> net.NetConfig:
    return rnnsm.network_config(stats, [dims[name] for name in stats.discrete_features],
                                setting(config, "network.fusion_size", count),
                                setting(config, "network.hidden_size", count))


def _embedding_dims(value) -> str | dict[str, int]:
    """"auto", or a mapping of feature name to a dimension of at least 1."""
    if value == "auto":
        return value
    if not isinstance(value, dict):
        raise TypeError("expected 'auto' or a mapping")
    return {name: count(dim) for name, dim in value.items()}


def resolve_embedding_dims(
    train_seqs: Sequences, stats: SequenceStats, config: dict, family: str
) -> dict[str, int]:
    """Either take dims from the config or run the preliminary-model PCA
    selection: train wide embeddings briefly with the family's own loss (at
    w = PRELIMINARY_W for rnnsm), then keep the dimensions explaining more
    than the variance threshold."""
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
        epochs=setting(config, "network.preliminary_epochs", count),
    )
    if family == "rnn":
        prelim = baselines.train_simple_rnn(train_seqs, prelim_config, stats, prelim_train)
    else:
        prelim = rnnsm.train_rnnsm(train_seqs, prelim_config, stats, PRELIMINARY_W, prelim_train)
    threshold = feature_config(config).variance_threshold
    dims = {name: select_embedding_dims(prelim.params[f"emb_{name}"], threshold)
            for name in stats.discrete_features}
    logger.info("embedding dimensions from preliminary %s model: %s", family, dims)
    return dims


@dataclass(frozen=True)
class RnnsmFit:
    """One rnnsm fit short of its w: train_rnnsm on these inputs."""

    sequences: Sequences
    net_config: net.NetConfig
    stats: SequenceStats
    training: rnnsm.TrainingConfig

    def __call__(self, w: float) -> rnnsm.RecurrentModel:
        return rnnsm.train_rnnsm(self.sequences, self.net_config, self.stats, w, self.training)


def _leader(grid: list[float], concordances: list[float]) -> int:
    """Index of the best scored candidate: highest concordance, then smallest w."""
    return max(range(len(concordances)), key=lambda i: (concordances[i], -grid[i]))


def select_w(
    train: Dataset, config: dict, dims: dict[str, int], final: RnnsmFit
) -> tuple[float, list[list[float]], rnnsm.RecurrentModel]:
    """Grid search over the current-influence weight on validation
    concordance; returns w, the [w, concordance] pairs in grid order and the
    final model fitted with w.

    Each candidate trains a model with the final architecture and schedule on
    a held-out split of the train data, so the selection sees the same
    capacity the final model will have. The candidates run in rounds of one
    per usable CPU (parallel.run), on the one OpenBLAS thread that training
    holds. When the last round leaves a process free, that process fits the
    final model for the leader so far; if a later candidate wins, the final
    model is fitted again for it.
    """
    w = setting(config, "rnnsm.w", positive, optional=True)
    if w is not None:
        return w, [], final(w)
    grid = setting(config, "rnnsm.w_grid", positives)
    if len(grid) == 1:
        return grid[0], [], final(grid[0])
    fit_ds, val_ds = stratified_split(
        train, setting(config, "rnnsm.validation_fraction", finite),
        setting(config, "seed", natural) + 17,
    )
    fcfg = feature_config(config)
    fit_seqs, stats = build_sequences(fit_ds, fcfg)
    val_seqs, _ = build_sequences(val_ds, stats=stats)
    tcfg = training_config(config, "rnnsm", seed_offset=31)
    grid_epochs = setting(config, "rnnsm.grid_epochs", count, optional=True)
    if grid_epochs is not None:
        tcfg = replace(tcfg, epochs=grid_epochs)
    candidate = RnnsmFit(fit_seqs, _net_config(stats, dims, config), stats, tcfg)

    def validation_predictions(w: float) -> np.ndarray:
        return rnnsm.predict(candidate(w), val_seqs, 0.0)

    workers = parallel.worker_count(len(grid), 1)
    concordances: list[float] = []
    early = None  # index of the leader whose final model the last round fits
    for lo in range(0, len(grid), workers):
        ws = grid[lo:lo + workers]
        tasks = [functools.partial(validation_predictions, w) for w in ws]
        if len(ws) < workers:  # the last round has a free process
            early = _leader(grid, concordances)
            tasks.append(functools.partial(final, grid[early]))
        results = parallel.run(tasks)
        concordances += [metrics.concordance_index(predictions(val_ds, predicted))
                         for predicted in results[:len(ws)]]
    for w, c in zip(grid, concordances):
        logger.info("w grid: w=%g validation concordance %.4f", w, c)
    best = _leader(grid, concordances)
    if best == early:
        model = results[-1]
    else:
        if early is not None:
            logger.info("w grid: w=%g overtook w=%g; fitting the final model again",
                        grid[best], grid[early])
        model = final(grid[best])
    return grid[best], [[w, c] for w, c in zip(grid, concordances)], model


# ---------------------------------------------------------------------------
# training dispatch

def train_model(model_name: str, data: LoadedData, config: dict, out_dir: str | Path) -> dict:
    """Fit one model family on the train split and persist its artifact.

    cpha and rnnsma alias the cph / rnnsm artifacts since only prediction
    differs. Training runs on one OpenBLAS thread (see blas.one_thread), so
    the artifact does not depend on the host's thread count. Returns the
    metadata dictionary that was written next to the artifact.
    """
    family = model_family(model_name)
    out = output_dir(out_dir)
    fcfg = feature_config(config)
    meta: dict = {
        "model_family": family,
        "window_days": asdict(data.dataset.window),
        "split": {
            "test_fraction": setting(config, "split.test_fraction", finite),
            "seed": _split_seed(config),
            **split_identity(data),
        },
        "features": {"max_steps": fcfg.max_steps},
        "seed": setting(config, "seed", natural),
    }
    with blas.one_thread() as meta["blas"]:
        _fit_and_save(family, data, config, out, meta)
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    return meta


def _fit_and_save(family: str, data: LoadedData, config: dict, out: Path, meta: dict) -> None:
    """Fit the family's model, write its artifact and add its entries to meta."""
    if family == "baseline":
        (out / "model.json").write_text(json.dumps({"kind": "baseline"}, indent=2))

    elif family == "cph":
        agg = build_aggregates(data.train)
        model = cox.fit(agg.X, data.train.final_gap, ~data.train.is_censored,
                        feature_names=agg.feature_names)
        model.save(out / "model.json")
        meta["continuous_markers"] = agg.continuous_markers

    else:
        seqs, stats = build_sequences(data.train, feature_config(config))
        dims = resolve_embedding_dims(seqs, stats, config, family=family)
        net_cfg = _net_config(stats, dims, config)
        if family == "rnn":
            model = baselines.train_simple_rnn(seqs, net_cfg, stats, training_config(config, "rnn"))
        else:
            final = RnnsmFit(seqs, net_cfg, stats, training_config(config, "rnnsm"))
            meta["w"], meta["w_grid_scores"], model = select_w(data.train, config, dims, final)
        rnnsm.save_model(out / "model.npz", model)
        meta["embedding_dims"] = dims
        meta["loss_trace"] = model.loss_trace
        meta["diverged"] = model.diverged


# ---------------------------------------------------------------------------
# prediction dispatch

def predictions(dataset: Dataset, predicted: np.ndarray) -> metrics.Predictions:
    """The prediction table of dataset's users, in order, from (N,) predicted gaps."""
    return metrics.Predictions(
        user_ids=dataset.user_ids, predicted=np.asarray(predicted, dtype=float),
        observed=dataset.final_gap, censored=dataset.is_censored,
        horizon_gap=dataset.horizon_gaps, active_days=dataset.active_day_counts,
        last_end=dataset.last_session_end,
    )


def predict_model(
    model_name: str,
    artifact_dir: str | Path,
    dataset: Dataset,
    split: dict[str, str] | None = None,
) -> metrics.Predictions:
    """Predict every user of dataset with the artifact in artifact_dir.

    When split is given (predicting one side of a split), it is this run's
    split_identity and must equal the one the artifact recorded, so a split
    drawn with another seed or from other data cannot pass training users
    off as test users.
    """
    family = model_family(model_name)
    # cpha and rnnsma condition on each user's absence so far, cph and rnnsm on none
    t_s = dataset.absence_times if model_name != family else np.zeros(len(dataset))
    artifact = Path(artifact_dir)
    meta_path = artifact / "meta.json"
    if not meta_path.exists():
        raise DataModelMismatchError(f"no model metadata at {meta_path}")

    def unreadable(detail) -> DataModelMismatchError:
        return DataModelMismatchError(f"model metadata at {meta_path} is unreadable: {detail}")

    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise unreadable(exc) from exc
    if not isinstance(meta, dict):
        raise unreadable(f"expected a JSON object, got {type(meta).__name__}")
    if meta.get("model_family") != family:
        raise DataModelMismatchError(
            f"artifact at {artifact} holds a {meta.get('model_family')!r} model, "
            f"cannot predict with {model_name!r}"
        )
    if meta.get("window_days") != asdict(dataset.window):
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
        markers = meta.get("continuous_markers")
        if not (isinstance(markers, list) and all(isinstance(m, str) for m in markers)):
            raise unreadable(f"continuous_markers = {markers!r}, expected a list of strings")
        agg = build_aggregates(dataset, continuous_markers=markers)
        if agg.feature_names != model.feature_names:
            raise DataModelMismatchError(
                "aggregate feature schema does not match the trained model")
        predicted = cox.expected_survival_time(model, agg.X, t_s, row_ids=dataset.user_ids)
    else:
        model = rnnsm.load_model(artifact / "model.npz", family)
        seqs, _ = build_sequences(dataset, stats=model.stats)
        if family == "rnn":
            predicted = baselines.predict_simple_rnn(model, seqs)
        else:
            predicted = rnnsm.predict(model, seqs, t_s)
    return predictions(dataset, predicted)

