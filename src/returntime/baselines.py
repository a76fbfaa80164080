"""Reference models: the last-seen baseline and a plain RNN trained with
mean squared error on returning users only."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import net
from .data import Dataset
from .errors import DataError, NumericalError
from .features import (
    PaddedBatch,
    SequenceStats,
    UserSequence,
    count_active_days,
    pad_batch,
)
from .metrics import PredictionRecord
from .rnnsm import TrainingConfig, last_outputs

logger = logging.getLogger(__name__)


def baseline_predict(dataset: Dataset) -> list[PredictionRecord]:
    """Predict every user returns after exactly their current absence time.

    The predicted return date is then the prediction-window start, so this
    model never flags anyone as non-returning and always underestimates a
    returning user's gap.
    """
    records = []
    for user in dataset.users:
        final = user.final_gap
        records.append(
            PredictionRecord(
                user_id=user.user_id,
                predicted_return_days=dataset.absence_time(user),
                true_return_days=None if user.is_censored else final,
                censored_lower_bound_days=final if user.is_censored else None,
                horizon_gap_days=dataset.horizon_gap(user),
                active_day_count=count_active_days(user),
                last_session_end_days=user.last_session_end,
            )
        )
    return records


# ---------------------------------------------------------------------------
# simple RNN trained with MSE on uncensored gaps

@dataclass
class SimpleRnnModel:
    params: dict[str, np.ndarray]
    net_config: net.NetConfig
    stats: SequenceStats
    adam: net.AdamState | None = None
    loss_trace: list[float] = field(default_factory=list)


def mse_sequence_loss(
    o: np.ndarray, batch: PaddedBatch, final_step_only: bool = True
) -> tuple[float, np.ndarray]:
    """Mean squared error between outputs and observed gaps.

    The default supervises only the final step against the final gap, which
    is also the quantity read out at prediction time; per-step supervision
    over every observed gap is available as the alternative. Callers must
    pass returning users only, so every used target is observed.
    """
    B, T = o.shape
    if final_step_only:
        rows = np.arange(B)
        last = batch.lengths - 1
        diff_last = o[rows, last] - batch.targets[rows, last]
        loss = float(np.mean(diff_last ** 2))
        grad = np.zeros_like(o)
        grad[rows, last] = 2.0 * diff_last / B
        return loss, grad
    mask = np.arange(T)[None, :] < batch.lengths[:, None]
    diff = np.where(mask, o - batch.targets, 0.0)
    n = int(mask.sum())
    loss = float(np.sum(diff * diff) / n)
    grad = 2.0 * diff / n
    return loss, grad


def train_simple_rnn(
    sequences: list[UserSequence],
    net_config: net.NetConfig,
    stats: SequenceStats,
    config: TrainingConfig,
) -> SimpleRnnModel:
    """Minibatch Adam on per-step squared error; censored users are dropped
    from training because their final gap has no target value."""
    train_seqs = [s for s in sequences if not s.is_censored]
    if not train_seqs:
        raise DataError("simple RNN training needs at least one returning user")

    rng = np.random.default_rng(config.seed)
    params = net.init_params(net_config, rng)
    # start at the marginal mean so the squared error begins at the variance
    params["out_b"][0] = float(np.mean([s.targets[-1] for s in train_seqs]))
    state = net.AdamState.for_params(params)
    snapshot = ({k: p.copy() for k, p in params.items()}, state.copy())
    trace: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_seqs))
        total = 0.0
        n_batches = 0
        try:
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                batch = pad_batch([train_seqs[i] for i in idx])
                o, _, cache = net.forward_batch(
                    params, net_config, batch.disc, batch.cont, batch.lengths
                )
                loss, grad_o = mse_sequence_loss(o, batch)
                total += loss
                n_batches += 1
                grads = net.backward_batch(params, net_config, cache, grad_o)
                net.apply_update_with_norm_projection(
                    params, grads, state,
                    lr=config.learning_rate, clip_norm=config.clip_norm,
                )
            epoch_loss = total / n_batches
            if not math.isfinite(epoch_loss):
                raise NumericalError(f"epoch {epoch} mean loss is {epoch_loss}")
        except NumericalError as exc:
            logger.warning("simple RNN diverged at epoch %d (%s); restoring last "
                           "good parameters and optimizer state", epoch, exc)
            params, state = snapshot
            break
        trace.append(epoch_loss)
        snapshot = ({k: p.copy() for k, p in params.items()}, state.copy())

    return SimpleRnnModel(
        params=params, net_config=net_config, stats=stats, adam=state, loss_trace=trace
    )


def predict_simple_rnn(
    model: SimpleRnnModel, sequences: list[UserSequence]
) -> list[PredictionRecord]:
    """Final-step output as the predicted gap, clamped to non-negative."""
    o_last = last_outputs(model.params, model.net_config, sequences)
    records = []
    for seq, pred in zip(sequences, o_last):
        final = float(seq.targets[-1])
        records.append(
            PredictionRecord(
                user_id=seq.user_id,
                predicted_return_days=max(float(pred), 0.0),
                true_return_days=None if seq.is_censored else final,
                censored_lower_bound_days=final if seq.is_censored else None,
                horizon_gap_days=seq.horizon_gap,
                active_day_count=seq.active_day_count,
                last_session_end_days=seq.last_session_end,
            )
        )
    return records


def save_simple_rnn(path: str | Path, model: SimpleRnnModel) -> None:
    net.save_checkpoint(
        path, model.params, model.net_config, state=model.adam,
        extra={"kind": "rnn", "stats": model.stats.to_dict(), "loss_trace": model.loss_trace},
    )


def load_simple_rnn(path: str | Path) -> SimpleRnnModel:
    from .errors import DataModelMismatchError

    params, config, state, extra = net.load_checkpoint(path)
    if extra.get("kind") != "rnn":
        raise DataModelMismatchError(
            f"checkpoint at {path} holds a {extra.get('kind')!r} model, expected 'rnn'"
        )
    return SimpleRnnModel(
        params=params, net_config=config, stats=SequenceStats.from_dict(extra["stats"]),
        adam=state, loss_trace=list(extra.get("loss_trace", [])),
    )
