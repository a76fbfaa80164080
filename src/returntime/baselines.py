"""Reference models: the last-seen baseline and a plain RNN trained with
mean squared error on returning users only."""

from __future__ import annotations

import numpy as np

from . import net
from .data import Dataset
from .errors import DataError
from .features import PaddedBatch, SequenceStats, Sequences
from .rnnsm import RecurrentModel, TrainingConfig, _fit


def baseline_predict(dataset: Dataset) -> np.ndarray:
    """Predict every user returns after exactly their current absence time.

    The predicted return date is then the prediction-window start, so this
    model never flags anyone as non-returning and always underestimates a
    returning user's gap.
    """
    return dataset.absence_times


# ---------------------------------------------------------------------------
# simple RNN trained with MSE on uncensored gaps

def mse_sequence_loss(o: np.ndarray, batch: PaddedBatch) -> tuple[float, np.ndarray]:
    """Mean squared error between final-step outputs and final gaps.

    Only the final step is supervised, against the final gap, which is also
    the quantity read out at prediction time. Callers must pass returning
    users only, so every used target is observed.
    """
    B = o.shape[0]
    rows = np.arange(B)
    last = batch.lengths - 1
    diff_last = o[rows, last] - batch.targets[rows, last]
    loss = float(np.mean(diff_last ** 2))
    grad = np.zeros_like(o)
    grad[rows, last] = 2.0 * diff_last / B
    return loss, grad


def train_simple_rnn(
    sequences: Sequences,
    net_config: net.NetConfig,
    stats: SequenceStats,
    config: TrainingConfig,
) -> RecurrentModel:
    """Minibatch Adam on final-step squared error; censored users are dropped
    from training because their final gap has no target value. The trace
    holds each epoch's mean batch loss."""
    train_seqs = sequences.take(np.flatnonzero(~sequences.censored))
    if not len(train_seqs):
        raise DataError("simple RNN training needs at least one returning user")

    rng = np.random.default_rng(config.seed)
    params = net.init_params(net_config, rng)
    # start at the marginal mean so the squared error begins at the variance
    params["out_b"][0] = float(np.mean(train_seqs.targets[train_seqs.offsets[1:] - 1]))
    n_batches = -(-len(train_seqs) // config.batch_size)
    model = RecurrentModel(params=params, net_config=net_config, stats=stats)
    return _fit(model, train_seqs, config, rng, mse_sequence_loss, loss_divisor=n_batches)


def predict_simple_rnn(model: RecurrentModel, sequences: Sequences) -> np.ndarray:
    """Final-step output as the predicted gap (N,), clamped to non-negative;
    the output comes from the scoring pass on the model's float32 params
    (net.forward_last)."""
    o = net.forward_last(model.params, model.net_config, sequences.disc, sequences.cont,
                         sequences.lengths)
    return np.maximum(o, 0.0)
