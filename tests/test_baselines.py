import dataclasses

import numpy as np
import pytest

from returntime import baselines, net
from returntime.baselines import (
    baseline_predict,
    mse_sequence_loss,
    predict_simple_rnn,
    train_simple_rnn,
)
from returntime.data import Session, WindowConfig, assign_windows
from returntime.errors import DataError, NumericalError
from returntime.experiment import predictions
from returntime.features import FeatureConfig, build_sequences, pad_batch
from returntime.metrics import nonreturning_recall
from returntime.rnnsm import TrainingConfig, load_model, network_config, save_model
from returntime.synth import GeneratorConfig, generate

from oracles import finite_difference_grads, max_relative_error, session_columns

WINDOW = WindowConfig(activity_start=30.0, prediction_start=100.0, horizon_end=160.0)


@pytest.fixture(scope="module")
def small_data():
    cfg = GeneratorConfig(user_count=220, seed=31)
    sessions, _ = generate(cfg)
    dataset = assign_windows(sessions, cfg.window)
    seqs, stats = build_sequences(dataset, FeatureConfig(max_steps=32, variance_threshold=0.9))
    return dataset, seqs, stats


def small_net(stats):
    return network_config(stats, [2] * len(stats.discrete_features), 8, 8)


class TestBaseline:
    def test_prediction_is_absence_time(self):
        raw = [
            Session("a", 50.0, 0.5), Session("a", 120.0),
            Session("b", 90.0),
        ]
        ds = assign_windows(session_columns(raw), WINDOW)
        by_id = dict(zip((u.user_id for u in ds.users), baseline_predict(ds)))
        assert by_id["a"] == pytest.approx(100.0 - 50.5)
        assert by_id["b"] == pytest.approx(10.0)

    def test_last_session_at_window_start_predicts_zero(self):
        ds = assign_windows(session_columns([Session("a", 100.0)]), WINDOW)
        (predicted,) = baseline_predict(ds)
        assert predicted == 0.0

    def test_nonreturning_recall_is_exactly_zero(self, small_data):
        dataset, _, _ = small_data
        table = predictions(dataset, baseline_predict(dataset))
        assert nonreturning_recall(table) == 0.0

    def test_always_underestimates_returning_users(self, small_data):
        dataset, _, _ = small_data
        table = predictions(dataset, baseline_predict(dataset))
        returning = ~table.censored
        errors = table.predicted[returning] - table.observed[returning]
        assert all(e <= 1e-9 for e in errors)
        assert np.mean(errors) <= 0.0


class TestSimpleRnn:
    def test_mse_gradient_matches_finite_differences(self, small_data):
        # synthetic, well-scaled batch: finite-difference noise grows with
        # the loss magnitude, so day-scale targets stay O(1) here
        _, seqs, stats = small_data
        config = small_net(stats)
        rng = np.random.default_rng(0)
        params = net.init_params(config, rng)
        for k in params:
            params[k] = params[k] + rng.normal(scale=0.2, size=params[k].shape)
        batch = pad_batch(seqs, np.flatnonzero(~seqs.censored)[:4])
        batch.targets = rng.uniform(0.5, 4.0, size=batch.targets.shape)

        def loss_fn():
            o, _ = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
            value, _ = mse_sequence_loss(o, batch)
            return value

        o, cache = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
        _, grad_o = mse_sequence_loss(o, batch)
        analytic = net.backward_batch(params, config, cache, grad_o)
        numeric = finite_difference_grads(loss_fn, params, h=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_censored_users_do_not_affect_training(self, small_data):
        _, seqs, stats = small_data
        config = small_net(stats)
        cfg = TrainingConfig(epochs=2, batch_size=32, learning_rate=1e-3, clip_norm=5.0, seed=5)
        mixed = train_simple_rnn(seqs, config, stats, cfg)
        returning_only = train_simple_rnn(
            seqs.take(np.flatnonzero(~seqs.censored)), config, stats, cfg
        )
        assert mixed.loss_trace == returning_only.loss_trace
        for k in mixed.params:
            assert np.array_equal(mixed.params[k], returning_only.params[k])

    def test_training_reduces_loss(self, small_data):
        # squared errors on raw day-scale gaps need a larger Adam step than
        # the log-likelihood loss
        _, seqs, stats = small_data
        config = small_net(stats)
        model = train_simple_rnn(
            seqs, config, stats, TrainingConfig(epochs=8, batch_size=64,
                                                learning_rate=0.05, clip_norm=5.0, seed=6)
        )
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_divergence_restores_last_epoch_end_params(self, small_data, monkeypatch):
        _, seqs, stats = small_data
        config = small_net(stats)
        cfg = TrainingConfig(epochs=1, batch_size=32, learning_rate=1e-3, clip_norm=5.0, seed=9)
        one_epoch = train_simple_rnn(seqs, config, stats, cfg)
        # diverge on the second batch of epoch 2, after one more Adam step
        n_returning = int(np.count_nonzero(~seqs.censored))
        fail_at = -(-n_returning // cfg.batch_size) + 2
        mse = baselines.mse_sequence_loss
        calls = []

        def diverging_loss(*args):
            calls.append(None)
            if len(calls) == fail_at:
                raise NumericalError("non-finite activation")
            return mse(*args)

        monkeypatch.setattr(baselines, "mse_sequence_loss", diverging_loss)
        model = train_simple_rnn(seqs, config, stats, dataclasses.replace(cfg, epochs=2))
        assert model.diverged and not one_epoch.diverged
        assert model.loss_trace == one_epoch.loss_trace
        for k in model.params:
            assert np.array_equal(model.params[k], one_epoch.params[k])

    def test_requires_returning_users(self, small_data):
        _, seqs, stats = small_data
        censored_only = seqs.take(np.flatnonzero(seqs.censored))
        with pytest.raises(DataError):
            train_simple_rnn(censored_only, small_net(stats), stats,
                             TrainingConfig(epochs=1, batch_size=64, learning_rate=1e-3,
                                            clip_norm=5.0, seed=0))

    def test_negative_outputs_clamped_to_zero(self, small_data):
        _, seqs, stats = small_data
        config = small_net(stats)
        params = net.init_params(config, np.random.default_rng(7))
        params["out_b"][0] = -50.0
        model_like = train_simple_rnn(
            seqs.take(np.flatnonzero(~seqs.censored)[:10]), config, stats,
            TrainingConfig(epochs=0, batch_size=64, learning_rate=1e-3, clip_norm=5.0, seed=7),
        )
        model_like.params = params
        predicted = predict_simple_rnn(model_like, seqs.take(np.arange(20)))
        assert predicted.shape == (20,)
        assert np.all(predicted >= 0.0)
        assert np.any(predicted == 0.0)

    def test_save_load_round_trip(self, small_data, tmp_path):
        _, seqs, stats = small_data
        config = small_net(stats)
        training = TrainingConfig(epochs=2, batch_size=64, learning_rate=1e-3, clip_norm=5.0,
                                  seed=8)
        model = train_simple_rnn(seqs, config, stats, training)
        path = tmp_path / "rnn.npz"
        save_model(path, model)
        loaded = load_model(path, "rnn")
        assert loaded.w is None
        first = seqs.take(np.arange(10))
        assert np.array_equal(predict_simple_rnn(loaded, first), predict_simple_rnn(model, first))
