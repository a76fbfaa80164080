import dataclasses
import math

import numpy as np
import pytest

from returntime import net, rnnsm
from returntime.data import assign_windows
from returntime.errors import DataError, NumericalError
from returntime.features import FeatureConfig, build_sequences, pad_batch
from returntime.synth import GeneratorConfig, generate

from oracles import (
    absence_conditioned_expectation_scalar,
    expected_return_time_scalar,
    finite_difference_grads,
    max_relative_error,
)

TINY = net.NetConfig(
    discrete_features=("device", "hour"),
    cardinalities=(3, 5),
    embedding_dims=(2, 2),
    n_continuous=2,
    fusion_size=4,
    hidden_size=3,
)


def tiny_instance(seed, T=3):
    rng = np.random.default_rng(seed)
    params = net.init_params(TINY, rng)
    for k in params:
        params[k] = params[k] + rng.normal(scale=0.2, size=params[k].shape)
    disc = np.stack([rng.integers(0, c + 1, size=T) for c in TINY.cardinalities], axis=1)
    cont = rng.normal(size=(T, TINY.n_continuous))
    # keep w * gap moderate so finite-difference noise stays far below
    # the comparison tolerance
    targets = rng.uniform(0.5, 6.0, size=T)
    w = float(rng.uniform(0.05, 0.5))
    return params, disc, cont, targets, w


@pytest.fixture(scope="module")
def small_dataset():
    cfg = GeneratorConfig(user_count=260, seed=21)
    sessions, _ = generate(cfg)
    return assign_windows(sessions, cfg.window)


@pytest.fixture(scope="module")
def small_sequences(small_dataset):
    return build_sequences(small_dataset, FeatureConfig(max_steps=32))


def small_net(stats, hidden=8, fusion=8):
    return net.NetConfig(
        discrete_features=tuple(stats.discrete_features),
        cardinalities=tuple(stats.cardinalities),
        embedding_dims=tuple(2 for _ in stats.discrete_features),
        n_continuous=len(stats.cont_channels),
        fusion_size=fusion,
        hidden_size=hidden,
    )


class TestEndToEndGradient:
    @pytest.mark.parametrize("censored", [True, False])
    def test_full_sequence_loss_gradient(self, censored):
        failures = []
        for seed in range(20):
            params, disc, cont, targets, w = tiny_instance(seed)

            def loss_fn():
                o, _, _ = net.forward(params, TINY, disc, cont)
                value, _ = rnnsm.sequence_loss(o, targets, censored, w)
                return value

            o, _, cache = net.forward(params, TINY, disc, cont)
            _, grad_o = rnnsm.sequence_loss(o, targets, censored, w)
            analytic = net.backward_batch(params, TINY, cache, grad_o[None])
            numeric = finite_difference_grads(loss_fn, params, h=1e-5)
            err = max_relative_error(analytic, numeric)
            if err >= 1e-4:
                failures.append((seed, err))
        assert not failures, f"gradient mismatches: {failures}"

    def test_batch_loss_equals_per_user_losses(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        params = net.init_params(config, np.random.default_rng(0))
        batch = pad_batch(seqs, np.arange(17))
        o, _, _ = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
        losses, grads = rnnsm._batch_loss(o, batch, w=0.1)
        for i in range(17):
            a, b = seqs.offsets[i], seqs.offsets[i + 1]
            o_i, _, _ = net.forward(params, config, seqs.disc[a:b], seqs.cont[a:b])
            loss_i, grad_i = rnnsm.sequence_loss(o_i, seqs.targets[a:b], seqs.censored[i], 0.1)
            assert losses[i] == pytest.approx(loss_i, rel=1e-9)
            np.testing.assert_allclose(grads[i, :b - a], grad_i, rtol=1e-9, atol=1e-12)
            assert np.all(grads[i, b - a:] == 0.0)


class TestTraining:
    def test_loss_decreases(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        model = rnnsm.train_rnnsm(
            seqs, config, stats, w=0.1,
            config=rnnsm.TrainingConfig(epochs=6, batch_size=64, seed=1),
        )
        assert len(model.loss_trace) == 6
        assert model.loss_trace[5] < model.loss_trace[0]
        assert not model.diverged

    def test_same_seed_identical_trace_and_params(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        cfg = rnnsm.TrainingConfig(epochs=3, batch_size=64, seed=2)
        m1 = rnnsm.train_rnnsm(seqs, config, stats, w=0.1, config=cfg)
        m2 = rnnsm.train_rnnsm(seqs, config, stats, w=0.1, config=cfg)
        assert m1.loss_trace == m2.loss_trace
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    @pytest.mark.parametrize("mean_gap,w", [(20.0, 0.01), (3.7, 0.5), (0.4, 2.0), (150.0, 0.05)])
    def test_initial_output_bias_is_one_call_per_bisection_step(self, mean_gap, w):
        lo, hi = -30.0, 30.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if rnnsm.expected_return_time(mid, w) > mean_gap:
                lo = mid
            else:
                hi = mid
        assert rnnsm.initial_output_bias(mean_gap, w) == 0.5 * (lo + hi)

    def test_needs_both_strata(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        returning_only = seqs.take(np.flatnonzero(~seqs.censored))
        with pytest.raises(DataError):
            rnnsm.train_rnnsm(returning_only, config, stats, w=0.1,
                              config=rnnsm.TrainingConfig(epochs=1))

    def test_w_must_be_positive(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        with pytest.raises(Exception):
            rnnsm.train_rnnsm(seqs, config, stats, w=0.0,
                              config=rnnsm.TrainingConfig(epochs=1))

    def test_divergence_restores_last_good_params(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        # a target far beyond the overflow guard trips the exponent check on
        # the first epoch that touches it
        poisoned = dataclasses.replace(seqs, targets=seqs.targets.copy())
        poisoned.targets[seqs.offsets[1] - 1] = 5000.0  # the first user's final gap
        model = rnnsm.train_rnnsm(
            poisoned, config, stats, w=1.0,
            config=rnnsm.TrainingConfig(epochs=2, batch_size=16, seed=3),
        )
        assert model.diverged
        assert model.loss_trace == []
        for p in model.params.values():
            assert np.all(np.isfinite(p))

    def test_divergence_restores_last_epoch_end_adam_state(self, small_sequences, monkeypatch):
        seqs, stats = small_sequences
        config = small_net(stats)
        cfg = rnnsm.TrainingConfig(epochs=1, batch_size=64, seed=3)
        one_epoch = rnnsm.train_rnnsm(seqs, config, stats, w=0.1, config=cfg)
        # diverge on the second batch of epoch 2, after one more Adam step
        fail_at = -(-len(seqs) // cfg.batch_size) + 2
        batch_loss = rnnsm._batch_loss
        calls = []

        def diverging_loss(*args):
            calls.append(None)
            if len(calls) == fail_at:
                raise NumericalError("batch loss exponent exceeds 700")
            return batch_loss(*args)

        monkeypatch.setattr(rnnsm, "_batch_loss", diverging_loss)
        model = rnnsm.train_rnnsm(
            seqs, config, stats, w=0.1, config=dataclasses.replace(cfg, epochs=2)
        )
        assert model.diverged
        assert model.loss_trace == one_epoch.loss_trace
        assert model.adam.step == one_epoch.adam.step
        for k in model.params:
            assert np.array_equal(model.params[k], one_epoch.params[k])
            assert np.array_equal(model.adam.m[k], one_epoch.adam.m[k])
            assert np.array_equal(model.adam.v[k], one_epoch.adam.v[k])


@pytest.fixture(scope="module")
def trained(small_dataset, small_sequences):
    seqs, stats = small_sequences
    config = small_net(stats)
    model = rnnsm.train_rnnsm(
        seqs, config, stats, w=0.1,
        config=rnnsm.TrainingConfig(epochs=4, batch_size=64, seed=4),
    )
    return model, seqs, small_dataset.absence_times


class TestPrediction:
    def test_rnnsma_never_predicts_before_window_start(self, trained):
        model, seqs, t_s = trained
        predicted = rnnsm.predict(model, seqs, t_s)
        assert predicted.shape == (len(seqs),)
        assert np.all(predicted >= t_s)

    def test_rnnsma_dominates_rnnsm_on_average(self, trained):
        model, seqs, t_s = trained
        p = rnnsm.predict(model, seqs, 0.0)
        c = rnnsm.predict(model, seqs, t_s)
        assert np.all(c >= p - 1e-9)
        assert c.mean() > p.mean()

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_matches_per_user_oracle(self, trained, conditioned):
        model, seqs, t_s = trained
        o = net.forward_last(model.params, model.net_config, seqs.disc, seqs.cont, seqs.lengths)
        predicted = rnnsm.predict(model, seqs, t_s if conditioned else 0.0)
        for value, o_i, t_i in zip(predicted, o.tolist(), t_s.tolist()):
            if conditioned:
                oracle = absence_conditioned_expectation_scalar(o_i, model.w, t_i)
            else:
                oracle = expected_return_time_scalar(o_i, model.w)
            assert math.isclose(value, oracle, rel_tol=1e-12)

    def test_zero_absence_is_the_unconditioned_expectation_bitwise(self, trained):
        model, seqs, _ = trained
        o = net.forward_last(model.params, model.net_config, seqs.disc, seqs.cont, seqs.lengths)
        predicted = rnnsm.predict(model, seqs, 0.0)
        assert predicted.tobytes() == rnnsm.expected_return_time(o, model.w).tobytes()

    def test_zero_absence_gives_identical_prediction(self, trained):
        model, seqs, _ = trained
        first = seqs.take([0])
        a = rnnsm.predict(model, first, 0.0)[0]
        b = rnnsm.predict(model, first, np.zeros(1))[0]
        assert a == b

    def test_save_load_round_trip(self, trained, tmp_path):
        model, seqs, _ = trained
        path = tmp_path / "rnnsm.npz"
        rnnsm.save_model(path, model)
        loaded = rnnsm.load_model(path, "rnnsm")
        assert loaded.w == model.w
        a = rnnsm.predict(model, seqs.take(np.arange(10)), 0.0)
        b = rnnsm.predict(loaded, seqs.take(np.arange(10)), 0.0)
        assert np.array_equal(a, b)
