import dataclasses
import json
import math

import numpy as np
import pytest

from returntime import blas, net, rnnsm
from returntime.data import assign_windows
from returntime.errors import DataError, NumericalError
from returntime.features import FeatureConfig, build_sequences, pad_batch
from returntime.synth import GeneratorConfig, generate

from oracles import (
    absence_conditioned_expectation_scalar,
    expected_return_time_scalar,
    finite_difference_grads,
    max_relative_error,
    one_user_batch,
    per_step_loss,
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
    return build_sequences(small_dataset, FeatureConfig(max_steps=32, variance_threshold=0.9))


def small_net(stats, hidden=8, fusion=8):
    return rnnsm.network_config(stats, [2] * len(stats.discrete_features), fusion, hidden)


class TestEndToEndGradient:
    @pytest.mark.parametrize("censored", [True, False])
    def test_full_sequence_loss_gradient(self, censored):
        failures = []
        for seed in range(20):
            params, disc, cont, targets, w = tiny_instance(seed)
            batch = one_user_batch(targets, censored, disc, cont)

            def loss_fn():
                o, _ = net.forward_batch(params, TINY, batch.disc, batch.cont, batch.lengths)
                return float(rnnsm._batch_loss(o, batch, w)[0][0])

            o, cache = net.forward_batch(params, TINY, batch.disc, batch.cont, batch.lengths)
            _, grad_o = rnnsm._batch_loss(o, batch, w)
            analytic = net.backward_batch(params, TINY, cache, grad_o)
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
        o, _ = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
        losses, grads = rnnsm._batch_loss(o, batch, w=0.1)
        for i in range(17):
            one = pad_batch(seqs, np.array([i]))
            o_i, _ = net.forward_batch(params, config, one.disc, one.cont, one.lengths)
            loss_i = per_step_loss(o_i[0].tolist(), one.targets[0].tolist(), seqs.censored[i], 0.1)
            _, grad_i = rnnsm._batch_loss(o_i, one, w=0.1)
            L = one.lengths[0]
            assert losses[i] == pytest.approx(loss_i, rel=1e-9)
            np.testing.assert_allclose(grads[i, :L], grad_i[0], rtol=1e-9, atol=1e-12)
            assert np.all(grads[i, L:] == 0.0)


class TestTraining:
    def test_loss_decreases(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        model = rnnsm.train_rnnsm(
            seqs, config, stats, w=0.1,
            config=rnnsm.TrainingConfig(epochs=6, batch_size=64,
                                        learning_rate=1e-3, clip_norm=5.0, seed=1),
        )
        assert len(model.loss_trace) == 6
        assert model.loss_trace[5] < model.loss_trace[0]
        assert not model.diverged

    def test_same_seed_identical_trace_and_params(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        cfg = rnnsm.TrainingConfig(epochs=3, batch_size=64,
                                   learning_rate=1e-3, clip_norm=5.0, seed=2)
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
                              config=rnnsm.TrainingConfig(epochs=1, batch_size=64,
                                                          learning_rate=1e-3, clip_norm=5.0,
                                                          seed=0))

    def test_w_must_be_positive(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        with pytest.raises(Exception):
            rnnsm.train_rnnsm(seqs, config, stats, w=0.0,
                              config=rnnsm.TrainingConfig(epochs=1, batch_size=64,
                                                          learning_rate=1e-3, clip_norm=5.0,
                                                          seed=0))

    def test_divergence_restores_last_good_params(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats)
        # a target far beyond the overflow guard trips the exponent check on
        # the first epoch that touches it
        poisoned = dataclasses.replace(seqs, targets=seqs.targets.copy())
        poisoned.targets[seqs.offsets[1] - 1] = 5000.0  # the first user's final gap
        model = rnnsm.train_rnnsm(
            poisoned, config, stats, w=1.0,
            config=rnnsm.TrainingConfig(epochs=2, batch_size=16,
                                        learning_rate=1e-3, clip_norm=5.0, seed=3),
        )
        assert model.diverged
        assert model.loss_trace == []
        for p in model.params.values():
            assert np.all(np.isfinite(p))

    def test_divergence_restores_last_epoch_end_params(self, small_sequences, monkeypatch):
        seqs, stats = small_sequences
        config = small_net(stats)
        cfg = rnnsm.TrainingConfig(epochs=1, batch_size=64,
                                   learning_rate=1e-3, clip_norm=5.0, seed=3)
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
        for k in model.params:
            assert np.array_equal(model.params[k], one_epoch.params[k])


def float64_reference(seqs, config, stats, w, training):
    """train_rnnsm's loss trace and peak |grad_o| with _fit's loop run on
    float64 params and no gradient scaling, from the float32-rounded params
    that train_rnnsm starts from."""
    start = rnnsm.train_rnnsm(seqs, config, stats, w, dataclasses.replace(training, epochs=0))
    params = {k: p.astype(np.float64) for k, p in start.params.items()}
    rng = np.random.default_rng(training.seed)
    net.init_params(config, rng)  # the draws train_rnnsm makes before the first epoch
    state = net.AdamState.for_params(params)
    trace, peak = [], 0.0
    for _ in range(training.epochs):
        order = rng.permutation(len(seqs))
        total = 0.0
        for start in range(0, len(order), training.batch_size):
            batch = pad_batch(seqs, order[start:start + training.batch_size])
            o, cache = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
            losses, grad_o = rnnsm._batch_loss(o, batch, w)
            grad_o = grad_o / len(o)
            total += float(losses.sum())
            peak = max(peak, float(np.max(np.abs(grad_o))))
            grads = net.backward_batch(params, config, cache, grad_o)
            net.apply_update_with_norm_projection(params, grads, state, lr=training.learning_rate,
                                                  clip_norm=training.clip_norm, grad_scale=1.0)
        trace.append(total / len(seqs))
    return trace, peak


class TestFloat32Training:
    @pytest.mark.parametrize("w", [0.5, 1.0])
    def test_large_w_trains_as_in_float64(self, small_sequences, w):
        seqs, stats = small_sequences
        config = small_net(stats)
        training = rnnsm.TrainingConfig(epochs=3, batch_size=64,
                                        learning_rate=1e-3, clip_norm=5.0, seed=1)
        want, peak = float64_reference(seqs, config, stats, w, training)
        # unscaled, these gradients would overflow float32 and end training
        assert peak > float(np.finfo(np.float32).max)
        model = rnnsm.train_rnnsm(seqs, config, stats, w, training)
        assert not model.diverged
        assert all(p.dtype == np.float32 for p in model.params.values())
        np.testing.assert_allclose(model.loss_trace, want, rtol=1e-5, atol=0)

    @pytest.mark.parametrize("grad", [1e-3, 1e200], ids=["unclipped", "clipped"])
    def test_unit_grad_scale_is_the_unscaled_adam_step(self, grad):
        params = net.init_params(TINY, np.random.default_rng(5))
        grads = {k: np.random.default_rng(6).normal(size=p.shape) * grad
                 for k, p in params.items()}
        # the Adam step with global-norm clipping as it was before grad_scale
        want = {k: p.copy() for k, p in params.items()}
        norm = net.global_grad_norm(grads)
        scale = 5.0 / norm if norm > 5.0 else 1.0
        beta1, beta2 = 0.9, 0.999
        for key in sorted(want):
            g = grads[key] * scale
            m, v = (1.0 - beta1) * g, (1.0 - beta2) * g * g
            want[key] -= 1e-3 * (m / (1.0 - beta1)) / (np.sqrt(v / (1.0 - beta2)) + 1e-8)
            if key.startswith("emb_"):
                want[key] = net._normalize_rows(want[key])
        for kwargs in ({}, {"grad_scale": 1.0}):
            got = {k: p.copy() for k, p in params.items()}
            net.apply_update_with_norm_projection(got, grads, net.AdamState.for_params(got),
                                                  clip_norm=5.0, **kwargs)
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        # dividing by a power of two and scaling back is exact
        got = {k: p.copy() for k, p in params.items()}
        net.apply_update_with_norm_projection(got, {k: g / 2.0 ** 90 for k, g in grads.items()},
                                              net.AdamState.for_params(got), clip_norm=5.0,
                                              grad_scale=2.0 ** 90)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


@pytest.fixture(scope="module")
def trained(small_dataset, small_sequences):
    seqs, stats = small_sequences
    config = small_net(stats)
    model = rnnsm.train_rnnsm(
        seqs, config, stats, w=0.1,
        config=rnnsm.TrainingConfig(epochs=4, batch_size=64,
                                    learning_rate=1e-3, clip_norm=5.0, seed=4),
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

    def test_score_depends_only_on_the_user_and_the_model(self, small_sequences):
        seqs, stats = small_sequences
        config = small_net(stats, hidden=32, fusion=32)  # wide enough for OpenBLAS to thread
        # float32, as a trained or loaded model holds them: this is the pass predict runs
        params = {k: p.astype(np.float32)
                  for k, p in net.init_params(config, np.random.default_rng(9)).items()}

        def outputs(s):
            return net.forward_last(params, config, s.disc, s.cont, s.lengths)

        every = outputs(seqs)
        subset = np.arange(0, len(seqs), 7)
        assert outputs(seqs.take(subset)).tobytes() == every[subset].tobytes()
        alone = [outputs(seqs.take([i]))[0] for i in subset]
        assert np.array(alone).tobytes() == every[subset].tobytes()
        previous = blas.threads()
        try:
            for count in (1, 2):
                blas.set_threads(count)
                assert outputs(seqs).tobytes() == every.tobytes(), count
        finally:
            if previous is not None:
                blas.set_threads(previous)

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
        assert loaded.params.keys() == model.params.keys()
        for k, p in loaded.params.items():
            assert p.dtype == np.float32
            assert p.tobytes() == model.params[k].tobytes()
        a = rnnsm.predict(model, seqs.take(np.arange(10)), 0.0)
        b = rnnsm.predict(loaded, seqs.take(np.arange(10)), 0.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind, w", [("rnn", None), ("rnnsm", 0.25)])
    def test_hand_written_version_5_file_loads(self, small_sequences, tmp_path, kind, w):
        # the model.npz layout, written without save_model: renaming a member
        # or a header key breaks every trained model unless the version moves
        _, stats = small_sequences
        config = small_net(stats)
        rng = np.random.default_rng(5)
        params = {name: rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
                  for name, shape in net.param_shapes(config).items()}
        stats_header = {
            "vocabs": stats.vocabs,
            "mean": stats.mean.tolist(),
            "std": stats.std.tolist(),
            "continuous_markers": stats.continuous_markers,
            "max_steps": stats.max_steps,
        }
        header = {"version": 5, "kind": kind, "w": w, "stats": stats_header,
                  "embedding_dims": list(config.embedding_dims),
                  "fusion_size": config.fusion_size, "hidden_size": config.hidden_size}
        meta = json.dumps(header, sort_keys=True).encode()
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8),
                 **{f"param::{name}": p for name, p in params.items()})
        model = rnnsm.load_model(path, kind)
        # and save_model writes the same header bytes
        rnnsm.save_model(tmp_path / "saved.npz", model)
        with np.load(tmp_path / "saved.npz") as saved:
            assert saved["meta"].tobytes() == meta
        assert model.net_config == config
        assert model.w == w
        assert model.stats.to_dict() == stats.to_dict()
        assert model.params.keys() == params.keys()
        for name, p in params.items():
            assert model.params[name].dtype == np.float32
            assert model.params[name].tobytes() == p.tobytes()
