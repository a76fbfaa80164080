import numpy as np
import pytest

from returntime import net, rnnsm
from returntime.errors import NumericalError
from returntime.features import SequenceStats

from oracles import finite_difference_grads, max_relative_error, scalar_net_forward

CONFIG = net.NetConfig(
    discrete_features=("device", "day_of_week"),
    cardinalities=(3, 7),
    embedding_dims=(2, 3),
    n_continuous=2,
    fusion_size=5,
    hidden_size=4,
)


def random_instance(seed, T=3, config=CONFIG):
    rng = np.random.default_rng(seed)
    params = net.init_params(config, rng)
    # perturb away from the tidy init so gradients exercise every path
    for k in params:
        params[k] = params[k] + rng.normal(scale=0.3, size=params[k].shape)
    disc = np.stack(
        [rng.integers(0, c + 1, size=T) for c in config.cardinalities], axis=1
    )
    cont = rng.normal(size=(T, config.n_continuous))
    return params, disc, cont


def forward_one(params, disc, cont, config=CONFIG):
    """forward_batch on one sequence as a one-row batch: outputs (T,), cache."""
    o, cache = net.forward_batch(params, config, disc[None], cont[None], np.array([len(disc)]))
    return o[0], cache


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params = {k: np.zeros_like(p) for k, p in random_instance(0)[0].items()}
        _, disc, cont = random_instance(1, T=4)
        o, cache = forward_one(params, disc, cont)
        assert np.all(o == 0.0)
        assert np.all(cache["h"] == 0.0)

    def test_causality_prefix_invariance(self):
        params, disc, cont = random_instance(2, T=2)
        o_full, _ = forward_one(params, disc, cont)
        o_prefix, _ = forward_one(params, disc[:1], cont[:1])
        assert o_prefix[0] == o_full[0]

    def test_truncation_reproduces_prefix_exactly(self):
        params, disc, cont = random_instance(3, T=7)
        o_full, _ = forward_one(params, disc, cont)
        for j in (1, 3, 5):
            o_j, _ = forward_one(params, disc[:j], cont[:j])
            assert np.array_equal(o_j, o_full[:j])

    def test_matches_scalar_reimplementation(self):
        for seed in range(5):
            params, disc, cont = random_instance(seed, T=4)
            o, _ = forward_one(params, disc, cont)
            ref = scalar_net_forward(params, CONFIG, disc.tolist(), cont.tolist())
            np.testing.assert_allclose(o, ref, rtol=0, atol=1e-12)

    def test_batch_matches_singles_despite_padding(self):
        params, _, _ = random_instance(4)
        rng = np.random.default_rng(5)
        lengths = [1, 4, 2, 6]
        discs, conts = [], []
        for L in lengths:
            discs.append(np.stack(
                [rng.integers(0, c + 1, size=L) for c in CONFIG.cardinalities], axis=1
            ))
            conts.append(rng.normal(size=(L, CONFIG.n_continuous)))
        T = max(lengths)
        disc_b = np.zeros((len(lengths), T, 2), dtype=np.int64)
        cont_b = np.zeros((len(lengths), T, 2))
        for i, L in enumerate(lengths):
            disc_b[i, :L] = discs[i]
            cont_b[i, :L] = conts[i]
        o_b, _ = net.forward_batch(params, CONFIG, disc_b, cont_b, np.array(lengths))
        for i, L in enumerate(lengths):
            o_s, _ = forward_one(params, discs[i], conts[i])
            # BLAS reduction order differs between batch widths; agreement is
            # to the last couple of ulps, not bitwise
            np.testing.assert_allclose(o_b[i, :L], o_s, rtol=0, atol=1e-12)

    def test_non_finite_activation_reports_step(self):
        params, disc, cont = random_instance(6, T=3)
        params["out_v"] = params["out_v"] * np.inf
        with pytest.raises(NumericalError, match="step"):
            forward_one(params, disc, cont)


class TestBackward:
    def test_zero_grad_o_gives_zero_grads(self):
        params, disc, cont = random_instance(7, T=3)
        _, cache = forward_one(params, disc, cont)
        grads = net.backward_batch(params, CONFIG, cache, np.zeros((1, 3)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_unused_embedding_row_gets_zero_grad(self):
        params, disc, cont = random_instance(8, T=3)
        disc = disc.copy()
        disc[:, 0] = 0  # device row 2 never used
        _, cache = forward_one(params, disc, cont)
        grads = net.backward_batch(params, CONFIG, cache, np.ones((1, 3)))
        assert np.all(grads["emb_device"][2] == 0.0)
        assert np.any(grads["emb_device"][0] != 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            params, disc, cont = random_instance(seed + 20, T=3)
            grad_o = rng.normal(size=(1, 3))

            def loss():
                o, _ = forward_one(params, disc, cont)
                return float((grad_o[0] * o).sum())

            _, cache = forward_one(params, disc, cont)
            analytic = net.backward_batch(params, CONFIG, cache, grad_o)
            numeric = finite_difference_grads(loss, params)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_embedding_scatter_bit_identical_to_add_at(self):
        params, disc, cont, lengths, _, grad_o = ragged_instance(35, lengths=(9, 4, 9, 6))
        _, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        grads = net.backward_batch(params, CONFIG, cache, grad_o)
        codes = cache["disc"]  # (N, n_disc), packed order
        N = len(codes)
        assert all(len(np.unique(codes[:, k])) < N for k in range(codes.shape[1]))
        # the same network with one embedding row per packed step: each row's
        # gradient is then that step's du, the input of the scatter
        unique = net.NetConfig(CONFIG.discrete_features, (N,) * len(CONFIG.cardinalities),
                               CONFIG.embedding_dims, CONFIG.n_continuous,
                               CONFIG.fusion_size, CONFIG.hidden_size)
        spread = dict(params)
        for k, name in enumerate(CONFIG.discrete_features):
            table = params[f"emb_{name}"]
            spread[f"emb_{name}"] = np.vstack([table[codes[:, k]], np.zeros(table.shape[1])])
        ids = np.zeros(disc.shape[:2], dtype=np.int64)
        ids[cache["rows"], cache["times"]] = np.arange(N)
        _, cache_u = net.forward_batch(spread, unique, np.stack([ids] * disc.shape[2], axis=2),
                                       cont, lengths)
        grads_u = net.backward_batch(spread, unique, cache_u, grad_o)
        for k, name in enumerate(CONFIG.discrete_features):
            expected = np.zeros_like(params[f"emb_{name}"])
            np.add.at(expected, codes[:, k], grads_u[f"emb_{name}"][:N])
            assert grads[f"emb_{name}"].tobytes() == expected.tobytes()
        for key in grads.keys() - {f"emb_{n}" for n in CONFIG.discrete_features}:
            assert grads[key].tobytes() == grads_u[key].tobytes()

    def test_mismatched_cache_rejected(self):
        params, disc, cont = random_instance(10, T=3)
        _, cache = forward_one(params, disc, cont)
        with pytest.raises(ValueError):
            net.backward_batch(params, CONFIG, cache, np.zeros((1, 5)))


def ragged_instance(seed, lengths=(5, 1, 5, 2)):
    """A padded batch whose rows are unsorted, with a tie and a length-1 row;
    the padded entries hold random indices and values that must not matter."""
    rng = np.random.default_rng(seed)
    params, _, _ = random_instance(seed)
    B, T = len(lengths), max(lengths)
    disc = np.stack(
        [rng.integers(0, c + 1, size=(B, T)) for c in CONFIG.cardinalities], axis=2
    )
    cont = rng.normal(size=(B, T, CONFIG.n_continuous))
    lengths = np.array(lengths)
    mask = np.arange(T)[None, :] < lengths[:, None]
    grad_o = np.where(mask, rng.normal(size=(B, T)), 0.0)
    return params, disc, cont, lengths, mask, grad_o


class TestRaggedBatch:
    def test_matches_finite_differences(self):
        params, disc, cont, lengths, mask, grad_o = ragged_instance(30)

        def loss():
            o, _ = net.forward_batch(params, CONFIG, disc, cont, lengths)
            return float((grad_o * o)[mask].sum())

        _, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        analytic = net.backward_batch(params, CONFIG, cache, grad_o)
        numeric = finite_difference_grads(loss, params)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_padded_grad_o_is_never_read(self):
        params, disc, cont, lengths, mask, grad_o = ragged_instance(31)
        _, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        noisy = np.where(mask, grad_o, np.random.default_rng(32).normal(size=grad_o.shape))
        clean = net.backward_batch(params, CONFIG, cache, grad_o)
        dirty = net.backward_batch(params, CONFIG, cache, noisy)
        for k in clean:
            assert np.array_equal(clean[k], dirty[k])

    def test_padded_steps_are_exactly_zero(self):
        params, disc, cont, lengths, mask, _ = ragged_instance(33)
        o, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        assert np.all(o[~mask] == 0.0)
        assert cache["h"].shape == (mask.sum(), CONFIG.hidden_size)  # real steps only
        assert np.all(o[mask] != 0.0)

    def test_row_permutation_permutes_outputs_only(self):
        params, disc, cont, lengths, _, grad_o = ragged_instance(34)
        o, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        grads = net.backward_batch(params, CONFIG, cache, grad_o)
        perm = np.array([2, 0, 3, 1])
        o_p, cache_p = net.forward_batch(
            params, CONFIG, disc[perm], cont[perm], lengths[perm]
        )
        grads_p = net.backward_batch(params, CONFIG, cache_p, grad_o[perm])
        np.testing.assert_allclose(o_p, o[perm], rtol=0, atol=1e-12)
        assert max_relative_error(grads_p, grads, abs_floor=1e-12) < 1e-12


def scoring_instance(seed, lengths):
    """Random parameters and B sequences, both as the scoring pass takes them
    (steps stacked one sequence after another) and as a padded batch."""
    rng = np.random.default_rng(seed)
    params, _, _ = random_instance(seed)
    N, B, T = int(sum(lengths)), len(lengths), max(lengths, default=0)
    disc = np.stack(
        [rng.integers(0, c + 1, size=N) for c in CONFIG.cardinalities], axis=1
    ).reshape(N, len(CONFIG.cardinalities))
    cont = rng.normal(size=(N, CONFIG.n_continuous))
    disc_b = np.zeros((B, T, disc.shape[1]), dtype=np.int64)
    cont_b = np.zeros((B, T, CONFIG.n_continuous))
    first = np.cumsum(lengths) - lengths
    for i, (a, L) in enumerate(zip(first, lengths)):
        disc_b[i, :L], cont_b[i, :L] = disc[a:a + L], cont[a:a + L]
    return params, disc, cont, np.array(lengths, dtype=np.int64), (disc_b, cont_b)


class TestScoringPass:
    @pytest.mark.parametrize("lengths", [
        [5, 1, 5, 2, 3, 1, 7],  # unsorted, tied and length-1 rows
        [4],  # one user
        [1],
        [64, 3, 64, 64, 1],  # rows at the default max_steps
    ], ids=["ragged", "one-user", "one-step", "max-steps"])
    def test_matches_forward_batch_last_steps(self, lengths):
        params, disc, cont, L, (disc_b, cont_b) = scoring_instance(40, lengths)
        o_b, _ = net.forward_batch(params, CONFIG, disc_b, cont_b, L)
        want = o_b[np.arange(len(L)), L - 1]
        got = net.forward_last(params, CONFIG, disc, cont, L)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_empty_input_gives_empty_output(self):
        params, disc, cont, L, _ = scoring_instance(41, [])
        assert net.forward_last(params, CONFIG, disc, cont, L).shape == (0,)

    @pytest.mark.parametrize("name", ["lstm_wh", "out_v", "fusion_b"])
    def test_nan_parameter_raises(self, name):
        params, disc, cont, L, _ = scoring_instance(43, [2, 4, 1])
        params[name] = params[name].copy()
        params[name].flat[0] = np.nan
        with pytest.raises(NumericalError, match="last step") as info:
            net.forward_last(params, CONFIG, disc, cont, L)
        assert info.value.exit_code == 4

    def test_rejects_an_empty_sequence(self):
        params, disc, cont, _, _ = scoring_instance(44, [2, 3])
        with pytest.raises(ValueError, match="at least one step"):
            net.forward_last(params, CONFIG, disc, cont, np.array([5, 0]))


class TestUpdates:
    def test_zero_gradient_leaves_params_unchanged(self):
        params, _, _ = random_instance(11)
        params["emb_device"] = net._normalize_rows(params["emb_device"])
        params["emb_day_of_week"] = net._normalize_rows(params["emb_day_of_week"])
        before = {k: p.copy() for k, p in params.items()}
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        state = net.AdamState.for_params(params)
        net.apply_update_with_norm_projection(params, grads, state, clip_norm=5.0)
        for k in params:
            np.testing.assert_allclose(params[k], before[k], rtol=0, atol=1e-15)

    def test_embedding_rows_unit_norm_after_update(self):
        params, disc, cont = random_instance(12, T=3)
        _, cache = forward_one(params, disc, cont)
        grads = net.backward_batch(params, CONFIG, cache, np.ones((1, 3)))
        state = net.AdamState.for_params(params)
        net.apply_update_with_norm_projection(params, grads, state, lr=0.1, clip_norm=5.0)
        for key in ("emb_device", "emb_day_of_week"):
            norms = np.linalg.norm(params[key], axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)

    def test_huge_gradients_clip_to_clip_norm(self):
        params, _, _ = random_instance(15)
        grads = {k: np.full_like(p, 1e200) for k, p in params.items()}
        norm = net.global_grad_norm(grads)  # the plain sum of squares overflows
        assert 1e200 < norm < np.inf
        clipped = {k: g * (5.0 / norm) for k, g in grads.items()}
        assert abs(net.global_grad_norm(clipped) - 5.0) <= 2 * np.spacing(5.0)
        before = {k: p.copy() for k, p in params.items()}
        net.apply_update_with_norm_projection(params, grads, net.AdamState.for_params(params),
                                              clip_norm=5.0)
        assert not np.allclose(params["out_b"], before["out_b"])  # the step is not dropped

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_raises(self, bad):
        params, _, _ = random_instance(16)
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        grads["out_b"][0] = bad
        with pytest.raises(NumericalError, match="non-finite gradient"):
            net.apply_update_with_norm_projection(params, grads, net.AdamState.for_params(params),
                                                  clip_norm=5.0)

    def test_ten_steps_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(13)
            params = net.init_params(CONFIG, rng)
            state = net.AdamState.for_params(params)
            disc = np.stack(
                [rng.integers(0, c + 1, size=4) for c in CONFIG.cardinalities], axis=1
            )
            cont = rng.normal(size=(4, CONFIG.n_continuous))
            for _ in range(10):
                _, cache = forward_one(params, disc, cont)
                grads = net.backward_batch(params, CONFIG, cache, np.ones((1, 4)))
                net.apply_update_with_norm_projection(params, grads, state, clip_norm=5.0)
            return params

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])


def as_float32(params):
    return {k: p.astype(np.float32) for k, p in params.items()}


class TestFloat32:
    """net follows the params' dtype: training and scoring run it in float32."""

    def test_float32_params_keep_every_array_float32(self):
        params, disc, cont, lengths, _, grad_o = ragged_instance(50)
        params = as_float32(params)
        assert cont.dtype == grad_o.dtype == np.float64  # cast on the way in
        o, cache = net.forward_batch(params, CONFIG, disc, cont, lengths)
        for key in ("u", "x", "gates", "c", "tanh_c", "h"):
            assert cache[key].dtype == np.float32, key
        grads = net.backward_batch(params, CONFIG, cache, grad_o)
        assert {k: g.dtype for k, g in grads.items()} == dict.fromkeys(params, np.float32)
        state = net.AdamState.for_params(params)
        net.apply_update_with_norm_projection(params, grads, state, lr=0.1, clip_norm=5.0)
        for arrays in (params, state.m, state.v):
            assert {k: a.dtype for k, a in arrays.items()} == dict.fromkeys(params, np.float32)
        assert net.forward_last(params, CONFIG, disc[0, :lengths[0]], cont[0, :lengths[0]],
                                lengths[:1]).dtype == np.float64

    # float32 carries about 7 significant digits: on these instances the
    # outputs agree to 5e-8 absolute and each gradient to 1.5e-6 of its
    # largest entry; the tolerances leave a margin of about 7x or more
    OUTPUT_ATOL = 1e-6
    GRAD_TOL = 1e-5  # relative to the largest |entry| of each float64 gradient

    def assert_close(self, params, disc, cont, lengths, grad_o):
        o64, cache64 = net.forward_batch(params, CONFIG, disc, cont, lengths)
        o32, cache32 = net.forward_batch(as_float32(params), CONFIG, disc, cont, lengths)
        np.testing.assert_allclose(o32, o64, rtol=0, atol=self.OUTPUT_ATOL)
        g64 = net.backward_batch(params, CONFIG, cache64, grad_o)
        g32 = net.backward_batch(as_float32(params), CONFIG, cache32, grad_o)
        for k in g64:
            assert np.max(np.abs(g32[k] - g64[k])) <= self.GRAD_TOL * np.max(np.abs(g64[k])), k

    @pytest.mark.parametrize("seed", range(5))
    def test_one_sequence_matches_float64(self, seed):
        params, disc, cont = random_instance(seed, T=4)
        grad_o = np.random.default_rng(seed).normal(size=(1, 4))
        self.assert_close(params, disc[None], cont[None], np.array([4]), grad_o)

    @pytest.mark.parametrize("seed", range(30, 36))
    def test_ragged_batch_matches_float64(self, seed):
        params, disc, cont, lengths, _, grad_o = ragged_instance(seed)
        self.assert_close(params, disc, cont, lengths, grad_o)

    @pytest.mark.parametrize("seed", range(30, 36))
    def test_scoring_pass_matches_float64(self, seed):
        params, disc, cont, lengths, mask, _ = ragged_instance(seed)
        steps = disc[mask], cont[mask]  # one sequence after another
        o64 = net.forward_last(params, CONFIG, *steps, lengths)
        o32 = net.forward_last(as_float32(params), CONFIG, *steps, lengths)
        np.testing.assert_allclose(o32, o64, rtol=0, atol=self.OUTPUT_ATOL)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params, disc, cont = random_instance(14, T=2)
        params = as_float32(params)  # a model.npz holds float32 params
        stats = SequenceStats(
            discrete_features=list(CONFIG.discrete_features),
            cardinalities=list(CONFIG.cardinalities), vocabs={}, cont_channels=["a", "b"],
            mean=np.zeros(2), std=np.ones(2), continuous_markers=[], max_steps=8,
        )
        path = tmp_path / "model.npz"
        rnnsm.save_model(path, rnnsm.RecurrentModel(params, CONFIG, stats, w=0.5))
        loaded = rnnsm.load_model(path, "rnnsm")
        assert loaded.net_config == CONFIG
        assert loaded.w == 0.5
        assert loaded.params.keys() == params.keys()
        with np.load(path) as data:
            assert sorted(data.files) == sorted(["meta", *(f"param::{k}" for k in params)])
        for k in params:
            assert np.array_equal(loaded.params[k], params[k])
        o1, _ = forward_one(params, disc, cont)
        o2, _ = forward_one(loaded.params, disc, cont, loaded.net_config)
        assert np.array_equal(o1, o2)
