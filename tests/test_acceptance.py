"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line on success (run with -s to see them; failures surface as
ordinary assertion errors)."""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special

from returntime import cox, net, rnnsm
from returntime.cli import main
from returntime.config import model_family
from returntime.metrics import (
    concordance_index,
    nonreturning_auc,
    nonreturning_recall,
    read_predictions_csv,
)

from oracles import (
    auc_brute,
    batch_log_likelihood,
    breslow_partial_log_likelihood,
    concordance_brute,
    finite_difference_grads,
    max_relative_error,
    nelson_aalen,
    one_user_batch,
    recall_brute,
    safe_density,
    safe_survival,
    table,
)
from test_metrics import random_records


def ok(n: int, message: str) -> None:
    line = f"ACCEPTANCE {n}: PASS - {message}"
    print(line)
    CRITERION_LINES.append(line)  # echoed in the terminal summary (conftest)


CRITERION_LINES: list[str] = []


MODELS = ("baseline", "cph", "cpha", "rnn", "rnnsm", "rnnsma")


def run_pipeline(base: Path, seed: int, reduced: dict | None = None) -> float:
    """generate -> train x4 -> predict x6 -> evaluate; returns wall seconds."""
    start = time.perf_counter()
    base.mkdir(parents=True, exist_ok=True)
    config_args = []
    if reduced is not None:
        cfg_path = base / "reduced.json"
        cfg_path.write_text(json.dumps(reduced))
        config_args = ["--config", str(cfg_path)]
    assert main(["generate", *config_args, "--out", str(base / "data"),
                 "--seed", str(seed)]) == 0
    cfgs = config_args + ["--config", str(base / "data" / "run_config.json")]
    for model in ("baseline", "cph", "rnn", "rnnsm"):
        assert main(["train", "--model", model, *cfgs,
                     "--out", str(base / "models" / model)]) == 0
    for model in MODELS:
        assert main(["predict", "--model", model,
                     "--checkpoint", str(base / "models" / model_family(model)),
                     *cfgs, "--out", str(base / "preds" / f"{model}.csv")]) == 0
    assert main(["evaluate", "--pred",
                 *[str(base / "preds" / f"{m}.csv") for m in MODELS],
                 "--out", str(base / "report")]) == 0
    return time.perf_counter() - start


@pytest.fixture(scope="session")
def default_pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    elapsed = run_pipeline(base, seed=7)
    report = json.loads((base / "report" / "report.json").read_text())
    return base, report, elapsed


def test_criterion_1_likelihood_normalization():
    start = time.perf_counter()
    for o, w in [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (2.0, 0.1)]:
        total, _ = sp_integrate.quad(
            lambda g: safe_density(o, w, g), 0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-6, (o, w, total)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"normalization checks took {elapsed:.2f}s"
    ok(1, f"density integrates to 1 within 1e-6 for 4 (o,w) pairs in {elapsed:.2f}s")


def test_criterion_2_analytic_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        o = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.05, 2.0)
        gap = rng.uniform(0.01, 25.0)
        lhs = batch_log_likelihood(o, w, gap, censored=False)
        # log f = log hazard + log S, with the hazard exp(o + w*gap)
        rhs = o + w * gap + batch_log_likelihood(o, w, gap, censored=True)
        assert abs(lhs - rhs) < 1e-12
    for _ in range(20):
        o = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.05, 1.0)
        gap = rng.uniform(0.1, 10.0)
        integral, _ = sp_integrate.quad(lambda t: math.exp(o + w * t), 0, gap, limit=200)
        assert abs(batch_log_likelihood(o, w, gap, censored=True) + integral) < 1e-8
    ok(2, "f = hazard * survival at 100 points to 1e-12; "
          "log-survival equals -integrated hazard to 1e-8")


def test_criterion_3_gradient_correctness():
    config = net.NetConfig(
        discrete_features=("device", "slot"),
        cardinalities=(3, 5),
        embedding_dims=(2, 2),
        n_continuous=2,
        fusion_size=4,
        hidden_size=3,
    )
    checked = 0
    for seed in range(22):
        rng = np.random.default_rng(900 + seed)
        params = net.init_params(config, rng)
        for k in params:
            params[k] = params[k] + rng.normal(scale=0.2, size=params[k].shape)
        disc = np.stack([rng.integers(0, c + 1, size=3) for c in config.cardinalities], axis=1)
        cont = rng.normal(size=(3, config.n_continuous))
        # keep w * gap moderate so the loss scale leaves finite-difference
        # noise well below the 1e-4 relative tolerance
        targets = rng.uniform(0.5, 6.0, size=3)
        w = float(rng.uniform(0.05, 0.5))

        batch = one_user_batch(targets, True, disc, cont)

        def loss_fn():
            o, _ = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
            return float(rnnsm._batch_loss(o, batch, w)[0][0])

        o, cache = net.forward_batch(params, config, batch.disc, batch.cont, batch.lengths)
        _, grad_o = rnnsm._batch_loss(o, batch, w)
        analytic = net.backward_batch(params, config, cache, grad_o)
        numeric = finite_difference_grads(loss_fn, params, h=1e-5)
        err = max_relative_error(analytic, numeric)
        assert err < 1e-4, f"instance {seed}: relative error {err:.3e}"
        checked += 1
    assert checked >= 20
    ok(3, f"censored sequence-loss gradients match finite differences "
          f"(h=1e-5) on {checked} random 3-step instances at rel error < 1e-4")


def test_criterion_4_expectation_oracle():
    reference = math.e * special.exp1(1.0)
    value = rnnsm.expected_return_time(0.0, 1.0)
    assert abs(value - reference) < 1e-4
    for o, w in [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (2.0, 0.1)]:
        assert rnnsm.absence_conditioned_expectation(o, w, 0.0) == rnnsm.expected_return_time(o, w)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        o = rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.01, 2.0)
        t_s = rng.uniform(0.0, 50.0)
        assert rnnsm.absence_conditioned_expectation(o, w, t_s) >= t_s
    ok(4, f"E[T](o=0,w=1) = {value:.5f} vs e*E1(1) = {reference:.5f} within 1e-4; "
          "conditioning exact at t_s=0 and >= t_s on 1000 samples")


def test_criterion_5_cox_correctness():
    start = time.perf_counter()
    X2 = np.array([[0.4], [-1.2]])
    value, _, _ = cox.efron_partial_log_likelihood(
        np.zeros(1), X2, np.array([1.0, 2.0]), np.array([True, True])
    )
    assert value == -math.log(2.0)

    rng = np.random.default_rng(55)
    for _ in range(5):
        n = 14
        X = rng.normal(size=(n, 2))
        times = rng.permutation(np.arange(1.0, n + 1.0))
        events = rng.random(n) < 0.7
        events[0] = True
        beta = rng.normal(scale=0.5, size=2)
        efron_value, _, _ = cox.efron_partial_log_likelihood(beta, X, times, events)
        assert abs(efron_value - breslow_partial_log_likelihood(beta, X, times, events)) < 1e-12

    gen = np.random.default_rng(11)
    x = gen.integers(0, 2, size=2000).astype(float)
    t_event = gen.exponential(1.0 / (0.1 * np.exp(0.7 * x)))
    times = np.minimum(t_event, 30.0)
    events = t_event <= 30.0
    model = cox.fit(x[:, None], times, events, feature_names=["group"])
    assert abs(model.beta[0] - 0.7) < 0.1

    times_na = gen.uniform(1.0, 30.0, size=50)
    events_na = gen.random(50) < 0.8
    events_na[:2] = True
    base_t, base_h = cox.baseline_hazard(times_na, events_na, np.ones(50))
    ref_t, ref_cum = nelson_aalen(np.round(times_na, 9), events_na)
    np.testing.assert_allclose(base_t, ref_t, rtol=0, atol=0)
    np.testing.assert_allclose(np.cumsum(base_h), ref_cum, rtol=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(5, f"Efron exact at -log 2; equals Breslow untied to 1e-12; recovered "
          f"beta {model.beta[0]:.3f} for true 0.7; baseline equals Nelson-Aalen; "
          f"{elapsed:.1f}s < 30s")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(50):
        records = random_records(rng, n=10)
        has_pos = any(r.is_censored for r in records)
        has_neg = any(not r.is_censored for r in records)
        if not (has_pos and has_neg):
            continue
        assert concordance_index(table(records)) == concordance_brute(records)
        scores = [r.predicted_return_days - r.horizon_gap_days for r in records]
        assert nonreturning_auc(table(records)) == auc_brute(
            scores, [r.is_censored for r in records])
        assert nonreturning_recall(table(records)) == recall_brute(records)
        checked += 1
    assert checked >= 40
    ok(6, f"concordance, AUC, and recall equal brute-force enumeration exactly "
          f"on {checked} random 10-record instances")


def test_criterion_7_qualitative_reproduction(default_pipeline):
    _, report, elapsed = default_pipeline
    m = report["models"]

    assert m["baseline"]["nonreturning_recall"] == 0.0, "(a) baseline recall"
    assert m["rnn"]["nonreturning_recall"] == 0.0, "(a) rnn recall"

    assert m["rnnsm"]["nonreturning_recall"] > 0.0, "(b) rnnsm recall positive"
    assert m["rnnsma"]["nonreturning_recall"] >= m["rnnsm"]["nonreturning_recall"], \
        "(b) conditioning cannot lower recall"

    assert m["rnnsm"]["nonreturning_auc"] > m["baseline"]["nonreturning_auc"], "(c) auc"

    assert m["cph"]["concordance"] > 0.6, "(d) cph concordance level"
    assert m["cph"]["concordance"] > m["baseline"]["concordance"], "(d) cph beats baseline"

    learned = ("cph", "cpha", "rnnsm", "rnnsma")
    for other in learned:
        assert m["rnn"]["rmse_days"] < m[other]["rmse_days"], f"(e) rnn vs {other}"

    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
    ok(7, "recall 0 for baseline/rnn; rnnsm recall "
          f"{m['rnnsm']['nonreturning_recall']:.3f} <= rnnsma "
          f"{m['rnnsma']['nonreturning_recall']:.3f}; rnnsm auc "
          f"{m['rnnsm']['nonreturning_auc']:.3f} > baseline "
          f"{m['baseline']['nonreturning_auc']:.3f}; cph concordance "
          f"{m['cph']['concordance']:.3f}; rnn rmse {m['rnn']['rmse_days']:.1f} "
          f"lowest among learned; {elapsed:.0f}s < 600s")


def test_criterion_8_active_day_trend(default_pipeline):
    base, _, _ = default_pipeline
    _, preds = read_predictions_csv(base / "preds" / "rnnsma.csv")
    uncensored = ~preds.censored
    low = uncensored & (1 <= preds.active_days) & (preds.active_days <= 4)
    high = uncensored & (preds.active_days >= 32)
    assert low.any() and high.any(), "both bucket groups must be populated"

    def rmse(users):
        pairs = zip(preds.predicted[users].tolist(), preds.observed[users].tolist())
        return math.sqrt(sum((pred - true) ** 2 for pred, true in pairs) / int(users.sum()))

    low_rmse, high_rmse = rmse(low), rmse(high)
    assert high_rmse < low_rmse
    ok(8, f"rnnsma rmse {high_rmse:.1f} on >=32 active days vs {low_rmse:.1f} "
          f"on 1-4 active days (n={high.sum()}/{low.sum()})")


REDUCED = {
    "generator": {"user_count": 420},
    "training": {"rnnsm": {"epochs": 5}, "rnn": {"epochs": 5}},
    "rnnsm": {"w_grid": [0.05, 0.1], "grid_epochs": 3},
    "network": {"preliminary_epochs": 1, "hidden_size": 16, "fusion_size": 16},
}


def test_criterion_9_determinism(tmp_path):
    run_pipeline(tmp_path / "a", seed=11, reduced=REDUCED)
    run_pipeline(tmp_path / "b", seed=11, reduced=REDUCED)
    report_a = (tmp_path / "a" / "report" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report" / "report.json").read_bytes()
    assert report_a == report_b
    for model in MODELS:
        pred_a = (tmp_path / "a" / "preds" / f"{model}.csv").read_bytes()
        pred_b = (tmp_path / "b" / "preds" / f"{model}.csv").read_bytes()
        assert pred_a == pred_b, f"{model} predictions differ between runs"
    ok(9, "two full pipeline runs with one seed produce byte-identical "
          "reports and predictions")
