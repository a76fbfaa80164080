"""Censored point-process likelihood on sequence-network outputs, training,
and expected-return-time prediction.

The conditional hazard after a step with network output o is
``lambda(dt) = exp(o + w*dt)`` for elapsed time dt since that step, giving

    log f(gap) = o + w*gap + (1/w)*exp(o) - (1/w)*exp(o + w*gap)
    log S(gap) =              (1/w)*exp(o) - (1/w)*exp(o + w*gap)

Returning gaps contribute log-density terms, a censored user's final gap a
log-survival term. Expected return times integrate S numerically; the
absence-conditioned expectation uses the identity
``E[T | T > t_s] = t_s + E_resid`` where the residual-life distribution has
the same form with o' = o + w*t_s.
"""

from __future__ import annotations

import logging
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import net
from .errors import DataError, DataModelMismatchError, NumericalError, ValidationError
from .features import PaddedBatch, SequenceStats, Sequences, pad_batch
from .quadrature import integrate

logger = logging.getLogger(__name__)

EXP_LIMIT = 700.0  # exp() overflow guard; training clipping should keep us far below
_LOG_TAIL = math.log(1e-9)  # survival level that bounds the quadrature interval


def _check_exponent(value: float, what: str) -> None:
    if value > EXP_LIMIT:
        raise NumericalError(f"{what} exponent {value:.6g} exceeds {EXP_LIMIT:.0f}")


def hazard(o: float, w: float, dt: float) -> float:
    """Instantaneous return rate exp(o + w*dt) at elapsed time dt."""
    if w <= 0:
        raise ValidationError(f"current-influence weight w must be positive, got {w}")
    if dt < 0:
        raise ValidationError(f"elapsed time must be non-negative, got {dt}")
    expo = o + w * dt
    _check_exponent(expo, f"hazard(o={o:.6g}, w={w:.6g}, dt={dt:.6g})")
    return math.exp(expo)


def _integrated_hazard(o, z, w: float) -> np.ndarray:
    """(exp(o + z) - exp(o)) / w elementwise: the hazard integrated over a
    gap whose w*gap is z. Up to z = 50 it is grouped as exp(o)*expm1(z)/w,
    free of cancellation on short gaps; beyond, the difference form does not
    overflow where expm1(z) would. Both forms are evaluated, and overflow
    saturates to inf: callers check exponents against EXP_LIMIT first when
    overflow must be an error."""
    with np.errstate(over="ignore"):
        e_o = np.exp(o)
        return np.where(z <= 50.0, e_o * np.expm1(np.minimum(z, 50.0)) / w,
                        (np.exp(o + z) - e_o) / w)


def _gap_term(o: float, w: float, gap: float) -> float:
    """The integrated hazard over [0, gap >= 0] for one gap; overflow raises.
    With w > 0 the largest exponent is o + w*gap."""
    if w <= 0:
        raise ValidationError(f"current-influence weight w must be positive, got {w}")
    z = w * gap
    _check_exponent(o + z, f"survival term (o={o:.6g}, w={w:.6g}, gap={gap:.6g})")
    return float(_integrated_hazard(o, z, w))


def log_survival(o: float, w: float, gap: float) -> float:
    """log S(gap): probability of no return within gap days of the step."""
    if gap < 0:
        raise ValidationError(f"gap must be non-negative, got {gap}")
    return -_gap_term(o, w, gap)


def log_density_return(o: float, w: float, gap: float) -> float:
    """log f(gap): log-likelihood of a return exactly gap days after the step."""
    if gap <= 0:
        raise ValidationError(f"return gap must be positive, got {gap}")
    return o + w * gap - _gap_term(o, w, gap)


# ---------------------------------------------------------------------------
# batch loss

def _batch_loss(
    o: np.ndarray,
    batch: PaddedBatch,
    w: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user negative log-likelihoods (B,) and d(loss)/d(o) (B, T) over
    a padded batch; a single sequence is a one-row batch.

    Every step's target is the observed gap to the next step, and a step
    contributes -log_density_return; a censored user's final gap contributes
    -log_survival instead. Padded steps contribute nothing and get a zero
    gradient.
    """
    B, T = o.shape
    mask = np.arange(T)[None, :] < batch.lengths[:, None]
    z = w * batch.targets
    worst = float(np.max(np.maximum(o + z, o)[mask], initial=-np.inf))
    _check_exponent(worst, "batch loss")
    A = _integrated_hazard(o, z, w)
    ll = o + z - A
    grad = A - 1.0
    rows = np.arange(B)
    last = batch.lengths - 1
    cens = batch.censored
    ll[rows[cens], last[cens]] = -A[rows[cens], last[cens]]
    grad[rows[cens], last[cens]] = A[rows[cens], last[cens]]
    ll = np.where(mask, ll, 0.0)
    grad = np.where(mask, grad, 0.0)
    losses = -ll.sum(axis=1)
    if not np.all(np.isfinite(losses)):
        raise NumericalError("non-finite loss in batch")
    return losses, grad


# ---------------------------------------------------------------------------
# expectations

def expected_return_time(o, w: float, abs_tol: float = 1e-8):
    """E[gap] = integral of S over (0, inf) by adaptive quadrature, for a
    scalar o (returns a float) or an (N,) array of outputs in one pass.

    The upper limit U is pushed out (doubling) until S(U) < 1e-9 and the
    analytic tail bound S(U)/hazard(U) is below half the tolerance; the tail
    remainder is then negligible and not added.
    """
    if w <= 0:
        raise ValidationError(f"current-influence weight w must be positive, got {w}")
    o = np.asarray(o, dtype=float)
    scalar = o.ndim == 0
    o = o.reshape(-1)
    finite = np.isfinite(o)
    if not finite.all():
        raise ValidationError(f"network output must be finite, got {o[~finite][0]}")
    # past o = 600 the hazard at 0 is e^o, so the survival mass is exhausted
    # within ~e^-o
    saturated = o > 600.0
    o_q = o[~saturated]
    # closed-form start: S(U) = 1e-9  <=>  w*U = log1p(-log(1e-9)*w*e^-o)
    upper = np.logaddexp(0.0, math.log(-_LOG_TAIL * w) - o_q) / w
    for _ in range(200):
        log_s = -_integrated_hazard(o_q, w * upper, w)
        # tail bound: S(t) <= S(U) exp(-lambda(U)(t-U)) for t > U
        log_tail = log_s - (o_q + w * upper)
        loose = ~((log_s < _LOG_TAIL) & (log_tail < math.log(0.5 * abs_tol)))
        if not loose.any():
            break
        upper = np.where(loose, 2.0 * upper, upper)
    else:
        raise NumericalError(
            f"could not bound the survival tail for o={o_q[loose][0]:.6g}, w={w:.6g}"
        )
    out = np.empty(o.shape)
    out[saturated] = np.exp(-o[saturated])
    out[~saturated] = integrate(lambda t: np.exp(-_integrated_hazard(o_q[:, None], w * t, w)),
                                0.0, upper, abs_tol=abs_tol)
    return float(out[0]) if scalar else out


def absence_conditioned_expectation(o, w: float, t_s):
    """E[gap | gap > t_s]: expected return time given t_s days of absence,
    for scalars (returns a float) or (N,) arrays of outputs and absences.

    Equals t_s plus the mean residual life, which has the same closed form
    with o' = o + w*t_s; this stays finite even when S(t_s) underflows.
    """
    o, t_s = np.broadcast_arrays(np.asarray(o, dtype=float), np.asarray(t_s, dtype=float))
    scalar = o.ndim == 0
    o, t_s = o.reshape(-1), t_s.reshape(-1)
    negative = t_s < 0
    if negative.any():
        raise ValidationError(f"absence time must be non-negative, got {t_s[negative][0]}")
    shifted = o + w * t_s
    out = np.empty(o.shape)
    under = shifted > 600.0
    if under.any():
        logger.warning(
            "survival at the absence time underflows for %d of %d users (w=%.3g); "
            "returning the absence time plus a vanishing residual",
            int(under.sum()), o.size, w,
        )
        out[under] = t_s[under] + np.exp(-np.minimum(shifted[under], EXP_LIMIT))
    out[~under] = t_s[~under] + expected_return_time(shifted[~under], w)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 25
    batch_size: int = 64
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0


@dataclass
class RecurrentModel:
    """The shared LSTM with its sequence statistics and training record.

    w is the current-influence weight of the censored point-process loss
    (RNNSM), or None for the plain RNN trained with squared error.
    """

    params: dict[str, np.ndarray]
    net_config: net.NetConfig
    stats: SequenceStats
    w: float | None = None
    adam: net.AdamState | None = None  # after training; checkpoints do not keep it
    loss_trace: list[float] = field(default_factory=list)
    diverged: bool = False


def initial_output_bias(mean_gap: float, w: float) -> float:
    """Bias such that the untrained model's expected gap matches the data.

    Without this, large w values start with hazards of exp(w * gap) on long
    censored gaps and spend most of the schedule recovering from the blowup.
    Solved by 60 steps of bisection; expected_return_time is strictly
    decreasing in o. Each of 12 rounds prices, in one batched call, all 31
    midpoints the next five steps could visit, then walks them. A value does
    not depend on its batch, so the result is that of one call per step, to
    the bit.
    """
    lo, hi = -30.0, 30.0
    for _ in range(12):
        # a 5-level bisection tree: node k's lower and upper halves are
        # nodes 2k + 1 and 2k + 2
        tree = [(lo, hi)]
        for k in range(15):
            a, b = tree[k]
            tree += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        mids = [0.5 * (a + b) for a, b in tree]
        above = expected_return_time(np.array(mids), w) > mean_gap
        k = 0
        while k < len(mids):
            if above[k]:
                lo, k = mids[k], 2 * k + 2
            else:
                hi, k = mids[k], 2 * k + 1
    return 0.5 * (lo + hi)


def _fit(
    model: RecurrentModel,
    sequences: Sequences,
    config: TrainingConfig,
    rng: np.random.Generator,
    batch_loss: Callable[[np.ndarray, PaddedBatch], tuple[float, np.ndarray]],
    loss_divisor: int,
) -> RecurrentModel:
    """Minibatch Adam on model.params in a seeded order, for either loss.

    batch_loss(o, batch) returns the batch's loss and the grad_o handed to
    backward; an epoch's trace entry is its summed loss over loss_divisor.
    On divergence (non-finite loss or a tripped overflow guard) the last
    epoch-end parameters and Adam state are restored and training stops early.
    """
    params = model.params
    state = net.AdamState.for_params(params)
    snapshot = ({k: p.copy() for k, p in params.items()}, state.copy())

    for epoch in range(config.epochs):
        order = rng.permutation(len(sequences))
        total = 0.0
        try:
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                batch = pad_batch(sequences, idx)
                o, cache = net.forward_batch(
                    params, model.net_config, batch.disc, batch.cont, batch.lengths
                )
                loss, grad_o = batch_loss(o, batch)
                total += loss
                grads = net.backward_batch(params, model.net_config, cache, grad_o)
                net.apply_update_with_norm_projection(
                    params, grads, state,
                    lr=config.learning_rate, clip_norm=config.clip_norm,
                )
            epoch_loss = total / loss_divisor
            if not math.isfinite(epoch_loss):
                raise NumericalError(f"epoch {epoch} mean loss is {epoch_loss}")
        except NumericalError as exc:
            logger.warning("training diverged at epoch %d (%s); restoring last good "
                           "parameters and optimizer state", epoch, exc)
            params, state = snapshot
            model.diverged = True
            break
        model.loss_trace.append(epoch_loss)
        snapshot = ({k: p.copy() for k, p in params.items()}, state.copy())

    model.params, model.adam = params, state
    return model


def train_rnnsm(
    sequences: Sequences,
    net_config: net.NetConfig,
    stats: SequenceStats,
    w: float,
    config: TrainingConfig,
) -> RecurrentModel:
    """Minibatch Adam on the censored sequence loss; deterministic per seed.

    The trace holds each epoch's mean loss per user; on divergence the last
    epoch-end parameters and Adam state are kept (see _fit).
    """
    if w <= 0:
        raise ValidationError(f"current-influence weight w must be positive, got {w}")
    if not len(sequences):
        raise DataError("cannot train on an empty dataset")
    n_censored = int(sequences.censored.sum())
    if n_censored == 0 or n_censored == len(sequences):
        raise DataError(
            "training needs both returning and censored users, got "
            f"{len(sequences) - n_censored} returning / {n_censored} censored"
        )

    rng = np.random.default_rng(config.seed)
    params = net.init_params(net_config, rng)
    observed = np.ones(len(sequences.targets), dtype=bool)
    observed[sequences.offsets[1:][sequences.censored] - 1] = False  # censored final gaps
    uncensored_gaps = sequences.targets[observed]
    if uncensored_gaps.size:
        params["out_b"][0] = initial_output_bias(float(uncensored_gaps.mean()), w)

    def loss(o: np.ndarray, batch: PaddedBatch) -> tuple[float, np.ndarray]:
        losses, grad_o = _batch_loss(o, batch, w)
        return float(losses.sum()), grad_o / len(o)

    model = RecurrentModel(params=params, net_config=net_config, stats=stats, w=w)
    return _fit(model, sequences, config, rng, loss, loss_divisor=len(sequences))


# ---------------------------------------------------------------------------
# prediction

def predict(
    model: RecurrentModel,
    sequences: Sequences,
    t_s: float | np.ndarray,
) -> np.ndarray:
    """Expected return gap per user (N,), measured from their last session end,
    given t_s days of absence (a scalar or one per user): for rnnsma each
    user's time from last session end to the prediction-window start, for
    rnnsm 0.
    """
    o_last = net.forward_last(model.params, model.net_config, sequences.disc, sequences.cont,
                              sequences.lengths)
    return absence_conditioned_expectation(o_last, model.w, t_s)


# ---------------------------------------------------------------------------
# persistence

def save_model(path: str | Path, model: RecurrentModel) -> None:
    net.save_checkpoint(
        path,
        model.params,
        model.net_config,
        extra={
            "kind": "rnn" if model.w is None else "rnnsm",
            "w": model.w,
            "stats": model.stats.to_dict(),
        },
    )


def load_model(path: str | Path, kind: str) -> RecurrentModel:
    """Read a checkpoint of the given kind ("rnn" or "rnnsm").

    A file that is missing or not a readable checkpoint, or whose header
    holds fields of the wrong type, a w that does not fit the kind (null
    for rnn, a positive finite number for rnnsm) or a net_config that does
    not fit the sequence statistics or the parameter shapes, raises
    DataModelMismatchError; so does a corrupt archive directory, on which
    zipfile raises OSError. The training record is kept in meta.json; a
    checkpoint that still carries one is read without it.
    """
    try:
        params, config, extra = net.load_checkpoint(path)
        stats = SequenceStats.from_dict(extra["stats"])
        if extra.get("kind") != kind:
            raise DataModelMismatchError(
                f"checkpoint at {path} holds a {extra.get('kind')!r} model, expected {kind!r}"
            )
        w = extra.get("w")
        if kind == "rnn" and w is not None:
            raise ValueError(f"w = {w!r}, expected null")
        if kind == "rnnsm" and not (type(w) in (int, float) and 0 < w < math.inf):
            raise ValueError(f"w = {w!r}, expected a positive finite number")
        n_cont = len(stats.cont_channels)
        if stats.mean.shape != (n_cont,) or stats.std.shape != (n_cont,):
            raise ValueError(f"{n_cont} continuous channels, normalization of shapes "
                             f"{stats.mean.shape} and {stats.std.shape}")
        inputs = (list(config.discrete_features), list(config.cardinalities), config.n_continuous)
        if inputs != (stats.discrete_features, stats.cardinalities, n_cont):
            raise ValueError(f"net_config inputs {inputs} do not match the sequence statistics")
        shapes = net.param_shapes(config)
        got = {name: value.shape for name, value in params.items()}
        if got != shapes:
            bad = sorted(k for k in shapes.keys() | got.keys() if shapes.get(k) != got.get(k))
            raise ValueError(f"parameter shapes do not fit net_config: {', '.join(bad)}")
    except (zipfile.BadZipFile, EOFError, AttributeError, KeyError, TypeError, ValueError,
            OSError) as exc:
        raise DataModelMismatchError(f"checkpoint at {path} is unreadable: {exc}") from exc
    return RecurrentModel(
        params=params,
        net_config=config,
        stats=stats,
        w=None if w is None else float(w),
    )
