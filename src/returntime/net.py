"""Sequence network built from scratch: embeddings with a unit-norm
constraint, a dense fusion layer, an LSTM, and a single-neuron linear head.

Forward and backward are exact and follow the params' dtype; training and
scoring run float32, the oracles float64; the module does no file I/O.
Training passes padded batches of shape (batch, steps, ...) to
forward_batch, which also serves a single sequence as a one-row batch;
internally only the real steps are computed, packed time-major with the
rows sorted longest first, so the dense layers run once outside the time
loop and padded steps cost nothing. The hidden states stay packed in the
cache that backward_batch reads. The scoring pass, forward_last, runs any
number of sequences in the same order but keeps only the running LSTM
state, and returns each one's final output.
Gate order in the fused LSTM tensors is input, forget, candidate, output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class NetConfig:
    discrete_features: tuple[str, ...]
    cardinalities: tuple[int, ...]  # declared sizes, excluding the unknown slot
    embedding_dims: tuple[int, ...]
    n_continuous: int
    fusion_size: int
    hidden_size: int

    def __post_init__(self) -> None:
        if not (len(self.discrete_features) == len(self.cardinalities) == len(self.embedding_dims)):
            raise ValueError("discrete feature names, cardinalities, and dims must align")
        sizes = (*self.embedding_dims, self.fusion_size, self.hidden_size)
        if not all(type(n) is int and n >= 1 for n in sizes):
            raise ValueError(f"layer sizes {sizes} must be integers of at least 1")

    @property
    def input_width(self) -> int:
        return int(sum(self.embedding_dims)) + self.n_continuous


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.maximum(norms, 1e-12)


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a network with this config."""
    H, F = config.hidden_size, config.fusion_size
    shapes = {f"emb_{name}": (card + 1, dim) for name, card, dim
              in zip(config.discrete_features, config.cardinalities, config.embedding_dims)}
    shapes.update(fusion_w=(F, config.input_width), fusion_b=(F,), lstm_wx=(4 * H, F),
                  lstm_wh=(4 * H, H), lstm_b=(4 * H,), out_v=(H,), out_b=(1,))
    return shapes


def init_params(config: NetConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-0.08, 0.08) weights, zero biases, forget-gate bias 1,
    embedding rows drawn then projected to unit norm."""
    params = {name: np.zeros(shape) if name in ("fusion_b", "lstm_b", "out_b")
              else rng.uniform(-0.08, 0.08, size=shape)
              for name, shape in param_shapes(config).items()}
    for name in config.discrete_features:
        params[f"emb_{name}"] = _normalize_rows(params[f"emb_{name}"])
    H = config.hidden_size
    params["lstm_b"][H:2 * H] = 1.0
    return params


def _gate_rows(H: int) -> np.ndarray:
    """Rows of the fused LSTM tensors in the internal gate order: output,
    input, forget, candidate. The three sigmoid gates come first and the
    three gates that multiply the cell-state gradient come last."""
    return np.r_[3 * H:4 * H, 0:3 * H]


def _pack(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Time-major packing of B sequences of the given lengths (B,).

    Returns (order, sizes, offsets, times, slots): the sequences
    stable-sorted longest first; per step t the count sizes[t] of sequences
    still running, which are the first sizes[t] sorted ones and occupy packed
    rows offsets[t]:offsets[t + 1]; and per packed row its step and its
    position in the sorted order (the layout of PyTorch's PackedSequence).
    """
    order = np.argsort(-lengths, kind="stable")
    active = lengths[order] > np.arange(lengths.max(initial=0))[:, None]  # (steps, B)
    sizes = np.count_nonzero(active, axis=1)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    times, slots = np.nonzero(active)
    return order, sizes, offsets, times, slots


def _fusion_input(params: dict[str, np.ndarray], config: NetConfig, disc: np.ndarray,
                  cont: np.ndarray) -> np.ndarray:
    """Fusion-layer input u (N, D) of N steps given as disc (N, n_disc)
    indices and cont (N, n_cont) values."""
    parts = [params[f"emb_{name}"][disc[:, k]] for k, name in enumerate(config.discrete_features)]
    parts.append(cont.astype(params["fusion_w"].dtype, copy=False))
    return np.concatenate(parts, axis=1)


def _row_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a C-contiguous b, such that each row of the result depends
    only on that row of a. OpenBLAS's gemm gives this from two rows up (with
    a transposed b it does not, on small products); numpy hands a one-row
    product to gemv, which rounds differently, so one row is multiplied as
    two."""
    return a @ b if len(a) != 1 else (np.concatenate([a, a]) @ b)[:1]


def _lstm_weights(params: dict[str, np.ndarray], H: int) -> tuple[np.ndarray, ...]:
    """(wx, wh.T, b) in the internal gate order, sigmoid-gate rows halved.

    Sigmoid gates use sigmoid(z) = 0.5*(1 + tanh(z/2)). Their weight rows are
    halved up front (exact in binary floating point), so one in-place tanh
    per step serves all four gates (see _lstm_cell).
    """
    rows_g = _gate_rows(H)
    scale = np.repeat(np.array([0.5, 1.0], dtype=params["lstm_wx"].dtype), [3 * H, H])
    wx = params["lstm_wx"][rows_g] * scale[:, None]
    wh_t = (params["lstm_wh"][rows_g] * scale[:, None]).T
    return wx, wh_t, params["lstm_b"][rows_g] * scale


def _lstm_cell(z: np.ndarray, c_prev: np.ndarray | None, c: np.ndarray, tanh_c: np.ndarray,
               h: np.ndarray) -> None:
    """One LSTM step over n rows, in place.

    z (n, 4H) holds the step's pre-activations from _lstm_weights and is
    turned into the gate activations. c_prev is the previous cell state, or
    None at a sequence's first step. The cell state, its tanh and the hidden
    state are written into c, tanh_c and h (each (n, H), none aliasing
    c_prev).
    """
    H = c.shape[1]
    np.tanh(z, out=z)
    sig = z[:, :3 * H]
    sig += 1.0
    sig *= 0.5
    np.multiply(z[:, H:2 * H], z[:, 3 * H:], out=c)
    if c_prev is not None:
        c += z[:, 2 * H:3 * H] * c_prev
    np.tanh(c, out=tanh_c)
    np.multiply(z[:, :H], tanh_c, out=h)


def forward_batch(
    params: dict[str, np.ndarray],
    config: NetConfig,
    disc: np.ndarray,
    cont: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Run the network over a padded batch.

    disc: (B, T, n_disc) int indices; cont: (B, T, n_cont); lengths: (B,).
    Returns per-step scalar outputs (B, T) and the cache needed by
    backward_batch, which holds the hidden states of the real steps packed
    as (N, H) in cache["h"]. Only the real steps are computed: outputs at
    padded steps are exactly 0.

    Internally the real steps are packed time-major (see _pack), so the
    embedding gather, the fusion layer, the LSTM input projection and the
    output head run once over all packed rows; only the recurrent product and
    the gate math run per step.
    """
    B, T = disc.shape[:2]
    H = config.hidden_size
    order, sizes, offsets, times, slots = _pack(np.asarray(lengths))
    rows = order[slots]
    n0 = int(sizes[0]) if sizes.size else 0
    # packed index of the previous step of every row past step 0
    prev = offsets[times[n0:] - 1] + slots[n0:]

    disc_p = disc[rows, times]
    u = _fusion_input(params, config, disc_p, cont[rows, times])  # (N, D)
    x = np.tanh(u @ params["fusion_w"].T + params["fusion_b"])  # (N, F)
    wx, wh_t, b = _lstm_weights(params, H)
    # pre-activations, turned into gate activations in place step by step
    gates = x @ wx.T + b  # (N, 4H)
    c = np.empty((len(rows), H), dtype=gates.dtype)
    tanh_c = np.empty_like(c)
    h = np.empty_like(c)
    for t, n in enumerate(sizes):
        cur = slice(offsets[t], offsets[t + 1])
        z = gates[cur]
        c_prev = None
        if t:
            before = slice(offsets[t - 1], offsets[t - 1] + n)
            z += h[before] @ wh_t
            c_prev = c[before]
        _lstm_cell(z, c_prev, c[cur], tanh_c[cur], h[cur])
    with np.errstate(invalid="ignore", over="ignore"):
        o_p = h @ params["out_v"] + params["out_b"][0]  # (N,)

    o = np.zeros((B, T))
    o[rows, times] = o_p
    if not np.all(np.isfinite(o_p)):
        bad = np.argwhere(~np.isfinite(o))
        raise NumericalError(
            f"non-finite activation at step {int(bad[0][1])} of batch row {int(bad[0][0])}"
        )
    cache = {
        "shape": (B, T), "rows": rows, "times": times, "sizes": sizes,
        "offsets": offsets, "prev": prev, "disc": disc_p, "u": u, "x": x,
        "gates": gates, "c": c, "tanh_c": tanh_c, "h": h,
    }
    return o, cache


def forward_last(
    params: dict[str, np.ndarray],
    config: NetConfig,
    disc: np.ndarray,
    cont: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Output at the final step of each of B sequences, (B,): the scoring
    pass, which keeps no cache for backward_batch.

    disc (N, n_disc) and cont (N, n_cont) hold the sequences' steps one
    sequence after another, in the order of lengths (B,); every length is at
    least 1. As in forward_batch the sequences are stable-sorted longest
    first and step t runs the first sizes[t] of them, but besides a
    time-major copy of the inputs only the running (c, h) state of B rows
    and one step's gates are kept. h sits beside the
    step's fusion output in one (B, F + H) buffer, so the input and
    recurrent products are one matmul; a sequence's h stops changing at its
    last step, and the output head then runs once over all B rows. Each
    output equals forward_batch's at that step up to rounding, and depends
    only on its sequence and the params: not on the other sequences in the
    call or the BLAS thread count (_row_matmul, and row sums for the head).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and lengths.min() < 1:
        raise ValueError("every sequence needs at least one step")
    B, F, H = len(lengths), config.fusion_size, config.hidden_size
    order, _, offsets, times, slots = _pack(lengths)
    rows = (np.cumsum(lengths) - lengths)[order][slots] + times  # time-major step order
    disc, cont = disc[rows], cont[rows]

    wx, wh_t, b = _lstm_weights(params, H)
    # C-contiguous weights for _row_matmul
    w = np.ascontiguousarray(np.concatenate([wx.T, wh_t]))  # (F + H, 4H)
    fusion_w = np.ascontiguousarray(params["fusion_w"].T)  # (D, F)
    # [x_t | h_{t-1}] per sorted row, h = 0 before step 0
    xh = np.zeros((B, F + H), dtype=w.dtype)
    tanh_c = np.empty((B, H), dtype=w.dtype)
    c, c_next = np.empty_like(tanh_c), np.empty_like(tanh_c)
    bounds = offsets.tolist()
    for t, (a, e) in enumerate(zip(bounds, bounds[1:])):
        n = e - a
        u = _fusion_input(params, config, disc[a:e], cont[a:e])
        xh[:n, :F] = np.tanh(_row_matmul(u, fusion_w) + params["fusion_b"])
        z = _row_matmul(xh[:n], w)
        z += b
        _lstm_cell(z, c[:n] if t else None, c_next[:n], tanh_c[:n], xh[:n, F:])
        c, c_next = c_next, c
    with np.errstate(invalid="ignore", over="ignore"):
        o_sorted = (xh[:, F:] * params["out_v"]).sum(axis=1) + params["out_b"][0]
    o = np.empty(B)
    o[order] = o_sorted
    if not np.all(np.isfinite(o)):
        raise NumericalError(
            f"non-finite activation at the last step of sequence {int(np.argmax(~np.isfinite(o)))}"
        )
    return o


def backward_batch(
    params: dict[str, np.ndarray],
    config: NetConfig,
    cache: dict,
    grad_o: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(grad_o * o) with respect to every parameter.

    grad_o must be (B, T); its entries at padded steps are never read, and
    the others are cast to the dtype of the cache, the params' dtype.
    """
    B, T = cache["shape"]
    if grad_o.shape != (B, T):
        raise ValueError(f"grad_o shape {grad_o.shape} does not match cache ({B}, {T})")
    H = config.hidden_size
    sizes, offsets, prev = cache["sizes"], cache["offsets"], cache["prev"]
    gates, c, tanh_c, h, x, u = (
        cache[k] for k in ("gates", "c", "tanh_c", "h", "x", "u")
    )
    N = len(h)
    n0 = N - len(prev)
    dtype = h.dtype
    g_o = grad_o[cache["rows"], cache["times"]].astype(dtype, copy=False)  # (N,)
    o_gate, i, f, g = (gates[:, k * H:(k + 1) * H] for k in range(4))

    # Local derivatives need no recurrence, so they are formed over all packed
    # rows at once. With dc = dh*o_gate*(1 - tanh_c^2) + dc_next:
    #   dz_o = dh * tanh_c*o_gate(1-o_gate),  dz_i = dc * g*i(1-i),
    #   dz_f = dc * c_prev*f(1-f),            dz_g = dc * i(1-g^2).
    c_prev = np.zeros((N, H), dtype=dtype)
    c_prev[n0:] = c[prev]
    coef = np.empty((N, 4, H), dtype=dtype)
    coef[:, 0] = tanh_c * o_gate * (1.0 - o_gate)
    coef[:, 1] = g * i * (1.0 - i)
    coef[:, 2] = c_prev * f * (1.0 - f)
    coef[:, 3] = i * (1.0 - g * g)
    dc_coef = o_gate * (1.0 - tanh_c * tanh_c)

    rows_g = _gate_rows(H)
    wx, wh = params["lstm_wx"][rows_g], params["lstm_wh"][rows_g]
    dh = np.outer(g_o, params["out_v"])  # (N, H); recurrent terms added below
    dz = np.empty((N, 4, H), dtype=dtype)  # pre-activation gradients, internal gate order
    # gradients flowing back from step t + 1, whose rows are step t's first rows
    dh_next = dc_next = np.zeros((0, H), dtype=dtype)
    for t in range(len(sizes) - 1, -1, -1):
        cur = slice(offsets[t], offsets[t + 1])
        m = len(dh_next)
        dh_t = dh[cur]
        dh_t[:m] += dh_next
        dc = dh_t * dc_coef[cur]
        dc[:m] += dc_next
        dz_t = dz[cur]
        np.multiply(dh_t, coef[cur, 0], out=dz_t[:, 0])
        np.multiply(dc[:, None, :], coef[cur, 1:], out=dz_t[:, 1:])
        dc_next = dc * f[cur]
        dh_next = dz_t.reshape(-1, 4 * H) @ wh
    dz = dz.reshape(N, 4 * H)

    grads = {k: np.zeros_like(p) for k, p in params.items()}
    grads["out_v"] = g_o @ h
    grads["out_b"] = np.array([g_o.sum()], dtype=dtype)
    grads["lstm_wx"][rows_g] = dz.T @ x
    grads["lstm_wh"][rows_g] = dz[n0:].T @ h[prev]
    grads["lstm_b"][rows_g] = dz.sum(axis=0)
    dpre = (dz @ wx) * (1.0 - x * x)  # through the fusion tanh
    grads["fusion_w"] = dpre.T @ u
    grads["fusion_b"] = dpre.sum(axis=0)
    du = dpre @ params["fusion_w"]  # (N, D)

    # each embedding column sums its rows' du by code, in row order as
    # np.add.at would, but in one bincount pass
    offset = 0
    for k, name in enumerate(config.discrete_features):
        grad, codes = grads[f"emb_{name}"], cache["disc"][:, k]
        for j in range(config.embedding_dims[k]):
            grad[:, j] = np.bincount(codes, du[:, offset + j], minlength=len(grad))
        offset += config.embedding_dims[k]
    return grads


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """sqrt of the summed squares of every gradient entry.

    Where the plain sum of squares overflows, the entries are first divided
    by the largest |g|, so huge but finite gradients still clip instead of
    being dropped. A non-finite gradient raises NumericalError."""
    with np.errstate(over="ignore"):
        total = sum(float(np.sum(g * g)) for g in grads.values())
    if math.isfinite(total):
        return math.sqrt(total)
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise NumericalError("non-finite gradient")
    peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
    return peak * math.sqrt(sum(float(np.sum((g / peak) ** 2)) for g in grads.values()))


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def apply_update_with_norm_projection(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    *,
    clip_norm: float,
    grad_scale: float = 1.0,
) -> dict[str, np.ndarray]:
    """Adam step with global-norm clipping; embedding rows re-projected to
    unit norm afterwards. Updates params in place and returns them.

    grads are the true gradients divided by grad_scale, a power of two that
    keeps them in range of the params' dtype; clipping acts on the true
    norm. With grad_scale 1 the gradients are used as they are."""
    norm = global_grad_norm(grads) * grad_scale
    scale = (clip_norm / norm if norm > clip_norm else 1.0) * grad_scale
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for key in sorted(params):
        g = grads[key] * scale
        m = state.m[key]
        v = state.v[key]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params[key] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if key.startswith("emb_"):
            params[key] = _normalize_rows(params[key])
    return params

