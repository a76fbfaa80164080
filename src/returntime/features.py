"""Aggregate covariates for the Cox models and per-step sequence tensors
for the recurrent models.

Sequence steps are active days (calendar days with at least one session).
All continuous channels are z-scored with statistics frozen from the
training split. SequenceStats holds the marker vocabs, the continuous
markers, the z-scores and max_steps; the discrete features, their
cardinalities and the continuous channels derive from those, so a discrete
marker may not take the name of a derived feature (day_of_week,
day_of_month, hour_of_day). The steps of all users form one table
(Sequences) with per-user offsets, the layout of the Dataset's sessions,
which training batches pad by index and the scoring pass reads as it is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, gather_runs
from .errors import DataError, ValidationError

DERIVED_DISCRETE = ("day_of_week", "day_of_month", "hour_of_day")
DERIVED_CARDINALITIES = {"day_of_week": 7, "day_of_month": 31, "hour_of_day": 24}


@dataclass(frozen=True)
class FeatureConfig:
    max_steps: int
    variance_threshold: float

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (0 < self.variance_threshold < 1):
            raise ValidationError(
                f"variance_threshold must lie in (0, 1), got {self.variance_threshold}"
            )


def dataset_continuous_markers(dataset: Dataset) -> list[str]:
    return sorted(key for key, (present, _) in dataset.sessions.continuous.items()
                  if present.any())


# ---------------------------------------------------------------------------
# aggregate features (Cox covariates)

@dataclass
class AggregateMatrix:
    X: np.ndarray  # (n_users, n_features)
    feature_names: list[str]
    user_ids: list[str]
    continuous_markers: list[str]


def build_aggregates(dataset: Dataset, continuous_markers: Sequence[str] | None = None) -> AggregateMatrix:
    """One covariate vector per user, summarizing their observed history.

    Single-session users get zero gap statistics plus a trailing missing-gap
    flag so the degenerate case stays distinguishable.
    """
    markers = (
        list(continuous_markers)
        if continuous_markers is not None
        else dataset_continuous_markers(dataset)
    )
    names = (
        ["session_count", "active_day_count", "mean_gap", "std_gap", "mean_duration"]
        + [f"mean_{m}" for m in markers]
        + ["absence_time", "observation_span", "missing_gap_flag"]
    )
    sessions = dataset.sessions
    offsets = dataset.offsets
    counts = np.diff(offsets)
    gaps = dataset.gaps
    means = [(4, sessions.duration)] + [(5 + j, sessions.continuous[m][1])
                                        for j, m in enumerate(markers) if m in sessions.continuous]
    X = np.zeros((len(dataset), len(names)))  # absent markers average 0.0
    X[:, 0], X[:, 1] = counts, dataset.active_day_counts
    # Users with n sessions are stacked into one (users, n) block per
    # distinct n. numpy reduces each row of a block with the same pairwise
    # summation as a 1-d slice, so every mean and std equals the per-user
    # call bit for bit.
    for n in np.unique(counts).tolist():
        users = np.flatnonzero(counts == n)
        rows = offsets[users][:, None] + np.arange(n)
        if n >= 2:
            user_gaps = gaps[rows[:, :-1]]
            X[users, 2] = user_gaps.mean(axis=1)
            if n >= 3:
                X[users, 3] = user_gaps.std(axis=1)
        for j, column in means:
            X[users, j] = column[rows].mean(axis=1)
    X[:, -3] = dataset.absence_times
    X[:, -2] = sessions.start_time[offsets[1:] - 1] - sessions.start_time[offsets[:-1]]
    X[:, -1] = counts == 1
    if not np.all(np.isfinite(X)):
        raise ValidationError("aggregate features contain non-finite entries")
    return AggregateMatrix(X=X, feature_names=names, user_ids=list(dataset.user_ids),
                           continuous_markers=markers)


@dataclass
class Standardization:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardization":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        return cls(mean, np.where(std == 0.0, 1.0, std))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


# ---------------------------------------------------------------------------
# sequence features (recurrent models)

@dataclass
class Sequences:
    """Every user's step rows, one user after another: user i owns rows
    offsets[i]:offsets[i + 1] of disc, cont and targets, the layout of
    Dataset and of net.forward_last's input."""

    disc: np.ndarray  # (steps, n_disc) int64
    cont: np.ndarray  # (steps, n_cont) float64, normalized
    targets: np.ndarray  # (steps,) raw gap after each step, in days
    offsets: np.ndarray  # (n_users + 1,)
    censored: np.ndarray  # (n_users,) bool

    def __len__(self) -> int:
        return len(self.censored)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, users) -> "Sequences":
        """The given users' sequences, in the given order."""
        users = np.asarray(users, dtype=np.int64)
        offsets, rows = gather_runs(self.offsets, users)
        return Sequences(self.disc[rows], self.cont[rows], self.targets[rows], offsets,
                         self.censored[users])


@dataclass
class SequenceStats:
    """Frozen encoding/normalization state, fitted on the training split.

    The network's inputs derive from it: an embedding per discrete feature
    (each marker vocab, in sorted order, then DERIVED_DISCRETE) and one
    input per continuous channel.
    """

    vocabs: dict[str, dict[str, int]]  # marker-backed features only
    mean: np.ndarray
    std: np.ndarray
    continuous_markers: list[str]
    max_steps: int

    @property
    def discrete_features(self) -> list[str]:
        return [*sorted(self.vocabs), *DERIVED_DISCRETE]

    @property
    def cardinalities(self) -> list[int]:
        """Each feature's number of codes, excluding the unknown slot."""
        return ([len(self.vocabs[name]) for name in sorted(self.vocabs)]
                + [DERIVED_CARDINALITIES[name] for name in DERIVED_DISCRETE])

    @property
    def cont_channels(self) -> list[str]:
        return (["elapsed_days", "session_count", "total_duration"]
                + [f"sum_{m}" for m in self.continuous_markers])

    def to_dict(self) -> dict:
        """The fields, with mean and std as lists."""
        return {**asdict(self), "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SequenceStats":
        """The statistics to_dict wrote. Continuous markers that are not
        strings, a vocab named after a derived feature, a vocab code that is
        not an integer in [0, len(vocab)), a mean that is not finite, a std
        that is not positive and finite, or a max_steps that is not an
        integer of at least 1 raise TypeError or ValueError."""
        vocabs = {k: dict(v) for k, v in d["vocabs"].items()}
        for name, vocab in vocabs.items():
            if name in DERIVED_DISCRETE:
                raise ValueError(f"vocab {name!r} has the name of a derived feature")
            bad = [c for c in vocab.values() if not (type(c) is int and 0 <= c < len(vocab))]
            if bad:
                raise ValueError(f"vocab of {name!r} holds codes {bad[:3]} outside "
                                 f"[0, {len(vocab)})")
        markers = d["continuous_markers"]
        if not (isinstance(markers, list) and all(isinstance(m, str) for m in markers)):
            raise TypeError(f"continuous_markers = {markers!r}, expected a list of strings")
        max_steps = d["max_steps"]
        if not (type(max_steps) is int and max_steps >= 1):
            raise ValueError(f"max_steps = {max_steps!r}, expected an integer of at least 1")
        mean, std = np.asarray(d["mean"], dtype=float), np.asarray(d["std"], dtype=float)
        if not (np.all(np.isfinite(mean)) and np.all((std > 0) & (std < np.inf))):
            raise ValueError(f"mean = {mean.tolist()}, std = {std.tolist()}, expected finite "
                             f"means and positive finite stds")
        return cls(vocabs=vocabs, mean=mean, std=std, continuous_markers=list(markers),
                   max_steps=max_steps)


def _unit_sums(column: np.ndarray, heads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum column over each unit's rows heads[u]:heads[u] + lengths[u].

    Row k of every unit is added in one step, from 0.0 and left to right,
    so each sum rounds exactly as Python's sum over the unit does.
    """
    total = np.zeros(len(heads))
    units = np.arange(len(heads))
    for k in range(int(lengths.max(initial=0))):
        units = units[lengths[units] > k]
        total[units] += column[heads[units] + k]
    return total


def _marker_codes(dataset: Dataset, name: str, vocab: dict[str, int],
                  rows: np.ndarray) -> np.ndarray:
    """Vocab index of a discrete marker at the given rows.

    A missing marker encodes as the string "None" would; values outside the
    vocab take the unknown slot, len(vocab).
    """
    card = len(vocab)
    missing = vocab.get("None", card)
    if name not in dataset.sessions.discrete:
        return np.full(len(rows), missing, dtype=np.int64)
    values, present, codes = dataset.sessions.discrete[name]
    table = np.array([vocab.get(str(v), card) for v in values] + [missing], dtype=np.int64)
    return table[np.where(present[rows], codes[rows], len(values))]


def build_sequences(
    dataset: Dataset,
    config: FeatureConfig | None = None,
    stats: SequenceStats | None = None,
) -> tuple[Sequences, SequenceStats]:
    """Build every user's step rows, in dataset order.

    With stats=None (training mode) the vocabularies and z-score statistics
    are fitted on this dataset and returned; otherwise the given stats are
    applied unchanged (test mode).
    """
    derived_markers = sorted(name for name, (_, present, _) in dataset.sessions.discrete.items()
                             if name in DERIVED_DISCRETE and present.any())
    if derived_markers:
        raise DataError(f"discrete marker {derived_markers[0]!r} has the name of a derived "
                        f"feature ({', '.join(DERIVED_DISCRETE)}); rename the marker")
    fitting = stats is None
    if fitting:
        if config is None:
            raise ValidationError("build_sequences needs a FeatureConfig in training mode")
        vocabs: dict[str, dict[str, int]] = {}
        for name, (values, present, codes) in sorted(dataset.sessions.discrete.items()):
            if present.any():
                used = {str(values[c]) for c in np.unique(codes[present]).tolist()}
                vocabs[name] = {v: i for i, v in enumerate(sorted(used))}
        stats = SequenceStats(vocabs=vocabs, mean=np.empty(0), std=np.empty(0),  # fitted below
                              continuous_markers=dataset_continuous_markers(dataset),
                              max_steps=config.max_steps)
    markers = stats.continuous_markers

    # one unit per step: an active day
    sessions = dataset.sessions
    heads = np.flatnonzero(dataset.day_heads)
    lengths = np.diff(heads, append=len(sessions))
    per_user = np.bincount(sessions.user[heads], minlength=len(dataset))
    firsts = np.cumsum(per_user) - per_user
    start = sessions.start_time[heads]
    day = np.floor(start)

    # gap after each unit: to the next unit's day; the user's final gap
    # after their last unit
    after = np.zeros(len(heads))
    after[:-1] = np.diff(day)
    targets = after.copy()
    targets[firsts + per_user - 1] = dataset.final_gap
    elapsed = np.zeros(len(heads))
    elapsed[1:] = after[:-1]
    elapsed[firsts] = 0.0
    sums = [sessions.duration] + [sessions.continuous[m][1] if m in sessions.continuous
                                  else np.zeros(len(sessions)) for m in markers]
    cont = np.column_stack([elapsed, lengths] + [_unit_sums(c, heads, lengths) for c in sums])

    day_index = day.astype(np.int64)
    derived = {
        "day_of_week": (day_index + dataset.epoch_weekday) % 7,
        "day_of_month": day_index % 31,
        "hour_of_day": np.minimum(((start - day) * 24.0).astype(np.int64), 23),
    }
    disc = np.column_stack([
        _marker_codes(dataset, name, stats.vocabs[name], heads)
        if name in stats.vocabs else derived[name]
        for name in stats.discrete_features
    ])

    keep = np.arange(len(heads)) >= np.repeat(firsts + per_user - stats.max_steps, per_user)
    cont, disc, targets = cont[keep], disc[keep], targets[keep]  # each user's last max_steps

    if fitting:
        if cont.shape[0] == 0:
            raise DataError("cannot fit sequence statistics on an empty dataset")
        scaling = Standardization.fit(cont)
        stats.mean, stats.std = scaling.mean, scaling.std
    cont = (cont - stats.mean) / stats.std

    offsets = np.append(0, np.cumsum(np.minimum(per_user, stats.max_steps)))
    return Sequences(disc, cont, targets, offsets, dataset.is_censored), stats


@dataclass
class PaddedBatch:
    disc: np.ndarray  # (B, T, n_disc)
    cont: np.ndarray  # (B, T, n_cont)
    targets: np.ndarray  # (B, T)
    lengths: np.ndarray  # (B,)
    censored: np.ndarray  # (B,) bool


def pad_batch(seqs: Sequences, users: np.ndarray) -> PaddedBatch:
    """Right-pad the given users' sequences, in the given order, into dense
    batch tensors."""
    lengths = seqs.lengths[users]
    real = np.arange(lengths.max()) < lengths[:, None]  # (B, T)
    rows = (seqs.offsets[users][:, None] + np.arange(real.shape[1]))[real]
    disc = np.zeros((*real.shape, seqs.disc.shape[1]), dtype=np.int64)
    cont = np.zeros((*real.shape, seqs.cont.shape[1]))
    targets = np.ones(real.shape)  # padded lanes carry a harmless positive gap
    disc[real], cont[real], targets[real] = seqs.disc[rows], seqs.cont[rows], seqs.targets[rows]
    return PaddedBatch(disc, cont, targets, lengths, seqs.censored[users])


def select_embedding_dims(embedding: np.ndarray, variance_threshold: float = 0.9) -> int:
    """Smallest dimension whose principal components explain more than the
    threshold share of the embedding matrix's variance, computed in float64."""
    if not (0 < variance_threshold < 1):
        raise ValidationError(
            f"variance_threshold must lie in (0, 1), got {variance_threshold}"
        )
    embedding = np.asarray(embedding, dtype=np.float64)
    centered = embedding - embedding.mean(axis=0, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    var = s ** 2
    total = var.sum()
    if total <= 0.0:
        return 1
    cum = np.cumsum(var) / total
    return int(np.argmax(cum > variance_threshold)) + 1
