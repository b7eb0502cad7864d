"""Losses, analytic gradients, Adagrad, and the training schedules.

Rating loss is the mean squared error of the calibrated rating prediction;
retrieval loss is softmax cross-entropy of the true candidate against a
candidate set, stabilized by max-subtraction. The joint objective is the
weighted sum of the two. The loss functions and the hand-written backprop
share one forward per task, and below the heads each tower's forward
record runs its own backward; gradients are verified against central
finite differences in float64. Phase 2 of the two-phase schedule runs
each tower once over the train reviews, in `batch_size` chunks, and then
trains the retrieval head alone on those outputs: 2·n·k float32 values
for n train reviews under the in-batch softmax, n·k plus the corpus rows'
under the full-corpus one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .features import (
    CandidateFeatures,
    FeatureSpace,
    QueryFeatures,
    check_field_types,
    encode_candidate,
    star_labels,
    sum_candidates,
)
from .corpus import InteractionRecord
from .model import (
    CandidateBlock,
    ModelParams,
    QueryBlock,
    forward_candidates,
    forward_users,
    init_params,
    rating_predict,
    require_finite,
    retrieval_project,
)


class CandidateMissing(Exception):
    pass


@dataclass(frozen=True)
class LossWeights:
    rating: float = 0.5
    retrieval: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        if not (0 <= self.rating < math.inf and 0 <= self.retrieval < math.inf):
            raise ValueError(f"weights must be finite and at least 0: {self}")
        if self.rating + self.retrieval <= 0:
            raise ValueError(f"weights must have a positive sum: {self}")


@dataclass
class TrainConfig:
    weights: LossWeights = LossWeights()  # frozen, so one shared default is safe
    batch_size: int = 256
    epochs: int = 20
    seed: int = 0
    schedule: str = "joint"  # "joint" | "two_phase"
    softmax_mode: str = "full_corpus"  # "full_corpus" | "in_batch"
    learning_rate: float = 1e-3
    epsilon: float = 1e-7
    embed_dim: int = 32

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("batch_size", 1), ("epochs", 1), ("embed_dim", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}: {getattr(self, name)}")
        # Adagrad runs in float32, where a smaller value is 0 and a larger one inf.
        lo, hi = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
        for name in ("learning_rate", "epsilon"):
            if not lo <= (value := getattr(self, name)) <= hi:
                raise ValueError(f"{name} must be a normal float32, {lo:.3g} to {hi:.3g}: {value}")
        if self.schedule not in ("joint", "two_phase"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.softmax_mode not in ("full_corpus", "in_batch"):
            raise ValueError(f"unknown softmax mode {self.softmax_mode!r}")


@dataclass
class Batch:
    """Training examples plus the candidate set of the softmax denominator.

    pair_candidates[i] is the candidate the i-th query actually interacted
    with (used by the rating path); softmax_candidates is the denominator
    set, with true_indices[i] locating query i's true candidate inside it.
    Queries and the softmax set are feature objects or an already built block.
    """

    queries: Sequence[QueryFeatures] | QueryBlock
    pair_candidates: Sequence[CandidateFeatures]
    labels: np.ndarray
    softmax_candidates: Sequence[CandidateFeatures] | CandidateBlock
    true_indices: np.ndarray

    def __post_init__(self):
        n = len(self.queries)
        if n == 0:
            raise ValueError("batch must be non-empty")
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.true_indices = np.asarray(self.true_indices, dtype=np.int64)
        lengths = (len(self.pair_candidates), self.labels.shape, self.true_indices.shape)
        if lengths != (n, (n,), (n,)):
            raise ValueError(
                f"a batch of {n} queries needs {n} pair candidates, labels and true "
                f"indices: got {lengths[0]}, {lengths[1]} and {lengths[2]}"
            )

    @classmethod
    def in_batch(cls, queries, pair_candidates, labels) -> "Batch":
        """Other candidates in the batch are the softmax negatives."""
        return cls(
            queries=queries,
            pair_candidates=pair_candidates,
            labels=labels,
            softmax_candidates=pair_candidates,
            true_indices=np.arange(len(queries)),
        )

    @classmethod
    def full_corpus(cls, queries, pair_candidates, labels, corpus_candidates) -> "Batch":
        """Softmax over every corpus business (true item by business index)."""
        true = np.fromiter(
            (c.business_index for c in pair_candidates), dtype=np.int64, count=len(pair_candidates)
        )
        return cls(
            queries=queries,
            pair_candidates=pair_candidates,
            labels=labels,
            softmax_candidates=corpus_candidates,
            true_indices=true,
        )

    @cached_property
    def query_block(self) -> QueryBlock:
        if isinstance(self.queries, QueryBlock):
            return self.queries
        return QueryBlock.from_features(self.queries)

    @cached_property
    def pair_block(self) -> CandidateBlock:
        return CandidateBlock.from_features(self.pair_candidates)

    @cached_property
    def softmax_block(self) -> CandidateBlock:
        if self.softmax_candidates is self.pair_candidates:
            return self.pair_block
        if isinstance(self.softmax_candidates, CandidateBlock):
            return self.softmax_candidates
        return CandidateBlock.from_features(self.softmax_candidates)


# ---------------------------------------------------------------------------
# One forward and one backward per task; each forward runs its own towers.
# ---------------------------------------------------------------------------


def _rating_forward(batch: Batch, params: ModelParams) -> tuple[float, tuple]:
    """Rating MSE and its cache (user tower, pair-candidate tower, float64
    prediction error)."""
    q = forward_users(params, batch.query_block)
    c = forward_candidates(params, batch.pair_block)
    diff = rating_predict(params, q.out, c.out).astype(np.float64) - batch.labels
    return float(np.mean(diff**2)), (q, c, diff)


def _retrieval_head(
    params: ModelParams, q_out: np.ndarray, c_out: np.ndarray, true: np.ndarray
) -> tuple[float, tuple]:
    """Softmax cross-entropy of each query's true candidate (row i of `q_out`
    against row true[i] of `c_out`), stabilized by max-subtraction, and its
    cache (the tower outputs, the true indices, both projections, the
    shifted exponentials and their row sums)."""
    ur = retrieval_project(params, "user", q_out)
    vr = retrieval_project(params, "item", c_out)
    scores = (ur @ vr.T).astype(np.float64)
    if true.min() < 0 or true.max() >= scores.shape[1]:
        raise CandidateMissing("true index outside the candidate set")
    m = scores.max(axis=1, keepdims=True)
    exp = np.exp(scores - m)
    z = exp.sum(axis=1, keepdims=True)
    true_scores = scores[np.arange(len(true)), true]
    loss = float(np.mean(np.log(z[:, 0]) + m[:, 0] - true_scores))
    return loss, (q_out, c_out, true, ur, vr, exp, z)


def _retrieval_forward(batch: Batch, params: ModelParams) -> tuple[float, tuple]:
    """The retrieval loss and its cache (user tower, softmax-set tower,
    retrieval head)."""
    q = forward_users(params, batch.query_block)
    c = forward_candidates(params, batch.softmax_block)
    loss, head = _retrieval_head(params, q.out, c.out, batch.true_indices)
    return loss, (q, c, head)


def rating_loss(batch: Batch, params: ModelParams) -> float:
    return _rating_forward(batch, params)[0]


def retrieval_loss(batch: Batch, params: ModelParams) -> float:
    return _retrieval_forward(batch, params)[0]


def retrieval_log_prob(
    x: QueryFeatures,
    y_true_index: int,
    candidates: Sequence[CandidateFeatures],
    params: ModelParams,
) -> float:
    """log P(true candidate | query) under the candidate-set softmax."""
    q = forward_users(params, QueryBlock.from_features([x]))
    c = forward_candidates(params, CandidateBlock.from_features(candidates))
    return -_retrieval_head(params, q.out, c.out, np.array([y_true_index], dtype=np.int64))[0]


def joint_loss(batch: Batch, params: ModelParams, weights: LossWeights) -> float:
    total = 0.0
    if weights.rating != 0.0:
        total += weights.rating * rating_loss(batch, params)
    if weights.retrieval != 0.0:
        total += weights.retrieval * retrieval_loss(batch, params)
    return total


def _rating_backward(params: ModelParams, cache: tuple, weight: float, grads: dict) -> None:
    """Add `weight` times the rating loss gradient to `grads`."""
    q, c, diff = cache
    d_pred = (weight * 2.0 / len(diff)) * diff.astype(params.dtype)  # [n]
    grads["rating_head.w"] += (q.out * c.out).T @ d_pred[:, None]
    grads["rating_head.b"] += np.array([d_pred.sum()], dtype=params.dtype)
    d_uv = d_pred[:, None] * params.tensors["rating_head.w"][:, 0][None, :]
    q.backward(params, d_uv * c.out, grads)
    c.backward(params, d_uv * q.out, grads)


def _retrieval_head_backward(
    params: ModelParams, cache: tuple, weight: float, grads: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Add `weight` times the retrieval loss gradient of the retrieval head to
    `grads`, from `_retrieval_head`'s cache; return the gradients w.r.t. the
    user and candidate tower outputs."""
    q_out, c_out, true, ur, vr, exp, z = cache
    t = params.tensors
    n = len(z)
    d_scores = exp / z  # softmax probabilities
    d_scores[np.arange(n), true] -= 1.0
    d_scores = ((weight / n) * d_scores).astype(params.dtype)
    d_ur = d_scores @ vr
    d_vr = d_scores.T @ ur
    grads["retrieval_head.user.w"] += q_out.T @ d_ur
    grads["retrieval_head.user.b"] += d_ur.sum(axis=0)
    grads["retrieval_head.item.w"] += c_out.T @ d_vr
    grads["retrieval_head.item.b"] += d_vr.sum(axis=0)
    return d_ur @ t["retrieval_head.user.w"].T, d_vr @ t["retrieval_head.item.w"].T


def loss_and_gradients(
    batch: Batch, params: ModelParams, weights: LossWeights
) -> tuple[float, float, dict[str, np.ndarray]]:
    """(rating loss, retrieval loss, gradients of the joint loss for every
    tensor).

    A task with zero weight is skipped entirely (its loss reads 0), so
    tensors only it touches stay at zero.
    """
    grads = params.zeros_like_tensors()
    l_rating = l_retrieval = 0.0
    if weights.rating != 0.0:
        l_rating, cache = _rating_forward(batch, params)
        _rating_backward(params, cache, weights.rating, grads)
    if weights.retrieval != 0.0:
        l_retrieval, (q, c, head) = _retrieval_forward(batch, params)
        d_u, d_v = _retrieval_head_backward(params, head, weights.retrieval, grads)
        q.backward(params, d_u, grads)
        c.backward(params, d_v, grads)
    return l_rating, l_retrieval, grads


def gradients(batch: Batch, params: ModelParams, weights: LossWeights) -> dict[str, np.ndarray]:
    return loss_and_gradients(batch, params, weights)[2]


# ---------------------------------------------------------------------------
# Finite-difference verification.
# ---------------------------------------------------------------------------


def finite_difference_check(
    batch: Batch, params: ModelParams, weights: LossWeights, step: float = 1e-3
) -> tuple[float, str]:
    """Compare analytic gradients to central differences in float64.

    Returns (max relative error, name of the worst tensor).
    """
    p64 = params.astype(np.float64)
    grads = gradients(batch, p64, weights)
    worst = (0.0, "")
    for name, tensor in p64.tensors.items():
        flat = tensor.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = joint_loss(batch, p64, weights)
            flat[i] = orig - step
            down = joint_loss(batch, p64, weights)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1.0)
            worst = max(worst, (rel, name), key=lambda pair: pair[0])  # the first on a tie
    return worst


def _build_tiny_setup(seed: int) -> tuple[ModelParams, Batch]:
    """A small randomized model and batch for gradient verification: k=4,
    6 users, 5 businesses, 16 text buckets, text and date features on, and a
    full-corpus batch of 8. Each corpus row sums its business's review
    counts, so row 0 (the OOV entry) has no text.
    """
    rng = np.random.default_rng(seed)
    params = init_params(seed, num_users=6, num_businesses=5, k=4, use_text=True,
                         use_date=True, text_buckets=16)
    queries, cands = [], []
    corpus = [Counter() for _ in range(5)]
    for _ in range(8):
        date = tuple(rng.uniform(-1.0, 1.0, size=3).tolist())
        queries.append(QueryFeatures(int(rng.integers(1, 6)), date))
        business = int(rng.integers(1, 5))
        text = Counter(rng.integers(0, 16, size=int(rng.integers(3, 8))).tolist())
        cands.append(CandidateFeatures(business, dict(text)))
        corpus[business].update(text)
    labels = rng.integers(1, 6, size=8).astype(np.float64)
    corpus_cands = [CandidateFeatures(i, dict(c)) for i, c in enumerate(corpus)]
    return params, Batch.full_corpus(queries, cands, labels, corpus_cands)


def _kink_margin(params: ModelParams, batch: Batch) -> float:
    """Smallest |hidden preactivation| over every forward the loss takes.

    Finite differences step across rectifier kinks when a preactivation
    sits within the perturbation range, so seeds that close are rejected.
    """
    q, pair, _ = _rating_forward(batch, params)[1]
    caches = (q, pair, *_retrieval_forward(batch, params)[1][:2])
    return min(float(np.abs(cache.pre1).min()) for cache in caches)


def reference_gradcheck(seed: int = 0, step: float = 1e-3) -> tuple[float, str, int]:
    """Run the finite-difference check on the tiny reference model.

    Scans forward from `seed` for a configuration whose rectifier
    preactivations all clear the perturbation range, then compares every
    analytic gradient entry against central differences in float64.
    Returns (max relative error, worst tensor name, seed used).
    """
    weights = LossWeights(0.5, 0.5)
    for s in range(seed, seed + 100):
        params, batch = _build_tiny_setup(s)
        if _kink_margin(params.astype(np.float64), batch) > 5.0 * step:
            break
    else:
        raise RuntimeError("no kink-free seed found")
    err, worst = finite_difference_check(batch, params, weights, step=step)
    return err, worst, s


# ---------------------------------------------------------------------------
# Adagrad.
# ---------------------------------------------------------------------------


@dataclass
class AdagradState:
    accumulators: dict[str, np.ndarray]
    learning_rate: float
    epsilon: float

    @classmethod
    def init(cls, params: ModelParams, learning_rate: float, epsilon: float) -> "AdagradState":
        """Every accumulator starts at 0.1."""
        acc = {n: np.full_like(t, params.dtype.type(0.1)) for n, t in params.tensors.items()}
        return cls(accumulators=acc, learning_rate=learning_rate, epsilon=epsilon)


def adagrad_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdagradState,
    rows: Optional[dict[str, np.ndarray]] = None,
) -> None:
    """In-place update of each tensor that `grads` names:
    acc += g^2; p -= lr * g / (sqrt(acc) + eps). Other tensors are untouched.

    `rows` maps a tensor's name to sorted unique row indices, and only those
    rows of it are updated, by the same elementwise operations. Where every
    row left out has a +0.0 gradient, as `zeros_like_tensors` leaves an
    unread row, the result is the dense step's bit for bit: there the dense
    step adds 0 to the accumulator and subtracts 0 from the parameter
    (Duchi et al. 2011).
    """
    dt = params.dtype
    lr = dt.type(state.learning_rate)
    eps = dt.type(state.epsilon)
    rows = rows or {}
    for name, g in grads.items():
        acc, p = state.accumulators[name], params.tensors[name]
        r = rows.get(name)
        if r is None:
            acc += g * g
            p -= lr * g / (np.sqrt(acc) + eps)
        else:
            g = g[r]
            acc[r] = a = acc[r] + g * g
            p[r] -= lr * g / (np.sqrt(a) + eps)


def _held_rows(batch: Batch, params: ModelParams) -> dict[str, np.ndarray]:
    """The sorted rows of `user_table` and `business_table` that `batch`
    holds: its query users and its softmax-set businesses, a set that holds
    each pair business at its true index. No loss over the batch gives a
    gradient to any other row."""
    rows = {}
    for name, idx in (("user_table", batch.query_block.user_idx),
                      ("business_table", batch.softmax_block.business_idx)):
        held = np.zeros(len(params.tensors[name]), dtype=bool)
        held[idx] = True
        rows[name] = np.flatnonzero(held)
    return rows


# ---------------------------------------------------------------------------
# Training loops.
# ---------------------------------------------------------------------------


@dataclass
class EpochTrace:
    epoch: int
    rating_loss: float
    retrieval_loss: float
    joint_loss: float

    def line(self) -> str:
        return (
            f"epoch {self.epoch} rating {self.rating_loss:.6f} "
            f"retrieval {self.retrieval_loss:.6f} joint {self.joint_loss:.6f}"
        )


@dataclass
class TrainInputs:
    """The train partition encoded once: row i of `queries`, `candidates`
    and `labels` is train review i (each review hashed once), and
    `corpus_candidates` sums those candidates per business as
    `aggregate_candidates` does.
    """

    queries: QueryBlock
    candidates: list[CandidateFeatures]
    labels: np.ndarray
    corpus_candidates: list[CandidateFeatures]

    @cached_property
    def corpus_block(self) -> CandidateBlock:
        """The corpus candidate block, built on first use and shared by
        every full-corpus batch and the checkpoint's candidate embeddings."""
        return CandidateBlock.from_features(self.corpus_candidates)

    @classmethod
    def from_records(
        cls, records: Sequence[InteractionRecord], space: FeatureSpace
    ) -> "TrainInputs":
        labels = star_labels(records, space.config)
        candidates = [encode_candidate(r, space) for r in records]
        return cls(
            queries=QueryBlock.from_records(records, space),
            candidates=candidates,
            labels=labels,
            corpus_candidates=sum_candidates(candidates, space),
        )


def _batch(inputs: TrainInputs, idx: np.ndarray, config: TrainConfig) -> Batch:
    """Train rows `idx` as a batch of `config`'s softmax mode."""
    queries = inputs.queries.take(idx)
    cands = [inputs.candidates[i] for i in idx]
    labels = inputs.labels[idx]
    if config.softmax_mode == "full_corpus":
        return Batch.full_corpus(queries, cands, labels, inputs.corpus_block)
    return Batch.in_batch(queries, cands, labels)


def _fit(
    inputs: TrainInputs, config: TrainConfig, params: ModelParams,
    step: Callable[[np.ndarray], tuple],
) -> list[EpochTrace]:
    """Seeded mini-batch Adagrad at `config`'s loss weights. `step(idx)`
    takes a batch's train rows and returns its rating loss, retrieval loss,
    the gradients of the tensors it trains, and the id-table rows to update
    (see `adagrad_step`). Shuffling is seeded with `config.seed`, and each
    epoch's losses average the batch losses seen before each update."""
    n = len(inputs.queries)
    if n == 0:
        raise ValueError("no training examples")
    weights = config.weights
    state = AdagradState.init(params, config.learning_rate, config.epsilon)
    rng = np.random.default_rng(config.seed)
    trace: list[EpochTrace] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sums = np.zeros(2)
        batches = 0
        for start in range(0, n, config.batch_size):
            l_rat, l_ret, grads, rows = step(order[start : start + config.batch_size])
            joint = weights.rating * l_rat + weights.retrieval * l_ret
            require_finite(joint, f"loss at epoch {epoch}")
            adagrad_step(params, grads, state, rows)
            sums += (l_rat, l_ret)
            batches += 1
        mean_rat, mean_ret = sums / batches
        joint = weights.rating * mean_rat + weights.retrieval * mean_ret
        trace.append(EpochTrace(epoch, mean_rat, mean_ret, joint))
    return trace


def train(
    inputs: TrainInputs, space: FeatureSpace, config: TrainConfig
) -> tuple[ModelParams, list[EpochTrace]]:
    """Every tensor trained from a fresh init seeded with `config.seed`, on
    the joint loss at `config.weights`."""
    if config.schedule != "joint":
        raise ValueError(f"train runs the joint schedule, not {config.schedule!r}")
    params = init_params(
        seed=config.seed,
        num_users=space.num_users,
        num_businesses=space.num_businesses,
        k=config.embed_dim,
        use_text=space.config.use_text,
        use_date=space.config.use_date,
        text_buckets=space.config.text_hash_buckets,
    )

    def step(idx):
        batch = _batch(inputs, idx, config)
        return (*loss_and_gradients(batch, params, config.weights), _held_rows(batch, params))

    return params, _fit(inputs, config, params, step)


RETRIEVAL_HEAD_TENSORS = (
    "retrieval_head.user.w",
    "retrieval_head.user.b",
    "retrieval_head.item.w",
    "retrieval_head.item.b",
)


def _tower_outputs(
    inputs: TrainInputs, config: TrainConfig, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """The tower outputs phase 2's softmax reads: row i of the first is train
    row i's user-tower output, and the second holds each train row's
    pair-candidate output (in-batch) or the corpus block's (full corpus).
    The towers run over the train rows in index order, `batch_size` rows at
    a time; a row's output depends only on its own input, so it has the
    bits of the same row in any batch."""
    n = len(inputs.queries)
    user_out = np.empty((n, params.k), dtype=params.dtype)
    in_batch = config.softmax_mode == "in_batch"
    cand_out = (np.empty((n, params.k), dtype=params.dtype) if in_batch
                else forward_candidates(params, inputs.corpus_block).out)
    for start in range(0, n, config.batch_size):
        rows = slice(start, start + config.batch_size)
        user_out[rows] = forward_users(params, inputs.queries.take(rows)).out
        if in_batch:
            pairs = CandidateBlock.from_features(inputs.candidates[rows])
            cand_out[rows] = forward_candidates(params, pairs).out
    return user_out, cand_out


@dataclass
class TwoPhaseResult:
    params: ModelParams
    phase1_params: ModelParams  # snapshot at the end of the pretrain phase
    trace: list[EpochTrace]


def two_phase_train(
    inputs: TrainInputs, space: FeatureSpace, config: TrainConfig
) -> TwoPhaseResult:
    """Rating pretrain (w=1, w'=0), then retrieval finetune (w=0, w'=1) with
    the towers and tables stop-gradiented: only the retrieval head trains in
    phase 2. `config.weights` is not read; `config.schedule` must be two_phase.
    """
    if config.schedule != "two_phase":
        raise ValueError(f"two_phase_train runs the two_phase schedule, not {config.schedule!r}")
    pretrain = replace(config, schedule="joint", weights=LossWeights(1.0, 0.0))
    params, trace1 = train(inputs, space, pretrain)
    phase1 = params.clone()
    phase2 = replace(config, weights=LossWeights(0.0, 1.0))
    user_out, cand_out = _tower_outputs(inputs, config, params)
    pair_business = np.fromiter((c.business_index for c in inputs.candidates), dtype=np.int64,
                                count=len(inputs.candidates))

    def head_step(idx):
        """Only the retrieval head runs and gets gradients (the rating task
        is off, so its loss reads 0), and no id-table row is updated."""
        if config.softmax_mode == "in_batch":
            c_out, true = cand_out[idx], np.arange(len(idx))
        else:
            c_out, true = cand_out, pair_business[idx]
        loss, cache = _retrieval_head(params, user_out[idx], c_out, true)
        grads = {n: np.zeros_like(params.tensors[n]) for n in RETRIEVAL_HEAD_TENSORS}
        _retrieval_head_backward(params, cache, phase2.weights.retrieval, grads)
        return 0.0, loss, grads, None

    trace2 = _fit(inputs, phase2, params, head_step)
    return TwoPhaseResult(params=params, phase1_params=phase1, trace=trace1 + trace2)
