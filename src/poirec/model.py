"""Two-tower network: embedding tables, tower MLPs, task heads, dot scoring.

Both towers map their inputs into a common k-dimensional space. The
retrieval score is the dot product of the two tower outputs after each
passes its retrieval-head projection; the rating prediction is a dense
head over the elementwise product of the raw tower outputs, so the rating
task can calibrate scale and offset onto the star range.

Tower shape (fixed): input -> 2k hidden with rectifier -> linear k.
User tower input is user embedding (+3 date slots, zeroed when absent);
business tower input is business embedding (+k pooled text slots, zeroed
when absent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import InteractionRecord
from .features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    TextCSR,
    counts_csr,
    encode_dates,
)

DATE_DIM = 3


class IndexOutOfBounds(Exception):
    pass


@dataclass
class ModelParams:
    """All trainable tensors, addressed by name.

    Names: user_table, business_table, text_table (iff use_text),
    {user,business}_tower.{0,1}.{w,b}, rating_head.{w,b},
    retrieval_head.{user,item}.{w,b}.
    """

    k: int
    use_text: bool
    use_date: bool
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def clone(self) -> "ModelParams":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "ModelParams":
        return replace(self, tensors={n: t.astype(dtype) for n, t in self.tensors.items()})

    @property
    def dtype(self):
        return self.tensors["user_table"].dtype

    def zeros_like_tensors(self) -> dict[str, np.ndarray]:
        return {n: np.zeros(t.shape, dtype=t.dtype) for n, t in self.tensors.items()}


def param_shapes(
    num_users: int, num_businesses: int, k: int, use_text: bool, text_buckets: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, in initialization order."""
    shapes = {"user_table": (num_users, k), "business_table": (num_businesses, k)}
    if use_text:
        shapes["text_table"] = (text_buckets, k)
    for name, d_in, d_out in (
        ("user_tower.0", k + DATE_DIM, 2 * k),
        ("user_tower.1", 2 * k, k),
        ("business_tower.0", 2 * k, 2 * k),
        ("business_tower.1", 2 * k, k),
        ("rating_head", k, 1),
        ("retrieval_head.user", k, k),
        ("retrieval_head.item", k, k),
    ):
        shapes[f"{name}.w"] = (d_in, d_out)
        shapes[f"{name}.b"] = (d_out,)
    return shapes


def init_params(
    seed: int,
    num_users: int,
    num_businesses: int,
    k: int,
    use_text: bool = FeatureConfig.use_text,
    use_date: bool = FeatureConfig.use_date,
    text_buckets: int = FeatureConfig.text_hash_buckets,
) -> ModelParams:
    """Seeded float32 init: weights/embeddings uniform +-1/sqrt(fan_in), biases
    zero. An embedding row's fan-in is k, a weight matrix's its input width."""
    if min(num_users, num_businesses, k) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(num_users, num_businesses, k, use_text, text_buckets).items():
        try:
            if name.endswith(".b"):
                tensors[name] = np.zeros(shape, dtype=np.float32)
            else:
                bound = 1.0 / math.sqrt(k if name.endswith("_table") else shape[0])
                tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        except (ValueError, OverflowError) as exc:  # a size numpy or a float cannot hold
            raise MemoryError(f"cannot allocate tensor {name} of shape {shape}: {exc}") from None
    return ModelParams(k=k, use_text=use_text, use_date=use_date, tensors=tensors)


# ---------------------------------------------------------------------------
# Batched feature blocks and forward passes (shared with the trainer).
# ---------------------------------------------------------------------------


@dataclass
class QueryBlock:
    user_idx: np.ndarray  # [n] int
    date: np.ndarray  # [n, 3] float64 (zeros when absent)

    @classmethod
    def from_features(cls, queries: Sequence[QueryFeatures]) -> "QueryBlock":
        n = len(queries)
        user_idx = np.fromiter((q.user_index for q in queries), dtype=np.int64, count=n)
        date = np.zeros((n, DATE_DIM), dtype=np.float64)
        for i, q in enumerate(queries):
            if q.date_features is not None:
                date[i, :] = q.date_features
        return cls(user_idx=user_idx, date=date)

    @classmethod
    def from_records(
        cls, records: Sequence[InteractionRecord], space: FeatureSpace
    ) -> "QueryBlock":
        """The query rows of `records`, as `encode_query` gives them: the
        user index, and `encode_dates` when date features are on."""
        n = len(records)
        lookup = space.user_vocab.lookup
        user_idx = np.fromiter((lookup(r.user_id) for r in records), dtype=np.int64, count=n)
        if not space.config.use_date:
            return cls(user_idx=user_idx, date=np.zeros((n, DATE_DIM), dtype=np.float64))
        days = np.fromiter((r.date_days for r in records), dtype=np.int64, count=n)
        return cls(user_idx=user_idx, date=encode_dates(days, space.date_min, space.date_max))

    def __len__(self) -> int:
        return len(self.user_idx)

    def take(self, idx: np.ndarray) -> "QueryBlock":
        """Rows `idx` of this block, in that order."""
        return QueryBlock(user_idx=self.user_idx[idx], date=self.date[idx])


@dataclass
class CandidateBlock:
    """CSR-style layout of sparse per-candidate text counts.

    Within a row each bucket appears at most once. Text pooling is the
    fixed linear operator `pooling_matrix`, built once per block.
    """

    business_idx: np.ndarray  # [m] int
    indptr: np.ndarray  # [m+1] int
    buckets: np.ndarray  # [nnz] int
    counts: np.ndarray  # [nnz] float64
    _pooling: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_features(cls, candidates: Sequence[CandidateFeatures]) -> "CandidateBlock":
        business_idx = np.fromiter(
            (c.business_index for c in candidates), dtype=np.int64, count=len(candidates)
        )
        indptr, buckets, counts = counts_csr([c.text_counts for c in candidates])
        return cls(business_idx, indptr, buckets, counts.astype(np.float64))

    @classmethod
    def from_text(
        cls, business_idx: Sequence[int], text: Optional[TextCSR], num_buckets: int
    ) -> "CandidateBlock":
        """Row i is business business_idx[i] with the hashed text of review
        i (see `TextCSR.bucket_rows`); no text when `text` is None."""
        business_idx = np.asarray(business_idx, dtype=np.int64)
        m = len(business_idx)
        if text is None:
            return cls(business_idx, np.zeros(m + 1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        if len(text) != m:
            raise ValueError(f"{len(text)} reviews for {m} candidates")
        indptr, buckets, counts = text.bucket_rows(num_buckets)
        return cls(business_idx, indptr, buckets, counts.astype(np.float64))

    def __len__(self) -> int:
        return len(self.business_idx)

    def pooling_matrix(self, num_buckets: int, dtype) -> np.ndarray:
        """Dense row-normalised P[m, num_buckets] (count / row total; a row
        without text is all zero), so pooled text is P @ text_table.

        Built on first use and kept for the block's lifetime: m *
        num_buckets entries of `dtype`.
        """
        key = (num_buckets, np.dtype(dtype))
        pool = self._pooling.get(key)
        if pool is None:
            m = len(self)
            rows = np.repeat(np.arange(m), np.diff(self.indptr))
            totals = np.bincount(rows, weights=self.counts, minlength=m)
            totals[totals == 0] = 1.0  # a row of zero counts pools to zero
            pool = np.zeros((m, num_buckets), dtype=dtype)
            pool[rows, self.buckets] = self.counts / totals[rows]
            self._pooling[key] = pool
        return pool


def _add_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """table[rows[i]] += values[i] for each i in turn, bit for bit as a 2-D
    np.add.at does: one 1-D scatter over the flat elements gives each
    element its addends in the same order, at about a third of the cost.
    `table` is C-contiguous (`zeros_like_tensors`), so reshape(-1) is a view."""
    k = table.shape[1]
    flat = (rows[:, None] * k + np.arange(k)).reshape(-1)
    np.add.at(table.reshape(-1), flat, values.reshape(-1))


@dataclass
class TowerCache:
    """One tower's forward intermediates, and its input layout for the
    backward: x[:, :k] is rows `rows` of `{side}_table`; x[:, k:] is the
    date (user) or `pool @ text_table` (business; zero when `pool` is None)."""

    side: str  # "user" | "business"
    x: np.ndarray  # tower input [n, d_in]
    pre1: np.ndarray  # hidden preactivation [n, 2k]
    h1: np.ndarray  # hidden activation [n, 2k]
    out: np.ndarray  # tower output [n, k]
    rows: np.ndarray  # [n] int
    pool: Optional[np.ndarray] = None  # [n, text buckets]

    def backward(self, params: ModelParams, d_out: np.ndarray, grads: dict) -> None:
        """Add to `grads` what the gradient `d_out` w.r.t. the tower output
        gives the tower and the tables it read. Dates are not parameters."""
        t = params.tensors
        prefix = f"{self.side}_tower"
        grads[f"{prefix}.1.w"] += self.h1.T @ d_out
        grads[f"{prefix}.1.b"] += d_out.sum(axis=0)
        d_h1 = (d_out @ t[f"{prefix}.1.w"].T) * (self.pre1 > 0)
        grads[f"{prefix}.0.w"] += self.x.T @ d_h1
        grads[f"{prefix}.0.b"] += d_h1.sum(axis=0)
        d_x = d_h1 @ t[f"{prefix}.0.w"].T
        k = params.k
        _add_rows(grads[f"{self.side}_table"], self.rows, d_x[:, :k])
        if self.pool is not None:
            grads["text_table"] += self.pool.T @ d_x[:, k:]


def _tower_forward(params: ModelParams, side: str, rows: np.ndarray, rest: np.ndarray,
                   pool: Optional[np.ndarray] = None) -> TowerCache:
    """`side`'s tower over the input [rows `rows` of `{side}_table`, `rest`];
    a row outside the table raises."""
    t = params.tensors
    table = t[f"{side}_table"]
    if rows.size and (rows.min() < 0 or rows.max() >= table.shape[0]):
        raise IndexOutOfBounds(f"index outside the {table.shape[0]} rows of {side}_table")
    x = np.concatenate([table[rows], rest], axis=1)
    prefix = f"{side}_tower"
    pre1 = x @ t[f"{prefix}.0.w"] + t[f"{prefix}.0.b"]
    h1 = np.maximum(pre1, 0)
    out = h1 @ t[f"{prefix}.1.w"] + t[f"{prefix}.1.b"]
    return TowerCache(side=side, x=x, pre1=pre1, h1=h1, out=out, rows=rows, pool=pool)


def forward_users(params: ModelParams, block: QueryBlock) -> TowerCache:
    return _tower_forward(params, "user", block.user_idx, block.date.astype(params.dtype))


def _text_pool(params: ModelParams, block: CandidateBlock) -> Optional[np.ndarray]:
    """`block`'s pooling matrix over the text table, or None when its text
    does not count: the model has no text, or the block no bucket."""
    if not params.use_text or block.buckets.size == 0:
        return None
    return block.pooling_matrix(params.tensors["text_table"].shape[0], params.dtype)


def pooled_text(params: ModelParams, block: CandidateBlock) -> np.ndarray:
    """Count-weighted mean of text-bucket embeddings, zero where no text."""
    pool = _text_pool(params, block)
    if pool is None:
        return np.zeros((len(block), params.k), dtype=params.dtype)
    return pool @ params.tensors["text_table"]


def forward_candidates(params: ModelParams, block: CandidateBlock) -> TowerCache:
    return _tower_forward(params, "business", block.business_idx, pooled_text(params, block),
                          _text_pool(params, block))


def retrieval_project(params: ModelParams, side: str, out: np.ndarray) -> np.ndarray:
    t = params.tensors
    return out @ t[f"retrieval_head.{side}.w"] + t[f"retrieval_head.{side}.b"]


def rating_predict(params: ModelParams, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rating head over the elementwise product of the tower outputs."""
    t = params.tensors
    return ((u * v) @ t["rating_head.w"] + t["rating_head.b"])[:, 0]


def require_finite(values, what: str):
    """`values`, unless one is NaN or infinite: then FloatingPointError
    "non-finite <what>", which the CLI reports with exit 1."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {what}")
    return values


# ---------------------------------------------------------------------------
# Single-example contract surface.
# ---------------------------------------------------------------------------


def _for_task(params: ModelParams, side: str, out: np.ndarray, task: str) -> np.ndarray:
    """Row 0 of `out`, through `side`'s retrieval head iff `task` is retrieval."""
    if task == "retrieval":
        out = retrieval_project(params, side, out)
    elif task != "rating":
        raise ValueError(f"task must be 'retrieval' or 'rating', not {task!r}")
    return out[0]


def user_encode(x: QueryFeatures, params: ModelParams, task: str = "retrieval") -> np.ndarray:
    """Encode one query into the common k-space (retrieval head iff asked)."""
    cache = forward_users(params, QueryBlock.from_features([x]))
    return _for_task(params, "user", cache.out, task)


def location_encode(
    y: CandidateFeatures, params: ModelParams, task: str = "retrieval"
) -> np.ndarray:
    cache = forward_candidates(params, CandidateBlock.from_features([y]))
    return _for_task(params, "item", cache.out, task)


def score(
    x: QueryFeatures, y: CandidateFeatures, params: ModelParams, task: str = "retrieval"
) -> float:
    """Dot-product affinity (retrieval) or calibrated rating prediction."""
    u = user_encode(x, params, task)
    v = location_encode(y, params, task)
    if task == "rating":
        rating = rating_predict(params, u[None, :], v[None, :])[0]
        return float(require_finite(rating, "rating predictions"))
    return float(require_finite(u @ v, "retrieval scores"))


def score_all(
    x: QueryFeatures,
    candidates: Sequence[CandidateFeatures] | CandidateBlock,
    params: ModelParams,
) -> np.ndarray:
    """Retrieval scores of one query against every candidate."""
    scores = candidate_embeddings(params, candidates) @ user_encode(x, params, task="retrieval")
    return require_finite(scores, "retrieval scores")


def candidate_embeddings(
    params: ModelParams, candidates: Sequence[CandidateFeatures] | CandidateBlock
) -> np.ndarray:
    """Precompute retrieval-side candidate embeddings [m, k]."""
    if not isinstance(candidates, CandidateBlock):
        candidates = CandidateBlock.from_features(candidates)
    return retrieval_project(params, "item", forward_candidates(params, candidates).out)
