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

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .features import CandidateFeatures, FeatureConfig, QueryFeatures, TextCSR, counts_csr

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
        return ModelParams(
            k=self.k,
            use_text=self.use_text,
            use_date=self.use_date,
            tensors={n: t.astype(dtype) for n, t in self.tensors.items()},
        )

    @property
    def dtype(self):
        return self.tensors["user_table"].dtype

    def zeros_like_tensors(self) -> dict[str, np.ndarray]:
        return {n: np.zeros_like(t) for n, t in self.tensors.items()}


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
    dtype=np.float32,
) -> ModelParams:
    """Seeded init: weights/embeddings uniform +-1/sqrt(fan_in), biases zero.
    An embedding row's fan-in is k, a weight matrix's its input width."""
    if min(num_users, num_businesses, k) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(num_users, num_businesses, k, use_text, text_buckets).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / np.sqrt(k if name.endswith("_table") else shape[0])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
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


@dataclass
class TowerCache:
    """Forward intermediates needed by backprop."""

    x: np.ndarray  # tower input [n, d_in]
    pre1: np.ndarray  # hidden preactivation [n, 2k]
    h1: np.ndarray  # hidden activation [n, 2k]
    out: np.ndarray  # tower output [n, k]


def _tower_forward(params: ModelParams, prefix: str, x: np.ndarray) -> TowerCache:
    t = params.tensors
    pre1 = x @ t[f"{prefix}.0.w"] + t[f"{prefix}.0.b"]
    h1 = np.maximum(pre1, 0)
    out = h1 @ t[f"{prefix}.1.w"] + t[f"{prefix}.1.b"]
    return TowerCache(x=x, pre1=pre1, h1=h1, out=out)


def _embed(params: ModelParams, table_name: str, idx: np.ndarray) -> np.ndarray:
    """Rows `idx` of an embedding table; any index outside it raises."""
    table = params.tensors[table_name]
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexOutOfBounds(f"index outside the {table.shape[0]} rows of {table_name}")
    return table[idx]


def forward_users(params: ModelParams, block: QueryBlock) -> TowerCache:
    user = _embed(params, "user_table", block.user_idx)
    x = np.concatenate([user, block.date.astype(params.dtype)], axis=1)
    return _tower_forward(params, "user_tower", x)


def pooled_text(params: ModelParams, block: CandidateBlock) -> np.ndarray:
    """Count-weighted mean of text-bucket embeddings, zero where no text."""
    if not params.use_text or block.buckets.size == 0:
        return np.zeros((len(block), params.k), dtype=params.dtype)
    table = params.tensors["text_table"]
    return block.pooling_matrix(table.shape[0], params.dtype) @ table


def forward_candidates(params: ModelParams, block: CandidateBlock) -> TowerCache:
    business = _embed(params, "business_table", block.business_idx)
    x = np.concatenate([business, pooled_text(params, block)], axis=1)
    return _tower_forward(params, "business_tower", x)


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


def user_encode(x: QueryFeatures, params: ModelParams, task: str = "retrieval") -> np.ndarray:
    """Encode one query into the common k-space (retrieval head iff asked)."""
    cache = forward_users(params, QueryBlock.from_features([x]))
    out = cache.out
    if task == "retrieval":
        out = retrieval_project(params, "user", out)
    return out[0]


def location_encode(
    y: CandidateFeatures, params: ModelParams, task: str = "retrieval"
) -> np.ndarray:
    cache = forward_candidates(params, CandidateBlock.from_features([y]))
    out = cache.out
    if task == "retrieval":
        out = retrieval_project(params, "item", out)
    return out[0]


def score(
    x: QueryFeatures, y: CandidateFeatures, params: ModelParams, task: str = "retrieval"
) -> float:
    """Dot-product affinity (retrieval) or calibrated rating prediction."""
    if task == "rating":
        u = user_encode(x, params, task="rating")
        v = location_encode(y, params, task="rating")
        return float(rating_predict(params, u[None, :], v[None, :])[0])
    u = user_encode(x, params, task="retrieval")
    v = location_encode(y, params, task="retrieval")
    return float(u @ v)


def score_all(
    x: QueryFeatures,
    candidates: Sequence[CandidateFeatures] | CandidateBlock,
    params: ModelParams,
) -> np.ndarray:
    """Retrieval scores of one query against every candidate."""
    return candidate_embeddings(params, candidates) @ user_encode(x, params, task="retrieval")


def candidate_embeddings(
    params: ModelParams, candidates: Sequence[CandidateFeatures] | CandidateBlock
) -> np.ndarray:
    """Precompute retrieval-side candidate embeddings [m, k]."""
    if not isinstance(candidates, CandidateBlock):
        candidates = CandidateBlock.from_features(candidates)
    return retrieval_project(params, "item", forward_candidates(params, candidates).out)
