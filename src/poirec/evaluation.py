"""Evaluation: RMSE, top-K categorical accuracy, confusion-matrix stats,
and the Multinomial Naive Bayes stars-from-text baseline.

One scoring path serves `evaluate`, `top_k_accuracy` and `poirec
recommend`: `retrieval_scores` takes user-tower outputs and the [V, k]
candidate embeddings `train` stores, checks every score finite and cuts
the OOV column, index 0, which is not a business. `retrieval_ranks`
counts the candidates ranked above each true one, ties to the lower
index, the order `recommend` lists; every K reads those ranks.
`evaluate` ranks every test query, then makes each review of a business
unseen in training (a cold-start target) a miss at every K. Both RMSE
and ranks read one lookup of each test business and one user-tower pass,
and `evaluate` tokenizes each test review once, when text features or
the baseline need it; the baseline fits on the train reviews with
`np.bincount` over all `mnb_buckets` buckets. `mnb_train` and
`mnb_predict`, which take bucket -> count dicts, are thin adapters over
`mnb_fit` and `mnb_classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, InteractionRecord, temporal_split
from .features import (
    CandidateFeatures,
    FeatureSpace,
    QueryFeatures,
    TextCSR,
    check_field_types,
    counts_csr,
    encode_texts,
    star_labels,
)
from .model import (
    CandidateBlock,
    ModelParams,
    QueryBlock,
    candidate_embeddings,
    forward_candidates,
    forward_users,
    rating_predict,
    require_finite,
    retrieval_project,
)

NUM_CLASSES = 5
MNB_SAMPLE = 1000  # test reviews the baseline's confusion matrix is drawn from


class EmptyInput(Exception):
    pass


class LengthMismatch(Exception):
    pass


@dataclass(frozen=True)
class EvalConfig:
    """The evaluation protocol: the train fraction of the temporal split,
    the cut-offs of top-K accuracy and the MNB baseline's bucket count."""

    split_ratio: float = 0.9
    ks: tuple[int, ...] = (100,)
    mnb_buckets: int = 32768

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must be strictly between 0 and 1: {self.split_ratio}")
        if not self.ks or min(self.ks) < 1:
            raise ValueError(f"ks must be one or more integers >= 1: {self.ks}")
        if self.mnb_buckets < 2:
            raise ValueError(f"mnb_buckets must be at least 2: {self.mnb_buckets}")


def rmse(pairs: np.ndarray) -> float:
    """Root mean squared error over the (predicted, actual) rows of `pairs` [n, 2]."""
    if len(pairs) == 0:
        raise EmptyInput("rmse needs at least one pair")
    arr = np.asarray(pairs, dtype=np.float64)
    return float(np.sqrt(np.mean((arr[:, 0] - arr[:, 1]) ** 2)))


def retrieval_scores(params: ModelParams, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Scores [n, V - 1] of the user-tower outputs `users` [n, k] against
    the [V, k] retrieval-side `candidates` of every vocabulary index; column
    j is business index j + 1. The OOV column is cut after the check that
    every score is finite (else FloatingPointError)."""
    ur = retrieval_project(params, "user", users)
    return require_finite(ur @ candidates.T, "retrieval scores")[:, 1:]


def retrieval_ranks(scores: np.ndarray, true_indices: Sequence[int]) -> np.ndarray:
    """0-based rank of each row's true column in that row of the finite
    score matrix `scores`: its position in the row's stable descending
    sort, #(s > s_true) + #(s == s_true and j < true), so ties go to the
    lower index, exactly as `np.argsort(-row, kind="stable")` orders them.

    One score matrix serves every K: a row hits at K when its rank is below K.
    """
    true = np.asarray(true_indices, dtype=np.int64)
    if len(scores) == 0:
        raise EmptyInput("no queries")
    if len(scores) != len(true):
        raise LengthMismatch("score rows and true indices differ in length")
    n, m = scores.shape
    if true.min() < 0 or true.max() >= m:
        raise ValueError(f"true index out of range for {m} candidates")
    s_true = scores[np.arange(n), true][:, None]
    before = (scores == s_true) & (np.arange(m) < true[:, None])
    return np.count_nonzero(scores > s_true, axis=1) + np.count_nonzero(before, axis=1)


def top_k_hits(scores: np.ndarray, true_index: int, k: int) -> bool:
    """Whether true_index is among the k best scores (ties: lower index wins)."""
    row = require_finite(np.asarray(scores)[None, :], "retrieval scores")
    return bool(retrieval_ranks(row, [true_index])[0] < k)


def _accuracy_at(ranks: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return int((ranks < k).sum()) / len(ranks)


def top_k_accuracy(
    queries: Sequence[QueryFeatures],
    true_indices: Sequence[int],
    candidates: Sequence[CandidateFeatures] | CandidateBlock,
    params: ModelParams,
    k: int,
) -> float:
    """Fraction of queries whose true candidate ranks in the top k."""
    vr = candidate_embeddings(params, candidates)
    users = forward_users(params, QueryBlock.from_features(queries)).out
    # A zero row at index 0 stands in for the OOV entry `retrieval_scores` cuts.
    scores = retrieval_scores(params, users, np.vstack([np.zeros(vr.shape[1], vr.dtype), vr]))
    return _accuracy_at(retrieval_ranks(scores, true_indices), k)


# ---------------------------------------------------------------------------
# Confusion matrix.
# ---------------------------------------------------------------------------


@dataclass
class ClassStats:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [5, 5], true star (row) x predicted star (col)
    per_class: list[ClassStats]
    macro: ClassStats
    weighted: ClassStats

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / max(self.total, 1)

    @property
    def micro(self) -> ClassStats:
        return ClassStats(self.accuracy, self.accuracy, self.accuracy, self.total)

    def rows(self) -> list[tuple[str, str, ClassStats]]:
        """(report key, table label, stats) of each star class, then of the
        micro, macro and weighted averages."""
        rows = [(f"class_{star}", str(star), s) for star, s in enumerate(self.per_class, start=1)]
        for name in ("micro", "macro", "weighted"):
            rows.append((name, f"{name} average", getattr(self, name)))
        return rows

    def table(self) -> str:
        """Aligned text table: precision, recall, f1, support per star class."""
        lines = [f"{'':>18}{'precision':>10}{'recall':>8}{'f1':>6}{'support':>9}"]
        for _, label, s in self.rows():
            lines.append(
                f"{label:>18}{s.precision:>10.2f}{s.recall:>8.2f}{s.f1:>6.2f}{s.support:>9}"
            )
        return "\n".join(lines)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def confusion_matrix(true_stars: Sequence[int], predicted_stars: Sequence[int]) -> ConfusionMatrix:
    """Counts plus per-class and micro/macro/weighted precision/recall/F1.

    Precision of a never-predicted class is defined as 0.
    """
    if len(true_stars) != len(predicted_stars):
        raise LengthMismatch("true and predicted differ in length")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for t, p in zip(true_stars, predicted_stars):
        if not (1 <= t <= 5 and 1 <= p <= 5):
            raise ValueError(f"star out of range: true={t} predicted={p}")
        counts[t - 1, p - 1] += 1

    per_class = []
    for c in range(NUM_CLASSES):
        tp = counts[c, c]
        col = counts[:, c].sum()
        row = counts[c, :].sum()
        precision = float(tp / col) if col else 0.0
        recall = float(tp / row) if row else 0.0
        per_class.append(ClassStats(precision, recall, _f1(precision, recall), int(row)))

    total = int(counts.sum())
    macro = ClassStats(
        float(np.mean([s.precision for s in per_class])),
        float(np.mean([s.recall for s in per_class])),
        float(np.mean([s.f1 for s in per_class])),
        total,
    )
    weighted = ClassStats(
        sum(s.precision * s.support for s in per_class) / max(total, 1),
        sum(s.recall * s.support for s in per_class) / max(total, 1),
        sum(s.f1 * s.support for s in per_class) / max(total, 1),
        total,
    )
    return ConfusionMatrix(counts, per_class, macro, weighted)


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes baseline (stars from review text).
# ---------------------------------------------------------------------------


@dataclass
class MnbModel:
    classes: list[int]  # observed star classes, ascending
    log_prior: np.ndarray  # [n_classes]
    log_likelihood: np.ndarray  # [n_classes, vocab_size]


def mnb_fit(
    stars: Sequence[int],
    indptr: np.ndarray,
    buckets: np.ndarray,
    counts: np.ndarray,
    vocab_size: int,
    alpha: float = 1.0,
) -> MnbModel:
    """Fit per-class priors and Laplace-smoothed token-bucket likelihoods.

    Document d has star class stars[d] and the (bucket, count) entries
    indptr[d]:indptr[d+1] over a hashed vocabulary of vocab_size buckets.
    """
    if len(stars) == 0:
        raise EmptyInput("no training documents")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if buckets.size and (buckets.min() < 0 or buckets.max() >= vocab_size):
        raise ValueError(f"bucket outside a vocabulary of {vocab_size}")
    classes, doc_class = np.unique(np.asarray(stars, dtype=np.int64), return_inverse=True)
    n_classes = len(classes)
    doc_counts = np.bincount(doc_class, minlength=n_classes).astype(np.float64)
    entry_class = np.repeat(doc_class, np.diff(indptr))
    try:
        token_counts = np.bincount(
            entry_class * vocab_size + buckets, weights=counts, minlength=n_classes * vocab_size
        ).reshape(n_classes, vocab_size)
    except (ValueError, OverflowError) as exc:  # numpy refuses a size it cannot index
        raise MemoryError(f"cannot allocate {n_classes} x {vocab_size} counts: {exc}") from None
    log_prior = np.log(doc_counts / doc_counts.sum())
    totals = token_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((token_counts + alpha) / (totals + alpha * vocab_size))
    return MnbModel(classes=classes.tolist(), log_prior=log_prior, log_likelihood=log_likelihood)


def mnb_classify(
    model: MnbModel,
    indptr: np.ndarray,
    buckets: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Most probable star class of each document in `rows` (CSR as in
    `mnb_fit`); ties resolve to the lowest class.

    A document's score adds c * log_likelihood[:, b] to the log prior one
    entry at a time, in the document's entry order, so every document sums
    in the same order however many are scored together.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    scores = np.tile(model.log_prior, (len(rows), 1))
    by_bucket = model.log_likelihood.T
    for j in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > j)
        at = starts[live] + j
        scores[live] += counts[at, None] * by_bucket[buckets[at]]
    return np.asarray(model.classes)[np.argmax(scores, axis=1)]


def mnb_train(
    documents: Sequence[tuple[Mapping[int, int], int]],
    vocab_size: int,
    alpha: float = 1.0,
) -> MnbModel:
    """`mnb_fit` on (bucket -> count, star class) pairs over a hashed
    vocabulary of vocab_size buckets."""
    indptr, buckets, counts = counts_csr([d for d, _ in documents])
    return mnb_fit([s for _, s in documents], indptr, buckets, counts, vocab_size, alpha)


def mnb_predict(model: MnbModel, counts: Mapping[int, int]) -> int:
    """Most probable star class of one bucket -> count document."""
    return int(mnb_classify(model, *counts_csr([counts]), np.zeros(1, dtype=np.int64))[0])


# ---------------------------------------------------------------------------
# End-to-end report.
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    rmse: float
    top_k: dict[int, float]
    example_count: int
    label_scale: str
    rating_weight: Optional[float] = None
    retrieval_weight: Optional[float] = None
    confusion: Optional[ConfusionMatrix] = None

    def lines(self) -> list[str]:
        """Machine-readable key=value form with stable key names."""
        out = [
            f"rmse={self.rmse:.6f}",
            f"examples={self.example_count}",
            f"label_scale={self.label_scale}",
        ]
        if self.rating_weight is not None:
            out.append(f"rating_weight={self.rating_weight:.6f}")
        if self.retrieval_weight is not None:
            out.append(f"retrieval_weight={self.retrieval_weight:.6f}")
        for k in sorted(self.top_k):
            out.append(f"top_k.{k}={self.top_k[k]:.6f}")
        if self.confusion is not None:
            for key, _, s in self.confusion.rows():
                out.append(f"confusion.{key}.precision={s.precision:.6f}")
                out.append(f"confusion.{key}.recall={s.recall:.6f}")
                out.append(f"confusion.{key}.f1={s.f1:.6f}")
                out.append(f"confusion.{key}.support={s.support}")
        return out

    def text(self) -> str:
        body = "\n".join(self.lines())
        if self.confusion is not None:
            body += "\n" + self.confusion.table()
        return body + "\n"


def _rating_predictions(
    params: ModelParams,
    users: np.ndarray,
    business_idx: Sequence[int],
    space: FeatureSpace,
    text: Optional[TextCSR],
) -> np.ndarray:
    """Predicted ratings from user-tower outputs `users`, business indices
    and `text`, their `encode_texts`, read only when text features are on."""
    text = text if space.config.use_text else None
    block = CandidateBlock.from_text(business_idx, text, space.config.text_hash_buckets)
    v = forward_candidates(params, block).out
    return require_finite(rating_predict(params, users, v), "rating predictions")


def predict_ratings(
    params: ModelParams, records: Sequence[InteractionRecord], space: FeatureSpace
) -> list[tuple[float, float]]:
    """(predicted, actual) rating pairs for a list of records."""
    text = encode_texts(r.text for r in records) if space.config.use_text else None
    users = forward_users(params, QueryBlock.from_records(records, space)).out
    business_idx = [space.business_vocab.lookup(r.business_id) for r in records]
    preds = _rating_predictions(params, users, business_idx, space, text)
    return [(float(p), float(l)) for p, l in zip(preds, star_labels(records, space.config))]


def evaluate(
    params: ModelParams,
    candidates: np.ndarray,
    corpus: Corpus,
    space: FeatureSpace,
    config: EvalConfig = EvalConfig(),  # frozen, so one shared default is safe
    *,
    mnb: bool = False,
    seed: int = 0,
    rating_weight: Optional[float] = None,
    retrieval_weight: Optional[float] = None,
) -> MetricsReport:
    """Rating RMSE and top-K retrieval accuracy on the test partition of
    `corpus` split at `config.split_ratio`.

    Ranks against `candidates`, the [V, k] retrieval-side embeddings that
    `train` stores (row i is business index i; row 0, the OOV entry, is
    never ranked). With mnb=True, also fits the stars-from-text baseline on
    train reviews and attaches its confusion matrix over a `seed`ed sample
    of at most MNB_SAMPLE test reviews.
    """
    if candidates.shape != (space.num_businesses, params.k):
        raise ValueError(f"candidates {candidates.shape}, not {(space.num_businesses, params.k)}")
    split = temporal_split(corpus, config.split_ratio)
    test_records = [corpus.records[i] for i in split.test]

    test_text = None
    if space.config.use_text or mnb:
        test_text = encode_texts(r.text for r in test_records)
    queries = QueryBlock.from_records(test_records, space)
    users = forward_users(params, queries).out
    lookup = space.business_vocab.lookup
    business_idx = np.array([lookup(r.business_id) for r in test_records], dtype=np.int64)
    preds = _rating_predictions(params, users, business_idx, space, test_text)
    error = rmse(np.column_stack([preds, star_labels(test_records, space.config)]))

    scores = retrieval_scores(params, users, candidates)
    ranks = retrieval_ranks(scores, np.maximum(business_idx - 1, 0))  # column j: business j + 1
    ranks[business_idx == 0] = np.iinfo(ranks.dtype).max  # a cold-start target misses at every K
    top_k = {int(k): _accuracy_at(ranks, int(k)) for k in config.ks}

    confusion = None
    if mnb:
        if config.mnb_buckets > 1 << 63:  # int64 holds no bucket index past 2**63 - 1
            raise MemoryError(f"cannot allocate counts over {config.mnb_buckets} buckets")
        train_records = [corpus.records[i] for i in split.train]
        train_text = encode_texts(r.text for r in train_records)
        # The hashed vocabulary is the whole bucket space, so a test review
        # may hold buckets no train review has.
        model = mnb_fit(
            [r.stars for r in train_records],
            train_text.indptr,
            train_text.buckets(config.mnb_buckets),
            train_text.counts,
            vocab_size=config.mnb_buckets,
        )
        rng = np.random.default_rng(seed)
        n = len(test_records)
        sample_idx = np.sort(rng.choice(n, size=min(MNB_SAMPLE, n), replace=False))
        predicted = mnb_classify(model, *test_text.bucket_rows(config.mnb_buckets), sample_idx)
        confusion = confusion_matrix(
            [test_records[i].stars for i in sample_idx], predicted.tolist()
        )

    return MetricsReport(
        rmse=error,
        top_k=top_k,
        example_count=len(test_records),
        label_scale=space.config.label_scale,
        rating_weight=rating_weight,
        retrieval_weight=retrieval_weight,
        confusion=confusion,
    )
