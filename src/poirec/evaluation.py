"""Evaluation: RMSE, top-K categorical accuracy, confusion-matrix stats,
and the Multinomial Naive Bayes stars-from-text baseline.

Top-K accuracy scores every test query against the full business corpus
(brute-force maximum inner product) once, counts the candidates ranked
above each true business, ties broken by ascending business index, and
reads every K from those ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, InteractionRecord, TemporalSplit
from .features import (
    CandidateFeatures,
    FeatureSpace,
    QueryFeatures,
    aggregate_candidates,
    encode_candidate,
    encode_query,
    text_bucket_counts,
)
from .model import (
    CandidateBlock,
    ModelParams,
    QueryBlock,
    forward_candidates,
    forward_users,
    rating_predict,
    retrieval_project,
)

NUM_CLASSES = 5


class EmptyInput(Exception):
    pass


class LengthMismatch(Exception):
    pass


def rmse(pairs: Sequence[tuple[float, float]]) -> float:
    """Root mean squared error over (predicted, actual) pairs."""
    if len(pairs) == 0:
        raise EmptyInput("rmse needs at least one pair")
    arr = np.asarray(pairs, dtype=np.float64)
    return float(np.sqrt(np.mean((arr[:, 0] - arr[:, 1]) ** 2)))


def _true_ranks(scores: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Position of each row's true column in that row's stable descending
    sort: #(s > s_true) + #(s == s_true and j < true), so ties go to the
    lower index, exactly as `np.argsort(-row, kind="stable")` orders them.
    """
    if not np.isfinite(scores).all():
        raise FloatingPointError("non-finite retrieval scores")
    n, m = scores.shape
    if true.size and (true.min() < 0 or true.max() >= m):
        raise ValueError(f"true index out of range for {m} candidates")
    s_true = scores[np.arange(n), true][:, None]
    before = (scores == s_true) & (np.arange(m) < true[:, None])
    return np.count_nonzero(scores > s_true, axis=1) + np.count_nonzero(before, axis=1)


def top_k_hits(scores: np.ndarray, true_index: int, k: int) -> bool:
    """Whether true_index is among the k best scores (ties: lower index wins)."""
    row = np.asarray(scores)[None, :]
    return bool(_true_ranks(row, np.array([true_index]))[0] < k)


def retrieval_ranks(
    queries: Sequence[QueryFeatures],
    true_indices: Sequence[int],
    candidates: Sequence[CandidateFeatures] | CandidateBlock,
    params: ModelParams,
) -> np.ndarray:
    """0-based rank of each query's true candidate among all candidates.

    One score matrix serves every K: a query hits at K when its rank is
    below K. Non-finite scores raise FloatingPointError.
    """
    if len(queries) == 0:
        raise EmptyInput("no queries")
    if len(queries) != len(true_indices):
        raise LengthMismatch("queries and true indices differ in length")
    if not isinstance(candidates, CandidateBlock):
        candidates = CandidateBlock.from_features(candidates)
    ur = retrieval_project(
        params, "user", forward_users(params, QueryBlock.from_features(queries)).out
    )
    vr = retrieval_project(params, "item", forward_candidates(params, candidates).out)
    ranks = _true_ranks(ur @ vr.T, np.asarray(true_indices, dtype=np.int64))
    return ranks.astype(np.int64, copy=False)


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
    return _accuracy_at(retrieval_ranks(queries, true_indices, candidates, params), k)


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
    per_class: list[ClassStats] = field(default_factory=list)
    micro: Optional[ClassStats] = None
    macro: Optional[ClassStats] = None
    weighted: Optional[ClassStats] = None

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / max(self.total, 1)

    def table(self) -> str:
        """Aligned text table: precision, recall, f1, support per star class."""
        lines = [f"{'':>18}{'precision':>10}{'recall':>8}{'f1':>6}{'support':>9}"]
        for star, s in enumerate(self.per_class, start=1):
            lines.append(
                f"{star:>18}{s.precision:>10.2f}{s.recall:>8.2f}{s.f1:>6.2f}{s.support:>9}"
            )
        for name, s in (("micro", self.micro), ("macro", self.macro), ("weighted", self.weighted)):
            lines.append(
                f"{name + ' average':>18}{s.precision:>10.2f}{s.recall:>8.2f}{s.f1:>6.2f}{s.support:>9}"
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
    acc = float(np.trace(counts)) / total if total else 0.0
    micro = ClassStats(acc, acc, acc, total)
    macro = ClassStats(
        float(np.mean([s.precision for s in per_class])),
        float(np.mean([s.recall for s in per_class])),
        float(np.mean([s.f1 for s in per_class])),
        total,
    )
    if total:
        weighted = ClassStats(
            sum(s.precision * s.support for s in per_class) / total,
            sum(s.recall * s.support for s in per_class) / total,
            sum(s.f1 * s.support for s in per_class) / total,
            total,
        )
    else:
        weighted = ClassStats(0.0, 0.0, 0.0, 0)
    return ConfusionMatrix(
        counts=counts, per_class=per_class, micro=micro, macro=macro, weighted=weighted
    )


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes baseline (stars from review text).
# ---------------------------------------------------------------------------


@dataclass
class MnbModel:
    classes: list[int]  # observed star classes, ascending
    log_prior: np.ndarray  # [n_classes]
    log_likelihood: np.ndarray  # [n_classes, vocab_size]

    @property
    def vocab_size(self) -> int:
        return self.log_likelihood.shape[1]


def mnb_train(
    documents: Sequence[tuple[Mapping[int, int], int]],
    alpha: float = 1.0,
    vocab_size: Optional[int] = None,
) -> MnbModel:
    """Fit per-class priors and Laplace-smoothed token-bucket likelihoods.

    documents: (bucket -> count, star class) pairs over a hashed vocabulary.
    """
    if len(documents) == 0:
        raise EmptyInput("no training documents")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if vocab_size is None:
        vocab_size = 1 + max(
            (b for counts, _ in documents for b in counts), default=0
        )
    classes = sorted({star for _, star in documents})
    class_pos = {c: i for i, c in enumerate(classes)}
    doc_counts = np.zeros(len(classes))
    token_counts = np.zeros((len(classes), vocab_size))
    for counts, star in documents:
        i = class_pos[star]
        doc_counts[i] += 1
        for bucket, c in counts.items():
            token_counts[i, bucket] += c
    log_prior = np.log(doc_counts / doc_counts.sum())
    totals = token_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((token_counts + alpha) / (totals + alpha * vocab_size))
    return MnbModel(classes=classes, log_prior=log_prior, log_likelihood=log_likelihood)


def mnb_predict(model: MnbModel, counts: Mapping[int, int]) -> int:
    """Most probable star class; ties resolve to the lowest class."""
    scores = model.log_prior.copy()
    for bucket, c in counts.items():
        scores += c * model.log_likelihood[:, bucket]
    return model.classes[int(np.argmax(scores))]


# ---------------------------------------------------------------------------
# End-to-end report.
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    rmse: float
    top_k: dict[int, float]
    example_count: int
    label_scale: str = "raw"
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
            for star, s in enumerate(self.confusion.per_class, start=1):
                out.append(f"confusion.class_{star}.precision={s.precision:.6f}")
                out.append(f"confusion.class_{star}.recall={s.recall:.6f}")
                out.append(f"confusion.class_{star}.f1={s.f1:.6f}")
                out.append(f"confusion.class_{star}.support={s.support}")
            for name, s in (
                ("micro", self.confusion.micro),
                ("macro", self.confusion.macro),
                ("weighted", self.confusion.weighted),
            ):
                out.append(f"confusion.{name}.precision={s.precision:.6f}")
                out.append(f"confusion.{name}.recall={s.recall:.6f}")
                out.append(f"confusion.{name}.f1={s.f1:.6f}")
                out.append(f"confusion.{name}.support={s.support}")
        return out

    def text(self) -> str:
        body = "\n".join(self.lines())
        if self.confusion is not None:
            body += "\n" + self.confusion.table()
        return body + "\n"


def predict_ratings(
    params: ModelParams,
    records: Sequence[InteractionRecord],
    space: FeatureSpace,
    label_scale: str = "raw",
) -> list[tuple[float, float]]:
    """(predicted, actual) rating pairs for a list of records."""
    queries = [encode_query(r, space) for r in records]
    cands = [encode_candidate(r, space) for r in records]
    u = forward_users(params, QueryBlock.from_features(queries)).out
    v = forward_candidates(params, CandidateBlock.from_features(cands)).out
    preds = rating_predict(params, u, v)
    labels = np.array([float(r.stars) for r in records])
    if label_scale == "normalized":
        labels = (labels - 1.0) / 4.0
    return [(float(p), float(l)) for p, l in zip(preds, labels)]


def evaluate(
    params: ModelParams,
    corpus: Corpus,
    split: TemporalSplit,
    space: FeatureSpace,
    ks: Sequence[int] = (100,),
    label_scale: str = "raw",
    rating_weight: Optional[float] = None,
    retrieval_weight: Optional[float] = None,
    mnb: bool = False,
    mnb_buckets: int = 1 << 15,
    mnb_sample: int = 1000,
    seed: int = 0,
) -> MetricsReport:
    """Rating RMSE and top-K retrieval accuracy on the test partition.

    With mnb=True, also fits the stars-from-text baseline on train reviews
    and attaches its confusion matrix over a seeded test sample.
    """
    test_records = [corpus.records[i] for i in split.test]
    if not test_records:
        raise EmptyInput("empty test partition")
    train_records = [corpus.records[i] for i in split.train]

    pairs = predict_ratings(params, test_records, space, label_scale)
    error = rmse(pairs)

    corpus_candidates = aggregate_candidates(train_records, space)
    queries = [encode_query(r, space) for r in test_records]
    true_idx = [space.business_vocab.lookup(r.business_id) for r in test_records]
    ranks = retrieval_ranks(queries, true_idx, corpus_candidates, params)
    top_k = {int(k): _accuracy_at(ranks, int(k)) for k in ks}

    confusion = None
    if mnb:
        train_docs = [
            (text_bucket_counts(r.text, mnb_buckets), r.stars) for r in train_records
        ]
        model = mnb_train(train_docs)
        rng = np.random.default_rng(seed)
        n = len(test_records)
        sample_idx = rng.choice(n, size=min(mnb_sample, n), replace=False)
        sample = [test_records[i] for i in sorted(sample_idx)]
        predicted = [
            mnb_predict(model, text_bucket_counts(r.text, mnb_buckets)) for r in sample
        ]
        confusion = confusion_matrix([r.stars for r in sample], predicted)

    return MetricsReport(
        rmse=error,
        top_k=top_k,
        example_count=len(test_records),
        label_scale=label_scale,
        rating_weight=rating_weight,
        retrieval_weight=retrieval_weight,
        confusion=confusion,
    )
