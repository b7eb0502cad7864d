"""Feature encoding: vocabularies, hashed bag-of-words text, date context.

Query features carry the user index plus (optionally) three date scalars:
normalized position in the corpus date range and the sin/cos of the month
angle. Candidate features carry the business index plus (optionally) a
sparse bucket->count multiset of hashed review tokens.

Vocabularies are built from the train partition only; index 0 is the
shared out-of-vocabulary bucket on each side.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .corpus import InteractionRecord, month_of_days

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class Vocabulary:
    """Ordered id -> dense index map with index 0 reserved for OOV."""

    def __init__(self, ids: Iterable[str] = ()):  # ids in index order, 1..V-1
        self.ids: list[str] = [""]
        self._index: dict[str, int] = {}
        for ident in ids:
            if ident in self._index:
                raise ValueError(f"duplicate id {ident!r}")
            self._index[ident] = len(self.ids)
            self.ids.append(ident)

    def __len__(self) -> int:
        return len(self.ids)

    def lookup(self, ident: str) -> int:
        return self._index.get(ident, 0)

    def __contains__(self, ident: str) -> bool:
        return ident in self._index

    def id_of(self, index: int) -> str:
        return self.ids[index]


@dataclass(frozen=True)
class FeatureConfig:
    use_text: bool = True
    use_date: bool = True
    text_hash_buckets: int = 4096

    def __post_init__(self):
        if self.text_hash_buckets < 2:
            raise ValueError("text_hash_buckets must be >= 2")


@dataclass(frozen=True)
class QueryFeatures:
    user_index: int
    date_features: Optional[tuple[float, float, float]] = None


@dataclass(frozen=True)
class CandidateFeatures:
    business_index: int
    text_counts: Optional[Mapping[int, int]] = None


def build_vocabularies(
    train_records: Iterable[InteractionRecord],
) -> tuple[Vocabulary, Vocabulary]:
    """Assign dense indices (>= 1) to distinct train users and businesses."""
    users: dict[str, None] = {}
    businesses: dict[str, None] = {}
    for r in train_records:
        users.setdefault(r.user_id)
        businesses.setdefault(r.business_id)
    return Vocabulary(users), Vocabulary(businesses)


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=1 << 16)
def _fnv1a64(token: str) -> int:
    """FNV-1a 64-bit over UTF-8 bytes. Memoised: a corpus repeats a few
    thousand distinct tokens hundreds of thousands of times."""
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_token(token: str, buckets: int) -> int:
    """FNV-1a 64-bit over UTF-8 bytes, reduced modulo the bucket count."""
    if buckets < 2:
        raise ValueError("buckets must be >= 2")
    return _fnv1a64(token) % buckets


def text_bucket_counts(text: str, buckets: int) -> dict[int, int]:
    """Bucket -> token count, buckets in order of first occurrence.

    Each distinct token is hashed once; walking the distinct tokens in
    first-appearance order inserts the buckets in the same order as a
    walk over every token would.
    """
    if buckets < 2:
        raise ValueError("buckets must be >= 2")
    counts: dict[int, int] = {}
    for token, n in Counter(tokenize_text(text)).items():
        idx = _fnv1a64(token) % buckets
        counts[idx] = counts.get(idx, 0) + n
    return counts


def encode_date(date_days: int, corpus_min: int, corpus_max: int) -> tuple[float, float, float]:
    """(normalized days in corpus range, sin month angle, cos month angle).

    Out-of-range dates clamp; a degenerate range maps to 0.5.
    """
    if corpus_max > corpus_min:
        frac = (date_days - corpus_min) / (corpus_max - corpus_min)
        frac = min(1.0, max(0.0, frac))
    else:
        frac = 0.5
    angle = 2.0 * math.pi * (month_of_days(date_days) - 1) / 12.0
    return (frac, math.sin(angle), math.cos(angle))


@dataclass
class FeatureSpace:
    """Vocabularies plus everything needed to encode a raw record."""

    user_vocab: Vocabulary
    business_vocab: Vocabulary
    config: FeatureConfig
    date_min: int = 0
    date_max: int = 0

    @classmethod
    def build(cls, train_records: list[InteractionRecord], config: FeatureConfig) -> "FeatureSpace":
        user_vocab, business_vocab = build_vocabularies(train_records)
        if train_records:
            days = [r.date_days for r in train_records]
            dmin, dmax = min(days), max(days)
        else:
            dmin = dmax = 0
        return cls(user_vocab, business_vocab, config, dmin, dmax)

    @property
    def num_users(self) -> int:
        return len(self.user_vocab)

    @property
    def num_businesses(self) -> int:
        return len(self.business_vocab)


def encode_query(record: InteractionRecord, space: FeatureSpace) -> QueryFeatures:
    date_features = None
    if space.config.use_date:
        date_features = encode_date(record.date_days, space.date_min, space.date_max)
    return QueryFeatures(
        user_index=space.user_vocab.lookup(record.user_id),
        date_features=date_features,
    )


def encode_candidate(record: InteractionRecord, space: FeatureSpace) -> CandidateFeatures:
    text_counts = None
    if space.config.use_text:
        text_counts = text_bucket_counts(record.text, space.config.text_hash_buckets)
    return CandidateFeatures(
        business_index=space.business_vocab.lookup(record.business_id),
        text_counts=text_counts,
    )


def aggregate_candidates(
    train_records: Iterable[InteractionRecord], space: FeatureSpace
) -> list[CandidateFeatures]:
    """Retrieval-time candidate features for every vocabulary business.

    Entry i describes business index i; its text counts are the sum of that
    business's train review counts (no query-specific review exists when
    serving). Index 0 (OOV) gets empty text.
    """
    return sum_candidates((encode_candidate(r, space) for r in train_records), space)


def sum_candidates(
    candidates: Iterable[CandidateFeatures], space: FeatureSpace
) -> list[CandidateFeatures]:
    """`aggregate_candidates` from reviews already encoded by
    `encode_candidate`, so no review is hashed again."""
    n = space.num_businesses
    if not space.config.use_text:
        return [CandidateFeatures(business_index=i) for i in range(n)]
    sums: list[dict[int, int]] = [dict() for _ in range(n)]
    for c in candidates:
        acc = sums[c.business_index]
        for bucket, count in c.text_counts.items():
            acc[bucket] = acc.get(bucket, 0) + count
    return [
        CandidateFeatures(business_index=i, text_counts=sums[i]) for i in range(n)
    ]
