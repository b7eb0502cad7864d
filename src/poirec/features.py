"""Feature encoding: vocabularies, hashed bag-of-words text, date context.

Query features carry the user index plus (optionally) three date scalars:
normalized position in the corpus date range and the sin/cos of the month
angle. Candidate features carry the business index plus (optionally) a
sparse bucket->count multiset of hashed review tokens.

A review's tokens are the runs of alphanumeric code points of its
lowercased text: one translate table maps every other code point to a
space, and `split` cuts there. They are the runs the regex `[^\\W_]+`
finds, as that class holds exactly the code points where `str.isalnum()`
is true. A review's bucket counts are one `Counter` over its tokens'
buckets, each read from a memo table for that bucket count.
`encode_texts` tokenizes a list of reviews once into arrays (`TextCSR`);
any bucket space is then an exact modulus of one FNV-1a-64 value per
distinct token (the hashing trick, Weinberger et al. 2009).

Vocabularies are built from the train partition only; index 0 is the
shared out-of-vocabulary bucket on each side.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence, get_type_hints

import numpy as np

from .corpus import InteractionRecord

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class Vocabulary:
    """Ordered id -> dense index map with index 0 reserved for OOV."""

    def __init__(self, ids: Iterable[str] = ()):  # ids in index order, 1..V-1
        self.ids: list[str] = ["", *ids]
        self._index: dict[str, int] = dict(zip(self.ids[1:], range(1, len(self.ids))))
        if "" in self._index:
            raise ValueError("empty id: the empty string is the OOV entry")
        if len(self._index) != len(self.ids) - 1:
            seen = Counter(self.ids[1:])
            raise ValueError(f"duplicate id {next(i for i, n in seen.items() if n > 1)!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def lookup(self, ident: str) -> int:
        return self._index.get(ident, 0)

    def __contains__(self, ident: str) -> bool:
        return ident in self._index

    def id_of(self, index: int) -> str:
        return self.ids[index]


_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
_type_hints = functools.cache(get_type_hints)  # a class's field types; evaluating them is slow


def check_field_types(config) -> None:
    """ValueError unless each field of the dataclass `config` holds its
    annotated type, so a range check never compares a string. An int is a
    float too, a bool is neither, and `tuple[int, ...]` is a tuple of ints."""
    for name, kind in _type_hints(type(config)).items():
        value = getattr(config, name)
        many = kind == tuple[int, ...]
        want = _NUMBERS.get(int if many else kind, kind)
        for v in value if many and isinstance(value, tuple) else (value,):
            if not isinstance(v, want) or isinstance(v, bool) != (kind is bool):
                raise ValueError(f"{name} must be {kind if many else kind.__name__}: {value!r}")


LABEL_SCALES = ("raw", "normalized")
# The largest `embed_dim`, `text_hash_buckets` or `mnb_buckets`: the largest array they size, the
# float64 draw of `business_tower.0.w`, is (2 * 2**24)**2 * 8 = 2**53 bytes < numpy's 2**63 limit.
MAX_SIZE = 2**24


@dataclass(frozen=True)
class FeatureConfig:
    use_text: bool = True
    use_date: bool = True
    text_hash_buckets: int = 4096
    label_scale: str = "raw"  # rating labels, see `star_labels`

    def __post_init__(self):
        check_field_types(self)
        if not 2 <= self.text_hash_buckets <= MAX_SIZE:
            raise ValueError(f"text_hash_buckets must be 2 to {MAX_SIZE}: {self.text_hash_buckets}")
        if self.label_scale not in LABEL_SCALES:
            raise ValueError(f"label_scale must be one of {LABEL_SCALES}: {self.label_scale!r}")


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


def star_labels(records: Sequence[InteractionRecord], config: FeatureConfig) -> np.ndarray:
    """float64 rating labels at `config.label_scale`: the stars as given
    (`raw`) or mapped onto [0, 1] as (stars - 1) / 4 (`normalized`)."""
    labels = np.array([float(r.stars) for r in records], dtype=np.float64)
    if config.label_scale == "normalized":
        labels = (labels - 1.0) / 4.0
    return labels


_MEMO_CAP = 1 << 16  # keys a memo table stores; past it a value is computed, not stored


class _Memo(dict):
    """key -> `fn(key)`, stored on first lookup while under `_MEMO_CAP` keys."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) < _MEMO_CAP:
            self[key] = value
        return value


# `str.translate` table: an alphanumeric code point maps to itself, any other to a space.
_SEPARATORS = _Memo(lambda cp: cp if chr(cp).isalnum() else 32)


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters. No
    code point is both alphanumeric and whitespace, so `split` breaks only
    at the spaces the translation put in."""
    return text.lower().translate(_SEPARATORS).split()


@functools.lru_cache(maxsize=_MEMO_CAP)
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


@functools.lru_cache(maxsize=8, typed=True)
def _bucket_table(buckets: int) -> _Memo:
    """token -> `hash_token(token, buckets)`."""
    return _Memo(lambda token: _fnv1a64(token) % buckets)


def text_bucket_counts(text: str, buckets: int) -> dict[int, int]:
    """Bucket -> token count, buckets in order of first occurrence.

    One `Counter` over the sequence of the tokens' buckets: it keeps each
    bucket at its first appearance and sums the counts of the tokens that
    share it, as a walk over every token would.
    """
    if buckets < 2:
        raise ValueError("buckets must be >= 2")
    return dict(Counter(map(_bucket_table(buckets).__getitem__, tokenize_text(text))))


def counts_csr(
    rows: Sequence[Optional[Mapping[int, int]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bucket -> count dicts as CSR (indptr, buckets, counts), int64; each
    row keeps its dict's order, and None is an empty row."""
    rows = [row or {} for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=indptr[1:])
    nnz = int(indptr[-1])
    buckets = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=nnz)
    counts = np.fromiter(chain.from_iterable(row.values() for row in rows), dtype=np.int64, count=nnz)
    return indptr, buckets, counts


@dataclass(frozen=True)
class TextCSR:
    """Reviews tokenized once. Row r lists review r's distinct tokens in
    order of first appearance (`token_ids`, indices into `h64`) with their
    counts; `h64` holds the FNV-1a-64 value of each distinct token.
    """

    indptr: np.ndarray  # [reviews + 1] int32
    token_ids: np.ndarray  # [nnz] int32
    counts: np.ndarray  # [nnz] int32
    h64: np.ndarray  # [distinct tokens] uint64

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def buckets(self, buckets: int) -> np.ndarray:
        """Bucket of every entry, `hash_token(token, buckets)`, as int64."""
        if not 2 <= buckets <= 1 << 63:
            raise ValueError(f"buckets must be >= 2 and at most 2**63 (int64 buckets): {buckets}")
        return (self.h64 % np.uint64(buckets)).astype(np.int64)[self.token_ids]

    def bucket_rows(self, buckets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hashed bag-of-words rows as CSR (indptr, buckets, counts), int64.

        Row r is `text_bucket_counts(text_r, buckets)`: tokens that share a
        bucket sum their counts, and the buckets keep their order of first
        appearance.
        """
        rows = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))
        keys, first, inverse = np.unique(
            rows * buckets + self.buckets(buckets), return_index=True, return_inverse=True
        )
        sums = np.bincount(inverse, weights=self.counts, minlength=len(keys)).astype(np.int64)
        key_rows = keys // buckets
        order = np.lexsort((first, key_rows))
        indptr = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key_rows, minlength=len(self)), out=indptr[1:])
        return indptr, (keys % buckets)[order], sums[order]


class _TokenIndex(dict):
    """token -> dense id, numbering unseen tokens in order of first lookup."""

    def __missing__(self, token: str) -> int:
        index = self[token] = len(self)
        return index


def encode_texts(texts: Iterable[str]) -> TextCSR:
    """Tokenize each text once and hash each distinct token once.

    Rows are int32 arrays, not token strings, so a corpus's encoding stays
    small however many reviews it holds.
    """
    token_index = _TokenIndex()
    token_ids, counts, indptr = array("i"), array("i"), array("i", [0])
    for text in texts:
        row = Counter(tokenize_text(text))
        token_ids.extend(map(token_index.__getitem__, row))
        counts.extend(row.values())
        indptr.append(len(token_ids))
    h64 = np.fromiter(map(_fnv1a64, token_index), dtype=np.uint64, count=len(token_index))
    return TextCSR(
        indptr=np.array(indptr, dtype=np.int32),
        token_ids=np.array(token_ids, dtype=np.int32),
        counts=np.array(counts, dtype=np.int32),
        h64=h64,
    )


# sin and cos of the month angle 2*pi*(month - 1)/12, by month - 1, from
# `math` so the bits do not depend on numpy's vectorised sin and cos.
_MONTH_SIN = np.array([math.sin(2.0 * math.pi * m / 12.0) for m in range(12)])
_MONTH_COS = np.array([math.cos(2.0 * math.pi * m / 12.0) for m in range(12)])


def encode_dates(date_days: np.ndarray, corpus_min: int, corpus_max: int) -> np.ndarray:
    """[n, 3] float64: per date, the normalized days in the corpus range
    and the sin and cos of the month angle 2*pi*(month - 1)/12.

    Out-of-range dates clamp; a degenerate range maps to 0.5.
    """
    days = np.asarray(date_days, dtype=np.int64)
    out = np.empty((len(days), 3), dtype=np.float64)
    if corpus_max > corpus_min:
        np.clip((days - corpus_min) / (corpus_max - corpus_min), 0.0, 1.0, out=out[:, 0])
    else:
        out[:, 0] = 0.5
    month = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) % 12
    out[:, 1] = _MONTH_SIN[month]
    out[:, 2] = _MONTH_COS[month]
    return out


def encode_date(date_days: int, corpus_min: int, corpus_max: int) -> tuple[float, float, float]:
    """One row of `encode_dates`, as Python floats."""
    return tuple(encode_dates([date_days], corpus_min, corpus_max)[0].tolist())


@dataclass
class FeatureSpace:
    """Vocabularies plus everything needed to encode a raw record."""

    user_vocab: Vocabulary
    business_vocab: Vocabulary
    config: FeatureConfig
    date_min: int
    date_max: int

    @classmethod
    def build(cls, train_records: list[InteractionRecord], config: FeatureConfig) -> "FeatureSpace":
        user_vocab, business_vocab = build_vocabularies(train_records)
        days = [r.date_days for r in train_records]
        return cls(user_vocab, business_vocab, config, min(days, default=0), max(days, default=0))

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
