"""Seeded synthetic review corpora for the benchmark.

A corpus is drawn entirely with numpy from one seed, before any timing
starts. Besides the raw JSON-lines file that `poirec ingest` reads, the
generator keeps its own tally (kept and skipped line counts, star
histogram) and the token ids of every review, so the output checks never
have to read poirec's view of the data.

Shape of a corpus:

- users are drawn with a power-law activity, businesses by Zipf
  popularity, with 60% of a user's visits going to one home cluster of
  businesses (so retrieval has something to learn);
- stars come from a business quality, a user bias and noise, clipped to
  1..5;
- each review has `tokens_min..tokens_max` tokens drawn Zipf-style from a
  vocabulary of made-up lowercase words; with probability 0.85 the first
  one to three tokens are "star words" planted for the review's star class
  (the signal the naive Bayes baseline should find);
- text is written as capitalised sentences of twelve words, so the
  tokenizer has punctuation and case to handle;
- `malformed` extra lines that `--skip-malformed` must skip (bad JSON,
  missing or out-of-range fields, impossible dates) are scattered through
  the raw file.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_BASE_DATE = datetime.date(2014, 1, 1)
_EPOCH = datetime.date(1970, 1, 1)
_SENTENCE = 12
STAR_WORD_PROB = 0.85

# Lines `poirec ingest --skip-malformed` must count as skipped; each one
# breaks a different validation rule of the review layout.
_MALFORMED = (
    '{"user_id": "u-cut", "business_id": "b-cut", "stars": 4, "te',
    '{"user_id": "u-nobiz", "stars": 4, "date": "2015-03-01", "text": "x"}',
    '{"user_id": "u-six", "business_id": "b-six", "stars": 6, "date": "2015-03-01"}',
    '{"user_id": "u-feb", "business_id": "b-feb", "stars": 2, "date": "2015-02-30"}',
    '["not", "an", "object"]',
    '{"user_id": "", "business_id": "b-empty", "stars": 3, "date": "2015-03-01"}',
    '{"user_id": "u-txt", "business_id": "b-txt", "stars": 3, "date": "2015-03-01", "text": 7}',
)


@dataclass(frozen=True)
class CorpusSpec:
    n_reviews: int
    n_users: int
    n_businesses: int
    n_words: int
    tokens_min: int
    tokens_max: int
    malformed: int
    star_words_per_class: int = 6
    days: int = 3 * 365
    clusters: int = 50


@dataclass
class SynthCorpus:
    """Generated reviews in raw-file order (malformed lines excluded)."""

    spec: CorpusSpec
    user_names: list[str]
    business_names: list[str]
    words: list[str]
    user: np.ndarray  # [n] index into user_names
    business: np.ndarray  # [n] index into business_names
    stars: np.ndarray  # [n] 1..5
    days: np.ndarray  # [n] days since 1970-01-01
    tok_indptr: np.ndarray  # [n+1] CSR offsets into tok_ids
    tok_ids: np.ndarray  # [nnz] index into words
    star_words: np.ndarray  # [5, star_words_per_class] word ids per class
    raw_lines: int  # lines of the raw file, malformed lines included

    def __len__(self) -> int:
        return len(self.stars)

    @property
    def skipped(self) -> int:
        return self.raw_lines - len(self)

    def star_histogram(self) -> list[int]:
        return np.bincount(self.stars, minlength=6)[1:].tolist()


def _make_words(rng: np.random.Generator, n: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < n:
        syllables = int(rng.integers(2, 5))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        words.setdefault(word)
    return list(words)


def iso_date(days: int) -> str:
    return (_EPOCH + datetime.timedelta(days=int(days))).isoformat()


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def _text(words: list[str], ids: np.ndarray) -> str:
    parts = []
    for start in range(0, len(ids), _SENTENCE):
        sentence = [words[i] for i in ids[start : start + _SENTENCE]]
        sentence[0] = sentence[0].capitalize()
        parts.append(" ".join(sentence) + ".")
    return " ".join(parts)


def generate(spec: CorpusSpec, seed: int, raw_path: str) -> SynthCorpus:
    """Draw a corpus from `seed` and write its raw file to `raw_path`."""
    rng = np.random.default_rng(seed)
    n = spec.n_reviews
    user_names = [f"u{v:08x}" for v in rng.choice(1 << 32, spec.n_users, replace=False)]
    business_names = [f"b{v:08x}" for v in rng.choice(1 << 32, spec.n_businesses, replace=False)]
    words = _make_words(rng, spec.n_words)

    user = rng.choice(spec.n_users, size=n, p=_zipf(spec.n_users, 0.6)).astype(np.int64)
    popularity = rng.permutation(_zipf(spec.n_businesses, 0.9))
    global_pick = rng.choice(spec.n_businesses, size=n, p=popularity)
    per_cluster = spec.n_businesses // spec.clusters
    home = rng.integers(0, spec.clusters, size=spec.n_users)
    in_cluster = rng.choice(per_cluster, size=n, p=_zipf(per_cluster, 0.9))
    local_pick = home[user] + spec.clusters * in_cluster
    at_home = rng.random(n) < 0.6
    business = np.where(at_home, local_pick, global_pick).astype(np.int64)

    quality = rng.normal(0.0, 0.8, spec.n_businesses)
    bias = rng.normal(0.0, 0.5, spec.n_users)
    raw = 3.2 + quality[business] + bias[user] + 0.8 * at_home + rng.normal(0.0, 0.8, n)
    stars = np.clip(np.rint(raw), 1, 5).astype(np.int64)
    days = (_BASE_DATE - _EPOCH).days + rng.integers(0, spec.days, size=n)

    lengths = rng.integers(spec.tokens_min, spec.tokens_max + 1, size=n)
    tok_indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    tok_ids = rng.choice(spec.n_words, size=int(tok_indptr[-1]), p=_zipf(spec.n_words, 1.07))
    # Star words come from the middle of the frequency ranks, so they are
    # neither stop words nor hapaxes.
    mid = spec.n_words // 10
    star_words = np.arange(mid, mid + 5 * spec.star_words_per_class).reshape(5, -1)
    planted = rng.integers(1, 4, size=n)
    honest = rng.random(n) < STAR_WORD_PROB
    noise_class = rng.integers(0, 5, size=n)
    for i in range(n):
        cls = stars[i] - 1 if honest[i] else noise_class[i]
        start = tok_indptr[i]
        count = min(int(planted[i]), int(lengths[i]))
        tok_ids[start : start + count] = rng.choice(star_words[cls], size=count)

    votes = rng.geometric(0.5, size=(n, 3)) - 1
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "type": "review",
                    "review_id": f"r{seed}-{i}",
                    "user_id": user_names[user[i]],
                    "business_id": business_names[business[i]],
                    "stars": int(stars[i]),
                    "text": _text(words, tok_ids[tok_indptr[i] : tok_indptr[i + 1]]),
                    "date": iso_date(days[i]),
                    "votes": {
                        "funny": int(votes[i, 0]),
                        "useful": int(votes[i, 1]),
                        "cool": int(votes[i, 2]),
                    },
                }
            )
        )
    for j, pos in enumerate(sorted(rng.choice(n, size=spec.malformed, replace=False), reverse=True)):
        lines.insert(int(pos), _MALFORMED[j % len(_MALFORMED)])
    with open(raw_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    return SynthCorpus(
        spec=spec,
        user_names=user_names,
        business_names=business_names,
        words=words,
        user=user,
        business=business,
        stars=stars,
        days=days,
        tok_indptr=tok_indptr,
        tok_ids=tok_ids,
        star_words=star_words,
        raw_lines=len(lines),
    )
