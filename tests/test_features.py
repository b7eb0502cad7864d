"""Vocabularies, tokenization, hashing, and encodings."""

import datetime
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec import features
from poirec.corpus import InteractionRecord, days_from_date
from poirec.features import (
    FeatureConfig,
    FeatureSpace,
    Vocabulary,
    aggregate_candidates,
    build_vocabularies,
    encode_candidate,
    encode_date,
    encode_dates,
    encode_query,
    encode_texts,
    hash_token,
    text_bucket_counts,
    tokenize_text,
)


def _record(uid="u", bid="b", days=0, text="", stars=3):
    return InteractionRecord(user_id=uid, business_id=bid, stars=stars, text=text, date_days=days)


class TestVocabulary:
    def test_build_from_train(self):
        uv, bv = build_vocabularies([_record(uid=u) for u in ("a", "b", "a")])
        assert len(uv) == 3  # OOV + a + b
        assert uv.lookup("a") == 1
        assert uv.lookup("b") == 2

    def test_empty(self):
        uv, bv = build_vocabularies([])
        assert len(uv) == 1
        assert len(bv) == 1

    def test_unseen_maps_to_oov(self):
        uv, _ = build_vocabularies([_record(uid="a")])
        assert uv.lookup("never-seen") == 0

    def test_no_leakage(self):
        train = [_record(uid=f"u{i}", bid=f"b{i}") for i in range(5)]
        uv, bv = build_vocabularies(train)
        for ident in ("test-only-user", "test-only-biz"):
            assert uv.lookup(ident) == 0
            assert bv.lookup(ident) == 0

    def test_id_round_trip(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.id_of(vocab.lookup("y")) == "y"


class TestTokenize:
    def test_punctuation(self):
        assert tokenize_text("Great food!!") == ["great", "food"]

    def test_empty(self):
        assert tokenize_text("") == []

    def test_alphanumeric_runs(self):
        assert tokenize_text("a1-b2 c") == ["a1", "b2", "c"]

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize_text(text):
            assert token == token.lower()
            assert all(ch.isalnum() for ch in token)

    def test_regex_word_class_is_isalnum_on_every_code_point(self):
        """The translate table keeps exactly the code points `[^\\W_]`
        matches, and `split` cuts only at the spaces it inserts."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", every) == [ch for ch in every if ch.isalnum()]
        assert not any(ch.isalnum() and ch.isspace() for ch in every)

    @given(st.text(st.characters(exclude_categories=()), max_size=80))  # surrogates too
    @settings(max_examples=300, deadline=None)
    def test_equals_the_regex(self, text):
        assert tokenize_text(text) == _regex_tokens(text)

    def test_separator_table_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(features, "_MEMO_CAP", 8)
        features._SEPARATORS.clear()
        text = "".join(map(chr, range(0x20, 0x220)))  # 512 code points, alnum and not
        assert tokenize_text(text) == _regex_tokens(text)
        assert len(features._SEPARATORS) == 8
        assert tokenize_text(text) == _regex_tokens(text)


def _regex_tokens(text: str) -> list[str]:
    """The tokenizer as first written: runs of the regex word class less
    the underscore, over the lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


def _fnv1a_64_reference(data: bytes) -> int:
    # independently written from the published constants
    h = 14695981039346656037
    for byte in data:
        h ^= byte
        h = (h * 1099511628211) % (2**64)
    return h


class TestHashToken:
    def test_one_bucket_raises(self):
        with pytest.raises(ValueError):
            hash_token("a", 1)

    def test_deterministic(self):
        assert hash_token("great", 4096) == hash_token("great", 4096)

    def test_range(self):
        for token in ("a", "zz", "great", "99"):
            assert 0 <= hash_token(token, 7) < 7

    def test_fnv1a_reference(self):
        expected = _fnv1a_64_reference("great".encode("utf-8")) % 4096
        assert hash_token("great", 4096) == expected

    @given(st.text(min_size=1, max_size=20), st.integers(2, 10000))
    @settings(max_examples=100, deadline=None)
    def test_reference_agrees_everywhere(self, token, buckets):
        expected = _fnv1a_64_reference(token.encode("utf-8")) % buckets
        assert hash_token(token, buckets) == expected


def _per_token_counts(text: str, buckets: int) -> dict[int, int]:
    """The per-token `hash_token` loop, on the regex tokenizer and the
    uncached reference hash."""
    counts: dict[int, int] = {}
    for token in _regex_tokens(text):
        idx = _fnv1a_64_reference(token.encode("utf-8")) % buckets
        counts[idx] = counts.get(idx, 0) + 1
    return counts


class TestTextBucketCounts:
    @given(st.text(max_size=200), st.integers(2, 5000))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_token_loop_cold_and_warm(self, text, buckets):
        want = list(_per_token_counts(text, buckets).items())
        features._fnv1a64.cache_clear()
        features._bucket_table.cache_clear()
        features._SEPARATORS.clear()
        assert list(text_bucket_counts(text, buckets).items()) == want
        assert list(text_bucket_counts(text, buckets).items()) == want

    def test_bucket_table_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(features, "_MEMO_CAP", 8)
        features._bucket_table.cache_clear()
        text = " ".join(f"w{i % 40}" for i in range(200))  # 40 distinct tokens
        want = list(_per_token_counts(text, 7).items())
        assert list(text_bucket_counts(text, 7).items()) == want
        assert len(features._bucket_table(7)) == 8
        assert list(text_bucket_counts(text, 7).items()) == want

    def test_insertion_order_follows_first_occurrence(self):
        # "b" comes first, and its bucket must come first, even though "a"
        # occurs more often
        assert list(text_bucket_counts("b a a a", 1 << 20)) == [
            hash_token("b", 1 << 20), hash_token("a", 1 << 20)]

    @pytest.mark.parametrize("text", ["", "some words"])
    def test_buckets_checked_for_every_text(self, text):
        with pytest.raises(ValueError):
            text_bucket_counts(text, 1)


def _csr_rows(indptr, buckets, counts):
    return [list(zip(buckets[s:e].tolist(), counts[s:e].tolist()))
            for s, e in zip(indptr[:-1], indptr[1:])]


class TestEncodeTexts:
    """`encode_texts` rows against the `text_bucket_counts` oracle."""

    @given(st.lists(st.text(max_size=80), max_size=8), st.integers(2, 5000))
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_text_bucket_counts(self, texts, buckets):
        got = _csr_rows(*encode_texts(texts).bucket_rows(buckets))
        assert got == [list(text_bucket_counts(t, buckets).items()) for t in texts]

    def test_each_distinct_token_hashed_once(self):
        encoded = encode_texts(["b a a", "", "a c b"])
        assert encoded.indptr.tolist() == [0, 2, 2, 5]
        assert encoded.token_ids.tolist() == [0, 1, 1, 2, 0]
        assert encoded.counts.tolist() == [1, 2, 1, 1, 1]
        assert encoded.h64.tolist() == [hash_token(t, 1 << 64) for t in "bac"]
        assert encoded.buckets(7).tolist() == [hash_token(t, 7) for t in "baacb"]

    @pytest.mark.parametrize("buckets", [1, 2**63 + 1, 2**64])
    def test_buckets_checked(self, buckets):
        """A bucket past 2**63 - 1 would wrap negative as int64."""
        with pytest.raises(ValueError):
            encode_texts(["a"]).buckets(buckets)


class TestEncodeDate:
    def test_min_maps_to_zero(self):
        frac, _, _ = encode_date(100, 100, 200)
        assert frac == 0.0

    def test_january(self):
        _, s, c = encode_date(days_from_date("2016-01-15"), 0, 20000)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_april(self):
        _, s, c = encode_date(days_from_date("2016-04-15"), 0, 20000)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_clamping(self):
        assert encode_date(50, 100, 200)[0] == 0.0
        assert encode_date(250, 100, 200)[0] == 1.0

    def test_degenerate_range(self):
        assert encode_date(100, 100, 100)[0] == 0.5

    @given(st.integers(0, 30000), st.integers(0, 30000), st.integers(0, 30000))
    @settings(max_examples=100, deadline=None)
    def test_unit_circle(self, d, lo, hi):
        frac, s, c = encode_date(d, min(lo, hi), max(lo, hi))
        assert 0.0 <= frac <= 1.0
        assert s * s + c * c == pytest.approx(1.0, abs=1e-6)

    def test_every_month(self):
        """The month angle of the 15th of each month, bit for bit as `math`
        gives it."""
        for month in range(1, 13):
            days = days_from_date(f"2016-{month:02d}-15")
            angle = 2.0 * math.pi * (month - 1) / 12.0
            assert encode_date(days, 0, 20000)[1:] == (math.sin(angle), math.cos(angle))

    @given(st.lists(st.integers(-719_162, 2_932_896), max_size=40),  # 0001-01-01..9999-12-31
           st.integers(-20_000, 40_000), st.integers(0, 20_000))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_scalar_rule(self, days, lo, width):
        """Each row of `encode_dates` is the scalar rule `encode_date` had
        before it became a one-row call, bit for bit: dates inside, before
        and after the range, and a degenerate range (width 0)."""
        hi = lo + width
        got = encode_dates(np.array(days, dtype=np.int64), lo, hi)
        assert got.shape == (len(days), 3) and got.dtype == np.float64
        want = np.array([_scalar_date_rule(d, lo, hi) for d in days]).reshape(-1, 3)
        assert got.tobytes() == want.tobytes()


def _scalar_date_rule(date_days, corpus_min, corpus_max):
    """The per-record date features as first written: a clamped fraction of
    the range (0.5 for a degenerate one) and the month angle from
    `datetime`."""
    if corpus_max > corpus_min:
        frac = (date_days - corpus_min) / (corpus_max - corpus_min)
        frac = min(1.0, max(0.0, frac))
    else:
        frac = 0.5
    month = datetime.date.fromordinal(date_days + datetime.date(1970, 1, 1).toordinal()).month
    angle = 2.0 * math.pi * (month - 1) / 12.0
    return (frac, math.sin(angle), math.cos(angle))


class TestFeatureSpace:
    def test_empty_train_partition_has_date_range_zero(self):
        space = FeatureSpace.build([], FeatureConfig())
        assert (space.date_min, space.date_max) == (0, 0)


class TestEncoders:
    def _space(self, use_text=True, use_date=True):
        train = [
            _record(uid="alice", bid="cafe", days=100, text="great coffee"),
            _record(uid="bob", bid="diner", days=200, text="ok burger"),
        ]
        config = FeatureConfig(use_text=use_text, use_date=use_date, text_hash_buckets=64)
        return FeatureSpace.build(train, config), train

    def test_known_user_no_date(self):
        space, _ = self._space(use_date=False)
        q = encode_query(_record(uid="alice", days=150), space)
        assert q.user_index >= 1
        assert q.date_features is None

    def test_unseen_user_is_oov(self):
        space, _ = self._space()
        q = encode_query(_record(uid="stranger", days=150), space)
        assert q.user_index == 0

    def test_date_features_compose(self):
        space, _ = self._space()
        record = _record(uid="alice", days=150)
        q = encode_query(record, space)
        assert q.date_features == encode_date(150, space.date_min, space.date_max)

    def test_candidate_without_text(self):
        space, _ = self._space(use_text=False)
        c = encode_candidate(_record(bid="cafe", text="whatever"), space)
        assert c.text_counts is None
        assert c.business_index >= 1

    def test_candidate_counts_enumerate_hashes(self):
        space, _ = self._space()
        c = encode_candidate(_record(bid="cafe", text="a a b"), space)
        expected = {}
        for token in ("a", "a", "b"):
            idx = hash_token(token, 64)
            expected[idx] = expected.get(idx, 0) + 1
        assert dict(c.text_counts) == expected

    def test_empty_text_gives_empty_counts(self):
        space, _ = self._space()
        c = encode_candidate(_record(bid="cafe", text=""), space)
        assert c.text_counts == {}

    def test_counts_sum_to_token_count(self):
        space, _ = self._space()
        text = "one two three four four"
        c = encode_candidate(_record(bid="cafe", text=text), space)
        assert sum(c.text_counts.values()) == len(tokenize_text(text))

    def test_encoding_is_pure(self):
        space, _ = self._space()
        record = _record(uid="alice", bid="cafe", days=123, text="same text")
        assert encode_query(record, space) == encode_query(record, space)
        assert encode_candidate(record, space) == encode_candidate(record, space)

    def test_aggregate_sums_train_counts(self):
        space, train = self._space()
        agg = aggregate_candidates(train, space)
        assert len(agg) == space.num_businesses
        cafe_idx = space.business_vocab.lookup("cafe")
        assert dict(agg[cafe_idx].text_counts) == text_bucket_counts("great coffee", 64)
        assert agg[0].text_counts == {}  # OOV row carries no text
