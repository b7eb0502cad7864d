"""Ingestion, temporal split, and corpus statistics."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec.corpus import (
    BadDate,
    Corpus,
    EmptyCorpus,
    InteractionRecord,
    MalformedLine,
    MissingField,
    OutOfRange,
    corpus_stats,
    days_from_date,
    load_corpus,
    parse_record,
    serialize_record,
    temporal_split,
)

VALID_LINE = (
    '{"type":"review","business_id":"b1","user_id":"u1","stars":5,'
    '"text":"ok","date":"2016-05-30","votes":{"funny":0,"useful":1,"cool":0}}'
)


class TestParseRecord:
    def test_reference_line(self):
        r = parse_record(VALID_LINE)
        assert r.stars == 5
        assert r.user_id == "u1"
        assert r.business_id == "b1"
        assert r.date.isoformat() == "2016-05-30"
        assert r.votes == (0, 1, 0)

    def test_stars_out_of_range(self):
        obj = json.loads(VALID_LINE)
        obj["stars"] = 6
        with pytest.raises(OutOfRange):
            parse_record(json.dumps(obj))

    def test_missing_user_id(self):
        obj = json.loads(VALID_LINE)
        del obj["user_id"]
        with pytest.raises(MissingField):
            parse_record(json.dumps(obj))

    @pytest.mark.parametrize("field", ["business_id", "stars", "date"])
    def test_missing_required_fields(self, field):
        obj = json.loads(VALID_LINE)
        del obj[field]
        with pytest.raises(MissingField):
            parse_record(json.dumps(obj))

    def test_malformed_json(self):
        with pytest.raises(MalformedLine):
            parse_record("{not json")

    def test_bad_date(self):
        obj = json.loads(VALID_LINE)
        obj["date"] = "2016-13-45"
        with pytest.raises(BadDate):
            parse_record(json.dumps(obj))
        obj["date"] = "30/05/2016"
        with pytest.raises(BadDate):
            parse_record(json.dumps(obj))

    def test_extra_fields_ignored(self):
        obj = json.loads(VALID_LINE)
        obj["something_else"] = {"nested": True}
        r = parse_record(json.dumps(obj))
        assert r.stars == 5

    def test_integral_float_stars_accepted(self):
        obj = json.loads(VALID_LINE)
        obj["stars"] = 4.0
        assert parse_record(json.dumps(obj)).stars == 4

    @pytest.mark.parametrize("vote", [2.7, -0.5, True, False, "NaN", "Infinity"])
    def test_non_integral_vote_rejected(self, vote):
        line = VALID_LINE.replace('"useful":1', f'"useful":{json.dumps(vote)}')
        if isinstance(vote, str):  # JSON's non-finite number literals
            line = line.replace(f'"{vote}"', vote)
        with pytest.raises(OutOfRange):
            parse_record(line)

    @pytest.mark.parametrize("vote", [None, [1], {"n": 1}])
    def test_vote_not_a_number_rejected(self, vote):
        line = VALID_LINE.replace('"useful":1', f'"useful":{json.dumps(vote)}')
        with pytest.raises(OutOfRange):
            parse_record(line)
        corpus = load_corpus([VALID_LINE, line], skip_malformed=True)
        assert (len(corpus), corpus.skipped) == (1, 1)

    def test_integral_float_vote_accepted(self):
        line = VALID_LINE.replace('"useful":1', '"useful":2.0')
        assert parse_record(line).votes == (0, 2, 0)

    def test_non_integral_vote_skippable(self):
        bad = VALID_LINE.replace('"useful":1', '"useful":2.7')
        corpus = load_corpus([VALID_LINE, bad], skip_malformed=True)
        assert (len(corpus), corpus.skipped) == (1, 1)

    @given(
        stars=st.integers(min_value=1, max_value=5),
        text=st.text(max_size=50),
        votes=st.tuples(
            st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)
        ),
        day=st.integers(min_value=0, max_value=20000),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, stars, text, votes, day):
        record = InteractionRecord(
            user_id="u", business_id="b", stars=stars, text=text,
            date_days=day, votes=votes,
        )
        assert parse_record(serialize_record(record)) == record


class TestLoadCorpus:
    def test_empty_stream(self):
        corpus = load_corpus(io.StringIO(""))
        assert len(corpus) == 0
        assert corpus.num_users == 0
        assert corpus.num_businesses == 0

    def test_distinct_counts(self):
        lines = []
        for uid in ("a", "b", "a"):
            obj = json.loads(VALID_LINE)
            obj["user_id"] = uid
            lines.append(json.dumps(obj))
        corpus = load_corpus(io.StringIO("\n".join(lines)))
        assert len(corpus) == 3
        assert corpus.num_users == 2
        assert corpus.num_businesses == 1

    def test_fail_fast_reports_line_number(self):
        stream = io.StringIO(VALID_LINE + "\nnot json\n")
        with pytest.raises(MalformedLine, match="line 2"):
            load_corpus(stream)

    def test_skip_policy_counts(self):
        stream = io.StringIO(VALID_LINE + "\nnot json\n")
        corpus = load_corpus(stream, skip_malformed=True)
        assert len(corpus) == 1
        assert corpus.skipped == 1


def _record(uid, bid, days, stars=3, text=""):
    return InteractionRecord(
        user_id=uid, business_id=bid, stars=stars, text=text, date_days=days
    )


class TestTemporalSplit:
    def test_increasing_dates(self):
        corpus = Corpus(tuple(_record(f"u{i}", "b", 100 + i) for i in range(10)))
        split = temporal_split(corpus, 0.9)
        assert len(split.train) == 9
        assert split.test == (9,)

    def test_tie_break_by_ingestion_order(self):
        corpus = Corpus(tuple(_record(f"u{i}", "b", 500) for i in range(4)))
        split = temporal_split(corpus, 0.5)
        assert split.train == (0, 1)
        assert split.test == (2, 3)

    def test_too_small(self):
        with pytest.raises(EmptyCorpus):
            temporal_split(Corpus((_record("u", "b", 1),)), 0.9)

    def test_against_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        days = rng.integers(0, 365, size=100)
        corpus = Corpus(tuple(_record(f"u{i}", "b", int(d)) for i, d in enumerate(days)))
        split = temporal_split(corpus, 0.9)
        assert len(split.train) == 90
        max_train = max(corpus.records[i].date_days for i in split.train)
        min_test = min(corpus.records[i].date_days for i in split.test)
        assert max_train <= min_test
        # full brute-force sort agrees on the partition
        oracle = sorted(range(100), key=lambda i: (days[i], i))
        assert set(split.train) == set(oracle[:90])

    @given(
        days=st.lists(st.integers(0, 1000), min_size=2, max_size=60),
        ratio=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_date_ordering_invariant(self, days, ratio):
        corpus = Corpus(tuple(_record(f"u{i}", "b", d) for i, d in enumerate(days)))
        split = temporal_split(corpus, ratio)
        assert sorted(split.train + split.test) == list(range(len(days)))
        assert len(split.train) == int(ratio * len(days))
        if split.train and split.test:
            assert max(corpus.records[i].date_days for i in split.train) <= min(
                corpus.records[i].date_days for i in split.test
            )


class TestCorpusStats:
    def test_two_fives(self):
        corpus = Corpus((_record("u", "b", 1, stars=5), _record("v", "b", 2, stars=5)))
        stats = corpus_stats(corpus)
        assert stats.star_histogram == [0, 0, 0, 0, 2]

    def test_empty(self):
        stats = corpus_stats(Corpus(()))
        assert stats.star_histogram == [0] * 5
        assert stats.total == 0

    def test_brute_force_recount(self):
        rng = np.random.default_rng(3)
        records = tuple(
            _record(f"u{i}", "b", i, stars=int(rng.integers(1, 6)),
                    text="x" * int(rng.integers(0, 40)))
            for i in range(50)
        )
        stats = corpus_stats(Corpus(records))
        assert sum(stats.star_histogram) == 50
        for star in range(1, 6):
            lens = [len(r.text) for r in records if r.stars == star]
            summary = stats.lengths_by_star[star - 1]
            assert summary.count == len(lens)
            if lens:
                assert summary.mean_length == pytest.approx(np.mean(lens))
                assert summary.min_length == min(lens)
                assert summary.max_length == max(lens)

    def test_days_from_date_reference(self):
        assert days_from_date("1970-01-01") == 0
        assert days_from_date("2016-05-30") == 16951
