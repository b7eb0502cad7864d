"""Ingestion, temporal split, and corpus statistics."""

import datetime
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec import corpus as corpus_mod
from poirec.corpus import (
    BadDate,
    Corpus,
    EmptyCorpus,
    InteractionRecord,
    IoFailure,
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

    def test_fractional_funny_vote_is_out_of_range(self):
        line = VALID_LINE.replace('"funny":0', '"funny":2.5')
        with pytest.raises(OutOfRange, match="votes.funny is not an integer: 2.5"):
            parse_record(line)

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


def _oracle_serialize_record(record: InteractionRecord) -> str:
    """`serialize_record` as it read before it became one template: a dict
    per record and `json.dumps`."""
    obj = {
        "type": "review",
        "business_id": record.business_id,
        "user_id": record.user_id,
        "stars": record.stars,
        "text": record.text,
        "date": record.date.isoformat(),
        "votes": {
            "funny": record.votes[0],
            "useful": record.votes[1],
            "cool": record.votes[2],
        },
    }
    return json.dumps(obj, ensure_ascii=False)


# Strings parse_record can yield: quotes, backslashes, control and non-BMP
# characters, but no lone surrogate (the utf-8 codec excludes them).
_SERIALIZED_STR = st.text(
    st.characters(codec="utf-8")
    | st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001F600"]),
    max_size=12,
)
_EPOCH = datetime.date(1970, 1, 1).toordinal()


class TestSerializeRecord:
    @given(
        user_id=_SERIALIZED_STR,
        business_id=_SERIALIZED_STR,
        stars=st.integers(1, 5),
        text=_SERIALIZED_STR,
        date_days=st.integers(datetime.date.min.toordinal() - _EPOCH,
                              datetime.date.max.toordinal() - _EPOCH),
        votes=st.tuples(*[st.integers(0, 2**70)] * 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, user_id, business_id, stars, text, date_days, votes):
        record = InteractionRecord(user_id, business_id, stars, text, date_days, votes)
        assert serialize_record(record) == _oracle_serialize_record(record)


# ---------------------------------------------------------------------------
# parse_record against its first, plainer form.
# ---------------------------------------------------------------------------


def _oracle_require(obj: dict, key: str):
    if key not in obj:
        raise MissingField(f"missing field {key!r}")
    return obj[key]


def _oracle_vote_count(votes_obj: dict, key: str) -> int:
    value = votes_obj.get(key, 0)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, str))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise OutOfRange(f"votes.{key} is not an integer: {value!r}")
    return int(value)


def _oracle_parse_record(line: str) -> InteractionRecord:
    """`parse_record` as it read before its checks became exact type tests:
    `json.loads`, `isinstance` chains, an unmemoised date parse and a
    surrogate probe on every line."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedLine(f"unparseable line: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine("line is not a JSON object")

    user_id = _oracle_require(obj, "user_id")
    business_id = _oracle_require(obj, "business_id")
    stars = _oracle_require(obj, "stars")
    date = _oracle_require(obj, "date")

    if not isinstance(user_id, str) or not user_id:
        raise MissingField("user_id is empty")
    if not isinstance(business_id, str) or not business_id:
        raise MissingField("business_id is empty")

    if isinstance(stars, bool) or not isinstance(stars, (int, float)):
        raise OutOfRange(f"stars is not numeric: {stars!r}")
    if isinstance(stars, float):
        if not stars.is_integer():
            raise OutOfRange(f"stars is not an integer: {stars!r}")
        stars = int(stars)
    if stars < 1 or stars > 5:
        raise OutOfRange(f"stars out of [1,5]: {stars}")

    if not isinstance(date, str):
        raise BadDate(f"date is not a string: {date!r}")
    date_days = corpus_mod.days_from_date.__wrapped__(date)

    text = obj.get("text", "")
    if not isinstance(text, str):
        raise MalformedLine("text is not a string")
    for key, value in (("user_id", user_id), ("business_id", business_id), ("text", text)):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLine(f"{key} holds a lone UTF-16 surrogate") from None

    votes_obj = obj.get("votes", {})
    if not isinstance(votes_obj, dict):
        raise MalformedLine("votes is not an object")
    votes = tuple(_oracle_vote_count(votes_obj, k) for k in ("funny", "useful", "cool"))
    if any(v < 0 for v in votes):
        raise OutOfRange("negative vote count")

    return InteractionRecord(
        user_id=user_id,
        business_id=business_id,
        stars=stars,
        text=text,
        date_days=date_days,
        votes=votes,
    )


_MISSING = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# Text with lone surrogates, a valid pair, non-ASCII and a literal backslash-u.
_TEXT = st.lists(
    st.sampled_from(["a", "é", "\ud800", "\udc00", "\ud83d\ude00", "\U0001F600", "\\u", '"'])
    | st.characters(),
    max_size=8,
).map("".join)
_VOTE = (
    st.sampled_from(["lots", "3", " 3", "-1", "1_0", 2.0, 2.7, -2.0, True, False, None, [1],
                     {"n": 1}, float("nan"), float("inf"), 10**20])
    | st.integers(-3, 100)
    | _JSON
)
_VALID = {
    "user_id": st.sampled_from(["u1", "ü"]) | _TEXT,
    "business_id": st.sampled_from(["b1", "ü"]) | _TEXT,
    "stars": st.integers(1, 5),
    "date": st.dates().map(str),
    "text": _TEXT,
    "votes": st.fixed_dictionaries(
        {}, optional={k: st.integers(0, 9) for k in ("funny", "useful", "cool")}),
}
_FAULTY = {
    "user_id": st.sampled_from(["", "u1"]) | _TEXT,
    "business_id": st.sampled_from(["", "b1"]) | _TEXT,
    "stars": st.sampled_from([1, 5, 0, 6, 3.0, 2.5, True, False, None, "3", float("nan")])
    | st.integers(-2, 8) | st.floats(),
    "date": st.sampled_from(["2016-05-30", "2016-13-45", "2016-02-29", "2015-02-29", "0000-01-01",
                             "30/05/2016", "2016-05-30\n", "２０１６-０５-３０"])
    | _TEXT,
    "text": _TEXT,
    "votes": st.dictionaries(st.sampled_from(["funny", "useful", "cool", "other"]), _VOTE,
                             max_size=4),
}


@st.composite
def _record_lines(draw):
    """A review-shaped line: every field valid except up to three, each of
    which is an odd value, any JSON value or missing; extra keys; escaped
    or raw non-ASCII; space around it."""
    obj = draw(st.dictionaries(st.text(max_size=4), _JSON, max_size=2))
    faulty = draw(st.lists(st.sampled_from(list(_FAULTY)), max_size=3, unique=True))
    for key, valid in _VALID.items():
        value = draw(st.just(_MISSING) | _FAULTY[key] | _JSON if key in faulty else valid)
        if value is not _MISSING:
            obj[key] = value
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    space = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\ufeff", "\u00a0"])
    return draw(space) + line + draw(space)


def _outcome(parse, line):
    try:
        return parse(line)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def _edit(old, new):
    return VALID_LINE.replace(old, new, 1)


# One line per check, so each branch meets the oracle on every run.
_EACH_CHECK = [
    VALID_LINE, "{not json", "\ufeff" + VALID_LINE, "[1]", _edit('"user_id":"u1",', ""),
    _edit('"business_id":"b1",', ""), _edit('"stars":5,', ""), _edit('"date":"2016-05-30",', ""),
    _edit('"user_id":"u1"', '"user_id":""'), _edit('"business_id":"b1"', '"business_id":""'),
    _edit('"business_id":"b1"', '"business_id":7'),
    _edit('"stars":5', '"stars":true'), _edit('"stars":5', '"stars":"5"'),
    _edit('"stars":5', '"stars":2.5'), _edit('"stars":5', '"stars":4.0'),
    _edit('"stars":5', '"stars":6'), _edit('"stars":5', '"stars":NaN'),
    _edit('"date":"2016-05-30"', '"date":20160530'),
    _edit('"date":"2016-05-30"', '"date":"2016-02-30"'),
    _edit('"text":"ok"', '"text":5'), _edit('"text":"ok"', '"text":"\\ud800"'),
    _edit('"user_id":"u1"', '"user_id":"\\udc00"'), _edit('"text":"ok"', '"text":"\\ud83d\\ude00"'),
    _edit('"text":"ok"', '"text":"caf\u00e9 \ud800"'),
    _edit('"votes":{"funny":0,"useful":1,"cool":0}', '"votes":[1]'),
    _edit('"useful":1', '"useful":"lots"'), _edit('"useful":1', '"useful":"3"'),
    _edit('"useful":1', '"useful":2.0'), _edit('"useful":1', '"useful":2.7'),
    _edit('"useful":1', '"useful":true'), _edit('"useful":1', '"useful":null'),
    _edit('"funny":0', '"funny":-1'), _edit('"cool":0', '"cool":-2'),
    _edit('"cool":0', '"cool":-2.0'), _edit('"useful":1', '"useful":-1.5'),
]


class TestParseRecordDifferential:
    @pytest.mark.parametrize("line", _EACH_CHECK)
    def test_each_check(self, line):
        assert _outcome(parse_record, line) == _outcome(_oracle_parse_record, line)

    @given(st.one_of(
        _record_lines(),
        _record_lines().flatmap(lambda line: st.integers(0, len(line)).map(lambda n: line[:n])),
        _JSON.map(json.dumps),
        st.text(max_size=20),
    ))
    @settings(max_examples=500, deadline=None)
    def test_same_record_or_same_error(self, line):
        """The same record, or the same exception type and message, as the
        first form of the parser. A vote such as "lots" is the ValueError
        of int() in both."""
        assert _outcome(parse_record, line) == _outcome(_oracle_parse_record, line)

class TestLoadCorpus:
    def test_a_read_error_is_io_failure(self):
        def lines():
            yield VALID_LINE
            raise OSError("device gone")

        with pytest.raises(IoFailure, match="device gone"):
            load_corpus(lines())

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

    def test_blank_lines_are_skipped(self):
        stream = io.StringIO(VALID_LINE + "\n\n  \t\n" + VALID_LINE + "\n\nnot json\n")
        with pytest.raises(MalformedLine, match="line 6"):
            load_corpus(stream)
        stream.seek(0)
        corpus = load_corpus(stream, skip_malformed=True)
        assert (len(corpus), corpus.skipped) == (2, 1)

    def test_skip_policy_counts(self):
        stream = io.StringIO(VALID_LINE + "\nnot json\n")
        corpus = load_corpus(stream, skip_malformed=True)
        assert len(corpus) == 1
        assert corpus.skipped == 1

    @pytest.mark.parametrize("field", ["user_id", "business_id", "text"])
    def test_lone_surrogate_is_malformed(self, field):
        """A JSON escape can spell a lone UTF-16 surrogate, which UTF-8 cannot encode."""
        line = VALID_LINE.replace(f'"{field}":"', f'"{field}":"x\\ud800')
        assert "\\ud800" in line
        with pytest.raises(MalformedLine, match=f"line 2: {field} holds a lone UTF-16 surrogate"):
            load_corpus(io.StringIO(VALID_LINE + "\n" + line + "\n"))
        corpus = load_corpus(io.StringIO(line + "\n" + VALID_LINE + "\n"), skip_malformed=True)
        assert (len(corpus), corpus.skipped) == (1, 1)

    @pytest.mark.parametrize("nested", ["[" * 100_000, '{"a": ' * 100_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_line_is_malformed(self, nested):
        """json's decoder gives up on deep nesting with a RecursionError;
        that line is malformed like any other."""
        stream = io.StringIO(VALID_LINE + "\n" + nested + "\n" + VALID_LINE + "\n")
        with pytest.raises(MalformedLine, match="line 2: unparseable line"):
            load_corpus(stream)
        stream.seek(0)
        corpus = load_corpus(stream, skip_malformed=True)
        assert (len(corpus), corpus.skipped) == (2, 1)

    def test_surrogate_pair_parses(self):
        line = VALID_LINE.replace('"text":"ok"', '"text":"ok \\ud83d\\ude00"')
        record = parse_record(line)
        assert record.text == "ok \U0001F600"
        assert parse_record(serialize_record(record)) == record

    @pytest.mark.parametrize("skip_malformed", [False, True])
    def test_invalid_utf8_is_malformed(self, skip_malformed):
        """A text stream decodes ahead of the lines it yields, so the error
        names no line and cannot be skipped."""
        data = (VALID_LINE + "\n").encode() + b'{"text": "caf\xe9"}\n'
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with pytest.raises(MalformedLine, match="not UTF-8") as exc:
            load_corpus(stream, skip_malformed=skip_malformed)
        assert "line" not in str(exc.value)


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

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5])
    def test_ratio_outside_the_open_unit_interval(self, ratio):
        corpus = Corpus(tuple(_record(f"u{i}", "b", i) for i in range(4)))
        with pytest.raises(ValueError, match="ratio must be in"):
            temporal_split(corpus, ratio)

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
