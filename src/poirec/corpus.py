"""Review-log ingestion: record parsing, corpus stats, temporal split.

The input is newline-delimited JSON, one review per line, with the fields
user_id, business_id, stars (1-5), text, date ('YYYY-MM-DD') and votes.
Dates are stored internally as integer days since 1970-01-01.
"""

from __future__ import annotations

import datetime
import functools
import json
import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_decode = json.JSONDecoder().decode


class CorpusError(Exception):
    """Base class for ingestion failures."""


class MalformedLine(CorpusError):
    pass


class MissingField(CorpusError):
    pass


class OutOfRange(CorpusError):
    pass


class BadDate(CorpusError):
    pass


class IoFailure(CorpusError):
    pass


class EmptyCorpus(CorpusError):
    pass


@functools.lru_cache(maxsize=1 << 16)
def days_from_date(iso: str) -> int:
    """Convert a 'YYYY-MM-DD' string to days since 1970-01-01. Memoised: a
    corpus repeats about a thousand distinct dates over all its reviews."""
    if not _DATE_RE.match(iso):
        raise BadDate(f"date not in YYYY-MM-DD form: {iso!r}")
    try:
        d = datetime.date.fromisoformat(iso)
    except ValueError as exc:
        raise BadDate(f"invalid calendar date: {iso!r}") from exc
    return d.toordinal() - _EPOCH_ORDINAL


def date_from_days(days: int) -> datetime.date:
    return datetime.date.fromordinal(days + _EPOCH_ORDINAL)


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One review event: who rated which business, how, and when."""

    user_id: str
    business_id: str
    stars: int
    text: str
    date_days: int
    votes: tuple[int, int, int] = (0, 0, 0)  # funny, useful, cool

    @property
    def date(self) -> datetime.date:
        return date_from_days(self.date_days)


@dataclass(frozen=True)
class Corpus:
    records: tuple[InteractionRecord, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_users(self) -> int:
        return len({r.user_id for r in self.records})

    @property
    def num_businesses(self) -> int:
        return len({r.business_id for r in self.records})


@dataclass(frozen=True)
class TemporalSplit:
    train: tuple[int, ...]
    test: tuple[int, ...]


@dataclass
class StarLengthSummary:
    count: int
    mean_length: float
    min_length: int
    max_length: int


@dataclass
class StatsReport:
    total: int
    num_users: int
    num_businesses: int
    lengths_by_star: list[StarLengthSummary]  # index 0 -> 1 star, ..., index 4 -> 5 stars

    @property
    def star_histogram(self) -> list[int]:
        return [s.count for s in self.lengths_by_star]

    def lines(self) -> list[str]:
        out = [
            f"records: {self.total}",
            f"users: {self.num_users}",
            f"businesses: {self.num_businesses}",
        ]
        for star, count in enumerate(self.star_histogram, start=1):
            out.append(f"stars.{star}.count: {count}")
        for star, s in enumerate(self.lengths_by_star, start=1):
            out.append(
                f"stars.{star}.text_length: count={s.count} "
                f"mean={s.mean_length:.2f} min={s.min_length} max={s.max_length}"
            )
        return out


def _vote_count(value, key: str) -> int:
    """A vote count that is not a plain int, as an int. A bool, null, list
    or object, or a float with a fractional part (or a non-finite one), is
    out of range rather than truncated or a crash. A string goes through
    int()."""
    if type(value) is float and value.is_integer() or type(value) is str:
        return int(value)
    raise OutOfRange(f"votes.{key} is not an integer: {value!r}")


def parse_record(line: str) -> InteractionRecord:
    """Parse one JSON review line into a validated record.

    Fields outside the review layout (e.g. 'type') are ignored. `json`
    builds only plain types, so each check is an exact `type(...) is` test.
    """
    try:
        obj = _decode(line)
    except json.JSONDecodeError as exc:
        if line.startswith("\ufeff"):  # the message json.loads gives a byte-order mark
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        raise MalformedLine(f"unparseable line: {exc}") from exc
    if type(obj) is not dict:
        raise MalformedLine("line is not a JSON object")

    try:
        user_id = obj["user_id"]
        business_id = obj["business_id"]
        stars = obj["stars"]
        date = obj["date"]
    except KeyError as exc:
        raise MissingField(f"missing field {exc.args[0]!r}") from None

    if type(user_id) is not str or not user_id:
        raise MissingField("user_id is empty")
    if type(business_id) is not str or not business_id:
        raise MissingField("business_id is empty")

    if type(stars) is float:
        if not stars.is_integer():
            raise OutOfRange(f"stars is not an integer: {stars!r}")
        stars = int(stars)
    elif type(stars) is not int:
        raise OutOfRange(f"stars is not numeric: {stars!r}")
    if stars < 1 or stars > 5:
        raise OutOfRange(f"stars out of [1,5]: {stars}")

    if type(date) is not str:
        raise BadDate(f"date is not a string: {date!r}")
    date_days = days_from_date(date)

    text = obj.get("text", "")
    if type(text) is not str:
        raise MalformedLine("text is not a string")
    # A JSON escape such as \ud800 outside a pair gives a lone surrogate,
    # which no UTF-8 output, corpus or checkpoint, can hold. An ASCII line
    # without a \u escape cannot decode to one.
    if not line.isascii() or "\\u" in line:
        for key, value in (("user_id", user_id), ("business_id", business_id), ("text", text)):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedLine(f"{key} holds a lone UTF-16 surrogate") from None

    votes_obj = obj.get("votes", {})
    if type(votes_obj) is not dict:
        raise MalformedLine("votes is not an object")
    funny = votes_obj.get("funny", 0)
    useful = votes_obj.get("useful", 0)
    cool = votes_obj.get("cool", 0)
    if type(funny) is not int:
        funny = _vote_count(funny, "funny")
    if type(useful) is not int:
        useful = _vote_count(useful, "useful")
    if type(cool) is not int:
        cool = _vote_count(cool, "cool")
    if funny < 0 or useful < 0 or cool < 0:
        raise OutOfRange("negative vote count")

    return InteractionRecord(user_id, business_id, stars, text, date_days, (funny, useful, cool))


def serialize_record(record: InteractionRecord) -> str:
    """Inverse of parse_record; emits the review-line layout."""
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


def load_corpus(source: Iterable[str] | IO[str], skip_malformed: bool = False) -> Corpus:
    """Read newline-delimited review JSON into a Corpus (stream order kept).

    Default policy is fail-fast: the first bad line raises, annotated with
    its 1-based line number. With skip_malformed, bad lines are counted
    and dropped instead.
    """
    records: list[InteractionRecord] = []
    skipped = 0
    try:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse_record(line))
            except CorpusError as exc:
                if skip_malformed:
                    skipped += 1
                    continue
                raise type(exc)(f"line {lineno}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:  # a text stream decodes ahead, so no line number
        raise MalformedLine(f"not UTF-8: {exc.reason}") from exc
    return Corpus(records=tuple(records), skipped=skipped)


def temporal_split(corpus: Corpus, ratio: float) -> TemporalSplit:
    """Order records by date and cut at floor(ratio * T).

    Every train record's date is <= every test record's date; the sort is
    stable, so equal dates keep ingestion order and splits are reproducible.
    """
    if len(corpus) < 2:
        raise EmptyCorpus(f"need at least 2 records, have {len(corpus)}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0,1): {ratio}")
    days = np.fromiter((r.date_days for r in corpus.records), dtype=np.int64, count=len(corpus))
    order = np.argsort(days, kind="stable").tolist()
    cut = int(ratio * len(corpus))
    return TemporalSplit(train=tuple(order[:cut]), test=tuple(order[cut:]))


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Star histogram and per-star review-length summary (characters)."""
    lengths: list[list[int]] = [[] for _ in range(5)]
    for r in corpus.records:
        lengths[r.stars - 1].append(len(r.text))
    return StatsReport(
        total=len(corpus),
        num_users=corpus.num_users,
        num_businesses=corpus.num_businesses,
        lengths_by_star=[
            StarLengthSummary(
                len(ls), sum(ls) / max(len(ls), 1), min(ls, default=0), max(ls, default=0)
            )
            for ls in lengths
        ],
    )
