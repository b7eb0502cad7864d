"""Review-log ingestion: record parsing, corpus stats, temporal split.

The input is newline-delimited JSON, one review per line, with the fields
user_id, business_id, stars (1-5), text, date ('YYYY-MM-DD') and votes.
Dates are stored internally as integer days since 1970-01-01.
"""

from __future__ import annotations

import datetime
import json
import re
from dataclasses import dataclass, field
from typing import IO, Iterable

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


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


def days_from_date(iso: str) -> int:
    """Convert a 'YYYY-MM-DD' string to days since 1970-01-01."""
    if not _DATE_RE.match(iso):
        raise BadDate(f"date not in YYYY-MM-DD form: {iso!r}")
    try:
        d = datetime.date.fromisoformat(iso)
    except ValueError as exc:
        raise BadDate(f"invalid calendar date: {iso!r}") from exc
    return d.toordinal() - _EPOCH_ORDINAL


def date_from_days(days: int) -> datetime.date:
    return datetime.date.fromordinal(days + _EPOCH_ORDINAL)


def month_of_days(days: int) -> int:
    """Calendar month (1-12) of a days-since-epoch value."""
    return date_from_days(days).month


@dataclass(frozen=True)
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
    ratio: float


@dataclass
class StarLengthSummary:
    count: int = 0
    mean_length: float = 0.0
    min_length: int = 0
    max_length: int = 0


@dataclass
class StatsReport:
    total: int
    num_users: int
    num_businesses: int
    star_histogram: list[int]  # index 0 -> 1 star, ..., index 4 -> 5 stars
    lengths_by_star: list[StarLengthSummary] = field(default_factory=list)

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


def _require(obj: dict, key: str):
    if key not in obj:
        raise MissingField(f"missing field {key!r}")
    return obj[key]


def _vote_count(votes_obj: dict, key: str) -> int:
    """A vote count as an int. A bool, null, list or object, or a float with
    a fractional part (or a non-finite one), is out of range rather than
    truncated or a crash. A string goes through int()."""
    value = votes_obj.get(key, 0)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, str))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise OutOfRange(f"votes.{key} is not an integer: {value!r}")
    return int(value)


def parse_record(line: str) -> InteractionRecord:
    """Parse one JSON review line into a validated record.

    Fields outside the review layout (e.g. 'type') are ignored.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedLine(f"unparseable line: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine("line is not a JSON object")

    user_id = _require(obj, "user_id")
    business_id = _require(obj, "business_id")
    stars = _require(obj, "stars")
    date = _require(obj, "date")

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
    date_days = days_from_date(date)

    text = obj.get("text", "")
    if not isinstance(text, str):
        raise MalformedLine("text is not a string")

    votes_obj = obj.get("votes", {})
    if not isinstance(votes_obj, dict):
        raise MalformedLine("votes is not an object")
    votes = tuple(_vote_count(votes_obj, k) for k in ("funny", "useful", "cool"))
    if any(v < 0 for v in votes):
        raise OutOfRange("negative vote count")

    return InteractionRecord(
        user_id=user_id,
        business_id=business_id,
        stars=stars,
        text=text,
        date_days=date_days,
        votes=votes,  # type: ignore[arg-type]
    )


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
    return Corpus(records=tuple(records), skipped=skipped)


def temporal_split(corpus: Corpus, ratio: float) -> TemporalSplit:
    """Order records by (date, ingestion index) and cut at floor(ratio * T).

    Every train record's date is <= every test record's date; ties between
    equal dates are broken by ingestion order so splits are reproducible.
    """
    if len(corpus) < 2:
        raise EmptyCorpus(f"need at least 2 records, have {len(corpus)}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0,1): {ratio}")
    order = sorted(range(len(corpus)), key=lambda i: (corpus.records[i].date_days, i))
    cut = int(ratio * len(corpus))
    return TemporalSplit(train=tuple(order[:cut]), test=tuple(order[cut:]), ratio=ratio)


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Star histogram and per-star review-length summary (characters)."""
    histogram = [0] * 5
    lengths: list[list[int]] = [[] for _ in range(5)]
    for r in corpus.records:
        histogram[r.stars - 1] += 1
        lengths[r.stars - 1].append(len(r.text))
    summaries = []
    for ls in lengths:
        if ls:
            summaries.append(
                StarLengthSummary(
                    count=len(ls),
                    mean_length=sum(ls) / len(ls),
                    min_length=min(ls),
                    max_length=max(ls),
                )
            )
        else:
            summaries.append(StarLengthSummary())
    return StatsReport(
        total=len(corpus),
        num_users=corpus.num_users,
        num_businesses=corpus.num_businesses,
        star_histogram=histogram,
        lengths_by_star=summaries,
    )
