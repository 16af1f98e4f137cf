"""Session-log schema, vocabularies, instance assembly, and synthetic logs.

Logs are JSON Lines. A record is one impression: the user's merged
(organic + sponsored) behavior history up to the impression, the query,
the ad, and the click label. The log stores each behavior event and ad
once, on a line of its own, and a record names them by number (see
``write_log_records``). Vocabularies map string tokens to dense ids per
id space with frequency truncation; id 0 is reserved for
pad/out-of-vocabulary.

The synthetic generator plants a recoverable structure: items belong to
latent categories, a user session holds one or two interest categories,
and clicks depend on whether the ad's category matches the category the
query was issued from. Query tokens are deliberately ambiguous between
two categories (and some negative ads are drawn from the confusable
category), so resolving the click signal requires attending to the
behaviors that match the query rather than pooling the whole history.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import (
    PAD_BEHAVIOR,
    AdItem,
    BehaviorItem,
    EncoderConfig,
    ImpressionInstance,
    QueryRequest,
    SPACES,
)


class EmptyCorpusError(ValueError):
    """Vocabulary construction was given no log records."""


class CoverageError(ValueError):
    """A requested split day has no log records."""


# ----------------------------------------------------------------------
# log schema


@dataclass
class BehaviorEvent:
    """One past browse/click event with the query that led to it."""

    timestamp: int
    item_id: str
    shop_id: str
    brand_id: str
    title_terms: list[str]
    query_terms: list[str]

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BehaviorEvent":
        """An event from its JSON object, refusing a field of the wrong type."""
        ev = cls(**payload)
        if type(ev.timestamp) is not int:  # a bool is refused too
            raise ValueError(f"an event's timestamp must be an integer, got {ev.timestamp!r}")
        for name in ("item_id", "shop_id", "brand_id"):
            if not isinstance(getattr(ev, name), str):
                raise ValueError(f"an event's {name} must be a string, got {getattr(ev, name)!r}")
        if not (
            isinstance(ev.title_terms, list)
            and isinstance(ev.query_terms, list)
            and all(type(t) is str for t in ev.title_terms + ev.query_terms)
        ):
            raise ValueError(
                "an event's title_terms and query_terms must be lists of strings, "
                f"got {ev.title_terms!r} and {ev.query_terms!r}"
            )
        return ev


@dataclass
class AdDescriptor:
    """An ad's raw features plus its bid keywords and per-click cost."""

    item_id: str
    shop_id: str
    brand_id: str
    title_terms: list[str]
    bid_keywords: list[str]
    cost: float

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AdDescriptor":
        """An ad from its JSON object, refusing a field of the wrong type, so
        a bad ad reaches neither the index nor the replay."""
        ad = cls(**payload)
        for name in ("item_id", "shop_id", "brand_id"):
            if not isinstance(getattr(ad, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(ad, name)!r}")
        for name in ("title_terms", "bid_keywords"):
            terms = getattr(ad, name)
            if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                raise ValueError(f"{name} must be a list of strings, got {terms!r}")
        cost = ad.cost
        if isinstance(cost, bool) or not isinstance(cost, (int, float)) or not 0 <= cost < math.inf:
            raise ValueError(f"cost must be a finite non-negative number, got {cost!r}")
        return ad


@dataclass
class LogRecord:
    """One ad impression with full request context and the click label."""

    user_id: str
    timestamp: int
    query_terms: list[str]
    behavior_items: list[BehaviorEvent]
    ad: AdDescriptor
    clicked: int
    day: str

    @classmethod
    def from_dict(
        cls, payload: Mapping, events: Sequence[BehaviorEvent], ads: Sequence[AdDescriptor]
    ) -> "LogRecord":
        """A record from its line of a log, refusing a field of the wrong type.
        Its ``behavior_items`` are numbers of ``events`` and its ``ad`` is a
        number of ``ads``: the record shares the objects they name."""
        clicked = payload["clicked"]
        if isinstance(clicked, bool) or clicked not in (0, 1):
            raise ValueError(f"clicked must be 0 or 1, got {clicked!r}")
        query_terms = payload["query_terms"]
        if not isinstance(query_terms, list) or not all(isinstance(t, str) for t in query_terms):
            raise ValueError(f"query_terms must be a list of strings, got {query_terms!r}")
        numbers, ad = payload["behavior_items"], payload["ad"]
        # a number is an int (not a bool) that names a line above
        if type(numbers) is not list or not all(
            type(n) is int and 0 <= n < len(events) for n in numbers
        ):
            raise ValueError(f"behavior_items must be a list of event numbers from 0 to "
                             f"{len(events) - 1}, got {numbers!r}")
        if type(ad) is not int or not 0 <= ad < len(ads):
            raise ValueError(f"ad must be an ad number from 0 to {len(ads) - 1}, got {ad!r}")
        user_id, timestamp, day = payload["user_id"], payload["timestamp"], payload["day"]
        for name, value in (("user_id", user_id), ("day", day)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if type(timestamp) is not int:  # a bool is refused too
            raise ValueError(f"timestamp must be an integer, got {timestamp!r}")
        behavior = [events[n] for n in numbers]
        return cls(user_id, timestamp, query_terms, behavior, ads[ad], int(clicked), day)


def write_jsonl(rows: Iterable, path: str | Path) -> None:
    """One JSON object per line: a dict as it is, a dataclass as its fields."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row if type(row) is dict else vars(row), sort_keys=True))
            fh.write("\n")


def _parse_error(where: str, exc: Exception) -> ValueError:
    """A JSON input's parse failure as a ValueError that starts with
    ``where`` (the file, and the line of a JSON Lines file)."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{where}: {what}")


def _read_json_lines(path: str | Path, parse) -> int:
    """Call ``parse`` on each non-blank line's JSON; a line that fails to
    parse fails naming the file and its 1-based line number. Returns the
    number of lines."""
    number = 0
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    parse(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    raise _parse_error(f"{path}, line {number}", exc) from None
    return number


LOG_FORMAT_VERSION = 2


def write_log_records(records: Iterable[LogRecord], path: str | Path) -> None:
    """Write a log in format 2, which stores each event and ad object once.

    Line 1 is the header ``{"ads": A, "events": E, "format_version": 2}``.
    The next E lines hold one event each and the next A lines one ad each,
    numbered from 0 in the order the records first name them. Then each
    record's line names its ``behavior_items`` by event number and its
    ``ad`` by ad number, so it refers only to lines above it.
    """
    records = list(records)  # keeps every object alive while ids name them
    events = {id(ev): ev for rec in records for ev in rec.behavior_items}
    ads = {id(rec.ad): rec.ad for rec in records}
    event_numbers = {key: n for n, key in enumerate(events)}
    ad_numbers = {key: n for n, key in enumerate(ads)}
    header = {"ads": len(ads), "events": len(events), "format_version": LOG_FORMAT_VERSION}
    rows = (
        {**vars(rec), "ad": ad_numbers[id(rec.ad)],
         "behavior_items": [event_numbers[id(ev)] for ev in rec.behavior_items]}
        for rec in records
    )
    write_jsonl(chain([header], events.values(), ads.values(), rows), path)


def _log_counts(header) -> tuple[int, int]:
    """The event and ad counts of a log's header line."""
    if type(header) is not dict or sorted(header) != ["ads", "events", "format_version"] or (
        header["format_version"] != LOG_FORMAT_VERSION
    ):
        raise ValueError('not the log header {"ads": A, "events": E, "format_version": 2}; '
                         "re-run gen-data")
    counts = header["events"], header["ads"]
    if not all(type(n) is int and n >= 0 for n in counts):  # a bool is refused too
        raise ValueError(f"the header's counts must be non-negative integers, got {header}")
    return counts


def read_log_records(path: str | Path) -> list[LogRecord]:
    """Every record of a log that ``write_log_records`` wrote, checking each
    event and ad line once. Records share the objects that their numbers
    name: treat them as read-only. A bad line, a missing or other header
    (as in a log older than format 2), a number that names no line above,
    or a file that ends inside a section fails naming the file and line."""
    events: list[BehaviorEvent] = []
    ads: list[AdDescriptor] = []
    records: list[LogRecord] = []
    counts: list[int] = []  # of events and ads, from the header

    def parse(payload) -> None:
        if not counts:
            counts.extend(_log_counts(payload))
        elif len(events) < counts[0]:
            events.append(BehaviorEvent.from_dict(payload))
        elif len(ads) < counts[1]:
            ads.append(AdDescriptor.from_dict(payload))
        else:
            records.append(LogRecord.from_dict(payload, events, ads))

    end = f"{path}, line {_read_json_lines(path, parse) + 1}"
    if not counts:
        raise ValueError(f"{end}: the log header is missing; re-run gen-data")
    if len(events) < counts[0] or len(ads) < counts[1]:
        raise ValueError(f"{end}: the file ends after {len(events)} of {counts[0]} events "
                         f"and {len(ads)} of {counts[1]} ads")
    return records


def write_ads(ads: Iterable[AdDescriptor], path: str | Path) -> None:
    write_jsonl(ads, path)


def read_ads(path: str | Path) -> list[AdDescriptor]:
    ads: list[AdDescriptor] = []
    _read_json_lines(path, lambda payload: ads.append(AdDescriptor.from_dict(payload)))
    return ads


def read_ad_json(text: str, where: str) -> AdDescriptor:
    """One ad from JSON text, parsed as ``read_ads`` parses a line; a failure
    names ``where`` (the flag or file the text came from)."""
    try:
        return AdDescriptor.from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise _parse_error(where, exc) from None


# ----------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """Per-space token-to-id maps; id 0 is reserved for pad/OOV."""

    def __init__(self, maps: Mapping[str, Mapping[str, int]]) -> None:
        self._maps = {space: dict(maps.get(space, {})) for space in SPACES}
        for space, mapping in self._maps.items():
            ids = sorted(mapping.values())
            if ids and (ids[0] < 1 or ids != list(range(1, len(ids) + 1))):
                raise ValueError(f"ids for space '{space}' are not dense from 1")

    @property
    def sizes(self) -> dict[str, int]:
        """Table sizes including the reserved pad row."""
        return {space: len(m) + 1 for space, m in self._maps.items()}

    def id_for(self, space: str, token: str) -> int:
        return self._maps[space].get(token, 0)

    def ids_for(self, space: str, tokens: Sequence[str]) -> tuple[int, ...]:
        mapping = self._maps[space]
        return tuple(mapping.get(t, 0) for t in tokens)

    def save_tsv(self, path: str | Path) -> None:
        """One ``token<TAB>space<TAB>id`` line per token; a token holding a
        tab or a line break is refused, since the file could not hold it."""
        lines = []
        for space in SPACES:
            for token, idx in sorted(self._maps[space].items(), key=lambda kv: kv[1]):
                if any(c in token for c in "\t\n\r"):
                    raise ValueError(
                        f"{space} token {token!r} holds a tab or line break; "
                        "a TSV vocabulary cannot store it"
                    )
                lines.append(f"{token}\t{space}\t{idx}\n")
        Path(path).write_text("".join(lines))

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocabulary":
        """Read ``save_tsv``'s format; a malformed line fails naming the
        file and its 1-based line number."""
        maps: dict[str, dict[str, int]] = {space: {} for space in SPACES}
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                try:
                    if len(fields) != 3:
                        raise ValueError(f"expected token, space and id, got {len(fields)} fields")
                    token, space, idx = fields
                    if space not in maps:
                        raise ValueError(f"unknown space {space!r}")
                    maps[space][token] = int(idx)
                except ValueError as exc:
                    raise ValueError(f"{path}, line {number}: {exc}") from None
        try:
            return cls(maps)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _space_counts(records: Sequence[LogRecord]) -> dict[str, Counter]:
    """Token counts per space. Records share event and ad objects, so each
    distinct object is counted once, weighted by the records holding it."""
    counts: dict[str, Counter] = {space: Counter() for space in SPACES}
    terms = counts["term_id"]
    held = [rec.ad for rec in records]
    for rec in records:
        terms.update(rec.query_terms)
        held += rec.behavior_items
    objects = dict(zip(map(id, held), held))
    for key, n in Counter(map(id, held)).items():
        obj = objects[key]
        counts["item_id"][obj.item_id] += n
        counts["shop_id"][obj.shop_id] += n
        counts["brand_id"][obj.brand_id] += n
        for t in obj.title_terms:
            terms[t] += n
        for t in getattr(obj, "query_terms", ()):  # an ad's bid keywords are not counted
            terms[t] += n
    return counts


def build_vocab(
    records: Sequence[LogRecord], top_k: int | Mapping[str, int]
) -> Vocabulary:
    """Keep the top-k most frequent tokens per space; ties break by token.

    Tokens cut by truncation (and anything unseen) map to id 0 later.
    """
    if not records:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    if isinstance(top_k, int):
        limits = {space: top_k for space in SPACES}
    else:
        limits = {space: int(top_k.get(space, 0)) for space in SPACES}
    if any(v < 1 for v in limits.values()):
        raise ValueError("top_k must be at least 1 for every space")
    counts = _space_counts(records)
    maps: dict[str, dict[str, int]] = {}
    for space in SPACES:
        ranked = sorted(counts[space].items(), key=lambda kv: (-kv[1], kv[0]))
        kept = ranked[: limits[space]]
        maps[space] = {token: i + 1 for i, (token, _) in enumerate(kept)}
    return Vocabulary(maps)


# ----------------------------------------------------------------------
# instance assembly


def ad_item_from_descriptor(ad: AdDescriptor, vocab: Vocabulary) -> AdItem:
    return AdItem(
        item_id=vocab.id_for("item_id", ad.item_id),
        shop_id=vocab.id_for("shop_id", ad.shop_id),
        brand_id=vocab.id_for("brand_id", ad.brand_id),
        title_term_ids=vocab.ids_for("term_id", ad.title_terms),
    )


def request_from_record(
    record: LogRecord, vocab: Vocabulary, m: int, mapped: dict | None = None
) -> QueryRequest:
    """Map a record to model inputs: latest m prior behaviors, left-padded.

    Behaviors at or after the impression timestamp are excluded so no
    instance can see the future. ``mapped`` keeps each event's
    ``BehaviorItem`` across calls, by event id: the caller keeps those
    events alive while it passes the map.
    """
    prior = [ev for ev in record.behavior_items if ev.timestamp < record.timestamp]
    prior.sort(key=lambda ev: ev.timestamp)
    mapped = {} if mapped is None else mapped
    items = []
    for ev in prior[-m:]:
        item = mapped.get(id(ev))
        if item is None:
            item = mapped[id(ev)] = BehaviorItem(
                vocab.id_for("item_id", ev.item_id), vocab.id_for("shop_id", ev.shop_id),
                vocab.id_for("brand_id", ev.brand_id), vocab.ids_for("term_id", ev.title_terms),
                vocab.ids_for("term_id", ev.query_terms),
            )
        items.append(item)
    behaviors = (PAD_BEHAVIOR,) * (m - len(items)) + tuple(items)
    return QueryRequest(
        query_term_ids=vocab.ids_for("term_id", record.query_terms),
        profile_ids=(),
        behaviors=behaviors,
    )


def make_instances(
    records: Iterable[LogRecord],
    vocab: Vocabulary,
    m: int = EncoderConfig.behavior_window,
) -> Iterator[ImpressionInstance]:
    """Labeled training instances, one per record; each distinct event and ad is mapped once."""
    if m < 1:
        raise ValueError(f"behavior window m must be >= 1, got {m}")
    events, ads, held = {}, {}, []  # held keeps every record, so no id is reused
    for record in records:
        held.append(record)
        ad = ads.get(id(record.ad))
        if ad is None:
            ad = ads[id(record.ad)] = ad_item_from_descriptor(record.ad, vocab)
        yield ImpressionInstance(
            request=request_from_record(record, vocab, m, events), ad=ad, label=int(record.clicked)
        )


# ----------------------------------------------------------------------
# day-based splitting


@dataclass(frozen=True)
class DatasetSplit:
    """Three consecutive training days, the following test day, and the
    stable-hash validation fraction carved out of training."""

    train_days: tuple[str, ...]
    test_day: str
    validation_fraction: float = 0.05

    def __post_init__(self) -> None:
        if len(self.train_days) != 3:
            raise ValueError("train_days must name exactly 3 days")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.test_day <= max(self.train_days):
            raise ValueError("test day must come after every training day")


def _stable_fraction(user_id: str, timestamp: int) -> float:
    """Deterministic uniform draw from (user, timestamp), stable across runs."""
    digest = hashlib.md5(f"{user_id}|{timestamp}".encode()).hexdigest()
    return int(digest[:12], 16) / float(16**12)


def split_by_day(
    records: Sequence[LogRecord], split: DatasetSplit
) -> tuple[list[LogRecord], list[LogRecord], list[LogRecord]]:
    """Partition records into (train, validation, test) by day.

    Validation is sampled from the training days by a hash of
    (user_id, timestamp), so the partition is identical across runs.
    """
    present = {r.day for r in records}
    wanted = set(split.train_days) | {split.test_day}
    absent = sorted(wanted - present)
    if absent:
        raise CoverageError(f"no log records for days: {', '.join(absent)}")
    train: list[LogRecord] = []
    validation: list[LogRecord] = []
    test: list[LogRecord] = []
    train_days = set(split.train_days)
    for rec in records:
        if rec.day == split.test_day:
            test.append(rec)
        elif rec.day in train_days:
            if _stable_fraction(rec.user_id, rec.timestamp) < split.validation_fraction:
                validation.append(rec)
            else:
                train.append(rec)
    return train, validation, test


# ----------------------------------------------------------------------
# synthetic generator


# past behaviors each log record carries: the most recent ones
HISTORY_LEN = 10
# chance that a request's ad comes from the request's own category
MATCH_PROB = 0.5
# chance that a behavior comes from the current interest, not the other one
CURRENT_INTEREST_BIAS = 0.7


@dataclass
class GeneratorConfig:
    """Knobs of the planted-structure log generator."""

    seed: int = 0
    n_users: int = 400
    n_items: int = 600
    n_categories: int = 8
    days: int = 4
    impressions_per_user_day: int = 12
    p_hi: float = 0.6
    p_lo: float = 0.05
    confuser_prob: float = 0.35
    head_query_prob: float = 0.3
    terms_per_category: int = 25
    pair_terms: int = 8
    shops_per_category: int = 6
    brands_per_category: int = 4

    def __post_init__(self) -> None:
        if self.n_categories < 1:
            raise ValueError("need at least one category")
        if self.n_items < self.n_categories:
            raise ValueError("need at least one item per category")
        if not 0.0 <= self.p_lo <= self.p_hi <= 1.0:
            raise ValueError("need 0 <= p_lo <= p_hi <= 1")
        if self.days < 1 or self.n_users < 1 or self.impressions_per_user_day < 1:
            raise ValueError("users, days and impressions must be positive")


@dataclass
class PlantedOracle:
    """Ground-truth click model of the synthetic world.

    Knows each item's latent category and each logged request's intended
    category, so replayed impressions can be click-sampled consistently.
    """

    item_categories: dict[str, int]
    request_categories: dict[str, int]
    p_hi: float
    p_lo: float

    @staticmethod
    def request_key(user_id: str, timestamp: int) -> str:
        return f"{user_id}|{timestamp}"

    def request_category(self, user_id: str, timestamp: int) -> int:
        key = self.request_key(user_id, timestamp)
        if key not in self.request_categories:
            raise KeyError(f"unknown request {key}")
        return self.request_categories[key]

    def click_prob(self, user_id: str, timestamp: int, ad_item_id: str) -> float:
        category = self.request_category(user_id, timestamp)
        if ad_item_id not in self.item_categories:
            raise KeyError(f"unknown ad item {ad_item_id}")
        return self.p_hi if category == self.item_categories[ad_item_id] else self.p_lo

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": 1,
            "item_categories": self.item_categories,
            "request_categories": self.request_categories,
            "p_hi": self.p_hi,
            "p_lo": self.p_lo,
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "PlantedOracle":
        try:
            payload = json.loads(Path(path).read_text())
            if payload["format_version"] != 1:
                raise ValueError(f"oracle format version {payload['format_version']!r}, not 1")
            categories = {key: payload[key] for key in ("item_categories", "request_categories")}
            for key, mapping in categories.items():
                # a bool category is refused too
                if type(mapping) is not dict or any(type(c) is not int for c in mapping.values()):
                    raise ValueError(f"{key} must map each key to an integer category")
            p_hi, p_lo = payload["p_hi"], payload["p_lo"]
            for name, p in (("p_hi", p_hi), ("p_lo", p_lo)):
                if type(p) not in (int, float):  # a bool or a string is refused
                    raise ValueError(f"{name} must be a number, got {p!r}")
            if not 0 <= p_lo <= p_hi <= 1:  # GeneratorConfig's rule; NaN fails it
                raise ValueError(f"need 0 <= p_lo <= p_hi <= 1, got p_lo {p_lo!r}, p_hi {p_hi!r}")
            return cls(**categories, p_hi=float(p_hi), p_lo=float(p_lo))
        except (KeyError, TypeError, ValueError) as exc:
            raise _parse_error(str(path), exc) from None


def _build_catalog(
    cfg: GeneratorConfig, rng: np.random.Generator
) -> tuple[list[AdDescriptor], list[list[str]], list[list[str]]]:
    """The ``n_items`` ads, ad i in category ``i % C``, with the per-category
    title-term pools and the shared query-term pools."""
    c_count = cfg.n_categories
    title_pools = [
        [f"t{c}_{i}" for i in range(cfg.terms_per_category)] for c in range(c_count)
    ]
    # pair pool p is shared between categories p and (p + 1) % C, which is
    # what makes tail queries ambiguous between two categories
    pair_pools = [
        [f"q{c}_{(c + 1) % c_count}_{i}" for i in range(cfg.pair_terms)]
        for c in range(c_count)
    ]
    ads = []
    for i in range(cfg.n_items):
        cat = i % c_count
        pool = title_pools[cat]
        n_title = int(rng.integers(2, 5))
        title = [pool[j] for j in rng.choice(len(pool), size=n_title, replace=False)]
        n_bid = int(rng.integers(1, 3))
        bid = [title[j] for j in rng.choice(len(title), size=n_bid, replace=False)]
        ads.append(
            AdDescriptor(
                item_id=f"item{i}",
                shop_id=f"shop{cat}_{int(rng.integers(cfg.shops_per_category))}",
                brand_id=f"brand{cat}_{int(rng.integers(cfg.brands_per_category))}",
                title_terms=title,
                bid_keywords=bid,
                cost=round(float(rng.uniform(0.5, 2.0)), 2),
            )
        )
    return ads, title_pools, pair_pools


def _event(ts: int, ad: AdDescriptor, query_terms: list[str]) -> BehaviorEvent:
    return BehaviorEvent(ts, ad.item_id, ad.shop_id, ad.brand_id, ad.title_terms, query_terms)


def generate_synthetic(
    cfg: GeneratorConfig,
) -> tuple[list[LogRecord], list[AdDescriptor], PlantedOracle]:
    """Generate impression logs, the ad repository, and the click oracle.

    Same seed, same bytes: the generator draws from one seeded stream in
    a fixed order. Every record and event points at the returned ads and
    their term lists; nothing changes them once made.
    """
    rng = np.random.default_rng(cfg.seed)
    c_count = cfg.n_categories
    ads, title_pools, pair_pools = _build_catalog(cfg, rng)
    base_day = datetime.date(2024, 1, 1)
    records: list[LogRecord] = []
    item_categories = {ad.item_id: i % c_count for i, ad in enumerate(ads)}
    oracle = PlantedOracle(item_categories, {}, cfg.p_hi, cfg.p_lo)

    def pick_ad(category: int) -> AdDescriptor:
        count = len(range(category, cfg.n_items, c_count))
        return ads[category + c_count * int(rng.integers(count))]

    def make_query(category: int) -> tuple[list[str], int | None]:
        """Query terms for an interest plus its confusable category (if any).

        Head queries name one unambiguous title term of the category (these
        are the keyword-matchable queries). Tail queries draw from a pair
        pool shared with a neighboring category, which only behaviors can
        disambiguate.
        """
        if rng.random() < cfg.head_query_prob:
            pool = title_pools[category]
            return [pool[int(rng.integers(len(pool)))]], None
        if rng.random() < 0.5:
            pool_id, confuser = category, (category + 1) % c_count
        else:
            pool_id, confuser = (category - 1) % c_count, (category - 1) % c_count
        pool = pair_pools[pool_id]
        n = int(rng.integers(1, 3))
        picks = rng.choice(len(pool), size=n, replace=False)
        return [pool[j] for j in sorted(picks)], (None if confuser == category else confuser)

    for user in range(cfg.n_users):
        user_id = f"u{user}"
        history: list[BehaviorEvent] = []
        ts = user * 1000
        for day_idx in range(cfg.days):
            day = (base_day + datetime.timedelta(days=day_idx)).isoformat()
            ts = max(ts, day_idx * 10_000_000 + user * 1000)
            if c_count >= 2 and rng.random() < 0.8:
                picks = rng.choice(c_count, size=2, replace=False)
                interests = [int(picks[0]), int(picks[1])]
            else:
                interests = [int(rng.integers(c_count))]
            for _ in range(cfg.impressions_per_user_day):
                current = interests[int(rng.integers(len(interests)))]
                for _ in range(int(rng.integers(1, 4))):
                    if len(interests) > 1 and rng.random() > CURRENT_INTEREST_BIAS:
                        b_cat = interests[1] if interests[0] == current else interests[0]
                    else:
                        b_cat = current
                    b_ad = pick_ad(b_cat)
                    b_query, _ = make_query(b_cat)
                    ts += int(rng.integers(1, 30))
                    history.append(_event(ts, b_ad, b_query))
                query_terms, confuser = make_query(current)
                roll = rng.random()
                if roll < MATCH_PROB:
                    ad_cat = current
                elif confuser is not None and roll < MATCH_PROB + cfg.confuser_prob:
                    ad_cat = confuser
                else:
                    ad_cat = int(rng.integers(c_count))
                ad = pick_ad(ad_cat)
                clicked = int(rng.random() < (cfg.p_hi if ad_cat == current else cfg.p_lo))
                ts += int(rng.integers(1, 30))
                records.append(
                    LogRecord(
                        user_id=user_id,
                        timestamp=ts,
                        query_terms=query_terms,
                        behavior_items=history[-HISTORY_LEN:],
                        ad=ad,
                        clicked=clicked,
                        day=day,
                    )
                )
                oracle.request_categories[PlantedOracle.request_key(user_id, ts)] = current
                if clicked:
                    ts += 1
                    history.append(_event(ts, ad, query_terms))
    return records, ads, oracle
