"""Log schema, vocabulary, instance assembly, splits, and the generator."""

import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from admatch import data as data_module
from admatch.data import (
    CURRENT_INTEREST_BIAS,
    HISTORY_LEN,
    MATCH_PROB,
    AdDescriptor,
    BehaviorEvent,
    CoverageError,
    DatasetSplit,
    EmptyCorpusError,
    GeneratorConfig,
    LogRecord,
    PlantedOracle,
    Vocabulary,
    build_vocab,
    generate_synthetic,
    make_instances,
    read_ads,
    read_log_records,
    split_by_day,
    write_ads,
    write_log_records,
)
from admatch.model import PAD_BEHAVIOR


def simple_record(
    user="u1",
    ts=100,
    terms=("a",),
    behaviors=(),
    ad_terms=("a",),
    clicked=1,
    day="2024-01-01",
):
    return LogRecord(
        user_id=user,
        timestamp=ts,
        query_terms=list(terms),
        behavior_items=list(behaviors),
        ad=AdDescriptor(
            item_id="adx",
            shop_id="s1",
            brand_id="b1",
            title_terms=list(ad_terms),
            bid_keywords=[ad_terms[0]],
            cost=1.0,
        ),
        clicked=clicked,
        day=day,
    )


def event(ts, item="i1", terms=("a",), query=("a",)):
    return BehaviorEvent(
        timestamp=ts,
        item_id=item,
        shop_id="s1",
        brand_id="b1",
        title_terms=list(terms),
        query_terms=list(query),
    )


def record_dict(rec):
    """A record as one JSON object, its events and ad inline."""
    return {**vars(rec), "behavior_items": list(map(vars, rec.behavior_items)),
            "ad": vars(rec.ad)}


def row(rec, events=(), ad=0):
    """A record's line of a log: ``rec``'s fields, its events and ad named by number."""
    return {**vars(rec), "behavior_items": list(events), "ad": ad}


NO_HEADER = object()


def write_log(path, events=(), ads=(), records=(), header=None):
    """Write a log of JSON values and return ``path``: the header (counting
    ``events`` and ``ads`` unless given; none for ``NO_HEADER``), then one
    line per event, ad and record. A string is written as its line's text.

    Line 1 is the header, event n is line n + 2, ad n is line
    len(events) + n + 2, and the records follow."""
    if header is None:
        header = {"ads": len(ads), "events": len(events), "format_version": 2}
    values = ([] if header is NO_HEADER else [header]) + [*events, *ads, *records]
    path.write_text("".join((v if isinstance(v, str) else json.dumps(v)) + "\n" for v in values))
    return path


class TestBuildVocab:
    def test_top_k_truncation(self):
        records = [
            simple_record(terms=["a"] * 5 + ["b"] * 3 + ["c"], ad_terms=("a",))
        ]
        vocab = build_vocab(records, top_k=2)
        # counts: a=6 (query + ad title), b=3, c=1
        assert vocab.id_for("term_id", "a") == 1
        assert vocab.id_for("term_id", "b") == 2
        assert vocab.id_for("term_id", "c") == 0

    def test_tie_breaks_lexicographically(self):
        records = [simple_record(terms=["b", "a"], ad_terms=("b", "a"))]
        vocab = build_vocab(records, top_k=1)
        assert vocab.id_for("term_id", "a") == 1
        assert vocab.id_for("term_id", "b") == 0

    def test_generous_top_k_keeps_everything(self):
        records = [simple_record(terms=["x", "y", "z"])]
        vocab = build_vocab(records, top_k=100)
        ids = {vocab.id_for("term_id", t) for t in ("x", "y", "z", "a")}
        assert 0 not in {vocab.id_for("term_id", t) for t in ("x", "y", "z", "a")}
        assert len(ids) == 4

    def test_unseen_token_maps_to_pad(self):
        vocab = build_vocab([simple_record()], top_k=10)
        assert vocab.id_for("term_id", "never-seen") == 0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([], top_k=5)

    def test_tsv_round_trip(self, tmp_path):
        records, _, _ = generate_synthetic(GeneratorConfig(seed=1, n_users=5, days=2))
        vocab = build_vocab(records, top_k=50)
        path = tmp_path / "vocab.tsv"
        vocab.save_tsv(path)
        loaded = Vocabulary.load_tsv(path)
        assert loaded.sizes == vocab.sizes
        for tok in ("t0_0", "item1", "absent"):
            assert loaded.id_for("term_id", tok) == vocab.id_for("term_id", tok)
            assert loaded.id_for("item_id", tok) == vocab.id_for("item_id", tok)

    @pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\rb"])
    def test_save_refuses_a_token_the_file_cannot_hold(self, tmp_path, token):
        vocab = Vocabulary({"term_id": {"ok": 1, token: 2}})
        with pytest.raises(ValueError, match="term_id token") as exc:
            vocab.save_tsv(tmp_path / "vocab.tsv")
        assert repr(token) in str(exc.value)
        assert not (tmp_path / "vocab.tsv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tterm_id\t1\nb\tterm_id\n",
             "PATH, line 2: expected token, space and id, got 2 fields"),
            ("a\tnospace\t1\n", "PATH, line 1: unknown space 'nospace'"),
            ("a\tterm_id\t1\n\nb\tterm_id\tx\n",
             "PATH, line 3: invalid literal for int() with base 10: 'x'"),
            ("a\titem_id\t1\nb\titem_id\t3\n",
             "PATH: ids for space 'item_id' are not dense from 1"),
        ],
        ids=["missing-field", "unknown-space", "non-integer-id", "sparse-ids"],
    )
    def test_load_error_names_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "vocab.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            Vocabulary.load_tsv(path)
        assert str(exc.value) == message.replace("PATH", str(path))


class TestMakeInstances:
    def test_left_padding(self):
        rec = simple_record(
            ts=100, behaviors=[event(10), event(20)]
        )
        vocab = build_vocab([rec], top_k=50)
        inst = next(make_instances([rec], vocab, m=6))
        behaviors = inst.request.behaviors
        assert len(behaviors) == 6
        assert behaviors[:4] == (PAD_BEHAVIOR,) * 4
        assert behaviors[4].item_id != 0 and behaviors[5].item_id != 0

    def test_click_label(self):
        rec = simple_record(clicked=1)
        vocab = build_vocab([rec], top_k=50)
        assert next(make_instances([rec], vocab)).label == 1
        rec2 = simple_record(clicked=0)
        assert next(make_instances([rec2], vocab)).label == 0

    def test_future_behavior_excluded(self):
        rec = simple_record(
            ts=100, behaviors=[event(50, item="past"), event(100, item="now"),
                               event(150, item="future")]
        )
        vocab = build_vocab([rec], top_k=50)
        inst = next(make_instances([rec], vocab, m=3))
        past_id = vocab.id_for("item_id", "past")
        got_items = [b.item_id for b in inst.request.behaviors]
        assert got_items[-1] == past_id
        assert vocab.id_for("item_id", "future") not in got_items
        assert vocab.id_for("item_id", "now") not in got_items

    def test_latest_m_kept(self):
        rec = simple_record(
            ts=1000, behaviors=[event(10 * i, item=f"i{i}") for i in range(1, 9)]
        )
        vocab = build_vocab([rec], top_k=50)
        inst = next(make_instances([rec], vocab, m=3))
        items = [b.item_id for b in inst.request.behaviors]
        expected = [vocab.id_for("item_id", f"i{i}") for i in (6, 7, 8)]
        assert items == expected

    def test_zero_history_all_pad(self):
        rec = simple_record(behaviors=[])
        vocab = build_vocab([rec], top_k=50)
        inst = next(make_instances([rec], vocab, m=4))
        assert inst.request.behaviors == (PAD_BEHAVIOR,) * 4

    def test_stream_reproducible(self):
        records, _, _ = generate_synthetic(GeneratorConfig(seed=2, n_users=4, days=2))
        vocab = build_vocab(records, top_k=100)
        a = list(make_instances(records, vocab, m=6))
        b = list(make_instances(records, vocab, m=6))
        assert a == b

    def test_bad_window(self):
        with pytest.raises(ValueError):
            next(make_instances([simple_record()], build_vocab([simple_record()], 5), m=0))


@pytest.fixture(scope="module")
def records():
    records, _, _ = generate_synthetic(
        GeneratorConfig(seed=3, n_users=60, days=4, impressions_per_user_day=6)
    )
    return records


class TestSplitByDay:

    def test_partition_respects_days(self, records):
        split = DatasetSplit(
            ("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04"
        )
        train, val, test = split_by_day(records, split)
        assert all(r.day != "2024-01-04" for r in train + val)
        assert all(r.day == "2024-01-04" for r in test)
        assert len(train) + len(val) + len(test) == len(records)

    def test_validation_fraction(self, records):
        split = DatasetSplit(
            ("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04"
        )
        train, val, _ = split_by_day(records, split)
        frac = len(val) / (len(train) + len(val))
        assert abs(frac - 0.05) < 0.005 + 3 * np.sqrt(0.05 * 0.95 / (len(train) + len(val)))

    def test_identical_partitions_across_runs(self, records):
        split = DatasetSplit(
            ("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04"
        )
        a = split_by_day(records, split)
        b = split_by_day(list(records), split)
        assert a == b

    def test_missing_day_lists_absent_dates(self, records):
        split = DatasetSplit(
            ("2024-01-02", "2024-01-03", "2024-01-04"), "2024-01-09"
        )
        with pytest.raises(CoverageError, match="2024-01-09"):
            split_by_day(records, split)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            DatasetSplit(("2024-01-01", "2024-01-02"), "2024-01-03")
        with pytest.raises(ValueError):
            DatasetSplit(("2024-01-01", "2024-01-02", "2024-01-05"), "2024-01-03")


# The generator as it was when every record built its own copy of its ad
# from an item dict: the catalog-table generator must give the same bytes.


@dataclass
class _ReferenceWorld:
    config: GeneratorConfig
    items: list[dict] = field(default_factory=list)
    items_by_category: list[list[int]] = field(default_factory=list)
    title_pools: list[list[str]] = field(default_factory=list)
    pair_pools: list[list[str]] = field(default_factory=list)


def _reference_build_world(cfg: GeneratorConfig, rng: np.random.Generator) -> _ReferenceWorld:
    world = _ReferenceWorld(cfg)
    c_count = cfg.n_categories
    world.title_pools = [
        [f"t{c}_{i}" for i in range(cfg.terms_per_category)] for c in range(c_count)
    ]
    # pair pool p is shared between categories p and (p + 1) % C, which is
    # what makes tail queries ambiguous between two categories
    world.pair_pools = [
        [f"q{c}_{(c + 1) % c_count}_{i}" for i in range(cfg.pair_terms)]
        for c in range(c_count)
    ]
    world.items_by_category = [[] for _ in range(c_count)]
    for i in range(cfg.n_items):
        cat = i % c_count
        pool = world.title_pools[cat]
        n_title = int(rng.integers(2, 5))
        title = [pool[j] for j in rng.choice(len(pool), size=n_title, replace=False)]
        n_bid = int(rng.integers(1, 3))
        bid = [title[j] for j in rng.choice(len(title), size=n_bid, replace=False)]
        item = {
            "item_id": f"item{i}",
            "category": cat,
            "shop_id": f"shop{cat}_{int(rng.integers(cfg.shops_per_category))}",
            "brand_id": f"brand{cat}_{int(rng.integers(cfg.brands_per_category))}",
            "title_terms": title,
            "bid_keywords": bid,
            "cost": round(float(rng.uniform(0.5, 2.0)), 2),
        }
        world.items.append(item)
        world.items_by_category[cat].append(i)
    return world


def _reference_make_query(
    world: _ReferenceWorld, category: int, rng: np.random.Generator
) -> tuple[list[str], int | None]:
    """Query terms for an interest plus its confusable category (if any).

    Head queries name one unambiguous title term of the category (these
    are the keyword-matchable queries). Tail queries draw from a pair
    pool shared with a neighboring category, which only behaviors can
    disambiguate.
    """
    cfg = world.config
    c_count = cfg.n_categories
    if rng.random() < cfg.head_query_prob:
        pool = world.title_pools[category]
        return [pool[int(rng.integers(len(pool)))]], None
    if rng.random() < 0.5:
        pool_id, confuser = category, (category + 1) % c_count
    else:
        pool_id, confuser = (category - 1) % c_count, (category - 1) % c_count
    pool = world.pair_pools[pool_id]
    n = int(rng.integers(1, 3))
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[j] for j in sorted(picks)], (None if confuser == category else confuser)


def _reference_ad_descriptor(item: dict) -> AdDescriptor:
    return AdDescriptor(
        item_id=item["item_id"],
        shop_id=item["shop_id"],
        brand_id=item["brand_id"],
        title_terms=list(item["title_terms"]),
        bid_keywords=list(item["bid_keywords"]),
        cost=item["cost"],
    )


def reference_generate_synthetic(
    cfg: GeneratorConfig,
) -> tuple[list[LogRecord], list[AdDescriptor], PlantedOracle]:
    """Generate impression logs, the ad repository, and the click oracle.

    Same seed, same bytes: the generator draws from one seeded stream in
    a fixed order.
    """
    rng = np.random.default_rng(cfg.seed)
    world = _reference_build_world(cfg, rng)
    base_day = datetime.date(2024, 1, 1)
    records: list[LogRecord] = []
    oracle = PlantedOracle({}, {}, cfg.p_hi, cfg.p_lo)
    for item in world.items:
        oracle.item_categories[item["item_id"]] = item["category"]

    def pick_item(category: int) -> dict:
        ids = world.items_by_category[category]
        return world.items[ids[int(rng.integers(len(ids)))]]

    for user in range(cfg.n_users):
        user_id = f"u{user}"
        history: list[BehaviorEvent] = []
        ts = user * 1000
        for day_idx in range(cfg.days):
            day = (base_day + datetime.timedelta(days=day_idx)).isoformat()
            ts = max(ts, day_idx * 10_000_000 + user * 1000)
            if cfg.n_categories >= 2 and rng.random() < 0.8:
                picks = rng.choice(cfg.n_categories, size=2, replace=False)
                interests = [int(picks[0]), int(picks[1])]
            else:
                interests = [int(rng.integers(cfg.n_categories))]
            for _ in range(cfg.impressions_per_user_day):
                current = interests[int(rng.integers(len(interests)))]
                for _ in range(int(rng.integers(1, 4))):
                    if len(interests) > 1 and rng.random() > CURRENT_INTEREST_BIAS:
                        b_cat = interests[1] if interests[0] == current else interests[0]
                    else:
                        b_cat = current
                    b_item = pick_item(b_cat)
                    b_query, _ = _reference_make_query(world, b_cat, rng)
                    ts += int(rng.integers(1, 30))
                    history.append(
                        BehaviorEvent(
                            timestamp=ts,
                            item_id=b_item["item_id"],
                            shop_id=b_item["shop_id"],
                            brand_id=b_item["brand_id"],
                            title_terms=list(b_item["title_terms"]),
                            query_terms=b_query,
                        )
                    )
                query_terms, confuser = _reference_make_query(world, current, rng)
                roll = rng.random()
                if roll < MATCH_PROB:
                    ad_cat = current
                elif confuser is not None and roll < MATCH_PROB + cfg.confuser_prob:
                    ad_cat = confuser
                else:
                    ad_cat = int(rng.integers(cfg.n_categories))
                ad = pick_item(ad_cat)
                matched = ad["category"] == current
                clicked = int(rng.random() < (cfg.p_hi if matched else cfg.p_lo))
                ts += int(rng.integers(1, 30))
                records.append(
                    LogRecord(
                        user_id=user_id,
                        timestamp=ts,
                        query_terms=query_terms,
                        # events are never changed once made, so records share them
                        behavior_items=history[-HISTORY_LEN:],
                        ad=_reference_ad_descriptor(ad),
                        clicked=clicked,
                        day=day,
                    )
                )
                oracle.request_categories[
                    PlantedOracle.request_key(user_id, ts)
                ] = current
                if clicked:
                    ts += 1
                    history.append(
                        BehaviorEvent(
                            timestamp=ts,
                            item_id=ad["item_id"],
                            shop_id=ad["shop_id"],
                            brand_id=ad["brand_id"],
                            title_terms=list(ad["title_terms"]),
                            query_terms=list(query_terms),
                        )
                    )
    ads = [_reference_ad_descriptor(item) for item in world.items]
    return records, ads, oracle



# seed 7 at defaults is the shipped demo world; the rest stress the catalog's
# shape: many users, a large catalog, uneven and single categories
REFERENCE_CONFIGS = {
    "seed7-defaults": dict(seed=7),
    "seed1-100-users": dict(seed=1, n_users=100),
    "8000-items": dict(seed=5, n_users=30, n_items=8000),
    "37-items-5-categories": dict(seed=3, n_users=60, n_items=37, n_categories=5),
    "1-category": dict(seed=2, n_users=60, n_categories=1),
    "seed0-short": dict(seed=0, n_users=50, days=2, impressions_per_user_day=20),
}


def generated_digests(records, ads, oracle):
    def digest(dicts):
        lines = (json.dumps(d, sort_keys=True) for d in dicts)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    return (digest(map(record_dict, records)), digest(map(vars, ads)),
            json.dumps(vars(oracle), sort_keys=True))


class TestGenerator:
    @pytest.mark.parametrize("kwargs", REFERENCE_CONFIGS.values(), ids=REFERENCE_CONFIGS)
    def test_same_bytes_as_reference(self, kwargs):
        cfg = GeneratorConfig(**kwargs)
        got = generated_digests(*generate_synthetic(cfg))
        assert got == generated_digests(*reference_generate_synthetic(cfg))

    def test_records_and_events_share_the_catalog(self):
        records, ads, _ = generate_synthetic(GeneratorConfig(seed=7, n_users=20))
        catalog = {id(ad) for ad in ads}
        assert all(id(rec.ad) in catalog for rec in records)
        by_id = {ad.item_id: ad for ad in ads}
        events = [ev for rec in records for ev in rec.behavior_items]
        assert all(ev.title_terms is by_id[ev.item_id].title_terms for ev in events)

    def test_one_ad_descriptor_per_item(self, monkeypatch):
        made = []

        class Counted(AdDescriptor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(data_module, "AdDescriptor", Counted)
        cfg = GeneratorConfig(seed=7, n_users=20)
        generate_synthetic(cfg)
        assert len(made) == cfg.n_items

    def test_same_seed_identical_stream(self):
        cfg = GeneratorConfig(seed=11, n_users=10, days=2)
        r1, ads1, o1 = generate_synthetic(cfg)
        r2, ads2, o2 = generate_synthetic(cfg)
        dump = lambda rows: "\n".join(json.dumps(record_dict(r), sort_keys=True) for r in rows)
        assert dump(r1) == dump(r2)
        assert ads1 == ads2
        assert o1.request_categories == o2.request_categories

    def test_different_seed_differs(self):
        r1, _, _ = generate_synthetic(GeneratorConfig(seed=1, n_users=10, days=2))
        r2, _, _ = generate_synthetic(GeneratorConfig(seed=2, n_users=10, days=2))
        assert any(record_dict(a) != record_dict(b) for a, b in zip(r1, r2))

    def test_matched_click_rate_within_binomial_bound(self):
        cfg = GeneratorConfig(seed=5, n_users=150, days=3)
        records, _, oracle = generate_synthetic(cfg)
        matched = [
            r.clicked
            for r in records
            if oracle.request_categories[PlantedOracle.request_key(r.user_id, r.timestamp)]
            == oracle.item_categories[r.ad.item_id]
        ]
        n = len(matched)
        assert n > 300
        rate = np.mean(matched)
        sigma = np.sqrt(cfg.p_hi * (1 - cfg.p_hi) / n)
        assert abs(rate - cfg.p_hi) < 3 * sigma

    def test_behaviors_strictly_ordered_and_past(self):
        records, _, _ = generate_synthetic(GeneratorConfig(seed=6, n_users=10, days=2))
        for rec in records:
            stamps = [ev.timestamp for ev in rec.behavior_items]
            assert all(a < b for a, b in zip(stamps, stamps[1:]))
            assert all(s < rec.timestamp for s in stamps)

    def test_bid_keywords_subset_of_title(self):
        _, ads, _ = generate_synthetic(GeneratorConfig(seed=7, n_users=5, days=1))
        for adv in ads:
            assert 1 <= len(adv.bid_keywords) <= 2
            assert set(adv.bid_keywords) <= set(adv.title_terms)

    def test_single_category_allowed(self):
        cfg = GeneratorConfig(seed=8, n_users=10, days=2, n_categories=1)
        records, _, oracle = generate_synthetic(cfg)
        assert len(set(oracle.item_categories.values())) == 1

    def test_ad_catalog_matches_generated_ads(self):
        cfg = GeneratorConfig(seed=9, n_users=5, days=1)
        records, ads, oracle = generate_synthetic(cfg)
        # one ad per item of the world, and every logged ad is one of them
        assert [a.item_id for a in ads] == list(oracle.item_categories)
        assert len(ads) == cfg.n_items
        by_id = {a.item_id: a for a in ads}
        assert all(by_id[r.ad.item_id] == r.ad for r in records)

    def test_oracle_click_prob(self):
        cfg = GeneratorConfig(seed=10, n_users=5, days=1)
        records, _, oracle = generate_synthetic(cfg)
        rec = records[0]
        p = oracle.click_prob(rec.user_id, rec.timestamp, rec.ad.item_id)
        assert p in (cfg.p_hi, cfg.p_lo)
        with pytest.raises(KeyError):
            oracle.click_prob("nobody", 0, rec.ad.item_id)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_categories=0)
        with pytest.raises(ValueError):
            GeneratorConfig(p_hi=0.2, p_lo=0.5)


class TestSerialization:
    def test_log_round_trip(self, tmp_path):
        records, ads, oracle = generate_synthetic(
            GeneratorConfig(seed=12, n_users=6, days=2)
        )
        lp = tmp_path / "logs.jsonl"
        write_log_records(records, lp)
        loaded = read_log_records(lp)
        assert loaded == records

    def test_ads_round_trip(self, tmp_path):
        _, ads, _ = generate_synthetic(GeneratorConfig(seed=13, n_users=4, days=1))
        path = tmp_path / "ads.jsonl"
        write_ads(ads, path)
        assert read_ads(path) == ads

    def test_oracle_round_trip(self, tmp_path):
        _, _, oracle = generate_synthetic(GeneratorConfig(seed=14, n_users=4, days=1))
        path = tmp_path / "oracle.json"
        oracle.save(path)
        loaded = PlantedOracle.load(path)
        assert loaded == oracle

    def test_log_error_names_the_file_and_line(self, tmp_path):
        rec = simple_record()
        good = row(rec)
        no_timestamp = dict(good)
        del no_timestamp["timestamp"]
        path = tmp_path / "logs.jsonl"
        write_log(path, [], [vars(rec.ad)], [good, "", no_timestamp])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 5: missing key 'timestamp'"
        write_log(path, [], [vars(rec.ad)], [json.dumps(good)[:40]])  # a truncated line
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value).startswith(f"{path}, line 3: ")

    def test_ads_error_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "ads.jsonl"
        path.write_text('{"item_id": "a1"}\n')
        with pytest.raises(ValueError) as exc:
            read_ads(path)
        assert str(exc.value).startswith(
            f"{path}, line 1: AdDescriptor.__init__() missing 5 required positional arguments"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("item_id", 7, "item_id must be a string, got 7"),
            ("shop_id", None, "shop_id must be a string, got None"),
            ("brand_id", ["b1"], "brand_id must be a string, got ['b1']"),
            ("title_terms", "t1 t2", "title_terms must be a list of strings, got 't1 t2'"),
            ("bid_keywords", ["k1", 3], "bid_keywords must be a list of strings, got ['k1', 3]"),
            ("cost", True, "cost must be a finite non-negative number, got True"),
            ("cost", math.nan, "cost must be a finite non-negative number, got nan"),
            ("cost", math.inf, "cost must be a finite non-negative number, got inf"),
            ("cost", -0.5, "cost must be a finite non-negative number, got -0.5"),
            ("cost", "1.5", "cost must be a finite non-negative number, got '1.5'"),
        ],
    )
    def test_ads_refuse_a_field_of_the_wrong_type(self, tmp_path, field, value, message):
        good = vars(AdDescriptor("a1", "s1", "b1", ["t1"], ["t1"], 1.5))
        path = tmp_path / "ads.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, field: value})}\n")
        with pytest.raises(ValueError) as exc:
            read_ads(path)
        assert str(exc.value) == f"{path}, line 2: {message}"

    def test_ads_accept_an_integer_cost_and_empty_term_lists(self, tmp_path):
        ad = AdDescriptor("a1", "s1", "b1", [], [], 2)
        path = tmp_path / "ads.jsonl"
        write_ads([ad], path)
        assert read_ads(path) == [ad]

    def test_oracle_error_names_the_file(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(ValueError) as exc:
            PlantedOracle.load(path)
        assert str(exc.value) == f"{path}: missing key 'item_categories'"

    def test_oracle_refuses_another_format_version(self, tmp_path):
        _, _, oracle = generate_synthetic(GeneratorConfig(seed=14, n_users=4, days=1))
        path = tmp_path / "oracle.json"
        oracle.save(path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "format_version": 2}))
        with pytest.raises(ValueError) as exc:
            PlantedOracle.load(path)
        assert str(exc.value) == f"{path}: oracle format version 2, not 1"

    def oracle_with(self, tmp_path, **changes):
        payload = {"format_version": 1, "item_categories": {"item0": 0, "item1": 1},
                   "request_categories": {"u0|5": 1}, "p_hi": 0.6, "p_lo": 0.05, **changes}
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(payload))
        return path

    def test_oracle_accepts_integer_probabilities(self, tmp_path):
        oracle = PlantedOracle.load(self.oracle_with(tmp_path, p_hi=1, p_lo=0))
        assert (oracle.p_hi, oracle.p_lo) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("p_hi", "NaN"), ("p_lo", True), ("p_hi", None), ("p_lo", "0.05"), ("p_hi", [0.6])],
    )
    def test_oracle_refuses_a_click_probability_not_a_number(self, tmp_path, field, value):
        # "NaN" used to load as nan, so nothing was ever clicked; true as 1.0
        path = self.oracle_with(tmp_path, **{field: value})
        with pytest.raises(ValueError) as exc:
            PlantedOracle.load(path)
        assert str(exc.value) == f"{path}: {field} must be a number, got {value!r}"

    @pytest.mark.parametrize(
        "p_lo, p_hi",
        [(-0.1, 0.6), (0.05, 1.5), (0.7, 0.6), (0.05, math.nan), (math.nan, 0.6)],
        ids=["p_lo-negative", "p_hi-above-1", "p_lo-above-p_hi", "p_hi-nan", "p_lo-nan"],
    )
    def test_oracle_refuses_probabilities_outside_the_generator_rule(self, tmp_path, p_lo, p_hi):
        with pytest.raises(ValueError):
            GeneratorConfig(p_lo=p_lo, p_hi=p_hi)  # the same rule
        path = self.oracle_with(tmp_path, p_lo=p_lo, p_hi=p_hi)
        with pytest.raises(ValueError) as exc:
            PlantedOracle.load(path)
        assert str(exc.value) == (
            f"{path}: need 0 <= p_lo <= p_hi <= 1, got p_lo {p_lo!r}, p_hi {p_hi!r}"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("item_categories", {"item0": 0, "item1": 1.0}),
            ("item_categories", {"item0": True}),
            ("request_categories", {"u0|5": "1"}),
            ("request_categories", [1]),
        ],
        ids=["float", "bool", "string", "not-an-object"],
    )
    def test_oracle_refuses_a_category_not_an_integer(self, tmp_path, field, value):
        path = self.oracle_with(tmp_path, **{field: value})
        with pytest.raises(ValueError) as exc:
            PlantedOracle.load(path)
        assert str(exc.value) == f"{path}: {field} must map each key to an integer category"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ad": {"title_terms": "shoes"}},
             "title_terms must be a list of strings, got 'shoes'"),
            ({"ad": {"cost": -3}}, "cost must be a finite non-negative number, got -3"),
            ({"clicked": 1.7}, "clicked must be 0 or 1, got 1.7"),
            ({"clicked": 2}, "clicked must be 0 or 1, got 2"),
            ({"clicked": True}, "clicked must be 0 or 1, got True"),
        ],
        ids=["ad-term-type", "ad-cost", "clicked-fraction", "clicked-range", "clicked-bool"],
    )
    def test_log_refuses_a_bad_ad_or_label(self, tmp_path, change, message):
        rec = simple_record()
        good_ad = vars(rec.ad)
        path = tmp_path / "logs.jsonl"
        if "ad" in change:  # the bad ad is line 3
            bad_ad = {**good_ad, **change["ad"]}
            write_log(path, [], [good_ad, bad_ad], [row(rec, ad=0), row(rec, ad=1)])
            line = 3
        else:  # the bad record is line 4
            write_log(path, [], [good_ad], [row(rec), {**row(rec), **change}])
            line = 4
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line {line}: {message}"

    @pytest.mark.parametrize(
        "terms, message",
        [
            ("red shoes", "query_terms must be a list of strings, got 'red shoes'"),
            (["red", 3], "query_terms must be a list of strings, got ['red', 3]"),
        ],
        ids=["string", "non-string-term"],
    )
    def test_log_refuses_query_terms_not_a_list_of_strings(self, tmp_path, terms, message):
        # a string would read as one query term per character
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [], [vars(rec.ad)],
                         [row(rec), {**row(rec), "query_terms": terms}])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 4: {message}"

    def two_event_log(self, path, field=None, value=None, bad=1):
        """A log of one record naming two events; with ``field``, event
        ``bad`` (line ``bad + 2``) has ``value`` there."""
        events = [vars(event(5)), vars(event(6))]
        if field is not None:
            events[bad] = {**events[bad], field: value}
        rec = simple_record()
        return write_log(path, events, [vars(rec.ad)], [row(rec, [0, 1])])

    @pytest.mark.parametrize(
        "value, message",
        [
            ("5", "an event's timestamp must be an integer, got '5'"),
            (5.0, "an event's timestamp must be an integer, got 5.0"),
            (True, "an event's timestamp must be an integer, got True"),
            (None, "an event's timestamp must be an integer, got None"),
        ],
        ids=["string", "float", "bool", "null"],
    )
    def test_log_refuses_an_event_timestamp_not_an_integer(self, tmp_path, value, message):
        # a string timestamp used to read, then fail ordering the window
        path = self.two_event_log(tmp_path / "logs.jsonl", "timestamp", value)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 3: {message}"

    @pytest.mark.parametrize(
        "field, value",
        [("item_id", 7), ("shop_id", None), ("brand_id", ["b1"]), ("item_id", True)],
    )
    def test_log_refuses_an_event_id_not_a_string(self, tmp_path, field, value):
        path = self.two_event_log(tmp_path / "logs.jsonl", field, value, bad=0)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        message = f"an event's {field} must be a string, got {value!r}"
        assert str(exc.value) == f"{path}, line 2: {message}"

    @pytest.mark.parametrize("field", ["title_terms", "query_terms"])
    @pytest.mark.parametrize("term", [1, None, ["a"]], ids=["int", "null", "list"])
    def test_log_refuses_an_event_term_not_a_string(self, tmp_path, field, term):
        # an int term used to read, then stop build-vocab sorting its terms
        path = self.two_event_log(tmp_path / "logs.jsonl", field, ["b", term])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        title = ["b", term] if field == "title_terms" else ["a"]
        query = ["b", term] if field == "query_terms" else ["a"]
        assert str(exc.value) == (
            f"{path}, line 3: an event's title_terms and query_terms must be lists of strings, "
            f"got {title!r} and {query!r}"
        )

    @pytest.mark.parametrize("field", ["title_terms", "query_terms"])
    def test_log_refuses_event_terms_not_a_list(self, tmp_path, field):
        # a string would add one vocabulary term per character
        path = self.two_event_log(tmp_path / "logs.jsonl", field, "abc")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        title, query = (("'abc'", "['a']") if field == "title_terms" else ("['a']", "'abc'"))
        assert str(exc.value) == (
            f"{path}, line 3: an event's title_terms and query_terms must be lists of strings, "
            f"got {title} and {query}"
        )

    @pytest.mark.parametrize(
        "value, message",
        [
            (5.7, "timestamp must be an integer, got 5.7"),
            ("12", "timestamp must be an integer, got '12'"),
            (True, "timestamp must be an integer, got True"),
        ],
        ids=["float", "string", "bool"],
    )
    def test_log_refuses_a_record_timestamp_not_an_integer(self, tmp_path, value, message):
        # int() used to read 5.7 as 5, "12" as 12 and true as 1
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [], [vars(rec.ad)],
                         [row(rec), {**row(rec), "timestamp": value}])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 4: {message}"

    @pytest.mark.parametrize("value", [7, None, ["u1"]])
    def test_log_refuses_a_user_id_not_a_string(self, tmp_path, value):
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [], [vars(rec.ad)],
                         [row(rec), {**row(rec), "user_id": value}])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 4: user_id must be a string, got {value!r}"

    @pytest.mark.parametrize("value", [20240101, None])
    def test_log_refuses_a_day_not_a_string(self, tmp_path, value):
        # a day of another type used to land silently in no split
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [], [vars(rec.ad)],
                         [row(rec), {**row(rec), "day": value}])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 4: day must be a string, got {value!r}"


HEADER_MESSAGE = (
    'not the log header {"ads": A, "events": E, "format_version": 2}; re-run gen-data'
)


class TestLogFormat:
    """Format 2: a header, each event and ad once, then records naming them by number."""

    def test_layout(self, tmp_path):
        shared, later = event(5), event(7, item="i2")
        first = simple_record(ts=10, behaviors=[shared])
        second = simple_record(ts=20, behaviors=[shared, later])
        second.ad = first.ad
        path = tmp_path / "logs.jsonl"
        write_log_records([first, second], path)
        expected = [
            {"ads": 1, "events": 2, "format_version": 2},
            vars(shared), vars(later), vars(first.ad),
            row(first, [0]), row(second, [0, 1]),
        ]
        assert path.read_text().splitlines() == [json.dumps(v, sort_keys=True) for v in expected]

    def test_a_format_1_log_is_refused(self, tmp_path):
        rec = simple_record(behaviors=[event(5)])
        lines = [record_dict(rec), record_dict(rec)]  # one object per record, no header
        path = write_log(tmp_path / "logs.jsonl", records=lines[1:], header=lines[0])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 1: {HEADER_MESSAGE}"

    @pytest.mark.parametrize(
        "header",
        [
            vars(event(5)),
            {"ads": 1, "events": 0, "format_version": 2, "records": 1},
            {"ads": 1, "events": 0, "format_version": 1},
            [1, 0, 2],
        ],
        ids=["missing", "extra-key", "version-1", "not-an-object"],
    )
    def test_a_missing_or_other_header_is_refused(self, tmp_path, header):
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [], [vars(rec.ad)], [row(rec)], header)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 1: {HEADER_MESSAGE}"

    def test_an_empty_file_is_refused(self, tmp_path):
        path = write_log(tmp_path / "logs.jsonl", header=NO_HEADER)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 1: the log header is missing; re-run gen-data"

    @pytest.mark.parametrize("name", ["events", "ads"])
    @pytest.mark.parametrize("count", [-1, 1.0, "1", True, None])
    def test_a_count_not_a_non_negative_integer_is_refused(self, tmp_path, name, count):
        header = {"ads": 0, "events": 0, "format_version": 2, name: count}
        path = write_log(tmp_path / "logs.jsonl", header=header)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == (
            f"{path}, line 1: the header's counts must be non-negative integers, got {header}"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("behavior_items", [0, True], "behavior_items must be a list of event numbers "
                                          "from 0 to 1, got [0, True]"),
            ("behavior_items", [-1], "behavior_items must be a list of event numbers "
                                     "from 0 to 1, got [-1]"),
            ("behavior_items", [1, 2], "behavior_items must be a list of event numbers "
                                       "from 0 to 1, got [1, 2]"),
            ("behavior_items", [1.0], "behavior_items must be a list of event numbers "
                                      "from 0 to 1, got [1.0]"),
            ("behavior_items", "01", "behavior_items must be a list of event numbers "
                                     "from 0 to 1, got '01'"),
            ("ad", False, "ad must be an ad number from 0 to 0, got False"),
            ("ad", -1, "ad must be an ad number from 0 to 0, got -1"),
            ("ad", 1, "ad must be an ad number from 0 to 0, got 1"),
            ("ad", "0", "ad must be an ad number from 0 to 0, got '0'"),
        ],
        ids=["event-bool", "event-negative", "event-too-large", "event-float", "event-string",
             "ad-bool", "ad-negative", "ad-too-large", "ad-string"],
    )
    def test_a_number_that_names_no_line_is_refused(self, tmp_path, field, value, message):
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [vars(event(5)), vars(event(6))],
                         [vars(rec.ad)], [row(rec, [0, 1]), {**row(rec), field: value}])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 6: {message}"

    @pytest.mark.parametrize(
        "events, ads, line, message",
        [
            (1, 0, 3, "the file ends after 1 of 2 events and 0 of 1 ads"),
            (2, 0, 4, "the file ends after 2 of 2 events and 0 of 1 ads"),
        ],
        ids=["event-section", "ad-section"],
    )
    def test_a_file_cut_inside_a_section_is_refused(self, tmp_path, events, ads, line, message):
        header = {"ads": 1, "events": 2, "format_version": 2}
        all_events = [vars(event(5)), vars(event(6))]
        path = write_log(tmp_path / "logs.jsonl", all_events[:events],
                         [vars(simple_record().ad)][:ads], header=header)
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line {line}: {message}"

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            ("event", "extra", "BehaviorEvent.__init__() got an unexpected keyword argument "
                               "'extra'"),
            ("event", "missing", "BehaviorEvent.__init__() missing 1 required positional "
                                 "argument: 'title_terms'"),
            ("ad", "extra", "AdDescriptor.__init__() got an unexpected keyword argument 'extra'"),
            ("ad", "missing", "AdDescriptor.__init__() missing 1 required positional "
                              "argument: 'title_terms'"),
        ],
    )
    def test_an_extra_or_missing_key_is_refused(self, tmp_path, kind, change, message):
        rec = simple_record()
        events, ads = [dict(vars(event(5)))], [dict(vars(rec.ad))]
        bad = (events if kind == "event" else ads)[0]
        if change == "extra":
            bad["extra"] = 1
        else:
            del bad["title_terms"]
        path = write_log(tmp_path / "logs.jsonl", events, ads, [row(rec, [0])])
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        line = 2 if kind == "event" else 3
        assert str(exc.value) == f"{path}, line {line}: {message}"

    def test_records_that_name_the_same_number_share_one_object(self, tmp_path):
        rec = simple_record()
        path = write_log(tmp_path / "logs.jsonl", [vars(event(5)), vars(event(5))],
                         [vars(rec.ad)], [row(rec, [0]), row(rec, [0, 1])])
        first, second = read_log_records(path)
        assert second.behavior_items[0] is first.behavior_items[0]
        assert second.behavior_items[1] is not first.behavior_items[0]
        assert second.behavior_items[1] == first.behavior_items[0]
        assert second.ad is first.ad

    def test_vocab_and_instances_match_the_generated_records(self, tmp_path):
        records, _, _ = generate_synthetic(GeneratorConfig(seed=4, n_users=30, days=2))
        path = tmp_path / "logs.jsonl"
        write_log_records(records, path)
        read = read_log_records(path)
        vocab = build_vocab(records, top_k=40)
        assert build_vocab(read, top_k=40)._maps == vocab._maps
        assert list(make_instances(read, vocab, m=6)) == list(make_instances(records, vocab, m=6))


class TestLogRoundTrip:
    """A written log reads back as the records written, and writing those
    again gives the same bytes."""

    def round_trip(self, records, path):
        write_log_records(records, path)
        read = read_log_records(path)
        assert read == records
        again = path.with_suffix(".again")
        write_log_records(read, again)
        assert again.read_bytes() == path.read_bytes()
        header = json.loads(path.read_text().partition("\n")[0])
        events = {id(ev) for rec in records for ev in rec.behavior_items}
        assert header == {"ads": len({id(rec.ad) for rec in records}), "events": len(events),
                          "format_version": 2}

    @pytest.mark.parametrize("kwargs", REFERENCE_CONFIGS.values(), ids=REFERENCE_CONFIGS)
    def test_generated_logs(self, tmp_path, kwargs):
        records, _, _ = generate_synthetic(GeneratorConfig(**kwargs))
        self.round_trip(records, tmp_path / "logs.jsonl")

    def test_hand_made_records(self, tmp_path):
        odd = 'q"uo\\te é ☃ \n'
        shared = event(3, item=odd, terms=(odd, "plain"), query=("ü",))
        int_cost = simple_record(user=odd, ts=10, terms=(odd,), behaviors=[shared, event(4)])
        int_cost.ad = AdDescriptor(odd, "s\"1", "b1", [odd], [odd], 2)
        float_cost = simple_record(ts=20, behaviors=[shared, event(4)], day=odd)
        empty = simple_record(ts=30, behaviors=[])
        self.round_trip([int_cost, float_cost, empty, float_cost], tmp_path / "logs.jsonl")
        assert type(read_log_records(tmp_path / "logs.jsonl")[0].ad.cost) is int
