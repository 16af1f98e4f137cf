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
    write_jsonl,
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
    def digest(rows):
        lines = (json.dumps(r.to_dict(), sort_keys=True) for r in rows)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    return digest(records), digest(ads), json.dumps(vars(oracle), sort_keys=True)


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
        dump = lambda rows: "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in rows)
        assert dump(r1) == dump(r2)
        assert ads1 == ads2
        assert o1.request_categories == o2.request_categories

    def test_different_seed_differs(self):
        r1, _, _ = generate_synthetic(GeneratorConfig(seed=1, n_users=10, days=2))
        r2, _, _ = generate_synthetic(GeneratorConfig(seed=2, n_users=10, days=2))
        assert any(a.to_dict() != b.to_dict() for a, b in zip(r1, r2))

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
        write_jsonl(records, lp)
        loaded = read_log_records(lp)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

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
        good = json.dumps(simple_record().to_dict())
        no_timestamp = dict(simple_record().to_dict())
        del no_timestamp["timestamp"]
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{good}\n\n{json.dumps(no_timestamp)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 3: missing key 'timestamp'"
        path.write_text(good[:40] + "\n")  # a truncated line
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value).startswith(f"{path}, line 1: ")

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
        good = AdDescriptor("a1", "s1", "b1", ["t1"], ["t1"], 1.5).to_dict()
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
        good = simple_record().to_dict()
        bad = {**good, **change}
        if "ad" in change:
            bad["ad"] = {**good["ad"], **change["ad"]}
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: {message}"

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
        good = simple_record().to_dict()
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'query_terms': terms})}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: {message}"

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
        good = simple_record(behaviors=[event(5), event(6)]).to_dict()
        bad = json.loads(json.dumps(good))
        bad["behavior_items"][1]["timestamp"] = value
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: {message}"

    @pytest.mark.parametrize(
        "field, value",
        [("item_id", 7), ("shop_id", None), ("brand_id", ["b1"]), ("item_id", True)],
    )
    def test_log_refuses_an_event_id_not_a_string(self, tmp_path, field, value):
        good = simple_record(behaviors=[event(5), event(6)]).to_dict()
        bad = json.loads(json.dumps(good))
        bad["behavior_items"][0][field] = value
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        message = f"an event's {field} must be a string, got {value!r}"
        assert str(exc.value) == f"{path}, line 3: {message}"

    @pytest.mark.parametrize("field", ["title_terms", "query_terms"])
    @pytest.mark.parametrize("term", [1, None, ["a"]], ids=["int", "null", "list"])
    def test_log_refuses_an_event_term_not_a_string(self, tmp_path, field, term):
        # an int term used to read, then stop build-vocab sorting its terms
        good = simple_record(behaviors=[event(5), event(6)]).to_dict()
        bad = json.loads(json.dumps(good))
        bad["behavior_items"][1][field] = ["b", term]
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        title = ["b", term] if field == "title_terms" else ["a"]
        query = ["b", term] if field == "query_terms" else ["a"]
        assert str(exc.value) == (
            f"{path}, line 2: an event's title_terms and query_terms must be lists of strings, "
            f"got {title!r} and {query!r}"
        )

    @pytest.mark.parametrize("field", ["title_terms", "query_terms"])
    def test_log_refuses_event_terms_not_a_list(self, tmp_path, field):
        # a string would add one vocabulary term per character
        good = simple_record(behaviors=[event(5), event(6)]).to_dict()
        bad = json.loads(json.dumps(good))
        bad["behavior_items"][1][field] = "abc"
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        title, query = (("'abc'", "['a']") if field == "title_terms" else ("['a']", "'abc'"))
        assert str(exc.value) == (
            f"{path}, line 2: an event's title_terms and query_terms must be lists of strings, "
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
        good = simple_record().to_dict()
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'timestamp': value})}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: {message}"

    @pytest.mark.parametrize("value", [7, None, ["u1"]])
    def test_log_refuses_a_user_id_not_a_string(self, tmp_path, value):
        good = simple_record().to_dict()
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'user_id': value})}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: user_id must be a string, got {value!r}"

    @pytest.mark.parametrize("value", [20240101, None])
    def test_log_refuses_a_day_not_a_string(self, tmp_path, value):
        # a day of another type used to land silently in no split
        good = simple_record().to_dict()
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'day': value})}\n")
        with pytest.raises(ValueError) as exc:
            read_log_records(path)
        assert str(exc.value) == f"{path}, line 2: day must be a string, got {value!r}"


def plain_read(path):
    """The log read without reuse: ``LogRecord.from_dict`` of each line's JSON."""
    records = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip():
            try:
                records.append(LogRecord.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}, line {number}: {what}") from None
    return records


def outcome(read, path):
    """A read's error text, or its records as JSON lines, which tell 1, 1.0
    and true apart."""
    try:
        return [json.dumps(r.to_dict(), sort_keys=True) for r in read(path)]
    except ValueError as exc:
        return str(exc)


DROP = object()


def with_field(payload, where, value):
    """A copy of a record's JSON object with one field set (or dropped, for
    ``DROP``); ``where`` is a key path such as ``("ad", "cost")``."""
    copy = json.loads(json.dumps(payload))
    inner = copy
    for key in where[:-1]:
        inner = inner[key]
    if value is DROP:
        del inner[where[-1]]
    else:
        inner[where[-1]] = value
    return copy


# twin values of one field: equal to Python (1 == 1.0 == True), or a list
# and its lone string, or a kept type that the reader must not merge
TWINS = {
    "event-timestamp": (("behavior_items", 0, "timestamp"), [1, True, 1.0]),
    "event-timestamp-same-hash": (("behavior_items", 0, "timestamp"), [-1, -2]),  # both hash to -2
    "event-title-terms": (("behavior_items", 0, "title_terms"), [["ab"], "ab"]),
    "event-terms-not-strings": (("behavior_items", 0, "query_terms"), [[1], [True], [1.0]]),
    "event-item-id": (("behavior_items", 0, "item_id"), ["1", 1, True]),
    "ad-cost": (("ad", "cost"), [1, 1.0, True]),
    "ad-signed-zero-cost": (("ad", "cost"), [0.0, -0.0, 0]),
    "ad-title-terms": (("ad", "title_terms"), [["ab"], "ab"]),
    "ad-terms-not-strings": (("ad", "title_terms"), [[1], [True]]),
}
TWIN_CASES = [
    pytest.param(where, first, second, id=f"{name}-{i}-{j}")
    for name, (where, values) in TWINS.items()
    for i, first in enumerate(values)
    for j, second in enumerate(values)
    if i != j
]


class TestReadReuse:
    """Reused events and ads never change what a record reads as."""

    def base(self):
        return simple_record(behaviors=[event(5, terms=("ab",)), event(6)]).to_dict()

    @pytest.mark.parametrize("where, first, second", TWIN_CASES)
    def test_twin_lines_read_as_a_fresh_parse_reads_them(self, tmp_path, where, first, second):
        path = tmp_path / "logs.jsonl"
        lines = [json.dumps(with_field(self.base(), where, v), sort_keys=True)
                 for v in (first, second, first)]
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(plain_read, path)
        assert outcome(read_log_records, path) == expected
        if isinstance(expected, list):  # each line keeps its own values and types
            assert expected == lines

    @pytest.mark.parametrize("where", [("behavior_items", 0), ("ad",)], ids=["event", "ad"])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_an_extra_or_missing_key_fails_as_before(self, tmp_path, where, change):
        good = self.base()
        key = where + (("extra",) if change == "extra" else ("title_terms",))
        bad = with_field(good, key, 1 if change == "extra" else DROP)
        path = tmp_path / "logs.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        expected = outcome(plain_read, path)
        assert isinstance(expected, str) and expected.startswith(f"{path}, line 2: ")
        assert outcome(read_log_records, path) == expected

    def test_a_check_fires_on_the_first_and_a_later_occurrence(self, tmp_path):
        good, bad = self.base(), with_field(self.base(), ("behavior_items", 1, "timestamp"), "6")
        path = tmp_path / "logs.jsonl"
        for lines, number in (([bad, good], 1), ([good, good, bad], 3)):
            path.write_text("".join(json.dumps(p) + "\n" for p in lines))
            with pytest.raises(ValueError) as exc:
                read_log_records(path)
            assert str(exc.value) == (
                f"{path}, line {number}: an event's timestamp must be an integer, got '6'"
            )

    @pytest.mark.parametrize(
        "kwargs", [REFERENCE_CONFIGS[n] for n in ("seed7-defaults", "37-items-5-categories",
                                                  "seed0-short")],
    )
    def test_generated_logs_read_as_a_plain_parse_reads_them(self, tmp_path, kwargs):
        records, _, _ = generate_synthetic(GeneratorConfig(**kwargs))
        path = tmp_path / "logs.jsonl"
        write_log_records(records, path)
        plain = plain_read(path)
        assert read_log_records(path) == plain
        assert outcome(read_log_records, path) == outcome(plain_read, path)

    def test_equal_events_and_ads_come_back_as_one_object(self, tmp_path):
        shared = event(5)
        path = tmp_path / "logs.jsonl"
        write_log_records(
            [simple_record(ts=10, behaviors=[shared]),
             simple_record(ts=20, behaviors=[event(5), event(7)])], path,
        )
        first, second = read_log_records(path)
        assert second.behavior_items[0] is first.behavior_items[0]
        assert second.behavior_items[1] is not first.behavior_items[0]
        assert second.ad is first.ad

    def test_vocab_and_instances_match_unshared_records(self, tmp_path):
        records, _, _ = generate_synthetic(GeneratorConfig(seed=4, n_users=30, days=2))
        path = tmp_path / "logs.jsonl"
        write_log_records(records, path)
        shared, plain = read_log_records(path), plain_read(path)
        vocab = build_vocab(plain, top_k=40)
        assert build_vocab(shared, top_k=40)._maps == vocab._maps
        assert list(make_instances(shared, vocab, m=6)) == list(make_instances(plain, vocab, m=6))


class TestWriteLog:
    """Each line of the log writer is ``json.dumps(record.to_dict(), sort_keys=True)``."""

    def lines_match(self, records, path):
        write_log_records(records, path)
        expected = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
        assert path.read_text().splitlines() == expected
        write_jsonl(records, path.with_suffix(".plain"))
        assert path.read_bytes() == path.with_suffix(".plain").read_bytes()

    @pytest.mark.parametrize("kwargs", REFERENCE_CONFIGS.values(), ids=REFERENCE_CONFIGS)
    def test_generated_logs(self, tmp_path, kwargs):
        records, _, _ = generate_synthetic(GeneratorConfig(**kwargs))
        self.lines_match(records, tmp_path / "logs.jsonl")

    def test_hand_made_records(self, tmp_path):
        odd = 'q"uo\\te é ☃ \n'
        shared = event(3, item=odd, terms=(odd, "plain"), query=("ü",))
        int_cost = simple_record(user=odd, ts=10, terms=(odd,), behaviors=[shared, event(4)])
        int_cost.ad = AdDescriptor(odd, "s\"1", "b1", [odd], [odd], 2)
        float_cost = simple_record(ts=20, behaviors=[shared, event(4)], day=odd)
        empty = simple_record(ts=30, behaviors=[])
        self.lines_match([int_cost, float_cost, empty, float_cost], tmp_path / "logs.jsonl")
