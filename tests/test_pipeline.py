"""Retrieval paths, split pre-ranking, and the end-to-end simulator."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from admatch.annindex import normalize
from admatch.autodiff import Tensor
from admatch.data import (
    GeneratorConfig,
    ad_columns,
    build_vocab,
    generate_synthetic,
    request_columns,
)
from admatch import model as model_module
from admatch import pipeline
from admatch.model import EncoderConfig, MatchingModel
from admatch.pipeline import (
    BidwordIndex,
    Candidate,
    CatalogMismatchError,
    Impressions,
    PipelineConfig,
    PrerankScorer,
    SimulationResult,
    build_exact_index,
    compute_ad_vectors,
    load_ad_parts,
    metrics_from_counts,
    normalize_keyword,
    prerank,
    precompute_ad_parts,
    retrieve,
    save_ad_parts,
    simulate,
    write_simulation,
)

ENCODER = EncoderConfig(
    item_dim=8,
    shop_dim=4,
    brand_dim=4,
    term_dim=8,
    profile_dim=4,
    gru_hidden=12,
    attention_hidden=12,
    tower_dims=(24, 16),
    prerank_hidden=12,
)


@pytest.fixture(scope="module")
def world():
    cfg = GeneratorConfig(
        seed=71, n_users=40, days=2, n_items=150, n_categories=5,
        impressions_per_user_day=5,
    )
    records, ads, oracle = generate_synthetic(cfg)
    vocab = build_vocab(records, top_k=5000)
    model = MatchingModel(ENCODER, vocab.sizes, seed=71)
    index = build_exact_index(model, ads, vocab)
    index.train_pq(n_subspaces=4, n_centroids=32, iterations=10, seed=71)
    return records, ads, oracle, vocab, model, index


def head_scores(model, v_qu, vectors):
    """The trained pre-rank head on one query against [n x d] ad vectors."""
    return model.prerank_prob(
        Tensor(np.tile(v_qu, (len(vectors), 1))), Tensor(vectors)
    ).data


def stored_vectors(index):
    """The index's stored vectors, read back through exact_topk on the basis."""
    cols = [dict(index.exact_topk(e, len(index))) for e in np.eye(index.dim)]
    return {a: np.array([col[a] for col in cols]) for a in index.ids()}


class TestBidwordIndex:
    def test_exact_match(self, world):
        _, ads, _, _, _, _ = world
        index = BidwordIndex.build(ads)
        keyword = ads[0].bid_keywords[0]
        assert ads[0].item_id in index.lookup(keyword)

    def test_normalization(self):
        index = BidwordIndex.build([])
        assert normalize_keyword("  Red   Shoes ") == "red shoes"
        assert index.lookup("anything") == frozenset()

    def test_every_ad_under_each_keyword(self, world):
        _, ads, _, _, _, _ = world
        index = BidwordIndex.build(ads)
        for ad in ads[:30]:
            for kw in ad.bid_keywords:
                assert ad.item_id in index.lookup(kw)


class TestRetrieve:
    def test_keyword_path_provenance(self, world):
        _, ads, _, _, _, ann = world
        bidx = BidwordIndex.build(ads)
        got = retrieve(ads[0].bid_keywords[0], None, bidx, ann, 10, paths=("keyword",))
        assert got, "expected a keyword hit"
        assert all(c.paths == {"keyword"} for c in got.values())

    def test_both_paths_merge_into_one_candidate(self, world):
        _, ads, _, _, model, ann = world
        bidx = BidwordIndex.build(ads)
        target = ads[0]
        # the target's stored vector, one basis query per component
        query_vector = np.array(
            [dict(ann.exact_topk(e, len(ann)))[target.item_id] for e in np.eye(ann.dim)]
        )
        got = retrieve(
            target.bid_keywords[0], query_vector, bidx, ann, k_vector=len(ann)
        )
        cand = got[target.item_id]
        assert cand.paths == {"keyword", "vector"}
        assert cand.retrieval_score is not None
        assert sum(1 for c in got.values() if c.ad_id == target.item_id) == 1

    def test_long_tail_query_still_gets_vector_candidates(self, world):
        records, ads, _, vocab, model, ann = world
        bidx = BidwordIndex.build(ads)
        long_tail = next(
            r for r in records if not bidx.lookup(" ".join(r.query_terms))
        )
        request = request_columns([long_tail], vocab, ENCODER.behavior_window)
        v_qu = model.qu_forward(request).data[0]
        got = retrieve(" ".join(long_tail.query_terms), v_qu, bidx, ann, 25)
        assert len(got) > 0
        assert all(c.paths == {"vector"} for c in got.values())

    def test_no_paths_no_candidates(self, world):
        _, ads, _, _, _, ann = world
        bidx = BidwordIndex.build(ads)
        got = retrieve("query without any bidword match", None, bidx, ann, 10, paths=("keyword",))
        assert got == {}

    def test_zero_query_vector_skips_vector_path(self, world, caplog):
        _, ads, _, _, _, ann = world
        with caplog.at_level(logging.WARNING):
            got = retrieve("x", np.zeros(ann.dim), None, ann, 10, paths=("vector",))
        assert got == {}
        assert "zero-norm" in caplog.text

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_vector_skips_vector_path(self, world, caplog, bad):
        ann = world[5]
        query = np.ones(ann.dim)
        query[0] = bad
        with caplog.at_level(logging.WARNING):
            got = retrieve("x", query, None, ann, 10, paths=("vector",))
        assert got == {}
        assert "zero-norm or non-finite query vector" in caplog.text


class TestPrerank:
    def _setup(self, world, n_requests=3):
        records, ads, _, vocab, model, ann = world
        scorer = PrerankScorer(model)
        part_ids, parts = precompute_ad_parts(model, ads, vocab)
        rows = {a: i for i, a in enumerate(part_ids)}
        ads_by_id = {a.item_id: a for a in ads}
        return records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id

    def test_returns_all_when_n_large_sorted(self, world):
        records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id = self._setup(world)
        request = request_columns(records[:1], vocab, ENCODER.behavior_window)
        v_qu = model.qu_forward(request).data[0]
        candidates = retrieve("", v_qu / np.linalg.norm(v_qu), None, ann, 40, paths=("vector",))
        got = prerank(candidates, v_qu, scorer, rows, parts, model, ads_by_id, vocab, 1000)
        assert len(got) == len(candidates)
        scores = [c.prerank_score for c in got]
        assert scores == sorted(scores, reverse=True)

    def test_split_equals_direct_on_many_candidates(self, world):
        records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id = self._setup(world)
        ids, vectors = compute_ad_vectors(model, ads, vocab)
        rng = np.random.default_rng(0)
        worst = 0.0
        for rec in records[:8]:
            request = request_columns([rec], vocab, ENCODER.behavior_window)
            v_qu = model.qu_forward(request).data[0]
            candidates = {a: Candidate(a, {"vector"}) for a in ids}
            prerank(candidates, v_qu, scorer, rows, parts, model, ads_by_id, vocab, 10)
            split = np.array([candidates[a].prerank_score for a in ids])
            direct = head_scores(model, v_qu, vectors)
            worst = max(worst, float(np.abs(split - direct).max()))
        assert worst < 1e-9

    def test_q_part_computed_once_per_request(self, world):
        records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id = self._setup(world)
        request = request_columns(records[:1], vocab, ENCODER.behavior_window)
        v_qu = model.qu_forward(request).data[0]
        candidates = {a.item_id: Candidate(a.item_id, {"vector"}) for a in ads}
        before = scorer.q_part_count
        prerank(candidates, v_qu, scorer, rows, parts, model, ads_by_id, vocab, 5)
        assert scorer.q_part_count == before + 1

    def test_missing_part_falls_back_with_warning(self, world, caplog):
        records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id = self._setup(world)
        request = request_columns(records[:1], vocab, ENCODER.behavior_window)
        v_qu = model.qu_forward(request).data[0]
        victims = [ads[i].item_id for i in (3, 9, 11)]
        rows = {a: i for a, i in rows.items() if a not in victims}
        served = victims + [ads[i].item_id for i in (4, 20)]
        candidates = {a: Candidate(a, {"keyword"}) for a in served}
        with caplog.at_level(logging.WARNING):
            got = prerank(candidates, v_qu, scorer, rows, parts, model, ads_by_id, vocab, 5)
        # one warning per request, naming the miss count and the first ids
        warnings = [r.getMessage() for r in caplog.records if "missing" in r.getMessage()]
        assert len(warnings) == 1
        assert warnings[0].startswith("3 of 5 candidates")
        assert all(a in warnings[0] for a in victims)
        ids_all, vectors = compute_ad_vectors(model, ads, vocab)
        direct = head_scores(model, v_qu, vectors[[ids_all.index(a) for a in served]])
        scores = {c.ad_id: c.prerank_score for c in got}
        assert [scores[a] for a in served] == pytest.approx(direct, abs=1e-9)

    def test_empty_candidates(self, world):
        records, ads, vocab, model, ann, scorer, parts, rows, ads_by_id = self._setup(world)
        assert prerank({}, np.zeros(ENCODER.d), scorer, rows, parts, model, ads_by_id, vocab, 5) == []


class TestAdParts:
    def test_table_covers_catalog(self, world):
        _, ads, _, vocab, model, _ = world
        ids, parts = precompute_ad_parts(model, ads, vocab)
        assert len(ids) == len(ads)
        assert parts.shape == (len(ads), ENCODER.prerank_hidden)

    def test_zero_ad_vector_gives_zero_part(self, world):
        _, _, _, _, model, _ = world
        scorer = PrerankScorer(model)
        np.testing.assert_array_equal(
            scorer.a_part(np.zeros(ENCODER.d)), np.zeros(ENCODER.prerank_hidden)
        )

    def test_parts_match_split_identity(self, world):
        _, ads, _, vocab, model, _ = world
        scorer = PrerankScorer(model)
        ids, vectors = compute_ad_vectors(model, ads[:20], vocab)
        rng = np.random.default_rng(5)
        w1 = model.params["prerank/W1"].data
        b1 = model.params["prerank/b1"].data
        d = ENCODER.d
        for i in range(10):
            v_qu = rng.normal(size=d)
            q_part, a_part = scorer.q_part(v_qu), scorer.a_part(vectors[i])
            np.testing.assert_allclose(q_part, v_qu @ w1[:d] + b1, atol=1e-12)
            np.testing.assert_allclose(a_part, vectors[i] @ w1[d:], atol=1e-12)
            direct = np.concatenate([v_qu, vectors[i]]) @ w1 + b1
            np.testing.assert_allclose(q_part + a_part, direct, atol=1e-9)

    def test_file_round_trip(self, world, tmp_path):
        _, ads, _, vocab, model, _ = world
        ids, parts = precompute_ad_parts(model, ads, vocab)
        path = tmp_path / "parts.bin"
        save_ad_parts(ids, parts, path)
        ids2, parts2 = load_ad_parts(path)
        assert ids2 == ids
        np.testing.assert_array_equal(parts2, parts)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_ad_parts(path)


@pytest.fixture(scope="module")
def small_world():
    cfg = GeneratorConfig(seed=33, n_users=20, days=2, n_items=120, n_categories=4)
    records, ads, _ = generate_synthetic(cfg)
    vocab = build_vocab(records, top_k=5000)
    model = MatchingModel(
        EncoderConfig(
            item_dim=8, shop_dim=4, brand_dim=4, term_dim=8, profile_dim=4,
            gru_hidden=8, attention_hidden=8, tower_dims=(12, 8), prerank_hidden=8,
        ),
        vocab.sizes,
        seed=33,
    )
    return model, ads, vocab


# the index stores float32: one rounding per component of a unit vector
FLOAT32_TOL = 8 * np.finfo(np.float32).eps


class TestExport:
    def test_exported_vectors_unit_norm_and_deterministic(self, small_world):
        model, ads, vocab = small_world
        pairs = stored_vectors(build_exact_index(model, ads, vocab))
        again = stored_vectors(build_exact_index(model, ads, vocab))
        assert len(pairs) == len(ads)
        assert list(pairs) == list(again) == [a.item_id for a in ads]
        for ad_id, vec in pairs.items():
            assert np.array_equal(vec, again[ad_id])
            assert abs(np.linalg.norm(vec) - 1.0) < FLOAT32_TOL

    def test_normalized_dot_equals_raw_cosine(self, small_world):
        model, ads, vocab = small_world
        raw = model.ad_forward(ad_columns(ads[:10], vocab)).data
        index = build_exact_index(model, ads[:10], vocab)
        rng = np.random.default_rng(0)
        q = rng.normal(size=model.config.d)
        q_unit = q / np.linalg.norm(q)
        dots = dict(index.exact_topk(q_unit, len(index)))
        for a, raw_row in zip(ads[:10], raw):
            cos = float(np.dot(q, raw_row) / (np.linalg.norm(q) * np.linalg.norm(raw_row)))
            assert abs(cos - dots[a.item_id]) < FLOAT32_TOL

    def test_degenerate_ad_skipped_with_warning(self, small_world, caplog):
        model, ads, vocab = small_world
        rigged = MatchingModel(
            EncoderConfig(
                item_dim=8, shop_dim=4, brand_dim=4, term_dim=8, profile_dim=4,
                gru_hidden=8, attention_hidden=8, tower_dims=(12, 8), prerank_hidden=8,
                activation="relu",
            ),
            vocab.sizes,
            seed=33,
        )
        names = rigged.tower_param_names("ad")
        rigged.params[names[2]].data[...] = 0.0
        rigged.params[names[3]].data[...] = -1.0
        with caplog.at_level(logging.WARNING):
            index = build_exact_index(rigged, ads[:5], vocab)
        assert len(index) == 0
        assert "zero-norm" in caplog.text

    def test_build_exact_index(self, small_world):
        model, ads, vocab = small_world
        index = build_exact_index(model, ads, vocab)
        assert len(index) == len(ads)
        assert index.dim == model.config.d

    def test_stores_one_normalization_of_each_raw_row(self, small_world, monkeypatch, caplog):
        # the export divides each encoder row by its norm once, in the index
        model, ads, vocab = small_world
        ids, raw = compute_ad_vectors(model, ads[:12], vocab)
        raw[3] = 0.0
        monkeypatch.setattr(pipeline, "compute_ad_vectors", lambda *_: (ids, raw))
        with caplog.at_level(logging.WARNING):
            index = build_exact_index(model, ads[:12], vocab)
        kept = [i for i in range(len(ids)) if i != 3]
        assert index.ids() == tuple(ids[i] for i in kept)
        expected = np.stack([normalize(raw[i]).astype(np.float32) for i in kept])
        assert index._snap.vectors.tobytes() == expected.tobytes()
        assert f"skipping ad {ids[3]}: degenerate zero-norm" in caplog.text


class TestMetrics:
    def test_frozen_formula_example(self):
        m = metrics_from_counts(presents=200, clicks=10, requests=100, cost=30.0)
        assert m["ctr"] == 0.05
        assert m["pr"] == 2.0
        assert m["cpc"] == 3.0
        assert m["rpm"] == pytest.approx(0.15, abs=1e-12)
        assert m["rpm"] == m["ctr"] * m["cpc"]

    def test_zero_denominators_are_undefined(self):
        m = metrics_from_counts(presents=0, clicks=0, requests=50, cost=0.0)
        assert m["pr"] == 0.0
        assert m["ctr"] is None
        assert m["cpc"] is None
        assert m["rpm"] is None
        m2 = metrics_from_counts(presents=0, clicks=0, requests=0, cost=0.0)
        assert m2["pr"] is None

    def test_rpm_identity_by_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            presents = int(rng.integers(1, 1000))
            clicks = int(rng.integers(1, presents + 1))
            requests = int(rng.integers(1, 500))
            cost = float(rng.uniform(0, 100))
            m = metrics_from_counts(presents, clicks, requests, cost)
            assert abs(m["rpm"] - m["ctr"] * m["cpc"]) < 1e-12


class TestSimulate:
    def test_deterministic_outputs(self, world, tmp_path):
        records, ads, oracle, vocab, model, ann = world
        cfg = PipelineConfig(top_n=8, k_vector=30, seed=9)
        outs = []
        for run in range(2):
            result = simulate(records[:60], model, vocab, ann, ads, oracle, cfg)
            out = tmp_path / f"run{run}"
            write_simulation(result, out)
            outs.append(
                (out / "metrics.json").read_bytes()
                + (out / "impressions.jsonl").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_split_direct_consistency_across_run(self, world):
        records, ads, oracle, vocab, model, ann = world
        cfg = PipelineConfig(top_n=8, k_vector=30, seed=9)
        result = simulate(records[:60], model, vocab, ann, ads, oracle, cfg)
        assert result.metrics["prerank_split_max_abs_dev"] < 1e-9
        assert result.metrics["q_part_computations"] == 60

    def test_perturbed_split_reaches_the_deviation(self, world, monkeypatch):
        # the replay checks the scorer it serves with, the one in model
        assert pipeline.PrerankScorer is model_module.PrerankScorer
        records, ads, oracle, vocab, model, ann = world
        original = pipeline.PrerankScorer.score_from_parts
        monkeypatch.setattr(
            pipeline.PrerankScorer,
            "score_from_parts",
            lambda self, q_part, a_parts: original(self, q_part, a_parts) + 1e-6,
        )
        cfg = PipelineConfig(top_n=8, k_vector=30, seed=9)
        result = simulate(records[:20], model, vocab, ann, ads, oracle, cfg)
        assert result.metrics["prerank_split_max_abs_dev"] > 1e-9

    def test_a_request_replays_alone_as_it_does_in_a_block(self, world, monkeypatch):
        # the block's array passes score and rank each request's rows as its
        # own replay does; only the click draws follow the stream's position.
        # The query tower is not batch-invariant, so each request is encoded
        # alone in both replays
        records, ads, oracle, vocab, model, ann = world
        encode = model.qu_forward
        monkeypatch.setattr(
            model, "qu_forward",
            lambda requests: Tensor(np.concatenate(
                [encode(requests[i : i + 1]).data for i in range(len(requests))]
            )),
        )
        cfg = PipelineConfig(top_n=40, k_vector=60, seed=9)

        def served(impressions):
            return [
                json.dumps({k: v for k, v in row.items() if k not in ("clicked", "cost")})
                for row in impressions
            ]

        block = simulate(records[:48], model, vocab, ann, ads, oracle, cfg)
        alone = [
            served(simulate([rec], model, vocab, ann, ads, oracle, cfg).impressions)
            for rec in records[:48]
        ]
        assert block.metrics["request_count"] == 48 and len(block.impressions) > 48 * 20
        assert served(block.impressions) == [row for rows in alone for row in rows]

    def test_vector_path_lifts_pr(self, world):
        records, ads, oracle, vocab, model, ann = world
        base = PipelineConfig(paths=("keyword",), top_n=8, k_vector=30, seed=9)
        both = PipelineConfig(paths=("keyword", "vector"), top_n=8, k_vector=30, seed=9)
        pr_keyword = simulate(records[:80], model, vocab, ann, ads, oracle, base).metrics["pr"]
        pr_both = simulate(records[:80], model, vocab, ann, ads, oracle, both).metrics["pr"]
        assert pr_both > pr_keyword

    def test_provenance_reaches_impression_log(self, world):
        records, ads, oracle, vocab, model, ann = world
        cfg = PipelineConfig(top_n=5, k_vector=30, seed=10)
        result = simulate(records[:40], model, vocab, ann, ads, oracle, cfg)
        assert result.impressions
        for row in result.impressions:
            assert row["paths"] and set(row["paths"]) <= {"keyword", "vector"}
            assert 0.0 < row["prerank_score"] < 1.0

    def test_counts_reconcile_with_impressions(self, world):
        records, ads, oracle, vocab, model, ann = world
        cfg = PipelineConfig(top_n=5, k_vector=30, seed=11)
        result = simulate(records[:50], model, vocab, ann, ads, oracle, cfg)
        m = result.metrics
        assert m["ad_present_count"] == len(result.impressions)
        assert m["ad_click_count"] == sum(r["clicked"] for r in result.impressions)
        assert m["ad_cost_amount"] == pytest.approx(
            sum(r["cost"] for r in result.impressions), abs=1e-9
        )
        assert m["rpm"] == m["ctr"] * m["cpc"]

    def test_precomputed_parts_accepted(self, world):
        records, ads, oracle, vocab, model, ann = world
        parts = precompute_ad_parts(model, ads, vocab)
        cfg = PipelineConfig(top_n=5, k_vector=20, seed=12)
        a = simulate(records[:30], model, vocab, ann, ads, oracle, cfg, ad_parts=parts)
        b = simulate(records[:30], model, vocab, ann, ads, oracle, cfg)
        assert a.metrics["ctr"] == b.metrics["ctr"]
        assert a.metrics["q_part_computations"] == 30

    def test_index_ad_missing_from_catalog_refused(self, world):
        records, ads, oracle, vocab, model, _ = world
        index = build_exact_index(model, ads, vocab)
        index.add("newad", np.ones(model.config.d))
        parts = precompute_ad_parts(model, ads, vocab)
        # a pool covering the whole index: every request retrieves newad
        cfg = PipelineConfig(top_n=5, k_vector=len(index), seed=12)
        message = "^the ad catalog lacks 1 of the indexed ads; first: newad$"
        with pytest.raises(CatalogMismatchError, match=message):
            simulate(records[:30], model, vocab, index, ads, oracle, cfg, ad_parts=parts)

    def test_catalog_ad_unknown_to_oracle_refused(self, world):
        records, ads, oracle, vocab, model, ann = world
        dropped = [a.item_id for a in ads[:7]]
        known = {a: c for a, c in oracle.item_categories.items() if a not in dropped}
        partial = replace(oracle, item_categories=known)
        cfg = PipelineConfig(top_n=5, k_vector=20, seed=12)
        message = f"^the oracle lacks 7 of the catalog ads; first: {', '.join(dropped[:5])}$"
        with pytest.raises(CatalogMismatchError, match=message):
            simulate(records[:30], model, vocab, ann, ads, partial, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(paths=("sideways",))
        with pytest.raises(ValueError):
            PipelineConfig(paths=())
        with pytest.raises(ValueError):
            PipelineConfig(top_n=0)
        with pytest.raises(ValueError, match="overfetch_factor"):
            PipelineConfig(overfetch_factor=0, paths=("keyword",))

    def test_parts_table_of_another_width_refused_before_encoding(self, world, monkeypatch):
        records, ads, oracle, vocab, model, ann = world
        other = MatchingModel(replace(ENCODER, prerank_hidden=5), vocab.sizes, seed=71)
        table = precompute_ad_parts(other, ads, vocab)
        encoded = []
        monkeypatch.setattr(
            "admatch.pipeline.compute_ad_vectors", lambda *args: encoded.append(args)
        )
        cfg = PipelineConfig(top_n=5, k_vector=20, seed=12)
        message = "^the ad-parts table is 5 wide, but the model's prerank_hidden is 12$"
        with pytest.raises(CatalogMismatchError, match=message):
            simulate(records[:30], model, vocab, ann, ads, oracle, cfg, ad_parts=table)
        assert encoded == []


# ----------------------------------------------------------------------
# the replay against the per-request loop it replaced


def reference_simulate(records, model, vocab, ann_index, ads, oracle, config, ad_parts=None):
    """The replay as one ``retrieve`` + ``prerank`` + ``click_prob`` pass per
    request, building one dict per impression: the golden reference."""
    ads_by_id = {ad.item_id: ad for ad in ads}
    bidword_index = BidwordIndex.build(ads) if "keyword" in config.paths else None
    scorer = PrerankScorer(model)
    encoded = ads if config.verify_split or ad_parts is None else []
    vector_ids, vectors = compute_ad_vectors(model, encoded, vocab)
    part_ids, parts = (vector_ids, scorer.a_part(vectors)) if ad_parts is None else ad_parts
    part_rows = {ad_id: i for i, ad_id in enumerate(part_ids)}
    vector_rows = {ad_id: i for i, ad_id in enumerate(vector_ids)}
    v_qu_all = model.qu_forward(request_columns(records, vocab, model.config.behavior_window)).data
    rng = np.random.default_rng(config.seed)
    presents = clicks = 0
    cost_total = split_dev = 0.0
    impressions = []
    for rec, v_qu in zip(records, v_qu_all):
        candidates = retrieve(
            " ".join(rec.query_terms),
            v_qu if "vector" in config.paths else None,
            bidword_index,
            ann_index,
            config.k_vector,
            paths=config.paths,
            overfetch_factor=config.overfetch_factor,
            rerank=config.rerank,
        )
        selected = prerank(
            candidates, v_qu, scorer, part_rows, parts, model, ads_by_id, vocab, config.top_n
        )
        if config.verify_split and candidates:
            ordered = sorted(candidates)
            head = head_scores(model, v_qu, vectors[[vector_rows[a] for a in ordered]])
            split = np.array([candidates[a].prerank_score for a in ordered])
            split_dev = max(split_dev, float(np.abs(head - split).max()))
        if not selected:
            continue
        draws = rng.random(size=len(selected))
        for position, (cand, draw) in enumerate(zip(selected, draws)):
            p_click = oracle.click_prob(rec.user_id, rec.timestamp, cand.ad_id)
            was_clicked = int(draw < p_click)
            presents += 1
            clicks += was_clicked
            ad_cost = ads_by_id[cand.ad_id].cost
            if was_clicked:
                cost_total += ad_cost
            impressions.append(
                {
                    "user_id": rec.user_id,
                    "timestamp": rec.timestamp,
                    "ad_id": cand.ad_id,
                    "position": position,
                    "paths": sorted(cand.paths),
                    "retrieval_score": cand.retrieval_score,
                    "prerank_score": cand.prerank_score,
                    "clicked": was_clicked,
                    "cost": ad_cost if was_clicked else 0.0,
                }
            )
    metrics = metrics_from_counts(presents, clicks, len(records), cost_total)
    metrics["q_part_computations"] = scorer.q_part_count
    metrics["prerank_split_max_abs_dev"] = split_dev if config.verify_split else None
    metrics["paths"] = list(config.paths)
    metrics["top_n"] = config.top_n
    metrics["k_vector"] = config.k_vector
    metrics["seed"] = config.seed
    return impressions, metrics


def reference_files(impressions, metrics):
    lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in impressions)
    return lines.encode(), json.dumps(metrics, sort_keys=True, indent=2).encode()


def written_files(result, out):
    write_simulation(result, out)
    return (out / "impressions.jsonl").read_bytes(), (out / "metrics.json").read_bytes()


CLONE = "clone-of-tie"  # sorts before every generated id, and sits last in the catalog


@pytest.fixture(scope="module")
def golden(world):
    """A catalog with a cloned ad whose parts row equals its original's, so
    the two tie exactly; requests with a tie, and one with no keyword match."""
    records, ads, oracle, vocab, model, _ = world
    original = ads[17]
    catalog = list(ads) + [replace(original, item_id=CLONE)]
    oracle = replace(
        oracle,
        item_categories={**oracle.item_categories, CLONE: oracle.item_categories[original.item_id]},
    )
    part_ids, parts = precompute_ad_parts(model, catalog, vocab)
    parts[-1] = parts[part_ids.index(original.item_id)]
    _, vectors = compute_ad_vectors(model, catalog, vocab)
    exact = build_exact_index(model, catalog, vocab)
    pq = build_exact_index(model, catalog, vocab)
    pq.train_pq(n_subspaces=4, n_centroids=32, iterations=10, seed=71)
    replay = (
        list(records[:24])
        + [replace(records[1], query_terms=original.bid_keywords[0].split())]
        + [replace(records[2], query_terms=["no-such-bidword"])]
    )
    return replay, catalog, oracle, vocab, model, {"pq": pq, "exact": exact}, (part_ids, parts)


class TestReplayMatchesReference:
    @pytest.mark.parametrize("paths", [("keyword", "vector"), ("keyword",), ("vector",)])
    @pytest.mark.parametrize("index_kind", ["pq", "exact"])
    @pytest.mark.parametrize("rerank", [True, False])
    @pytest.mark.parametrize("top_n", [4, 500])
    @pytest.mark.parametrize("verify_split", [True, False])
    @pytest.mark.parametrize("with_parts", [True, False])
    def test_outputs_are_byte_equal(
        self, golden, tmp_path, paths, index_kind, rerank, top_n, verify_split, with_parts
    ):
        records, catalog, oracle, vocab, model, indexes, parts = golden
        cfg = PipelineConfig(
            paths=paths, top_n=top_n, k_vector=30, rerank=rerank, seed=5,
            verify_split=verify_split,
        )
        ad_parts = parts if with_parts else None
        args = (records, model, vocab, indexes[index_kind], catalog, oracle, cfg, ad_parts)
        ref_rows, ref_metrics = reference_simulate(*args)
        result = simulate(*args)
        assert written_files(result, tmp_path) == reference_files(ref_rows, ref_metrics)
        # the sequence reads the same rows, with the same types
        assert len(result.impressions) == len(ref_rows)
        assert [json.dumps(r, sort_keys=True) for r in result.impressions] == [
            json.dumps(r, sort_keys=True) for r in ref_rows
        ]
        if with_parts and top_n > len(catalog) and "keyword" in paths:
            # the exact tie was presented, clone first by ad id
            pairs = zip(ref_rows, ref_rows[1:])
            assert any(
                (a["ad_id"], b["ad_id"]) == (CLONE, catalog[17].item_id)
                and a["prerank_score"] == b["prerank_score"]
                for a, b in pairs
            )
        if paths == ("keyword",):
            assert result.metrics["q_part_computations"] < len(records)

    def test_rows_read_as_a_sequence(self, golden):
        records, catalog, oracle, vocab, model, indexes, parts = golden
        cfg = PipelineConfig(top_n=3, k_vector=10, seed=5)
        result = simulate(records[:4], model, vocab, indexes["pq"], catalog, oracle, cfg, parts)
        rows = result.impressions
        assert len(rows) == 12
        assert rows[-1] == rows[11] and rows[2:4] == [rows[2], rows[3]]
        assert [r["position"] for r in rows] == [0, 1, 2] * 4
        with pytest.raises(IndexError):
            rows[12]

    def test_non_finite_scores_written_as_json_writes_them(self, tmp_path):
        columns = [
            (np.array([1, 0]), np.array([3, 1], np.uint8), np.array([-np.inf, 0.0]),
             np.array([np.nan, 0.25]), np.array([True, False])),
            (np.array([0]), np.array([2], np.uint8), np.array([np.inf]),
             np.array([1e-300]), np.array([True])),
        ]
        rows = Impressions.collect(
            ["a\u00e9", "b"], [np.nan, 2], [("u1", 7), ("u\"2", 8)], [2, 1], columns
        )
        impressions, _ = written_files(SimulationResult(rows, {}), tmp_path)
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        assert impressions == want.encode()
        assert b"NaN" in impressions and b"-Infinity" in impressions

    def test_unknown_request_raises(self, golden):
        records, catalog, oracle, vocab, model, indexes, parts = golden
        stranger = replace(records[0], user_id="nobody")
        cfg = PipelineConfig(paths=("vector",), top_n=3, k_vector=10)
        with pytest.raises(KeyError, match=r"unknown request nobody\|"):
            simulate([stranger], model, vocab, indexes["pq"], catalog, oracle, cfg, parts)

    def test_add_during_replay_maps_rows_through_the_searched_snapshot(
        self, golden, tmp_path, monkeypatch
    ):
        records, catalog, oracle, vocab, model, _, _ = golden
        late = catalog[40]
        _, vectors = compute_ad_vectors(model, [late], vocab)
        outputs = []
        for run in ("reference", "replay"):
            index = build_exact_index(model, [a for a in catalog if a is not late], vocab)
            index.train_pq(n_subspaces=4, n_centroids=32, iterations=10, seed=71)
            search_rows = index.search_rows
            calls = []

            def adding_search(*args, **kwargs):
                # the third search adds an ad before it reads the index
                calls.append(1)
                if len(calls) == 3:
                    index.add(late.item_id, vectors[0])
                return search_rows(*args, **kwargs)

            monkeypatch.setattr(index, "search_rows", adding_search)
            cfg = PipelineConfig(paths=("vector",), top_n=500, k_vector=500, seed=5)
            args = (records[:6], model, vocab, index, catalog, oracle, cfg)
            if run == "reference":
                outputs.append(reference_files(*reference_simulate(*args)))
            else:
                outputs.append(written_files(simulate(*args), tmp_path))
            assert len(index) == len(catalog)
        assert outputs[0] == outputs[1]
        assert late.item_id.encode() in outputs[1][0]


class TestReplayWarnings:
    @pytest.mark.parametrize("verify_split", [True, False])
    def test_missing_parts_encoded_once_per_replay(self, world, caplog, monkeypatch, verify_split):
        records, ads, oracle, vocab, model, ann = world
        victim = ads[5].item_id
        part_ids, parts = precompute_ad_parts(model, ads, vocab)
        keep = [i for i, a in enumerate(part_ids) if a != victim]
        table = ([part_ids[i] for i in keep], parts[keep])
        encoded = []
        original = compute_ad_vectors

        def counting(model_, ads_, vocab_):
            encoded.extend(a.item_id for a in ads_)
            return original(model_, ads_, vocab_)

        monkeypatch.setattr("admatch.pipeline.compute_ad_vectors", counting)
        # a pool covering the whole index: every request retrieves the victim
        cfg = PipelineConfig(
            paths=("vector",), top_n=5, k_vector=len(ann), seed=3, verify_split=verify_split
        )
        with caplog.at_level(logging.WARNING):
            result = simulate(records[:12], model, vocab, ann, ads, oracle, cfg, table)
        # each catalog ad at most once: all of them for the split check, else the victim
        assert len(encoded) == len(set(encoded))
        assert sorted(encoded) == (sorted(part_ids) if verify_split else [victim])
        if verify_split:
            assert result.metrics["prerank_split_max_abs_dev"] <= 1e-12
        warnings = [r.getMessage() for r in caplog.records if "part table" in r.getMessage()]
        assert len(warnings) == 1
        assert warnings[0].startswith("1 ads missing") and victim in warnings[0]

    def test_partial_table_gives_the_full_tables_outputs(self, world, tmp_path):
        records, ads, oracle, vocab, model, ann = world
        part_ids, parts = precompute_ad_parts(model, ads, vocab)
        keep = [i for i in range(len(part_ids)) if i % 7 != 3]
        partial = ([part_ids[i] for i in keep], parts[keep])
        cfg = PipelineConfig(top_n=8, k_vector=len(ann), seed=3, verify_split=True)
        full = simulate(records[:40], model, vocab, ann, ads, oracle, cfg, (part_ids, parts))
        less = simulate(records[:40], model, vocab, ann, ads, oracle, cfg, partial)
        assert len(full.impressions) > 0
        assert written_files(less, tmp_path / "partial") == written_files(full, tmp_path / "full")

    def test_exact_fallback_warns_once_per_replay(self, world, caplog):
        records, ads, oracle, vocab, model, _ = world
        exact = build_exact_index(model, ads, vocab)
        cfg = PipelineConfig(paths=("vector",), top_n=3, k_vector=10, seed=3)
        with caplog.at_level(logging.WARNING):
            simulate(records[:8], model, vocab, exact, ads, oracle, cfg)
        fallbacks = [r for r in caplog.records if "falling back to exact" in r.getMessage()]
        assert len(fallbacks) == 1
