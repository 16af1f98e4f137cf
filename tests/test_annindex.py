"""Exact search oracle, product quantization, incremental adds, file IO."""

import ast
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admatch import annindex
from admatch.annindex import (
    AnnIndex,
    DegenerateVectorError,
    PqCodebooks,
    PqTrainingError,
    pq_decode,
    pq_encode,
    pq_train,
)


def stored_vectors(index):
    """Every stored vector by ad id, read back through ``exact_topk``: the
    basis query e_j scores each ad with its j-th component."""
    columns = [dict(index.exact_topk(e, len(index))) for e in np.eye(index.dim)]
    return {ad_id: np.array([col[ad_id] for col in columns]) for ad_id in index.ids()}


def selection_topk_oracle(ids, vectors, query, k):
    """Independent O(nK) top-k: repeated scan for the best remaining."""
    scores = {i: float(np.dot(v, query)) for i, v in zip(ids, vectors)}
    remaining = list(ids)
    out = []
    for _ in range(min(k, len(remaining))):
        best = None
        for cand in remaining:
            if best is None or scores[cand] > scores[best] or (
                scores[cand] == scores[best] and cand < best
            ):
                best = cand
        remaining.remove(best)
        out.append((best, scores[best]))
    return out


def pq_search_oracle(ids, vectors, decoded, query, k, overfetch_factor, rerank):
    """pq_search by its definition: the k * overfetch_factor best by ADC
    score (the decoded vectors), then the k best of that pool exactly."""
    pool = selection_topk_oracle(ids, decoded, query, k * overfetch_factor)
    if not rerank:
        return pool[:k]
    by_id = dict(zip(ids, vectors))
    pool_ids = [a for a, _ in pool]
    return selection_topk_oracle(pool_ids, [by_id[a] for a in pool_ids], query, k)


def tie_at(scores, k):
    """Whether the k-th and (k+1)-th best of ``scores`` are equal."""
    ranked = sorted(scores, reverse=True)
    return k < len(ranked) and ranked[k - 1] == ranked[k]


def random_unit(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def filled_index(rng, n, d, prefix="ad") -> AnnIndex:
    index = AnnIndex(d)
    for i, v in enumerate(random_unit(rng, n, d)):
        index.add(f"{prefix}{i:04d}", v)
    return index


# centroids that are exact in float32 and whose products with a query of
# quarters are exact, so the oracle's ADC scores equal the index's bit for
# bit; 4 codes per subspace put many distinct vectors on one ADC score
GRID_CODEBOOKS = PqCodebooks(
    np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, 0.5]]] * 2, dtype=np.float32)
)


def tied_index(rng, n=60, copies=12) -> AnnIndex:
    """PQ index on GRID_CODEBOOKS holding exact duplicate vectors, which tie
    on every query, filled in an order unrelated to id order."""
    vectors = random_unit(rng, n - copies, 4)
    vectors = np.concatenate([vectors, vectors[rng.integers(0, n - copies, size=copies)]])
    index = AnnIndex(4, GRID_CODEBOOKS)
    for i in rng.permutation(n):
        index.add(f"ad{i:03d}", vectors[i])
    return index


# The PQ build as it was before k-means ran a whole array at a time: one
# masked mean per cluster and a fresh [n, k] distance matrix per pass. The
# array-at-a-time build must reproduce its codebooks, errors and codes bit
# for bit.


def _reference_kmeans_pp_init(data, k, rng):
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = data[first]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = data[int(rng.integers(n))]
            continue
        target = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), target))
        idx = min(idx, n - 1)
        centers[j] = data[idx]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


def _reference_nearest(data, centers):
    d2 = (
        (data * data).sum(axis=1)[:, None]
        - 2.0 * (data @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    assign = np.argmin(d2, axis=1)
    return assign, d2[np.arange(len(data)), assign]


def _reference_lloyd(data, k, iterations, rng):
    centers = _reference_kmeans_pp_init(data, k, rng)
    errors = []
    for _ in range(iterations):
        assign, nearest_d2 = _reference_nearest(data, centers)
        errors.append(float(np.maximum(nearest_d2, 0.0).mean()))
        for j in range(k):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers, errors


def reference_pq_train(vectors, n_subspaces, n_centroids, iterations, seed):
    vectors = np.asarray(vectors, dtype=np.float64)
    n, d = vectors.shape
    rng = np.random.default_rng(seed)
    sub = d // n_subspaces
    centroids = np.empty((n_subspaces, n_centroids, sub), dtype=np.float32)
    history = np.empty((n_subspaces, iterations), dtype=np.float64)
    for m in range(n_subspaces):
        block = vectors[:, m * sub : (m + 1) * sub]
        centers, errors = _reference_lloyd(block, n_centroids, iterations, rng)
        centroids[m] = centers.astype(np.float32)
        history[m] = errors
    return centroids, history


def reference_pq_encode(centroids, vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    m_total, _, sub = centroids.shape
    codes = np.empty((vectors.shape[0], m_total), dtype=np.uint8)
    for m in range(m_total):
        block = vectors[:, m * sub : (m + 1) * sub]
        codes[:, m] = _reference_nearest(block, centroids[m].astype(np.float64))[0]
    return codes


class TestExactSearch:
    def test_stored_vector_ranks_first_with_unit_score(self):
        rng = np.random.default_rng(1)
        index = filled_index(rng, 30, 8)
        target = stored_vectors(index)["ad0007"]
        top = index.exact_topk(target, 3)
        assert top[0][0] == "ad0007"
        assert top[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_k_larger_than_index_returns_everything(self):
        rng = np.random.default_rng(2)
        index = filled_index(rng, 5, 4)
        assert len(index.exact_topk(random_unit(rng, 1, 4)[0], 50)) == 5

    def test_hand_placed_angles(self):
        index = AnnIndex(2)
        index.add("deg00", np.array([1.0, 0.0]))
        index.add("deg60", np.array([0.5, math.sqrt(3) / 2]))
        index.add("deg90", np.array([0.0, 1.0]))
        top = index.exact_topk(np.array([1.0, 0.0]), 3)
        assert [t[0] for t in top] == ["deg00", "deg60", "deg90"]
        np.testing.assert_allclose([t[1] for t in top], [1.0, 0.5, 0.0], atol=1e-9)

    def test_ties_break_by_ascending_ad_id(self):
        index = AnnIndex(2)
        index.add("b", np.array([1.0, 0.0]))
        index.add("a", np.array([1.0, 0.0]))
        index.add("c", np.array([0.0, 1.0]))
        top = index.exact_topk(np.array([1.0, 0.0]), 2)
        assert [t[0] for t in top] == ["a", "b"]

    def test_empty_index_returns_empty(self):
        assert AnnIndex(4).exact_topk(np.ones(4), 5) == []

    def test_matches_selection_oracle(self):
        rng = np.random.default_rng(3)
        for index in (filled_index(rng, 64, 6), tied_index(rng)):
            snap_ids = index.ids()
            stored = stored_vectors(index)
            vectors = [stored[i] for i in snap_ids]
            d = index.dim
            queries = [random_unit(rng, 1, d)[0] for _ in range(6)] + vectors[-4:]
            for q in queries:
                for k in (*rng.integers(1, 12, size=2), 40, len(snap_ids), 500):
                    got = index.exact_topk(q, int(k))
                    want = selection_topk_oracle(snap_ids, vectors, q, k)
                    assert [g[0] for g in got] == [w[0] for w in want]
                    np.testing.assert_allclose(
                        [g[1] for g in got], [w[1] for w in want], atol=1e-12
                    )

    def test_pq_search_matches_oracle_with_ties(self):
        rng = np.random.default_rng(23)
        straddles = {"k": 0, "pool": 0}
        for _ in range(4):
            index = tied_index(rng)
            ids = index.ids()
            stored = stored_vectors(index)
            vectors = [stored[i] for i in ids]
            decoded = pq_decode(index.codebooks, index._snap.codes)
            n = len(ids)
            # quarters keep every score exact; the zero query ties everything
            queries = [rng.integers(-4, 5, size=4) / 4.0 for _ in range(5)] + [np.zeros(4)]
            for q in queries:
                adc = decoded @ q
                exact = np.array(vectors) @ q
                for k, factor in ((1, 1), (3, 2), (7, 1), (10, 4), (25, 3), (n, 1), (n + 5, 2)):
                    straddles["k"] += tie_at(exact, k)
                    straddles["pool"] += tie_at(adc, k * factor)
                    for rerank in (True, False):
                        got = index.pq_search(q, k, overfetch_factor=factor, rerank=rerank)
                        want = pq_search_oracle(ids, vectors, decoded, q, k, factor, rerank)
                        assert got == want
        # the inputs did put exact ties across both cuts
        assert straddles["k"] > 0 and straddles["pool"] > 0


class TestAdds:
    def test_vectors_stay_unit_norm(self):
        rng = np.random.default_rng(4)
        index = AnnIndex(6)
        for i in range(40):
            index.add(f"x{i}", rng.normal(size=6) * rng.uniform(0.1, 9.0))
        snap = index._snap
        np.testing.assert_allclose(
            np.linalg.norm(snap.vectors, axis=1), 1.0, atol=1e-6
        )

    def test_count_increments_and_new_ad_found(self):
        rng = np.random.default_rng(5)
        index = filled_index(rng, 10, 4)
        v = random_unit(rng, 1, 4)[0]
        index.add("fresh", v)
        assert len(index) == 11
        assert index.exact_topk(v, 1)[0][0] == "fresh"

    def test_duplicate_replaced_with_warning(self, caplog):
        rng = np.random.default_rng(6)
        index = filled_index(rng, 4, 4)
        with caplog.at_level(logging.WARNING):
            index.add("ad0002", random_unit(rng, 1, 4)[0])
        assert "replacing" in caplog.text
        assert len(index) == 4

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            AnnIndex(3).add("z", np.zeros(3))
        index = AnnIndex(3)
        with pytest.raises(DegenerateVectorError):
            index.add_many([("a", np.ones(3)), ("z", np.zeros(3))])
        assert len(index) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        rng = np.random.default_rng(8)
        index = filled_index(rng, 4, 4)
        before = stored_vectors(index)
        vector = np.array([bad, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateVectorError, match="non-finite"):
            index.add("x", vector)
        with pytest.raises(DegenerateVectorError, match="non-finite"):
            index.add_many([("y", np.ones(4)), ("x", vector)])
        after = stored_vectors(index)
        assert list(after) == list(before)
        assert all(np.array_equal(after[a], v) for a, v in before.items())

    @pytest.mark.parametrize("trained", [False, True])
    def test_add_many_saves_same_bytes_as_sequential_adds(self, tmp_path, caplog, trained):
        rng = np.random.default_rng(21)
        codebooks = None
        if trained:
            codebooks = pq_train(random_unit(rng, 64, 8), 2, 16, 5, seed=1).codebooks
        vectors = rng.normal(size=(60, 8))
        # ids repeat within the batch and against the prefilled entries
        pairs = [(f"ad{int(i):03d}", v) for i, v in zip(rng.integers(0, 35, size=60), vectors)]
        saved = []
        for batched in (False, True):
            index = AnnIndex(8, codebooks)
            for ad_id, v in pairs[:10]:
                index.add(ad_id, v)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                if batched:
                    index.add_many(pairs[10:])
                else:
                    for ad_id, v in pairs[10:]:
                        index.add(ad_id, v)
            path = tmp_path / f"{batched}.idx"
            index.save(path)
            saved.append((path.read_bytes(), caplog.text.count("replacing")))
        assert saved[0] == saved[1]
        assert saved[0][1] > 0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            AnnIndex(3).add("z", np.ones(4))


class TestPqTraining:
    def test_distinct_points_reach_zero_error(self):
        rng = np.random.default_rng(7)
        data = random_unit(rng, 24, 8)
        result = pq_train(data, n_subspaces=2, n_centroids=24, iterations=20, seed=0)
        assert result.error_history[:, -1].max() < 1e-12
        codes = pq_encode(result.codebooks, data)
        np.testing.assert_allclose(
            pq_decode(result.codebooks, codes), data, atol=1e-6
        )

    def test_error_non_increasing_per_iteration(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(400, 16))
        result = pq_train(data, n_subspaces=4, n_centroids=16, iterations=15, seed=1)
        diffs = np.diff(result.error_history, axis=1)
        assert (diffs <= 1e-12).all()

    def test_beats_random_codebook_baseline(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(500, 16))
        result = pq_train(data, n_subspaces=4, n_centroids=16, iterations=15, seed=2)
        trained_err = np.mean(
            (pq_decode(result.codebooks, pq_encode(result.codebooks, data)) - data) ** 2
        )
        picks = rng.choice(len(data), size=16, replace=False)
        random_cb = result.codebooks.__class__(
            np.stack(
                [data[picks, m * 4 : (m + 1) * 4] for m in range(4)]
            ).astype(np.float32)
        )
        random_err = np.mean(
            (pq_decode(random_cb, pq_encode(random_cb, data)) - data) ** 2
        )
        assert trained_err < random_err

    def test_too_few_vectors_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(PqTrainingError):
            pq_train(rng.normal(size=(10, 8)), n_subspaces=2, n_centroids=16)

    def test_indivisible_dimension_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(PqTrainingError):
            pq_train(rng.normal(size=(40, 10)), n_subspaces=3, n_centroids=8)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["n_subspaces", "n_centroids", "iterations"])
    def test_count_below_one_rejected(self, name, value):
        rng = np.random.default_rng(22)
        settings = {"n_subspaces": 2, "n_centroids": 4, "iterations": 3, name: value}
        with pytest.raises(PqTrainingError, match=f"^{name} must be at least 1, got {value}$"):
            pq_train(rng.normal(size=(20, 8)), **settings)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(200, 8))
        a = pq_train(data, 2, 16, 10, seed=5)
        b = pq_train(data, 2, 16, 10, seed=5)
        np.testing.assert_array_equal(a.codebooks.centroids, b.codebooks.centroids)


class TestPqMatchesReference:
    """The array-at-a-time build reproduces ``reference_pq_train`` and
    ``reference_pq_encode`` byte for byte."""

    @staticmethod
    def training_sets(sub, seed):
        rng = np.random.default_rng(100 * seed + sub)
        d = 2 * sub
        distinct = rng.normal(size=(30, d))
        repeated = distinct[rng.integers(0, 30, size=90)]
        return [
            # more than 1,024 rows: cut into 1,024-row blocks, the product's
            # last 37 rows take another BLAS kernel and round differently
            (rng.normal(size=(1061, d)) * 10.0 ** rng.integers(-3, 4, size=d), 16),
            (rng.normal(size=(40, d)), 40),  # k == n
            # 30 distinct points for 40 centroids: seeding reuses points once
            # no mass is left, and the duplicate centroids' clusters are empty
            (repeated, 40),
            (repeated[:48], 48),  # k == n with repeats
        ]

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("sub", [1, 3, 5, 8, 12, 16, 32])
    def test_codebooks_errors_and_codes(self, sub, seed):
        for data, k in self.training_sets(sub, seed):
            for iterations in (1, 5):
                centroids, history = reference_pq_train(data, 2, k, iterations, seed)
                got = pq_train(data, 2, k, iterations, seed)
                assert got.codebooks.centroids.tobytes() == centroids.tobytes()
                assert got.error_history.tobytes() == history.tobytes()
                for rows in (data, data[:1]):
                    want = reference_pq_encode(centroids, rows)
                    assert pq_encode(got.codebooks, rows).tobytes() == want.tobytes()

    def test_row_sums_add_in_numpys_order(self):
        # 4, 8, 16 and 32 terms are the subspace counts a subspace-major ADC
        # scan would sum; above 128 numpy splits the row in halves
        rng = np.random.default_rng(24)
        for width in [*range(1, 41), 64, 127, 128, *range(129, 201)]:
            x = rng.normal(size=(30, width)) * 10.0 ** rng.integers(-8, 9, size=(30, width))
            x[0] = -0.0  # numpy starts each row's sum at +0.0
            got = annindex._row_sums(np.ascontiguousarray(x.T))
            assert got.tobytes() == x.sum(axis=1).tobytes(), width


class TestPqSearch:
    def test_zero_quantization_error_reproduces_exact(self):
        rng = np.random.default_rng(13)
        index = filled_index(rng, 60, 8)
        index.train_pq(n_subspaces=2, n_centroids=60, iterations=25, seed=3)
        for _ in range(5):
            q = random_unit(rng, 1, 8)[0]
            got = index.pq_search(q, 10, rerank=False)
            want = index.exact_topk(q, 10)
            # ADC sums subspace partials, so scores can differ in the last
            # ulp; ids and ranking must match outright
            assert [g[0] for g in got] == [w[0] for w in want]
            np.testing.assert_allclose(
                [g[1] for g in got], [w[1] for w in want], atol=1e-12
            )

    def test_exhaustive_rerank_reproduces_exact(self):
        rng = np.random.default_rng(14)
        index = filled_index(rng, 80, 8)
        index.train_pq(n_subspaces=4, n_centroids=8, iterations=10, seed=4)
        for _ in range(5):
            q = random_unit(rng, 1, 8)[0]
            got = index.pq_search(q, 10, overfetch_factor=8, rerank=True)
            assert got == index.exact_topk(q, 10)

    def test_fallback_without_codebooks(self, caplog):
        rng = np.random.default_rng(15)
        index = filled_index(rng, 12, 4)
        q = random_unit(rng, 1, 4)[0]
        with caplog.at_level(logging.WARNING):
            got = index.pq_search(q, 3)
        assert "falling back" in caplog.text
        assert got == index.exact_topk(q, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("trained", [False, True])
    def test_non_finite_query_rejected(self, bad, trained):
        rng = np.random.default_rng(17)
        index = filled_index(rng, 40, 4)
        if trained:
            index.train_pq(n_subspaces=2, n_centroids=8, iterations=3, seed=17)
        query = np.array([bad, 1.0, 0.0, 0.0])
        for search in (
            lambda: index.exact_topk(query, 2),
            lambda: index.pq_search(query, 2),
            lambda: index.search_rows(query, 2),
        ):
            with pytest.raises(DegenerateVectorError, match="non-finite"):
                search()

    def test_search_rows_names_the_rows_of_pq_search(self):
        rng = np.random.default_rng(18)
        index = filled_index(rng, 40, 4)
        q = random_unit(rng, 1, 4)[0]
        exact = index.search_rows(q, 5)
        assert not exact.pq
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=3, seed=18)
        hits = index.search_rows(q, 5, overfetch_factor=2)
        assert hits.pq and hits.ids is index.ids()
        named = [(hits.ids[r], s) for r, s in zip(hits.rows.tolist(), hits.scores.tolist())]
        assert named == index.pq_search(q, 5, overfetch_factor=2)

    def test_recall_non_decreasing_in_overfetch(self):
        rng = np.random.default_rng(16)
        index = filled_index(rng, 400, 16)
        index.train_pq(n_subspaces=4, n_centroids=32, iterations=10, seed=5)
        queries = random_unit(rng, 25, 16)
        k = 5
        recalls = []
        for factor in (1, 2, 4, 8):
            hits = 0
            for q in queries:
                exact = {a for a, _ in index.exact_topk(q, k)}
                approx = {a for a, _ in index.pq_search(q, k, overfetch_factor=factor)}
                hits += len(exact & approx)
            recalls.append(hits / (k * len(queries)))
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_added_ad_searchable_and_bounded_error(self):
        rng = np.random.default_rng(17)
        index = filled_index(rng, 120, 8)
        result = index.train_pq(n_subspaces=2, n_centroids=16, iterations=15, seed=6)
        train_vectors = index._snap.vectors.astype(np.float64)
        recon = pq_decode(result.codebooks, pq_encode(result.codebooks, train_vectors))
        # twice the worst training point-to-centroid distance bounds any
        # same-distribution point's quantization error per subspace
        per_sub_err = [
            np.linalg.norm((train_vectors - recon)[:, m * 4 : (m + 1) * 4], axis=1).max()
            for m in range(2)
        ]
        v = random_unit(rng, 1, 8)[0]
        index.add("newcomer", v)
        assert len(index) == 121
        assert index.exact_topk(v, 1)[0][0] == "newcomer"
        code = pq_encode(result.codebooks, v[None, :])
        v_recon = pq_decode(result.codebooks, code)[0]
        for m in range(2):
            err = np.linalg.norm((v - v_recon)[m * 4 : (m + 1) * 4])
            assert err <= 2.0 * per_sub_err[m] + 1e-9

    def test_pq_codes_consistent_after_add(self):
        rng = np.random.default_rng(18)
        index = filled_index(rng, 40, 8)
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=10, seed=7)
        index.add("late", random_unit(rng, 1, 8)[0])
        snap = index._snap
        expected = pq_encode(index.codebooks, snap.vectors.astype(np.float64))
        np.testing.assert_array_equal(snap.codes, expected)


class TestConcurrentReads:
    def test_search_during_retrain_reads_one_snapshot(self, monkeypatch):
        rng = np.random.default_rng(78)
        index = filled_index(rng, 60, 8)
        index.train_pq(n_subspaces=2, n_centroids=16, iterations=5, seed=1)
        q = random_unit(rng, 1, 8)[0]
        before = index.pq_search(q, 5, rerank=False)
        seen = []
        encode = annindex.pq_encode

        def search_then_encode(codebooks, vectors):
            # a reader that runs after training, before the new codes exist
            seen.append(index.pq_search(q, 5, rerank=False))
            return encode(codebooks, vectors)

        monkeypatch.setattr(annindex, "pq_encode", search_then_encode)
        index.train_pq(n_subspaces=2, n_centroids=16, iterations=5, seed=2)
        assert seen == [before]
        assert index.pq_search(q, 5, rerank=False) != before

    def test_searches_never_see_torn_state_during_adds(self):
        import threading

        rng = np.random.default_rng(77)
        index = filled_index(rng, 50, 8)
        index.train_pq(n_subspaces=2, n_centroids=16, iterations=5, seed=77)
        queries = random_unit(rng, 10, 8)
        new_vectors = random_unit(rng, 200, 8)
        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for q in queries:
                    try:
                        hits = index.pq_search(q, 5)
                        if len(hits) != len(set(h[0] for h in hits)):
                            failures.append("duplicate ids in one snapshot read")
                    except Exception as exc:  # torn state would surface here
                        failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i, v in enumerate(new_vectors):
            index.add(f"late{i:04d}", v)
        stop.set()
        for t in threads:
            t.join()
        assert not failures, failures[:3]
        assert len(index) == 250


class TestIndexFile:
    def test_round_trip_bytes_and_content(self, tmp_path):
        rng = np.random.default_rng(19)
        index = filled_index(rng, 50, 8)
        index.train_pq(n_subspaces=2, n_centroids=16, iterations=10, seed=8)
        p1 = tmp_path / "a.idx"
        index.save(p1)
        loaded = AnnIndex.load(p1)
        assert loaded.ids() == index.ids()
        np.testing.assert_array_equal(loaded._snap.vectors, index._snap.vectors)
        np.testing.assert_array_equal(loaded._snap.codes, index._snap.codes)
        np.testing.assert_array_equal(
            loaded.codebooks.centroids, index.codebooks.centroids
        )
        p2 = tmp_path / "b.idx"
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_only_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        index = filled_index(rng, 10, 4)
        index.save(tmp_path / "plain.idx")
        loaded = AnnIndex.load(tmp_path / "plain.idx")
        assert loaded.codebooks is None
        q = random_unit(rng, 1, 4)[0]
        assert loaded.exact_topk(q, 3) == index.exact_topk(q, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOTANIDX" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            AnnIndex.load(path)


class TestLayering:
    def test_import_pulls_in_neither_model_nor_data(self):
        # a fresh interpreter: this test process has imported everything
        code = (
            "import sys, admatch.annindex; "
            "print(sorted({'admatch.model', 'admatch.data'} & set(sys.modules)))"
        )
        src = str(Path(annindex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_source_imports_no_admatch_module_but_artifact(self):
        # a static guard: an import under a function or a type check counts too
        imported = set()
        for node in ast.walk(ast.parse(Path(annindex.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["admatch" if node.level else "", node.module]))
                if module == "admatch":
                    imported.update(f"admatch.{alias.name}" for alias in node.names)
                else:
                    imported.add(module)
        assert {m for m in imported if m.split(".")[0] == "admatch"} <= {"admatch.artifact"}
