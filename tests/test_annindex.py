"""Exact search oracle, product quantization, incremental adds, file IO."""

import ast
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from admatch import annindex, artifact
from admatch.annindex import (
    AnnIndex,
    DegenerateVectorError,
    PqCodebooks,
    PqTrainingError,
    pq_decode,
    pq_encode,
    pq_train,
)
from admatch.artifact import ArtifactError


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


# The ADC scan and the pool as they were before codes were stored
# subspace-major: one 2-d gather over [n, M] codes summed along each row,
# and the pool as the first rows of the full rank order. The subspace-major
# scan must give the same bits, and the pool the same set.


def reference_adc(lookup, codes):
    # the old snapshot held C-ordered [n, M] codes; the gather keeps the
    # index's layout, and only a C-ordered sum adds each row pairwise
    codes = np.ascontiguousarray(codes)
    return lookup[np.arange(lookup.shape[0])[None, :], codes].sum(axis=1)


def reference_top_rows(ids, rows, scores, k):
    if k < len(scores):
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        keep = np.flatnonzero(~(scores < kth))
    else:
        keep = np.arange(len(scores))
    keep = keep[np.argsort(-scores[keep])]
    ranked = rows[keep]
    ranked_scores = scores[keep]
    nan = np.isnan(ranked_scores)
    tied = (ranked_scores[1:] == ranked_scores[:-1]) | (nan[1:] & nan[:-1])
    if tied.any():
        edges = np.flatnonzero(np.diff(np.concatenate(([0], tied.view(np.int8), [0]))))
        for lo, hi in zip(edges[0::2], edges[1::2] + 1):
            ranked[lo:hi] = sorted(ranked[lo:hi], key=ids.__getitem__)
    return ranked[:k], ranked_scores[:k]


def lookup_table(codebooks, query):
    """The index's ADC lookup: query subvector m against each centroid of m."""
    cb = codebooks
    return (cb.table @ query.reshape(cb.n_subspaces, cb.sub_dim, 1))[:, :, 0]


def index_of(codebooks, vectors, names):
    index = AnnIndex(vectors.shape[1], codebooks)
    index.add_many(zip(names, vectors))
    return index


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
            decoded = pq_decode(index.codebooks, index._snap.codes.T)
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

    @pytest.mark.parametrize("scale", [1e200, 1e308], ids=["1e200", "1e308"])
    def test_a_finite_vector_whose_norm_overflows_is_stored_as_its_unit_vector(self, scale):
        # its plain norm is inf, which used to warn of an overflow and be refused
        index = AnnIndex(3)
        index.add("big", np.array([0.6, 0.0, -0.8]) * scale)
        index.add("small", np.array([0.6, 0.0, -0.8]))
        stored = stored_vectors(index)
        assert np.array_equal(stored["big"], stored["small"])

    @pytest.mark.parametrize("trained", [False, True])
    def test_add_many_saves_same_bytes_as_sequential_adds(self, tmp_path, caplog, trained):
        rng = np.random.default_rng(21)
        codebooks = None
        if trained:
            codebooks = pq_train(random_unit(rng, 64, 8), 2, 16, 5, seed=1).codebooks
        vectors = rng.normal(size=(200, 8))
        # ids repeat within the batch and against the prefilled entries
        pairs = [(f"ad{int(i):03d}", v) for i, v in zip(rng.integers(0, 120, size=200), vectors)]
        saved = []
        for batched in (False, True):
            index = AnnIndex(8, codebooks)
            for ad_id, v in pairs[:10]:
                index.add(ad_id, v)
            prefilled = index._snap
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                if batched:
                    index.add_many(pairs[10:])
                else:
                    for ad_id, v in pairs[10:]:
                        index.add(ad_id, v)
            if not batched:  # the one-row adds outgrew the buffers they started in
                assert not np.shares_memory(index._snap.vectors, prefilled.vectors)
            path = tmp_path / f"{batched}.idx"
            index.save(path)
            saved.append((path.read_bytes(), caplog.text.count("replacing")))
        assert saved[0] == saved[1]
        assert saved[0][1] > 0

    @pytest.mark.parametrize("trained", [False, True])
    def test_one_row_adds_save_the_bytes_of_one_bulk_add(self, tmp_path, trained):
        rng = np.random.default_rng(24)
        codebooks = None
        if trained:
            codebooks = pq_train(random_unit(rng, 300, 16), 4, 32, 5, seed=2).codebooks
        pairs = [(f"ad{i:04d}", v) for i, v in enumerate(rng.normal(size=(400, 16)))]
        grown, bulk = AnnIndex(16, codebooks), AnnIndex(16, codebooks)
        growths = 0
        for ad_id, v in pairs:
            before = grown._snap.vectors
            grown.add(ad_id, v)
            growths += not np.shares_memory(grown._snap.vectors, before)
        bulk.add_many(pairs)
        grown.save(tmp_path / "grown.idx")
        bulk.save(tmp_path / "bulk.idx")
        assert growths > 3
        assert (tmp_path / "grown.idx").read_bytes() == (tmp_path / "bulk.idx").read_bytes()

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            AnnIndex(3).add("z", np.ones(4))


class TestAppendOnlyStorage:
    """A snapshot views the first rows of growable buffers; writes past them
    must never reach a row a published snapshot reads."""

    def test_a_snapshot_keeps_its_rows_through_later_writes(self):
        rng = np.random.default_rng(31)
        index = filled_index(rng, 40, 8)
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=5, seed=3)
        index.add("first", random_unit(rng, 1, 8)[0])  # copies into buffers with spare rows
        snap = index._snap
        ids, vectors, codes = snap.ids, snap.vectors.copy(), snap.codes.copy()
        index.add("ad0003", random_unit(rng, 1, 8)[0])
        for i, v in enumerate(random_unit(rng, 60, 8)):
            index.add(f"late{i:03d}", v)
        assert not np.shares_memory(index._snap.vectors, snap.vectors)  # the buffers grew
        index.add("first", random_unit(rng, 1, 8)[0])
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=5, seed=4)
        index.add("after", random_unit(rng, 1, 8)[0])
        assert snap.ids == ids and len(index) == 102
        np.testing.assert_array_equal(snap.vectors, vectors)
        np.testing.assert_array_equal(snap.codes, codes)

    def test_appends_share_the_buffers_and_a_replacement_copies_them(self):
        rng = np.random.default_rng(32)
        index = filled_index(rng, 30, 8)
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=5, seed=3)
        index.add("a", random_unit(rng, 1, 8)[0])
        first = index._snap
        index.add("b", random_unit(rng, 1, 8)[0])
        second = index._snap
        assert np.shares_memory(first.vectors, second.vectors)
        assert np.shares_memory(first.codes, second.codes)
        kept = second.vectors[-2].copy()
        index.add("a", random_unit(rng, 1, 8)[0])
        third = index._snap
        assert not np.shares_memory(second.vectors, third.vectors)
        assert not np.shares_memory(second.codes, third.codes)
        np.testing.assert_array_equal(second.vectors[-2], kept)
        assert not np.array_equal(third.vectors[-2], kept)

    def test_extending_an_older_snapshot_copies(self, caplog):
        rng = np.random.default_rng(33)
        index = filled_index(rng, 20, 8)
        index.train_pq(n_subspaces=2, n_centroids=8, iterations=5, seed=3)
        index.add("x", random_unit(rng, 1, 8)[0])
        older = index._snap
        index.add("b", random_unit(rng, 1, 8)[0])
        newer = index._snap
        row, code = newer.vectors[-1].copy(), newer.codes[:, -1].copy()
        index._snap = older  # a writer still holding the older snapshot
        c = random_unit(rng, 1, 8)[0]
        index.add("c", c)
        extended = index._snap
        assert extended.ids == older.ids + ("c",)
        assert not np.shares_memory(extended.vectors, newer.vectors)
        assert not np.shares_memory(extended.codes, newer.codes)
        assert newer.ids[-1] == "b"
        np.testing.assert_array_equal(newer.vectors[-1], row)
        np.testing.assert_array_equal(newer.codes[:, -1], code)
        assert index.exact_topk(c, 1)[0][0] == "c"
        with caplog.at_level(logging.WARNING):
            index.add("b", random_unit(rng, 1, 8)[0])  # "b" is not in this snapshot
        assert "replacing" not in caplog.text
        assert index.ids() == older.ids + ("c", "b")


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

    @staticmethod
    def counted_passes(monkeypatch, data, k, iterations):
        """``pq_train``'s result and its ``_nearest`` calls per subspace."""
        calls = Counter()
        nearest = annindex._nearest

        def counted(rows, *args):
            calls[rows.ctypes.data] += 1  # each subspace has its own rows
            return nearest(rows, *args)

        monkeypatch.setattr(annindex, "_nearest", counted)
        result = pq_train(data, 2, k, iterations, seed=1)
        return result, list(calls.values())

    def test_passes_stop_once_an_assignment_repeats(self, monkeypatch):
        # k == n: each point is its own center after one pass, which the
        # next pass's assignment repeats
        data = np.random.default_rng(30).normal(size=(40, 8))
        result, calls = self.counted_passes(monkeypatch, data, 40, 10)
        assert calls == result.passes.tolist()
        assert (result.passes < 10).all()
        for errors, passes in zip(result.error_history, result.passes):
            assert (errors[passes - 1 :] == errors[passes - 1]).all()

    def test_passes_run_to_the_limit_before_convergence(self, monkeypatch):
        data = np.random.default_rng(31).normal(size=(2000, 8))
        result, calls = self.counted_passes(monkeypatch, data, 16, 3)
        assert calls == result.passes.tolist() == [3, 3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_training_vector_rejected(self, bad):
        data = np.random.default_rng(32).normal(size=(64, 8))
        data[5, 3] = bad
        with pytest.raises(PqTrainingError, match="^training vector 5 is non-finite$"):
            pq_train(data, n_subspaces=2, n_centroids=4, iterations=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vector_not_encoded(self, bad):
        data = np.random.default_rng(33).normal(size=(64, 8))
        codebooks = pq_train(data, n_subspaces=2, n_centroids=4, iterations=3).codebooks
        data[2] = np.nan
        data[7, 0] = bad
        with pytest.raises(DegenerateVectorError, match="^vector 2 is non-finite$"):
            pq_encode(codebooks, data)
        with pytest.raises(DegenerateVectorError, match="^vector 0 is non-finite$"):
            pq_encode(codebooks, data[7:8])


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
            # 25 passes: stopped subspaces must match the reference's full run
            for iterations in (1, 5, 25):
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


class TestAdcMatchesReference:
    """The subspace-major scan gives ``reference_adc``'s bits, and the pool
    is the set of ``reference_top_rows``'s rows."""

    @pytest.mark.parametrize("n_centroids", [4, 16, 256])
    @pytest.mark.parametrize("n_subspaces", [4, 8, 16, 32])
    def test_scores_and_pool(self, n_subspaces, n_centroids):
        rng = np.random.default_rng(n_subspaces * 1000 + n_centroids)
        n, d = 1200, 2 * n_subspaces
        distinct = random_unit(rng, n, d)
        codebooks = pq_train(distinct, n_subspaces, n_centroids, 2, seed=1).codebooks
        names = [f"ad{i:04d}" for i in rng.permutation(n)]
        # 150 vectors stored 8 times each share their codes: tie-heavy cuts
        repeated = distinct[rng.integers(0, 150, size=n)]
        straddles = 0
        for vectors in (distinct, repeated):
            index = index_of(codebooks, vectors, names)
            ids, rows, codes = index.ids(), np.arange(n), index._snap.codes
            for q in [*random_unit(rng, 3, d), np.zeros(d)]:
                want = reference_adc(lookup_table(codebooks, q), codes.T)
                got = annindex._adc(lookup_table(codebooks, q), codes)
                assert got.tobytes() == want.tobytes()
                for size in (1, 7, 100, 599, n - 1, n):
                    pool = annindex._chosen(ids, rows, got, size)
                    ref_pool = reference_top_rows(ids, rows, want, size)[0]
                    assert sorted(pool.tolist()) == sorted(ref_pool.tolist())
                    straddles += tie_at(want, size)
                hits = index.search_rows(q, n, rerank=False)
                ref_rows, ref_scores = reference_top_rows(ids, rows, want, n)
                assert hits.rows.tolist() == ref_rows.tolist()
                assert hits.scores.tobytes() == ref_scores.tobytes()
        # the repeated vectors (and the zero query) put ties across the cuts
        assert straddles > 0

    def test_degenerate_sizes_against_exact(self):
        rng = np.random.default_rng(25)
        n, d = 300, 16
        index = index_of(None, random_unit(rng, n, d), [f"ad{i:03d}" for i in range(n)])
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=3, seed=2)
        empty = AnnIndex(d, index.codebooks)
        ids, rows = index.ids(), np.arange(n)
        for q in random_unit(rng, 5, d):
            exact = index.exact_topk(q, n)
            assert index.pq_search(q, n + 7) == exact  # k > n
            assert index.pq_search(q, 30, overfetch_factor=10) == exact[:30]  # pool == n
            for rerank in (True, False):
                assert empty.pq_search(q, 5, rerank=rerank) == []
            assert empty.exact_topk(q, 5) == []
            approx = reference_adc(lookup_table(index.codebooks, q), index._snap.codes.T)
            # the reference pool, each ad scored as exact_topk scores it; overfetch
            # 1, and a pool over half the index
            for k, factor in ((20, 1), (100, 2)):
                pool = reference_top_rows(ids, rows, approx, k * factor)[0]
                scored = ((ids[r], dict(exact)[ids[r]]) for r in pool)
                ranked = sorted(scored, key=lambda hit: (-hit[1], hit[0]))
                assert index.pq_search(q, k, overfetch_factor=factor) == ranked[:k]
            # no re-rank: a covering pool keeps the ADC order
            ref_rows, ref_scores = reference_top_rows(ids, rows, approx, 30)
            want = [(ids[r], s) for r, s in zip(ref_rows.tolist(), ref_scores.tolist())]
            assert index.pq_search(q, 30, overfetch_factor=10, rerank=False) == want


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

    def test_covering_pool_skips_the_adc(self, monkeypatch, caplog):
        rng = np.random.default_rng(26)
        index = filled_index(rng, 80, 8)
        index.train_pq(n_subspaces=4, n_centroids=8, iterations=3, seed=4)
        q = random_unit(rng, 1, 8)[0]
        monkeypatch.setattr(annindex, "_adc", None)  # any ADC scan would fail
        with caplog.at_level(logging.WARNING):
            assert index.search_rows(q, 10, overfetch_factor=8).pq
            assert index.pq_search(q, 10, overfetch_factor=8) == index.exact_topk(q, 10)
        assert "falling back" not in caplog.text
        with pytest.raises(TypeError):
            index.search_rows(q, 10, overfetch_factor=7)

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

    @pytest.mark.parametrize("trained", [False, True])
    def test_query_above_2_to_the_60_rejected(self, trained):
        # the float32 filter could overflow past it
        rng = np.random.default_rng(27)
        index = filled_index(rng, 40, 4)
        if trained:
            index.train_pq(n_subspaces=2, n_centroids=8, iterations=3, seed=27)
        top = index.exact_topk(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        assert index.exact_topk(np.array([2.0**60, 0.0, 0.0, 0.0]), 2)[0][0] == top[0][0]
        query = np.array([0.0, 0.6, 0.0, 0.8]) * 2.0**61
        for search in (
            lambda: index.exact_topk(query, 2),
            lambda: index.pq_search(query, 2),
            lambda: index.search_rows(query, 2),
        ):
            with pytest.raises(DegenerateVectorError, match="above 2"):
                search()

    @pytest.mark.parametrize("trained", [False, True])
    def test_a_finite_query_whose_norm_overflows_is_rejected(self, trained):
        # its plain norm is inf, which used to warn of an overflow
        rng = np.random.default_rng(28)
        index = filled_index(rng, 40, 4)
        if trained:
            index.train_pq(n_subspaces=2, n_centroids=8, iterations=3, seed=28)
        query = np.array([1e200, 0.0, 0.0, -1e200])
        for search in (
            lambda: index.exact_topk(query, 2),
            lambda: index.pq_search(query, 2),
            lambda: index.search_rows(query, 2),
        ):
            with pytest.raises(DegenerateVectorError, match=r"above 2\*\*60: norm inf"):
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
        np.testing.assert_array_equal(snap.codes.T, expected)


class TestScoresDoNotDependOnPosition:
    """A row's exact score depends only on its vector and the query. The
    vectors are non-dyadic, so a kernel that rounds by position shows."""

    @pytest.mark.parametrize("pool", [501, 603, 5001, 5002, 5003])
    # einsum casts the float32 rows through an 8,192-element buffer: 64
    # divides it, while at 100 most rows straddle two buffers
    @pytest.mark.parametrize(("d", "subspaces"), [(64, 8), (100, 10)])
    def test_row_scores_alike_first_and_last_in_the_pool(self, d, subspaces, pool):
        rng = np.random.default_rng(pool)
        candidates = random_unit(rng, 4 * pool + 400, d)
        codebooks = pq_train(candidates[:1000], subspaces, 16, 2, seed=1).codebooks
        names = [f"c{i:05d}" for i in range(len(candidates))]
        for q in rng.normal(size=(2, d)):
            # rank every candidate by ADC score; the middle one is the probe
            order = index_of(codebooks, candidates, names).search_rows(
                q, len(candidates), rerank=False
            ).rows
            mid = 2 * pool + 200
            probe, above, below = order[mid], order[: pool - 1], order[mid + 1 :]
            # the pool is over half the index (every row is scored), then under
            # half (the pool is gathered)
            for extra in (100, pool + 100):
                # first: the probe heads the pool; last: it is the pool's worst
                first, last = (
                    index_of(codebooks, candidates[rows], [names[r] for r in rows])
                    for rows in (
                        [probe, *below[: pool - 1 + extra]],
                        [*above, *below[-extra:], probe],
                    )
                )
                assert first.search_rows(q, 1, rerank=False).rows.tolist() == [0]
                assert last.search_rows(q, pool, rerank=False).rows[-1] == len(last) - 1
                scores = [
                    dict(index.pq_search(q, pool, overfetch_factor=1))[names[probe]]
                    for index in (first, last)
                ]
                scores += [
                    dict(index.exact_topk(q, len(index)))[names[probe]] for index in (first, last)
                ]
                assert len(set(scores)) == 1, scores

    def test_covering_pool_scores_every_ad_as_exact_topk_does(self):
        rng = np.random.default_rng(41)
        n, d = 1003, 128
        index = index_of(None, random_unit(rng, n, d), [f"ad{i:04d}" for i in range(n)])
        index.train_pq(n_subspaces=16, n_centroids=16, iterations=2, seed=3)
        for q in rng.normal(size=(5, d)):
            assert index.pq_search(q, n, overfetch_factor=1) == index.exact_topk(q, n)
            assert index.pq_search(q, 101, overfetch_factor=10) == index.exact_topk(q, 101)

    def test_equal_vectors_tie_and_order_by_id(self):
        rng = np.random.default_rng(42)
        n, d = 1003, 128
        vectors = random_unit(rng, n, d)
        vectors[-1] = vectors[0]
        names = ["twin-b", *(f"ad{i:04d}" for i in range(1, n - 1)), "twin-a"]
        index = index_of(None, vectors, names)
        index.train_pq(n_subspaces=16, n_centroids=16, iterations=2, seed=4)
        for q in vectors[0] + 0.3 * random_unit(rng, 5, d):
            for hits in (
                index.exact_topk(q, 20),
                index.pq_search(q, 20, overfetch_factor=5),
                index.pq_search(q, 20),
                index.pq_search(q, 20, overfetch_factor=30),  # pool over half the index
            ):
                names_hit = [a for a, _ in hits]
                i = names_hit.index("twin-a")
                assert names_hit[i + 1] == "twin-b"
                assert hits[i][1] == hits[i + 1][1]


def forge_index(path, header, arrays, ids):
    """A checksum-valid index file framed as ``save`` frames one, holding
    the given header ints, arrays and ids."""
    header = np.array(header, "<u8")
    artifact.write(path, annindex._MAGIC, annindex._FORMAT_VERSION, (header, *arrays), ids)


def filter_bound(d, max_norm, query_norm):
    """The float32 filter's error bound, derived here on its own:
    (gamma_d(u32)(1 + u32) + u32 + gamma_d(u64)) max_norm ||q||."""
    u32, u64 = 2.0**-24, 2.0**-53
    gamma32, gamma64 = d * u32 / (1 - d * u32), d * u64 / (1 - d * u64)
    return (gamma32 * (1 + u32) + u32 + gamma64) * max_norm * query_norm


def search_options(n, k):
    """Every search of k rows: exact, covering, a gathered pool, a pool over
    half the index (these keep k of more rows exactly), and ADC alone."""
    return [
        dict(pq=False),
        dict(overfetch_factor=n),
        dict(overfetch_factor=2),
        dict(overfetch_factor=max(1, 3 * n // (4 * k))),
        dict(rerank=False),
    ]


def searches(index, q, k):
    return [index.search_rows(q, k, **options) for options in search_options(len(index), k)]


class TestFloat32Filter:
    """The exact re-rank scores only the rows a float32 gemv leaves within 2e
    of its k-th score; rows and score bits stay those of the unfiltered
    search, which ``_filter_error`` returning inf gives (every row survives)."""

    @staticmethod
    def assert_unfiltered(monkeypatch, index, queries, ks):
        found = [[searches(index, q, k) for k in ks] for q in queries]
        with monkeypatch.context() as m:
            m.setattr(annindex, "_filter_error", lambda *args: math.inf)
            want = [[searches(index, q, k) for k in ks] for q in queries]
        for got_q, want_q in zip(found, want):
            for got_k, want_k in zip(got_q, want_q):
                for got, hits in zip(got_k, want_k):
                    assert got.rows.tolist() == hits.rows.tolist()
                    assert got.scores.tobytes() == hits.scores.tobytes()
                    assert got.pq == hits.pq

    @pytest.mark.parametrize("d", [64, 100])
    def test_random_data(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        n = 1500
        index = index_of(None, random_unit(rng, n, d), [f"r{i:05d}" for i in rng.permutation(n)])
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=2, seed=1)
        scored = []
        dots = annindex._dots
        monkeypatch.setattr(annindex, "_dots", lambda v, q: scored.append(len(v)) or dots(v, q))
        queries = rng.normal(size=(3, d)) * np.array([[1.0], [1e-3], [37.5]])
        self.assert_unfiltered(monkeypatch, index, queries, [1, 7, 300, n - 1])
        assert min(scored) < 20  # the filter ran: a k of 1 or 7 met few rows

    def test_ties_at_the_cut_with_equal_non_dyadic_vectors(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, d, k = 900, 64, 40
        vectors = random_unit(rng, n, d).astype(np.float32)
        q = rng.normal(size=d)
        order = np.argsort(-annindex._dots(vectors, q))
        # six copies of the k-th row, taken from far below it, tie with it at
        # ranks k to k + 6, across the cut
        vectors[rng.choice(order[k + 20 :], size=6, replace=False)] = vectors[order[k - 1]]
        index = index_of(None, vectors, [f"t{i:04d}" for i in rng.permutation(n)])
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=2, seed=2)
        scores = index.search_rows(q, k + 8, pq=False).scores
        assert len(set(scores[k - 1 : k + 6].tolist())) == 1 and scores[k - 2] > scores[k - 1]
        self.assert_unfiltered(monkeypatch, index, [q], [k - 3, k, k + 3])

    @pytest.mark.parametrize("scale", [1e-3, 7.3, 2.0**61])
    def test_a_file_with_non_unit_rows_is_refused(self, tmp_path, scale):
        # rows near one direction, most of norm 40 times ``scale``: the
        # filter's bound holds for unit rows only, so ``load`` refuses them
        rng = np.random.default_rng(6)
        n, d = 700, 64
        base = random_unit(rng, 1, d)[0]
        rows = base + 1e-6 * rng.normal(size=(n, d))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows *= scale * np.where(rng.random(size=(n, 1)) < 0.9, 40.0, 0.5)
        path = tmp_path / "scaled.idx"
        forge_index(path, (d, 0, 0, n), [rows.astype("<f4")], [f"s{i:04d}" for i in range(n)])
        with pytest.raises(ArtifactError, match="ad 's0000' has norm .*, not 1") as err:
            AnnIndex.load(path)
        assert str(path) in str(err.value)

    def test_a_zero_query(self, monkeypatch):
        rng = np.random.default_rng(7)
        index = filled_index(rng, 400, 64)
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=2, seed=3)
        hits = index.search_rows(np.zeros(64), 30, pq=False)
        assert hits.scores.tolist() == [0.0] * 30
        assert [index.ids()[r] for r in hits.rows] == sorted(index.ids())[:30]
        self.assert_unfiltered(monkeypatch, index, [np.zeros(64)], [1, 30])

    def test_k_at_least_the_pool(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 300
        index = filled_index(rng, n, 64)
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=2, seed=4)
        called = []
        monkeypatch.setattr(annindex, "_filter_scores", lambda v, q: called.append(1))
        for q in rng.normal(size=(2, 64)):
            for k in (n, n + 5):
                hits = index.search_rows(q, k, pq=False)
                assert sorted(hits.rows.tolist()) == list(range(n))
            index.search_rows(q, 20, overfetch_factor=1)  # a pool of k rows
        assert called == []
        monkeypatch.undo()
        self.assert_unfiltered(monkeypatch, index, rng.normal(size=(2, 64)), [n - 1, n, n + 5])

    @pytest.mark.parametrize("d", [64, 100])
    def test_float32_scores_anywhere_within_e_keep_the_result(self, monkeypatch, d):
        # the bound holds for any summation order, so any float32 scores within
        # e of the exact ones must give the result; the worst push the result's
        # rows down by e and the rest, near-ties just below the cut, up by e
        rng = np.random.default_rng(d + 1)
        n, k = 800, 30
        vectors = random_unit(rng, n, d)
        q = rng.normal(size=d)
        order = np.argsort(-(vectors @ q))
        # from far below the cut: two copies of the k-th row, and two rows
        # that score about 0.3e under it
        kth, far = vectors[order[k - 1]], rng.choice(order[k + 20 :], size=4, replace=False)
        step = 0.3 * filter_bound(d, 1.0, np.linalg.norm(q)) / np.linalg.norm(q) ** 2
        vectors[far] = [kth, kth, kth - step * q, kth - 1.5 * step * q]
        index = index_of(None, vectors, [f"w{i:04d}" for i in rng.permutation(n)])
        index.train_pq(n_subspaces=4, n_centroids=16, iterations=2, seed=5)
        norms = [np.linalg.norm(v) for v in stored_vectors(index).values()]
        e = filter_bound(d, max(norms), np.linalg.norm(q))
        # the k-th row and its copies tie across the cut; the near rows follow
        ranked = index.search_rows(q, k + 4, pq=False).scores
        assert ranked[k - 1] == ranked[k + 1] > ranked[k + 2] > ranked[k + 3] > ranked[k - 1] - e
        for options in search_options(n, k):
            want = index.search_rows(q, k, **options)
            cut = want.scores[-1]  # the k-th exact score this search keeps

            def worst(v, query):
                exact = annindex._dots(v, query)
                return np.where(exact >= cut, exact - e, exact + e)

            with monkeypatch.context() as m:
                m.setattr(annindex, "_filter_scores", worst)
                got = index.search_rows(q, k, **options)
            assert got.rows.tolist() == want.rows.tolist()
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_the_gemv_stays_within_e(self):
        # parallel |v| and |q| make ||v|| ||q|| = |v|.|q|; one large product and
        # many that round the running sum up, and cancelling halves
        rng = np.random.default_rng(9)
        for d in (16, 64, 100, 128):
            small = np.float32(2.0**-12 * (1 + 2.0**-20))
            rows = [np.concatenate(([1.0], np.full(d - 1, small)))]
            rows.append(np.where(np.arange(d) % 2, 1.0, -1.0) * rng.uniform(0.9, 1.1, d))
            rows.extend(rng.normal(size=(50, d)))
            vectors = np.array(rows, dtype=np.float32)
            for q in (vectors[0].astype(np.float64) * (1 + 2.0**-25), *rng.normal(size=(5, d))):
                f = annindex._filter_scores(vectors, q).astype(np.float64)
                exact = annindex._dots(vectors, q)
                norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
                bound = filter_bound(d, norms.max(), np.linalg.norm(q))
                assert np.abs(f - exact).max() <= bound


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
                        hits = index.search_rows(q, 5)
                        rows = hits.rows.tolist()
                        if len(rows) != len(set(rows)):
                            failures.append("duplicate rows in one snapshot read")
                        if rows and max(rows) >= len(hits.ids):
                            failures.append("a row past the searched snapshot's ids")
                    except Exception as exc:  # torn state would surface here
                        failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        growths = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for i, v in enumerate(new_vectors):
                before = index._snap.vectors
                index.add(f"late{i:04d}", v)
                growths += not np.shares_memory(index._snap.vectors, before)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        assert len(index) == 250
        assert growths > 3


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

    @staticmethod
    def write_pq_file(path, codes, ids, n_centroids=4):
        # framed as ``save`` frames an index, with codes and ids as given
        header = np.array((4, codes.shape[1], n_centroids, len(ids)), "<u8")
        centroids = np.zeros((codes.shape[1], n_centroids, 4 // codes.shape[1]), np.float32)
        vectors = np.tile(np.float32([0.6, 0.8, 0.0, 0.0]), (len(ids), 1))
        artifact.write(
            path, annindex._MAGIC, annindex._FORMAT_VERSION,
            (header, centroids, codes.astype(np.uint8), vectors), ids,
        )

    def test_code_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "codes.idx"
        codes = np.array([[0, 3], [1, 2], [2, 1]])
        self.write_pq_file(path, codes, ["a", "b", "c"])
        assert len(AnnIndex.load(path)) == 3
        codes[1, 0] = 9
        self.write_pq_file(path, codes, ["a", "b", "c"])
        with pytest.raises(ArtifactError, match="code 9 .* 4 centroids") as err:
            AnnIndex.load(path)
        assert str(path) in str(err.value)

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "ids.idx"
        self.write_pq_file(path, np.zeros((3, 2)), ["a", "b", "a"])
        with pytest.raises(ArtifactError, match="'a' is stored more than once") as err:
            AnnIndex.load(path)
        assert str(path) in str(err.value)

    @staticmethod
    def assert_refused(path, match):
        with pytest.raises(ArtifactError, match=match) as err:
            AnnIndex.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_a_non_finite_or_zero_row_is_refused(self, tmp_path, bad):
        # a NaN row used to load, and rank last in every search
        path = tmp_path / "rows.idx"
        vectors = np.float32([[0.6, 0.8, 0.0, 0.0], [bad, bad * 0.5, 0.0, 0.0]])
        forge_index(path, (4, 0, 0, 2), [vectors], ["a", "b"])
        self.assert_refused(path, "ad 'b' has norm .*, not 1")

    def test_rows_within_2_to_the_minus_20_of_unit_load(self, tmp_path):
        path = tmp_path / "near.idx"
        rows = np.float32([[1.0 + 2.0**-21, 0.0], [0.0, 1.0 - 2.0**-21]])
        forge_index(path, (2, 0, 0, 2), [rows], ["a", "b"])
        assert len(AnnIndex.load(path)) == 2
        rows[1, 1] = 1.0 - 2.0**-19
        forge_index(path, (2, 0, 0, 2), [rows], ["a", "b"])
        self.assert_refused(path, "ad 'b' has norm")

    def test_a_non_finite_centroid_is_refused(self, tmp_path):
        path = tmp_path / "centroids.idx"
        centroids = np.zeros((2, 4, 2), np.float32)
        centroids[1, 3, 0] = np.nan
        codes = np.zeros((2, 2), np.uint8)
        vectors = np.float32([[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 0.8, 0.6]])
        forge_index(path, (4, 2, 4, 2), [centroids, codes, vectors], ["a", "b"])
        self.assert_refused(path, "centroid is not finite")

    @pytest.mark.parametrize(
        "dim, m, k",
        [(0, 0, 0), (4, 3, 4), (4, 2, 0), (4, 2, 257), (4, 0, 4)],
        ids=["dim-0", "M-not-dividing-dim", "K-0", "K-257", "K-without-M"],
    )
    def test_a_header_save_never_writes_is_refused(self, tmp_path, dim, m, k):
        # arrays of the shapes the header names, so only the header is wrong
        path = tmp_path / "header.idx"
        arrays = [np.eye(2, dim, dtype=np.float32)]
        if m:
            arrays[:0] = [np.zeros((m, k, dim // m), np.float32), np.zeros((2, m), np.uint8)]
        forge_index(path, (dim, m, k, 2), arrays, ["a", "b"])
        self.assert_refused(path, f"no index has dim {dim}, M {m} and K {k}")


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
