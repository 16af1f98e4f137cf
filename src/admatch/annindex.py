"""Normalized ad-vector store with exact and product-quantized search.

Vectors are L2-normalized on the way in, so inner products equal cosine
similarity and higher scores are better. The exact path is the oracle;
the PQ path quantizes each of M subspaces with its own k-means codebook
and scores codes against a per-query lookup table (asymmetric distance
computation), optionally re-ranking an overfetched candidate set with
exact dot products. k-means runs a whole array at a time in numpy's own
summation order, so index files are byte-identical to earlier builds with
the same numpy and BLAS. Lloyd's passes stop once a pass repeats the
previous pass's assignment, since every later pass would repeat it too
(``_lloyd``); ``pq_train`` reports the passes each subspace ran. Training
and encoding refuse a NaN or infinite element, naming its row.

Codes are stored subspace-major, [M x n] (files hold the transpose); the
ADC scan takes one ``take`` per subspace and adds each row's M terms in
``sum(axis=1)`` order. One row-wise kernel, ``_dots``, gives every exact
score, so a score never depends on the row's position. A re-ranked search
whose pool (``k * overfetch_factor``) covers the index skips the ADC.
Where a search keeps k of more rows exactly (an exact search, a covering
pool, a re-ranked pool), a float32 gemv scores those rows first, and only
the rows within 2e of its k-th score go on to ``_dots``; e bounds the
gemv's error. Results are the unfiltered ones, bit for bit, whatever
BLAS's summation order or thread count (``_exact_top`` derives e). e holds
because every stored row is a unit vector (``add`` normalizes it, ``load``
refuses a row whose norm is not within 2**-20 of 1) and a query's norm is
at most 2**60 (``search_rows`` refuses a larger one).

Search works on integer rows of the snapshot; ad ids are read only to
break exact ties and to name the rows returned. The k best (the ADC pool
too) are picked with ``argpartition``, ties at the k-th score keeping the
smallest ids, and ordered by descending score, then ascending id, so
results do not depend on row order. ``search_rows`` returns the rows with
the searched snapshot's ids; ``pq_search`` and ``exact_topk`` name them.

Searches read an immutable snapshot that holds the ids, vectors, PQ codes
and the codebooks they were encoded with, whose float64 tables are built
once per codebook set. Writers (``add``, ``add_many``, ``train_pq``) build
a new snapshot and swap it in with one assignment, so concurrent readers
never score codes against another snapshot's codebooks. Writers are not
synchronized with each other: callers that write from several threads
must serialize the writes.

Storage is append-only. A snapshot's ids, vectors and codes are views of
the first n rows of buffers with spare rows past n ([capacity] object ids,
[capacity x d] float32, [M x capacity] uint8), and the writer keeps an
id-to-row map for the last snapshot it published, the tip. Adding new ids
to the tip writes rows n onward in place and publishes a snapshot that
views them; no published snapshot sees those rows, so readers never
observe a half-applied add, and an insert's cost does not grow with the
index: ``pq_encode`` codes one row in one stacked product over every
subspace, and nothing copies the stored rows or ids. A write copies the
rows into new buffers, with about n/8 spare rows, when the buffers are
full, when it replaces a stored id (vectors and codes only: older
snapshots still read that row), or when the snapshot it extends is not
the tip (after ``load`` or ``train_pq``, or a snapshot set from outside);
that first write also builds the id-to-row map, once.

The index stores the vectors it is given and knows nothing of the model
(``pipeline.build_exact_index`` encodes a catalog into it); index files
use the checked framing of ``admatch.artifact``.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import artifact

logger = logging.getLogger(__name__)

_MAGIC = b"ADMIDX01"
_FORMAT_VERSION = 2

# PQ and search defaults, read by the CLI and the pipeline
PQ_SUBSPACES = 16
PQ_CENTROIDS = 256
PQ_ITERATIONS = 25
PQ_SEED = 0
OVERFETCH_FACTOR = 10
RERANK = True

EXACT_FALLBACK_WARNING = "PQ codebooks absent; falling back to exact search"


class DegenerateVectorError(ValueError):
    """A zero-norm or non-finite vector, or a query of norm above 2**60."""


class PqTrainingError(ValueError):
    """Product quantization cannot be trained on the given vectors."""


@dataclass
class PqCodebooks:
    """Per-subspace centroid tables, shape [M, k, d/M] (float32); ``table``
    holds them as float64 and ``table_sq`` their squared norms, [M, k]."""

    centroids: np.ndarray

    def __post_init__(self) -> None:
        self.table = self.centroids.astype(np.float64)
        self.table_sq = (self.table * self.table).sum(axis=2)

    @property
    def n_subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.centroids.shape[2]


def _row_sums(cols: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` bit for bit, given ``cols`` = ``x.T``: numpy adds each
    row's pairwise sum to +0.0. Below 8 terms that is a left fold; up to 128,
    eight strided accumulators joined as a tree, then the rest one by one;
    above 128, the sums of two halves split at a multiple of 8."""
    w = len(cols)
    if w > 128:
        half = w // 2 - w // 2 % 8
        return _row_sums(cols[:half]) + _row_sums(cols[half:])
    total = np.zeros(cols.shape[1:])
    if w >= 8:
        r = cols[:8]
        for i in range(8, w - w % 8, 8):
            r = r + cols[i : i + 8]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in cols[w - w % 8 :]:
        total += term
    return total


def _kmeans_pp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding over one subspace, given as its [sub, n] columns."""
    n = cols.shape[1]
    centers = np.empty((k, len(cols)), dtype=np.float64)
    diff = np.empty_like(cols)

    def sq_dist(center: np.ndarray) -> np.ndarray:
        np.square(np.subtract(cols, center[:, None], out=diff), out=diff)
        return _row_sums(diff)

    centers[0] = cols[:, int(rng.integers(n))]
    d2 = sq_dist(centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass is on existing centers; reuse points
            centers[j] = cols[:, int(rng.integers(n))]
            continue
        target = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), target))
        centers[j] = cols[:, min(idx, n - 1)]
        np.minimum(d2, sq_dist(centers[j]), out=d2)
    return centers


def _nearest(
    rows: np.ndarray, rows_sq: np.ndarray, centers: np.ndarray, centers_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center, [S, n], and its squared distances to every
    center, [S, n, k], for S subspaces at once: [S, n, sub] rows against
    [S, k, sub] C-ordered centers, given their squared norms, [S, n] and
    [S, k]."""
    # one matmul over the subspaces, whose slice s is the product of rows[s]
    # and ``centers[s].T`` as always: BLAS picks its kernel, and so its
    # rounding, by operand layout and shape. A single row goes as a two-row
    # block, whose first row has a block's bits (copied out: the in-place
    # steps below run faster on a contiguous array than on a strided view).
    centers_t = centers.transpose(0, 2, 1)
    if rows.shape[1] == 1:
        g = np.matmul(rows.repeat(2, axis=1), centers_t)[:, :1].copy()
    else:
        g = np.matmul(rows, centers_t)
    g *= -2.0  # (||x||^2 - 2 x.c) + ||c||^2 in place, as a - b == a + (-b)
    g += rows_sq[:, :, None]
    g += centers_sq[:, None, :]
    return g.argmin(axis=2), g


def _lloyd(
    rows: np.ndarray, cols: np.ndarray, k: int, iterations: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[float]]:
    """k-means++ seeding, then at most ``iterations`` Lloyd passes over one
    subspace's [n, sub] rows (``cols`` is their transpose), a whole array at
    a time; returns the centers and each pass's mean quantization error. A
    pass moves each non-empty cluster to its members' ``mean(axis=0)``: the
    clusters with c members are summed as one [clusters, c, sub] array, which
    numpy adds in that mean's order. Empty clusters keep their previous
    centroid, so the mean quantization error never increases.

    The passes stop at the first one whose assignment equals the previous
    pass's. That stop is exact: the centers were built from that same
    assignment, and an update from it rebuilds them bit for bit (the same
    members in the same stable-sort order give the same sums, and empty
    clusters keep theirs), so every later pass would repeat this one, its
    error included."""
    centers = _kmeans_pp_init(cols, k, rng)
    rows_sq = _row_sums(np.square(cols))
    errors: list[float] = []
    previous = None
    for _ in range(iterations):
        centers_sq = (centers * centers).sum(axis=1)[None]
        (assign,), (g,) = _nearest(rows[None], rows_sq[None], centers[None], centers_sq)
        nearest_d2 = g[np.arange(len(g)), assign]
        del g  # the [n, k] distances, freed before the next pass makes its own
        errors.append(float(np.maximum(nearest_d2, 0.0).mean()))
        if previous is not None and np.array_equal(assign, previous):
            break
        previous = assign
        counts = np.bincount(assign, minlength=k)
        first = np.cumsum(counts) - counts
        grouped = rows[np.argsort(assign, kind="stable")]
        for c in np.unique(counts[counts > 0]):
            clusters = np.flatnonzero(counts == c)
            centers[clusters] = grouped[first[clusters, None] + np.arange(c)].sum(axis=1) / c
    return centers, errors


@dataclass
class PqTrainResult:
    codebooks: PqCodebooks
    # [M x iterations] mean squared error per Lloyd pass; a subspace that
    # stopped early repeats its last pass's error to the end
    error_history: np.ndarray
    passes: np.ndarray  # [M] Lloyd passes each subspace ran, at most ``iterations``


def _first_non_finite(vectors: np.ndarray) -> int | None:
    """The first row of ``vectors`` (along axis 0) holding a NaN or an infinity."""
    if np.isfinite(vectors).all():
        return None
    return int(np.flatnonzero(~np.isfinite(vectors).reshape(len(vectors), -1).all(axis=1))[0])


def pq_train(
    vectors: np.ndarray,
    n_subspaces: int = PQ_SUBSPACES,
    n_centroids: int = PQ_CENTROIDS,
    iterations: int = PQ_ITERATIONS,
    seed: int = PQ_SEED,
) -> PqTrainResult:
    """Train per-subspace k-means codebooks on [n x d] vectors."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("training vectors must be a 2-d array")
    bad = _first_non_finite(vectors)
    if bad is not None:
        raise PqTrainingError(f"training vector {bad} is non-finite")
    n, d = vectors.shape
    sizes = {"n_subspaces": n_subspaces, "n_centroids": n_centroids, "iterations": iterations}
    for name, value in sizes.items():
        if value < 1:
            raise PqTrainingError(f"{name} must be at least 1, got {value}")
    if n_centroids > 256:
        raise PqTrainingError("more than 256 centroids would not fit one code byte")
    if d % n_subspaces != 0:
        raise PqTrainingError(
            f"dimension {d} is not divisible by {n_subspaces} subspaces"
        )
    if n < n_centroids:
        raise PqTrainingError(
            f"{n} vectors cannot train {n_centroids} centroids per subspace"
        )
    rng = np.random.default_rng(seed)
    sub = d // n_subspaces
    # contiguous per-subspace blocks, [M, n, sub], and their transposes
    rows = np.ascontiguousarray(vectors.reshape(n, n_subspaces, sub).transpose(1, 0, 2))
    cols = np.ascontiguousarray(rows.transpose(0, 2, 1))
    centroids = np.empty((n_subspaces, n_centroids, sub), dtype=np.float32)
    history = np.empty((n_subspaces, iterations), dtype=np.float64)
    passes = np.empty(n_subspaces, dtype=np.int64)
    for m in range(n_subspaces):
        centers, errors = _lloyd(rows[m], cols[m], n_centroids, iterations, rng)
        centroids[m] = centers.astype(np.float32)
        passes[m] = len(errors)
        history[m, : len(errors)] = errors
        history[m, len(errors) :] = errors[-1]
    return PqTrainResult(PqCodebooks(centroids), history, passes)


# the most bytes of [S, n, k] float64 distances one stacked product of
# ``pq_encode`` makes: S subspaces go together when n rows allow it. A row
# alone takes every subspace in one product under any cap from 256 KiB to
# 16 MiB; at 100 and 600 rows, 4 MiB groups ran 25-30% slower than 1 MiB
# ones (M 16, K 256, a 2 MiB L2 per core).
_ENCODE_BLOCK_BYTES = 1 << 20


def pq_encode(codebooks: PqCodebooks, vectors: np.ndarray) -> np.ndarray:
    """Nearest-centroid codes per subspace, [n x M] uint8 (the transpose of
    [M x n]). Subspaces go through ``_nearest`` in groups whose distances fit
    ``_ENCODE_BLOCK_BYTES``: all M for one row, one at a time for thousands."""
    shape = (len(vectors), codebooks.n_subspaces, codebooks.sub_dim)
    vectors = np.asarray(vectors, dtype=np.float64).reshape(shape)
    bad = _first_non_finite(vectors)
    if bad is not None:
        raise DegenerateVectorError(f"vector {bad} is non-finite")
    rows = vectors.transpose(1, 0, 2)
    rows_sq = (rows * rows).sum(axis=2)
    codes = np.empty((codebooks.n_subspaces, rows.shape[1]), dtype=np.uint8)
    # a single row's product is a two-row one
    group = max(1, _ENCODE_BLOCK_BYTES // (8 * max(rows.shape[1], 2) * codebooks.n_centroids))
    for lo in range(0, codebooks.n_subspaces, group):
        part = slice(lo, lo + group)
        codes[part] = _nearest(
            rows[part], rows_sq[part], codebooks.table[part], codebooks.table_sq[part]
        )[0]
    return codes.T


def pq_decode(codebooks: PqCodebooks, codes: np.ndarray) -> np.ndarray:
    """Centroid reconstruction of coded vectors, [n x d]."""
    parts = codebooks.table[np.arange(codebooks.n_subspaces), codes]
    return parts.reshape(len(codes), codebooks.n_subspaces * codebooks.sub_dim)


def degenerate_norm(norm: float) -> bool:
    """The one test for stored and query vectors: is the norm zero or
    non-finite (as a NaN or infinite element makes it)?"""
    return not 0.0 < norm < math.inf


def normalize(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    with np.errstate(over="ignore"):  # finite elements above about 1e154 overflow it
        norm = float(np.linalg.norm(vector))
    if norm == math.inf and np.isfinite(vector).all():
        vector = vector / np.abs(vector).max()
        norm = float(np.linalg.norm(vector))
    if degenerate_norm(norm):
        raise DegenerateVectorError(f"zero-norm or non-finite vector: norm {norm}")
    return vector / norm


class _Ids(Sequence[str]):
    """A snapshot's ids, in row order: a read-only view of the first n entries
    of an id buffer that writes only past n, so the view never changes. It
    compares equal to the tuple of its ids, and ``+`` gives a tuple."""

    __slots__ = ("array",)

    def __init__(self, buffer: np.ndarray, n: int) -> None:
        self.array = buffer[:n]  # [n] object, read-only
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        return tuple(self.array[i].tolist()) if isinstance(i, slice) else self.array[i]

    def __iter__(self):
        return iter(self.array.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Ids):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + other

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class _Snapshot:
    ids: _Ids  # given any other sequence of ids, holds them as an ``_Ids``
    vectors: np.ndarray  # [n x d] float32 unit rows
    codes: np.ndarray | None  # [M x n] uint8, subspace-major, when PQ is trained
    codebooks: PqCodebooks | None = None  # the codebooks ``codes`` were encoded with

    def __post_init__(self) -> None:
        if not isinstance(self.ids, _Ids):
            ids = np.fromiter(self.ids, object, len(self.ids))
            object.__setattr__(self, "ids", _Ids(ids, len(ids)))

    @property
    def size(self) -> int:
        return len(self.ids)


# a grown buffer gets about n/8 spare rows, at least this many, not n: serving
# can hold two indexes of a catalog while a new one is built
_MIN_SPARE_ROWS = 16


@dataclass
class _Storage:
    """The writer's buffers behind ``tip``, the last snapshot it published:
    ``tip.ids``, ``tip.vectors`` and ``tip.codes`` view their first
    ``tip.size`` rows, and ``row_of`` maps the tip's ids to their rows. The
    rows past ``tip.size`` belong to no snapshot, so a write may fill them in
    place."""

    tip: _Snapshot
    ids: np.ndarray  # [capacity] object
    vectors: np.ndarray  # [capacity x d] float32
    codes: np.ndarray | None  # [M x capacity] uint8
    row_of: dict[str, int]

    @classmethod
    def of(cls, snap: _Snapshot) -> "_Storage":
        """Storage with no spare rows, so the next write of a new id copies."""
        row_of = dict(zip(snap.ids, range(snap.size)))
        return cls(snap, snap.ids.array, snap.vectors, snap.codes, row_of)


def _with_room(buffer: np.ndarray, axis: int, n: int, end: int, copy: bool) -> np.ndarray:
    """``buffer`` when it has rows up to ``end`` along ``axis`` and ``copy`` is
    False; else a new buffer holding its first ``n`` rows, with about end/8
    spare rows past ``end``."""
    if not copy and end <= buffer.shape[axis]:
        return buffer
    shape = list(buffer.shape)
    shape[axis] = end + max(end // 8, _MIN_SPARE_ROWS)
    grown = np.empty(shape, dtype=buffer.dtype)
    np.moveaxis(grown, axis, 0)[:n] = np.moveaxis(buffer, axis, 0)[:n]
    return grown


def _dots(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact scores of float32 rows against the float64 query: ``einsum`` adds
    each row in one order, so a score never depends on the row's position."""
    return np.einsum("ij,j->i", vectors, query)


def _filter_scores(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The float32 filter's scores: a gemv, in whatever order BLAS adds."""
    return vectors @ query.astype(np.float32)


_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64
_ROW_NORM_SLACK = 2.0**-20  # every stored row's norm is within it of 1
# a query's norm stays below this, so no float32 product or partial sum of
# the filter can overflow (float32 reaches 2**128)
_QUERY_NORM_LIMIT = 2.0**60


def _filter_error(d: int, query_norm: float) -> float:
    """e, a bound on |float32 gemv score - ``_dots`` score| of every row. See
    ``_exact_top`` for the derivation."""

    def gamma(u: float) -> float:
        return d * u / (1.0 - d * u)

    max_norm = 1.0 + _ROW_NORM_SLACK
    e = (gamma(_U32) * (1.0 + _U32) + _U32 + gamma(_U64)) * max_norm * query_norm
    # the margin covers the rounding of the norms, of e and of the cut; the
    # absolute term, float32 and float64 underflow (2**-150 per product or
    # rounded query element at most)
    return e * (1.0 + 2.0**-20) + d * (1.0 + max_norm) * 2.0**-148


def _exact_top(
    snap: _Snapshot, rows: np.ndarray, query: np.ndarray, query_norm: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_top_rows`` of ``rows`` by their ``_dots`` scores, which only the
    rows that can reach the result are given.

    When k < len(rows), a float32 gemv first scores every row, f, and only
    the rows with f >= f_k - 2e go on to ``_dots`` (f_k is the k-th largest
    f). e bounds |f - s| for every row, s being its ``_dots`` score. With
    t = v.q exact, u32 = 2**-24, u64 = 2**-53 and gamma_d(u) = du / (1 - du)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.1):

    - the query rounds to float32 element by element, q' = q(1 + delta) with
      |delta| <= u32, so |v.q' - t| <= u32 |v|.|q|;
    - a float32 dot of d terms, in any order, with or without FMA, is within
      gamma_d(u32) |v|.|q'| <= gamma_d(u32)(1 + u32) |v|.|q| of v.q';
    - ``_dots`` is within gamma_d(u64) |v|.|q| of t (a float32 v is exact in
      float64);

    and |v|.|q| <= ||v|| ||q|| <= max_norm ||q|| (Cauchy-Schwarz), so

        e = (gamma_d(u32)(1 + u32) + u32 + gamma_d(u64)) max_norm ||q||.

    max_norm = 1 + 2**-20 bounds every stored row's norm: ``add`` stores the
    float32 rounding of a unit vector, within 2**-24 of norm 1, and ``load``
    refuses a row whose float64 norm is not within 2**-20 of 1. The filter
    keeps every row of the result: at least k rows have f >= f_k, each with
    s >= f - e, so the k-th largest s is s_k >= f_k - e, and a row with
    s >= s_k (each row of the result, and each tied with its last) has
    f >= s - e >= f_k - 2e. A survivor's ``_dots`` score has the bits it has
    anywhere, so the result is the unfiltered one, bit for bit, whatever the
    gemv's summation order or thread count.
    """
    if k < len(rows):
        e = _filter_error(snap.vectors.shape[1], query_norm)
        f = _row_scores(_filter_scores, snap, rows, query)
        kth = np.partition(f, len(f) - k)[len(f) - k]
        rows = rows[f >= np.float64(kth) - 2.0 * e]  # compared in float64
    return _top_rows(snap.ids, rows, _row_scores(_dots, snap, rows, query), k)


def _row_scores(kernel, snap: _Snapshot, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``kernel``'s scores of the snapshot's ``rows``. Past half the index one
    pass over every row beats a gather: per-call medians of ``_dots`` cross at
    40-80% of 600 rows, 45-60% of 8,000, 30-45% of 100,000 (d 128, one thread)."""
    if 2 * len(rows) > snap.size:
        return kernel(snap.vectors, query)[rows]
    return kernel(snap.vectors[rows], query)


def _adc(lookup: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Approximate scores of [M x n] codes against an [M x K] lookup table: one ``take``
    per subspace, added with the bits of ``lookup[arange(M), codes.T].sum(axis=1)``."""
    terms = np.empty(codes.shape)
    for m, (table, column) in enumerate(zip(lookup, codes)):
        terms[m] = table.take(column)
    return _row_sums(terms)


def _by_id(names: list[str], picks: Iterable[int]) -> list[int]:
    """``picks`` (positions in ``names``, the ids of the rows they pick, taken
    with one gather) in ascending id order: the one tie rule."""
    return sorted(picks, key=names.__getitem__)


def _chosen(ids: _Ids, rows: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best of ``rows`` (scored ``scores``), unordered: all
    above the k-th score, then the smallest ids tied with it."""
    if k >= len(scores):
        return np.arange(len(scores))
    top = np.argpartition(-scores, k - 1)[:k]
    kth = scores[top[-1]]
    tied = scores == kth
    if np.count_nonzero(tied) > 1:  # the k-th score is shared: keep the smallest ids
        above = top[~tied[top]]
        at = np.flatnonzero(tied)
        at_cut = at[_by_id(ids.array[rows[at]].tolist(), range(len(at)))][: k - len(above)]
        top = np.concatenate((above, at_cut))
    return top


def _top_rows(
    ids: _Ids, rows: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k best of ``rows`` (scored ``scores``) and their scores, in rank
    order: descending score, exact ties (at the cut too) by ascending id."""
    keep = _chosen(ids, rows, scores, k)
    # the sort need not be stable: each run of equal scores is put in id
    # order below, which fixes the result whatever order the sort left
    keep = keep[np.argsort(-scores[keep])]
    ranked_scores = scores[keep]
    tied = ranked_scores[1:] == ranked_scores[:-1]
    if tied.any():
        # a run of equal scores spans ranks edges[2i] .. edges[2i + 1]
        edges = np.flatnonzero(np.diff(np.concatenate(([0], tied.view(np.int8), [0]))))
        names, ranked = ids.array[rows[keep]].tolist(), keep.tolist()
        for lo, hi in zip(edges[0::2].tolist(), (edges[1::2] + 1).tolist()):
            ranked[lo:hi] = [ranked[i] for i in _by_id(names, range(lo, hi))]
        keep = np.array(ranked, dtype=np.intp)
    return rows[keep], ranked_scores


class RowHits(NamedTuple):
    """A search result on the integer rows of one snapshot."""

    ids: _Ids  # the searched snapshot's ids, a read-only Sequence[str]; ``rows`` index it
    rows: np.ndarray
    scores: np.ndarray
    pq: bool  # False when the snapshot had no codebooks and the search was exact


def _hits(hits: RowHits) -> list[tuple[str, float]]:
    return list(zip(hits.ids.array[hits.rows].tolist(), hits.scores.tolist()))


class AnnIndex:
    """Ad-id to unit-vector store with exact and PQ search modes."""

    def __init__(self, dim: int, codebooks: PqCodebooks | None = None) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        if codebooks is not None and dim % codebooks.n_subspaces != 0:
            raise ValueError("dimension not divisible by the PQ subspace count")
        self.dim = dim
        self._snap = _Snapshot(
            (),
            np.zeros((0, dim), dtype=np.float32),
            np.zeros((codebooks.n_subspaces, 0), dtype=np.uint8) if codebooks else None,
            codebooks,
        )
        self._storage = _Storage.of(self._snap)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._snap.size

    @property
    def codebooks(self) -> PqCodebooks | None:
        """The PQ codebooks of the current snapshot, or None before training."""
        return self._snap.codebooks

    def ids(self) -> Sequence[str]:
        """The current snapshot's ids in row order, read-only: later writes
        publish a new snapshot and leave this sequence as it is."""
        return self._snap.ids

    def add(self, ad_id: str, vector: np.ndarray) -> None:
        """Normalize, store, and (when PQ is trained) encode one vector.

        A duplicate ad id replaces the stored entry with a warning. A new
        id, its vector and its codes are written into spare rows behind the
        current snapshot, so its cost does not grow with the index (the
        buffers grow by a copy about once every n/8 new ids); a replacement
        copies the vectors and codes.
        Publication is a single snapshot swap, so readers never observe
        a half-applied add.
        """
        self.add_many([(ad_id, vector)])

    def add_many(self, pairs: Iterable[tuple[str, np.ndarray]]) -> None:
        """Add a batch with one snapshot swap, as if by ``add`` in order.

        New ids append in first-seen order; a repeated id (already stored
        or earlier in the batch) replaces the vector at its first position,
        with one warning per repeat. A rejected vector aborts the whole
        batch and leaves the index unchanged. A batch of new ids fills the
        buffers' spare rows in place; one that replaces a stored id, finds
        the buffers full, or extends a snapshot this index did not publish
        last copies the rows into new buffers first.
        """
        batch: dict[str, np.ndarray] = {}
        for ad_id, vector in pairs:
            unit = normalize(vector).astype(np.float32)
            if unit.shape != (self.dim,):
                raise ValueError(f"expected a {self.dim}-d vector, got {unit.shape}")
            if ad_id in batch:
                logger.warning("replacing existing index entry for ad %s", ad_id)
            batch[ad_id] = unit
        if not batch:
            return
        snap = self._snap
        storage = self._storage if self._storage.tip is snap else _Storage.of(snap)
        row_of = storage.row_of
        new_ids = tuple(a for a in batch if a not in row_of)
        replaces = len(new_ids) < len(batch)
        for ad_id in batch:
            if ad_id in row_of:
                logger.warning("replacing existing index entry for ad %s", ad_id)
        n, end = snap.size, snap.size + len(new_ids)
        new_rows = dict(zip(new_ids, range(n, end)))
        rows = np.fromiter(
            (row_of[a] if a in row_of else new_rows[a] for a in batch),
            dtype=np.intp,
            count=len(batch),
        )
        ids = _with_room(storage.ids, 0, n, end, False)  # a replacement keeps every id
        if new_ids:  # even an empty write fails on the read-only view ``_Storage.of`` holds
            ids[n:end] = new_ids
        # rows below n are read by published snapshots: a replacement copies them
        vectors = _with_room(storage.vectors, 0, n, end, replaces)
        units = np.array(list(batch.values()))  # [len(batch) x d] float32
        vectors[rows] = units
        codes = tip_codes = storage.codes
        if codes is not None:
            codes = _with_room(codes, 1, n, end, replaces)
            codes[:, rows] = pq_encode(snap.codebooks, units.astype(np.float64)).T
            tip_codes = codes[:, :end]
        row_of.update(new_rows)
        tip = _Snapshot(_Ids(ids, end), vectors[:end], tip_codes, snap.codebooks)
        self._storage = _Storage(tip, ids, vectors, codes, row_of)
        self._snap = tip

    # ------------------------------------------------------------------

    def exact_topk(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Exhaustive inner-product search: the oracle for the PQ path."""
        return _hits(self.search_rows(query, k, pq=False))

    def train_pq(
        self,
        n_subspaces: int = PQ_SUBSPACES,
        n_centroids: int = PQ_CENTROIDS,
        iterations: int = PQ_ITERATIONS,
        seed: int = PQ_SEED,
    ) -> PqTrainResult:
        """(Re)train codebooks on the stored vectors and encode them all."""
        snap = self._snap
        vectors = snap.vectors.astype(np.float64)
        result = pq_train(
            vectors,
            n_subspaces=n_subspaces,
            n_centroids=n_centroids,
            iterations=iterations,
            seed=seed,
        )
        codes = pq_encode(result.codebooks, vectors).T
        self._snap = replace(snap, codes=codes, codebooks=result.codebooks)
        return result

    def pq_search(
        self,
        query: np.ndarray,
        k: int,
        overfetch_factor: int = OVERFETCH_FACTOR,
        rerank: bool = RERANK,
    ) -> list[tuple[str, float]]:
        """ADC search: subspace lookup tables score the codes; the top
        k * overfetch_factor candidates are optionally re-ranked exactly.

        Falls back to exact search, with a warning, when PQ was never trained.
        """
        hits = self.search_rows(query, k, overfetch_factor, rerank)
        if not hits.pq:
            logger.warning(EXACT_FALLBACK_WARNING)
        return _hits(hits)

    def search_rows(
        self,
        query: np.ndarray,
        k: int,
        overfetch_factor: int = OVERFETCH_FACTOR,
        rerank: bool = RERANK,
        pq: bool = True,
    ) -> RowHits:
        """The search under ``pq_search`` (``pq``) and ``exact_topk``, on rows.

        One snapshot is read once: the rows index the ids it returns, so a
        concurrent write never pairs rows with another snapshot's ids. A
        PQ search on a snapshot without codebooks is exact, with ``pq``
        False in the result; one whose re-ranked pool would hold every row
        is exact too, with ``pq`` True. A query with a NaN or infinite
        element (its norm is non-finite) or a norm above 2**60 raises
        DegenerateVectorError before anything is scored.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if overfetch_factor < 1:
            raise ValueError("overfetch_factor must be >= 1")
        query = np.asarray(query, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow to inf is above 2**60 too
            norm = float(np.linalg.norm(query))
        if not norm <= _QUERY_NORM_LIMIT:  # NaN fails too; a zero query is valid
            raise DegenerateVectorError(
                f"cannot search a non-finite query or one of norm above 2**60: norm {norm}"
            )
        snap = self._snap
        ids = snap.ids
        all_rows = np.arange(snap.size)
        cb = snap.codebooks if pq else None
        if cb is None or (rerank and k * overfetch_factor >= snap.size):
            # exact search, or a re-ranked pool that would hold every row
            return RowHits(ids, *_exact_top(snap, all_rows, query, norm, k), pq=cb is not None)
        # lookup[m, c] = dot(query subvector m, centroid c of subspace m)
        lookup = (cb.table @ query.reshape(cb.n_subspaces, cb.sub_dim, 1))[:, :, 0]
        approx = _adc(lookup, snap.codes)
        if not rerank:
            # the pool's first k under the same total order are the top k
            return RowHits(ids, *_top_rows(ids, all_rows, approx, k), pq=True)
        pool = _chosen(ids, all_rows, approx, k * overfetch_factor)  # rows, unordered
        return RowHits(ids, *_exact_top(snap, pool, query, norm, k), pq=True)

    # ------------------------------------------------------------------
    # file format: header (dim, M, K, count), codebooks, codes, vectors, ids

    def save(self, path: str | Path) -> None:
        snap = self._snap
        cb = snap.codebooks
        pq = () if cb is None else (cb.centroids.astype(np.float32), snap.codes.T)
        shape = (0, 0) if cb is None else (cb.n_subspaces, cb.n_centroids)
        header = np.array((self.dim, *shape, snap.size), "<u8")
        artifact.write(path, _MAGIC, _FORMAT_VERSION, (header, *pq, snap.vectors), snap.ids)

    @classmethod
    def load(cls, path: str | Path) -> "AnnIndex":
        frame = artifact.Reader(path, _MAGIC, _FORMAT_VERSION, "index", "re-export it")
        dim, m_sub, k_cent, count = frame.array("<u8", (4,)).tolist()
        if not dim or not (dim % m_sub == 0 and 1 <= k_cent <= 256 if m_sub else k_cent == 0):
            raise frame.error(f"no index has dim {dim}, M {m_sub} and K {k_cent}")
        codebooks = codes = None
        if m_sub:
            codebooks = PqCodebooks(frame.array("<f4", (m_sub, k_cent, dim // m_sub)))
            if not np.isfinite(codebooks.centroids).all():
                raise frame.error("a PQ centroid is not finite")
            codes = np.ascontiguousarray(frame.array(np.uint8, (count, m_sub)).T)
            if count and int(codes.max()) >= k_cent:
                raise frame.error(f"PQ code {codes.max()} is out of range for {k_cent} centroids")
        vectors = frame.array("<f4", (count, dim))
        ids = frame.ids(count)
        frame.done()
        if len(set(ids)) < count:
            (repeat, _), = Counter(ids).most_common(1)
            raise frame.error(f"ad id {repeat!r} is stored more than once")
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= _ROW_NORM_SLACK))  # NaN is off too
        if len(off):
            raise frame.error(f"ad {ids[off[0]]!r} has norm {norms[off[0]]}, not 1")
        index = cls(dim, codebooks)
        index._snap = _Snapshot(ids, vectors, codes, codebooks)
        return index
