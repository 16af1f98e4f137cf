"""Two-stage matching simulator: catalog encoding, multi-path retrieval,
split pre-ranking, top-N selection, and log-derived metrics.

``compute_ad_vectors`` is the one catalog encoder: the exported vector
index, the ad-parts table and the split check all read its output.

Retrieval unions an exact-match bidword lookup with the vector index;
candidates carry their path provenance through pre-ranking into the
impression log. Pre-rank scoring uses the offline decomposition of the
interaction layer that ``model.PrerankScorer`` implements: the ad-side
partial products are precomputed per ad, and the query-side partial
product (with the layer bias folded in) is computed once per request.

``retrieve`` and ``prerank`` serve one request with ``Candidate``
objects. ``simulate`` replays a log on integer catalog rows with the same
scoring and ranking, and keeps its impressions as columns. It retrieves
request by request, then scores, verifies, ranks and samples clicks in
array passes over a block of requests' candidate rows: a candidate's
pre-rank score depends only on its ad and its query, so a pass gives it
the bits a per-request call would.
"""

from __future__ import annotations

import functools
import json
import logging
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import artifact
from .data import (
    AdDescriptor,
    LogRecord,
    PlantedOracle,
    Vocabulary,
    ad_columns,
    request_columns,
)
from .annindex import (
    EXACT_FALLBACK_WARNING,
    OVERFETCH_FACTOR,
    RERANK,
    AnnIndex,
    DegenerateVectorError,
    degenerate_norm,
    normalize,
)
from .autodiff import Tensor
from .model import INFERENCE_CHUNK, MatchingModel, PrerankScorer

logger = logging.getLogger(__name__)

KEYWORD_PATH = "keyword"
VECTOR_PATH = "vector"
PATHS = (KEYWORD_PATH, VECTOR_PATH)

_PARTS_MAGIC = b"ADMPRT01"
_PARTS_VERSION = 2


class CatalogMismatchError(ValueError):
    """The replay's index, ad catalog and oracle do not cover the same ads, or
    its ad-parts table is not as wide as the model's pre-rank layer."""


@dataclass
class Candidate:
    """An ad flowing through the pipeline with its retrieval provenance."""

    ad_id: str
    paths: set[str]
    retrieval_score: float | None = None
    prerank_score: float | None = None


def normalize_keyword(text: str) -> str:
    return " ".join(text.lower().split())


class BidwordIndex:
    """Exact-match lookup from normalized bid keywords to ad ids."""

    def __init__(self, mapping: Mapping[str, set[str]]) -> None:
        self._mapping = {k: frozenset(v) for k, v in mapping.items()}

    @classmethod
    def build(cls, ads: Iterable[AdDescriptor]) -> "BidwordIndex":
        mapping: dict[str, set[str]] = {}
        for ad in ads:
            for keyword in ad.bid_keywords:
                mapping.setdefault(normalize_keyword(keyword), set()).add(ad.item_id)
        return cls(mapping)

    def lookup(self, query: str) -> frozenset[str]:
        return self._mapping.get(normalize_keyword(query), frozenset())

    def __len__(self) -> int:
        return len(self._mapping)


# ----------------------------------------------------------------------
# offline ad-side tables


def compute_ad_vectors(
    model: MatchingModel,
    ads: Sequence[AdDescriptor],
    vocab: Vocabulary,
) -> tuple[list[str], np.ndarray]:
    """Raw (un-normalized) ad tower outputs for the whole catalog."""
    ids = [ad.item_id for ad in ads]
    rows = []
    for lo in range(0, len(ads), INFERENCE_CHUNK):
        rows.append(model.ad_forward(ad_columns(ads[lo : lo + INFERENCE_CHUNK], vocab)).data)
    matrix = np.concatenate(rows, axis=0) if rows else np.zeros((0, model.config.d))
    return ids, matrix


def build_exact_index(
    model: MatchingModel, ads: Sequence[AdDescriptor], vocab: Vocabulary
) -> AnnIndex:
    """Export all ad vectors into a fresh exact-mode index.

    Ads whose encoder output has a zero or non-finite norm are skipped
    with a warning; the index normalizes the rest, so the inner product
    against a stored vector equals cosine against the raw tower output.
    """
    ids, vectors = compute_ad_vectors(model, ads, vocab)
    pairs = []
    for ad_id, row, norm in zip(ids, vectors, np.linalg.norm(vectors, axis=1)):
        if degenerate_norm(norm):
            logger.warning(
                "skipping ad %s: degenerate zero-norm or non-finite encoder output", ad_id
            )
        else:
            pairs.append((ad_id, row))
    index = AnnIndex(model.config.d)
    index.add_many(pairs)
    return index


def precompute_ad_parts(
    model: MatchingModel, ads: Sequence[AdDescriptor], vocab: Vocabulary
) -> tuple[list[str], np.ndarray]:
    """Offline ad-side partial products, one row per catalog ad."""
    ids, vectors = compute_ad_vectors(model, ads, vocab)
    scorer = PrerankScorer(model)
    return ids, scorer.a_part(vectors)


def save_ad_parts(ids: Sequence[str], parts: np.ndarray, path: str | Path) -> None:
    header = np.array((parts.shape[1], len(ids)), "<u8")
    arrays = (header, np.asarray(parts, "<f8"))
    artifact.write(path, _PARTS_MAGIC, _PARTS_VERSION, arrays, ids)


def load_ad_parts(path: str | Path) -> tuple[list[str], np.ndarray]:
    frame = artifact.Reader(path, _PARTS_MAGIC, _PARTS_VERSION, "ad-parts", "re-export it")
    width, count = frame.array("<u8", (2,)).tolist()
    parts = frame.array("<f8", (count, width))
    ids = frame.ids(count)
    frame.done()
    return ids, parts


# ----------------------------------------------------------------------
# retrieval + pre-ranking


def _unit_query(query_vector: np.ndarray) -> np.ndarray | None:
    """The vector path's query, normalized; None, with a warning, when its
    norm is zero or non-finite."""
    try:
        return normalize(query_vector)
    except DegenerateVectorError:
        logger.warning("degenerate zero-norm or non-finite query vector; skipping vector path")
        return None


def retrieve(
    raw_query: str,
    query_vector: np.ndarray | None,
    bidword_index: BidwordIndex | None,
    ann_index: AnnIndex | None,
    k_vector: int,
    paths: Sequence[str] = PATHS,
    overfetch_factor: int = OVERFETCH_FACTOR,
    rerank: bool = RERANK,
) -> dict[str, Candidate]:
    """Union of the enabled retrieval paths, deduped by ad id.

    The keyword path is an exact match of the normalized query string
    against bid keywords; the vector path searches the ANN index with
    the normalized query vector (skipped, with a warning, when its norm
    is zero or non-finite). An empty result is a valid outcome.
    """
    candidates: dict[str, Candidate] = {}
    if KEYWORD_PATH in paths and bidword_index is not None:
        for ad_id in sorted(bidword_index.lookup(raw_query)):
            candidates[ad_id] = Candidate(ad_id, {KEYWORD_PATH})
    if VECTOR_PATH in paths and ann_index is not None and query_vector is not None:
        unit = _unit_query(query_vector)
        if unit is not None:
            for ad_id, score in ann_index.pq_search(
                unit, k_vector, overfetch_factor=overfetch_factor, rerank=rerank
            ):
                if ad_id in candidates:
                    candidates[ad_id].paths.add(VECTOR_PATH)
                    candidates[ad_id].retrieval_score = score
                else:
                    candidates[ad_id] = Candidate(ad_id, {VECTOR_PATH}, score)
    return candidates


def prerank(
    candidates: dict[str, Candidate],
    v_qu: np.ndarray,
    scorer: PrerankScorer,
    part_rows: Mapping[str, int],
    parts: np.ndarray,
    model: MatchingModel,
    ads_by_id: Mapping[str, AdDescriptor],
    vocab: Vocabulary,
    top_n: int,
) -> list[Candidate]:
    """Score candidates through the split path and keep the top N.

    The query partial is computed once per request. Candidates missing
    from the precomputed ad-side table are encoded together in one
    fallback batch, with one warning per request. Ties order by ascending
    ad id.
    """
    if not candidates:
        return []
    ordered = sorted(candidates)
    rows = np.array([part_rows.get(ad_id, -1) for ad_id in ordered], dtype=np.intp)
    hit = rows >= 0
    a_parts = np.empty((len(ordered), parts.shape[1]))
    a_parts[hit] = parts[rows[hit]]
    misses = np.flatnonzero(~hit)
    if misses.size:
        missing = [ordered[i] for i in misses]
        logger.warning(
            "%d of %d candidates missing from the precomputed part table "
            "(first: %s); computing them directly",
            len(missing),
            len(ordered),
            ", ".join(missing[:5]),
        )
        _, vectors = compute_ad_vectors(model, [ads_by_id[a] for a in missing], vocab)
        a_parts[misses] = scorer.a_part(vectors)
    scores = scorer.score_from_parts(scorer.q_part(v_qu), a_parts)
    top = np.argsort(-scores, kind="stable")[:top_n]  # exact ties stay in ad-id order
    for ad_id, score in zip(ordered, scores.tolist()):
        candidates[ad_id].prerank_score = score
    return [candidates[ordered[i]] for i in top.tolist()]


# ----------------------------------------------------------------------
# simulation


@dataclass
class PipelineConfig:
    paths: tuple[str, ...] = PATHS
    top_n: int = 200
    k_vector: int = 500
    overfetch_factor: int = OVERFETCH_FACTOR
    rerank: bool = RERANK
    seed: int = 0
    verify_split: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.paths) - set(PATHS)
        if unknown:
            raise ValueError(f"unknown retrieval paths {sorted(unknown)}")
        if not self.paths:
            raise ValueError("at least one retrieval path is required")
        if min(self.top_n, self.k_vector, self.overfetch_factor) < 1:
            raise ValueError("top_n, k_vector and overfetch_factor must be >= 1")


def metrics_from_counts(
    presents: int, clicks: int, requests: int, cost: float
) -> dict:
    """Serving metrics; undefined ratios are None, never 0.

    RPM is computed as CTR * CPC, so the identity holds by construction.
    """
    ctr = clicks / presents if presents else None
    pr = presents / requests if requests else None
    cpc = cost / clicks if clicks else None
    rpm = ctr * cpc if ctr is not None and cpc is not None else None
    return {
        "request_count": requests,
        "ad_present_count": presents,
        "ad_click_count": clicks,
        "ad_cost_amount": cost,
        "ctr": ctr,
        "pr": pr,
        "cpc": cpc,
        "rpm": rpm,
        "rpm_definition": "ctr*cpc",
    }


# a candidate's retrieval paths as a bitmask, and the sorted path list of each mask
KEYWORD_BIT, VECTOR_BIT = 1, 2
_PATH_LISTS = (None, [KEYWORD_PATH], [VECTOR_PATH], [KEYWORD_PATH, VECTOR_PATH])


@dataclass(frozen=True, eq=False)
class Impressions(Sequence):
    """The impression log, one row per presented ad, held as columns.

    It reads as a read-only sequence of the log's rows: dicts with the
    keys user_id, timestamp, ad_id, position, paths (a sorted list),
    retrieval_score (None for keyword-only rows), prerank_score, clicked
    and cost (the ad's cost when clicked, else 0.0). ``write_simulation``
    writes the same rows from the columns.
    """

    ad_ids: Sequence[str]  # catalog row -> ad id
    costs: Sequence[float]  # catalog row -> per-click cost
    requests: Sequence[tuple[str, int]]  # (user_id, timestamp) of each request that presented
    offsets: np.ndarray  # [len(requests) + 1] column offsets; a row's position is from its request's
    rows: np.ndarray  # catalog row of each presented ad
    paths: np.ndarray  # path bitmask
    retrieval: np.ndarray  # vector-path score, read only where the VECTOR_BIT is set
    prerank: np.ndarray
    clicked: np.ndarray  # bool

    @classmethod
    def collect(
        cls,
        ad_ids: Sequence[str],
        costs: Sequence[float],
        requests: Sequence[tuple[str, int]],
        lengths: Sequence[int],
        blocks: Sequence[tuple[np.ndarray, ...]],
    ) -> "Impressions":
        """Joins blocks of (rows, paths, retrieval, prerank, clicked) columns,
        in which request i presented the next ``lengths[i]`` rows."""
        dtypes = (np.intp, np.uint8, np.float64, np.float64, bool)
        joined = [
            np.concatenate([b[k] for b in blocks] or [np.zeros(0, dtype)])
            for k, dtype in enumerate(dtypes)
        ]
        return cls(ad_ids, costs, requests, np.cumsum([0, *lengths]), *joined)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("impression index out of range")
        i %= n
        request = int(np.searchsorted(self.offsets, i, side="right")) - 1
        user_id, timestamp = self.requests[request]
        row = int(self.rows[i])
        mask = int(self.paths[i])
        clicked = int(self.clicked[i])
        return {
            "user_id": user_id,
            "timestamp": timestamp,
            "ad_id": self.ad_ids[row],
            "position": i - int(self.offsets[request]),
            "paths": list(_PATH_LISTS[mask]),
            "retrieval_score": float(self.retrieval[i]) if mask & VECTOR_BIT else None,
            "prerank_score": float(self.prerank[i]),
            "clicked": clicked,
            "cost": self.costs[row] if clicked else 0.0,
        }


@dataclass
class SimulationResult:
    impressions: Impressions
    metrics: dict


def _refuse_missing(ids: Iterable[str], source: str, known: Mapping, what: str) -> None:
    missing = [a for a in ids if a not in known]
    if missing:
        raise CatalogMismatchError(
            f"{source} lacks {len(missing)} of the {what} ads; first: {', '.join(missing[:5])}"
        )


def simulate(
    records: Sequence[LogRecord],
    model: MatchingModel,
    vocab: Vocabulary,
    ann_index: AnnIndex | None,
    ads: Sequence[AdDescriptor],
    oracle: PlantedOracle,
    config: PipelineConfig,
    ad_parts: tuple[Sequence[str], np.ndarray] | None = None,
) -> SimulationResult:
    """Replay logged requests through retrieval and split pre-ranking and
    sample clicks.

    Each request gets what ``retrieve`` and ``prerank`` would give it,
    worked on integer catalog rows. The catalog's rows are its ad ids in
    sorted order, so row order is ad-id order. Clicks come from the
    planted oracle; each presented-and-clicked ad accrues its per-ad cost.
    When ``verify_split`` is on, every scored candidate is also scored by
    the trained head, ``model.prerank_prob``, and the maximum absolute
    deviation is reported in the metrics.

    Requests go in blocks of ``INFERENCE_CHUNK``, the query-encoding
    batch. Within a block, retrieval runs one request at a time and marks
    each request's rows and paths in a catalog-sized mask; the rest runs
    in array passes over the block's candidate rows. Scoring and the split
    check take ``INFERENCE_CHUNK`` rows per pass (a row's score does not
    depend on the rows beside it), one ``lexsort`` over (request, score)
    picks every top N, and one draw per presented ad samples the clicks,
    the same stream as one draw per request.

    Before the replay, each catalog ad is encoded at most once: every ad
    when ``verify_split`` is on or no parts table is given, else only the
    ads the table lacks, in one batch. A row's parts come from the table
    when it has the ad, else from the ad's encoding; one warning names the
    ads the table lacks. A search that falls back to exact because the
    index has no codebooks warns once per call.

    Raises CatalogMismatchError before the replay when the index holds
    an ad missing from ``ads``, ``oracle`` does not know a catalog ad, or
    the parts table's width is not the model's ``prerank_hidden``.
    """
    ads_by_id = {ad.item_id: ad for ad in ads}
    if ann_index is not None:
        _refuse_missing(ann_index.ids(), "the ad catalog", ads_by_id, "indexed")
    _refuse_missing(ads_by_id, "the oracle", oracle.item_categories, "catalog")
    hidden = model.config.prerank_hidden
    table_ids, table = ad_parts if ad_parts is not None else ([], np.zeros((0, hidden)))
    table = np.asarray(table, dtype=np.float64)
    if table.shape[1] != hidden:
        raise CatalogMismatchError(
            f"the ad-parts table is {table.shape[1]} wide, "
            f"but the model's prerank_hidden is {hidden}"
        )
    bidword_index = BidwordIndex.build(ads) if KEYWORD_PATH in config.paths else None
    use_vector = VECTOR_PATH in config.paths and ann_index is not None
    scorer = PrerankScorer(model)

    # per-catalog-row tables
    catalog = sorted(ads_by_id)
    row_of = {ad_id: row for row, ad_id in enumerate(catalog)}
    costs = [ads_by_id[a].cost for a in catalog]
    table_at = {ad_id: i for i, ad_id in enumerate(table_ids)}
    table_row = np.array([table_at.get(a, -1) for a in catalog], dtype=np.intp)
    covered = table_row >= 0
    missing = np.flatnonzero(~covered)
    if ad_parts is not None and missing.size:
        logger.warning(
            "%d ads missing from the precomputed part table are encoded "
            "directly, once each (first: %s)",
            missing.size,
            ", ".join(catalog[r] for r in missing[:5].tolist()),
        )
    encode = np.arange(len(catalog)) if config.verify_split else missing
    _, vectors = compute_ad_vectors(model, [ads_by_id[catalog[r]] for r in encode.tolist()], vocab)
    parts = np.empty((len(catalog), hidden))
    parts[covered] = table[table_row[covered]]
    parts[missing] = scorer.a_part(vectors[missing] if config.verify_split else vectors)
    category_codes: dict = {}
    category_of = np.array(
        [category_codes.setdefault(oracle.item_categories[a], len(category_codes)) for a in catalog],
        dtype=np.intp,
    )

    m = model.config.behavior_window
    rng = np.random.default_rng(config.seed)
    split_dev = 0.0
    keyword_rows: dict[str, np.ndarray] = {}
    index_ids: tuple[str, ...] | None = None  # the last searched snapshot's ids
    index_to_catalog = np.zeros(0, dtype=np.intp)  # ... and their catalog rows
    no_rows, no_scores = np.zeros(0, dtype=np.intp), np.zeros(0)
    exact_warned = False
    path_bits = np.zeros(len(catalog), dtype=np.uint8)  # one request's paths, by catalog row
    vector_score = np.zeros(len(catalog))  # ... and its vector-path scores
    presented: list[tuple[str, int]] = []
    lengths: list[int] = []
    blocks: list[tuple[np.ndarray, ...]] = []
    for lo in range(0, len(records), INFERENCE_CHUNK):
        block = records[lo : lo + INFERENCE_CHUNK]
        v_qu = model.qu_forward(request_columns(block, vocab, m)).data
        # retrieval, one request at a time: each served request's rows in
        # catalog order, with their path bits and vector-path scores
        served, candidates = [], []
        for i, rec in enumerate(block):
            kw_rows = no_rows
            if bidword_index is not None:
                raw_query = " ".join(rec.query_terms)
                kw_rows = keyword_rows.get(raw_query)
                if kw_rows is None:
                    matched = sorted(row_of[a] for a in bidword_index.lookup(raw_query))
                    kw_rows = keyword_rows[raw_query] = np.array(matched, dtype=np.intp)
            vec_rows, vec_scores = no_rows, no_scores
            unit = _unit_query(v_qu[i]) if use_vector else None
            if unit is not None:
                hits = ann_index.search_rows(
                    unit, config.k_vector, config.overfetch_factor, config.rerank
                )
                if not hits.pq and not exact_warned:
                    logger.warning(EXACT_FALLBACK_WARNING)
                    exact_warned = True
                if hits.ids is not index_ids:
                    # rows index the ids of the snapshot that scored them
                    _refuse_missing(hits.ids, "the ad catalog", row_of, "indexed")
                    index_ids = hits.ids
                    index_to_catalog = np.array([row_of[a] for a in index_ids], dtype=np.intp)
                vec_rows, vec_scores = index_to_catalog[hits.rows], hits.scores
            path_bits[kw_rows] = KEYWORD_BIT
            path_bits[vec_rows] |= VECTOR_BIT
            vector_score[vec_rows] = vec_scores
            rows = np.flatnonzero(path_bits)
            if rows.size:
                served.append(i)
                candidates.append((rows, path_bits[rows], vector_score[rows]))
            path_bits[rows] = 0
            vector_score[vec_rows] = 0.0
        if not served:
            continue

        # the block's candidates as one column set, request after request
        counts = np.array([len(c[0]) for c in candidates])
        rows, paths, retrieval = (np.concatenate(col) for col in zip(*candidates))
        owner = np.repeat(np.arange(len(served)), counts)  # position in ``served``
        v_served = v_qu[served]
        q_parts = np.stack([scorer.q_part(v) for v in v_served])
        scores = np.empty(len(rows))
        for a in range(0, len(rows), INFERENCE_CHUNK):
            chunk = slice(a, a + INFERENCE_CHUNK)
            scores[chunk] = scorer.score_from_parts(q_parts[owner[chunk]], parts[rows[chunk]])
            if config.verify_split:
                head = model.prerank_prob(
                    Tensor(v_served[owner[chunk]]), Tensor(vectors[rows[chunk]])
                ).data
                split_dev = max(split_dev, float(np.abs(head - scores[chunk]).max()))

        # each request's top N: descending score, exact ties in catalog (ad-id)
        # order, as lexsort is stable; its segment's ranks count from its start
        order = np.lexsort((-scores, owner))
        starts = np.cumsum(counts) - counts
        top = order[np.arange(len(rows)) - starts[owner] < config.top_n]
        selected, at = rows[top], owner[top]
        category = np.array([
            category_codes.get(oracle.request_category(block[i].user_id, block[i].timestamp), -1)
            for i in served
        ])
        # one draw per presented ad, in presentation order: the stream of
        # per-request draws
        draws = rng.random(size=selected.size)
        clicked = draws < np.where(category_of[selected] == category[at], oracle.p_hi, oracle.p_lo)
        presented.extend((block[i].user_id, block[i].timestamp) for i in served)
        lengths.extend(np.minimum(counts, config.top_n).tolist())
        blocks.append((selected, paths[top], retrieval[top], scores[top], clicked))

    impressions = Impressions.collect(catalog, costs, presented, lengths, blocks)
    clicked_rows = impressions.rows[impressions.clicked].tolist()
    # summed in impression order, one add at a time
    cost = functools.reduce(operator.add, [costs[r] for r in clicked_rows], 0.0)
    metrics = metrics_from_counts(len(impressions), len(clicked_rows), len(records), cost)
    metrics["q_part_computations"] = scorer.q_part_count
    metrics["prerank_split_max_abs_dev"] = split_dev if config.verify_split else None
    metrics["paths"] = list(config.paths)
    metrics["top_n"] = config.top_n
    metrics["k_vector"] = config.k_vector
    metrics["seed"] = config.seed
    return SimulationResult(impressions=impressions, metrics=metrics)


def _json_floats(values: np.ndarray) -> list[str]:
    """``json.dumps`` of each float: its repr when finite, else NaN,
    Infinity or -Infinity as json spells them."""
    floats = values.tolist()
    if np.isfinite(values).all():
        return list(map(float.__repr__, floats))
    return list(map(json.dumps, floats))


def _write_impressions(imp: Impressions, path: Path) -> None:
    """One line per row, equal byte for byte to ``json.dumps(row,
    sort_keys=True) + "\\n"`` for the row the sequence reads; the lines are
    put together from the columns and per-ad and per-request fragments."""
    heads = {}  # catalog row -> the line's start up to "paths", unclicked and clicked
    for row in np.unique(imp.rows).tolist():
        ad = json.dumps(imp.ad_ids[row])
        heads[row] = (
            f'{{"ad_id": {ad}, "clicked": 0, "cost": 0.0, "paths": ',
            f'{{"ad_id": {ad}, "clicked": 1, "cost": {json.dumps(imp.costs[row])}, "paths": ',
        )
    path_parts = [None if p is None else json.dumps(p) + ', "position": ' for p in _PATH_LISTS]
    offsets = imp.offsets.tolist()
    longest = max((hi - lo for lo, hi in zip(offsets, offsets[1:])), default=0)
    positions = [f'{i}, "prerank_score": ' for i in range(longest)]
    rows = imp.rows.tolist()
    clicked = imp.clicked.tolist()
    masks = imp.paths.tolist()
    prerank = _json_floats(imp.prerank)
    retrieval = [
        s if m & VECTOR_BIT else "null" for s, m in zip(_json_floats(imp.retrieval), masks)
    ]
    with open(path, "w") as fh:
        for (user_id, timestamp), lo, hi in zip(imp.requests, offsets, offsets[1:]):
            tail = f', "timestamp": {json.dumps(timestamp)}, "user_id": {json.dumps(user_id)}}}\n'
            fh.write(
                "".join(
                    [
                        f'{heads[r][c]}{path_parts[m]}{pos}{p}, "retrieval_score": {s}{tail}'
                        for r, c, m, pos, p, s in zip(
                            rows[lo:hi],
                            clicked[lo:hi],
                            masks[lo:hi],
                            positions,
                            prerank[lo:hi],
                            retrieval[lo:hi],
                        )
                    ]
                )
            )


def write_simulation(result: SimulationResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_impressions(result.impressions, out / "impressions.jsonl")
    (out / "metrics.json").write_text(json.dumps(result.metrics, sort_keys=True, indent=2))
