"""Two-stage matching simulator: catalog encoding, multi-path retrieval,
split pre-ranking, top-N selection, and log-derived metrics.

``compute_ad_vectors`` is the one catalog encoder: the exported vector
index, the ad-parts table and the split check all read its output.

Retrieval unions an exact-match bidword lookup with the vector index;
candidates carry their path provenance through pre-ranking into the
impression log. Pre-rank scoring uses the offline decomposition of the
interaction layer: the ad-side partial products are precomputed per ad,
and the query-side partial product (with the layer bias folded in) is
computed once per request.
"""

from __future__ import annotations

import json
import logging
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
    ad_item_from_descriptor,
    request_from_record,
    write_jsonl,
)
from .annindex import OVERFETCH_FACTOR, RERANK, AnnIndex, degenerate_norm
from .autodiff import Tensor
from .model import INFERENCE_CHUNK, MatchingModel, apply_activation

logger = logging.getLogger(__name__)

KEYWORD_PATH = "keyword"
VECTOR_PATH = "vector"
PATHS = (KEYWORD_PATH, VECTOR_PATH)

_PARTS_MAGIC = b"ADMPRT01"
_PARTS_VERSION = 2


class CatalogMismatchError(ValueError):
    """The replay's index, ad catalog and oracle do not cover the same ads."""


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


class PrerankScorer:
    """Serving-side split computation of the pre-rank head.

    The first interaction layer concat(V_qu, V_a) @ W + b splits into a
    query partial (computed once per request, bias folded in) plus an ad
    partial (precomputable offline); q_part calls are counted so tests
    can assert the once-per-request contract.
    """

    def __init__(self, model: MatchingModel) -> None:
        d = model.config.d
        w1 = model.params["prerank/W1"].data
        self.w_query = w1[:d].copy()
        self.w_ad = w1[d:].copy()
        self.bias = model.params["prerank/b1"].data.copy()
        self.w_out = model.params["prerank/W2"].data[:, 0].copy()
        self.b_out = float(model.params["prerank/b2"].data[0])
        self.activation = model.config.activation
        self.q_part_count = 0

    def q_part(self, v_qu: np.ndarray) -> np.ndarray:
        self.q_part_count += 1
        return v_qu @ self.w_query + self.bias

    def a_part(self, v_a: np.ndarray) -> np.ndarray:
        return v_a @ self.w_ad

    def score_from_parts(self, q_part: np.ndarray, a_parts: np.ndarray) -> np.ndarray:
        hidden = apply_activation(self.activation, q_part[None, :] + a_parts)
        logit = hidden @ self.w_out + self.b_out
        return 1.0 / (1.0 + np.exp(-logit))


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
        items = [ad_item_from_descriptor(a, vocab) for a in ads[lo : lo + INFERENCE_CHUNK]]
        rows.append(model.ad_forward(items).data)
    matrix = np.concatenate(rows, axis=0) if rows else np.zeros((0, model.config.d))
    return ids, matrix


def build_exact_index(
    model: MatchingModel, ads: Sequence[AdDescriptor], vocab: Vocabulary
) -> AnnIndex:
    """Export all ad vectors into a fresh exact-mode index.

    Ads whose encoder output has a zero or non-finite norm are skipped
    with a warning; the inner product against the stored unit vectors
    equals cosine against the raw tower outputs.
    """
    ids, vectors = compute_ad_vectors(model, ads, vocab)
    pairs = []
    for ad_id, row, norm in zip(ids, vectors, np.linalg.norm(vectors, axis=1)):
        if degenerate_norm(norm):
            logger.warning(
                "skipping ad %s: degenerate zero-norm or non-finite encoder output", ad_id
            )
        else:
            pairs.append((ad_id, row / norm))
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
    frame = artifact.Reader(path, _PARTS_MAGIC, _PARTS_VERSION, "ad-parts")
    width, count = frame.array("<u8", (2,)).tolist()
    parts = frame.array("<f8", (count, width))
    return frame.ids(count), parts


# ----------------------------------------------------------------------
# retrieval + pre-ranking


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
        norm = float(np.linalg.norm(query_vector))
        if degenerate_norm(norm):
            logger.warning(
                "degenerate zero-norm or non-finite query vector; skipping vector path"
            )
        else:
            unit = query_vector / norm
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
    q_part = scorer.q_part(v_qu)
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
    scores = scorer.score_from_parts(q_part, a_parts)
    for ad_id, score in zip(ordered, scores):
        candidates[ad_id].prerank_score = float(score)
    ranked = sorted(ordered, key=lambda a: (-candidates[a].prerank_score, a))
    return [candidates[a] for a in ranked[:top_n]]


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
        if self.top_n < 1 or self.k_vector < 1:
            raise ValueError("top_n and k_vector must be >= 1")


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


@dataclass
class SimulationResult:
    impressions: list[dict]
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
    """Replay logged requests through retrieve + prerank and sample clicks.

    Clicks come from the planted oracle; each presented-and-clicked ad
    accrues its per-ad cost. When ``verify_split`` is on, every scored
    candidate is also scored by the trained head, ``model.prerank_prob``,
    and the maximum absolute deviation is reported in the metrics.

    Raises CatalogMismatchError before the replay when the index holds
    an ad missing from ``ads``, or ``oracle`` does not know a catalog ad.
    """
    ads_by_id = {ad.item_id: ad for ad in ads}
    if ann_index is not None:
        _refuse_missing(ann_index.ids(), "the ad catalog", ads_by_id, "indexed")
    _refuse_missing(ads_by_id, "the oracle", oracle.item_categories, "catalog")
    bidword_index = BidwordIndex.build(ads) if KEYWORD_PATH in config.paths else None
    scorer = PrerankScorer(model)
    encoded = ads if config.verify_split or ad_parts is None else []
    vector_ids, vectors = compute_ad_vectors(model, encoded, vocab)
    part_ids, parts = (vector_ids, scorer.a_part(vectors)) if ad_parts is None else ad_parts
    part_rows = {ad_id: i for i, ad_id in enumerate(part_ids)}
    vector_rows = {ad_id: i for i, ad_id in enumerate(vector_ids)}

    m = model.config.behavior_window
    requests = [request_from_record(r, vocab, m) for r in records]
    v_qu_all = np.zeros((0, model.config.d))
    if requests:
        chunks = [
            model.qu_forward(requests[lo : lo + INFERENCE_CHUNK]).data
            for lo in range(0, len(requests), INFERENCE_CHUNK)
        ]
        v_qu_all = np.concatenate(chunks, axis=0)

    rng = np.random.default_rng(config.seed)
    presents = 0
    clicks = 0
    cost_total = 0.0
    split_dev = 0.0
    impressions: list[dict] = []
    for rec, v_qu in zip(records, v_qu_all):
        raw_query = " ".join(rec.query_terms)
        candidates = retrieve(
            raw_query,
            v_qu if VECTOR_PATH in config.paths else None,
            bidword_index,
            ann_index,
            config.k_vector,
            paths=config.paths,
            overfetch_factor=config.overfetch_factor,
            rerank=config.rerank,
        )
        selected = prerank(
            candidates,
            v_qu,
            scorer,
            part_rows,
            parts,
            model,
            ads_by_id,
            vocab,
            config.top_n,
        )
        if config.verify_split and candidates:
            ordered = sorted(candidates)
            rows = [vector_rows[a] for a in ordered if a in vector_rows]
            if len(rows) == len(ordered):
                head = model.prerank_prob(
                    Tensor(np.tile(v_qu, (len(rows), 1))), Tensor(vectors[rows])
                ).data
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
    return SimulationResult(impressions=impressions, metrics=metrics)


def write_simulation(result: SimulationResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(result.impressions, out / "impressions.jsonl")
    (out / "metrics.json").write_text(json.dumps(result.metrics, sort_keys=True, indent=2))
