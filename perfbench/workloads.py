"""The three benchmark workloads: set-up, timed loop, replay and checks.

Every workload drives admatch only through its CLI (``cli.main``) and the
public functions of ``data``, ``model``, ``training``, ``evaluation``,
``annindex`` and ``pipeline``. Calls go through module attributes, so the
traced run's wrappers see them. One process and one caller thread make
all the load.

Why these workloads (see README.md for the layer map):

* serve-demo: the 600-ad demo catalog at the serving defaults. The ADC
  pool (k_vector 500 x overfetch 10) covers the catalog, so query
  encoding, candidate building and split pre-ranking dominate, and an
  index optimisation should predict no change here.
* serve-large: the same world with 8k ads. The ADC scan and its top-k
  dominate each request, inserts copy the whole index snapshot, and the
  inserted ads take pre-rank's parts-table fallback.
* train-demo: training and test evaluation only; pipeline and annindex
  are never called, so serving changes predict no change here.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from admatch import annindex, cli, data, evaluation, model, pipeline, training

from spans import CHECK, CLI_STAGES, MEASURE, PROBE, REPLAY, SETUP, WARMUP, WRITE, Recorder

logger = logging.getLogger("perfbench")

TRAIN_DAYS = ("2024-01-01", "2024-01-02", "2024-01-03")
TEST_DAY = "2024-01-04"
SPLIT_ARGS = ("--train-days", ",".join(TRAIN_DAYS), "--test-day", TEST_DAY)
SPLIT_TOLERANCE = 1e-9  # max |split - direct| pre-rank score in the replay


@dataclass(frozen=True)
class ServeSize:
    users: int
    items: int
    pq_k: int
    pq_iterations: int
    train_epochs: int
    setup_repeats: int
    loop_requests: int  # the fixed first pass; deterministic counts come from it
    inserts: int  # ads held back from export-vectors and inserted while serving
    insert_gap: int  # untimed warm-up requests after each insert
    parts_cover_inserts: bool  # False: inserted ads take prerank's parts-table fallback
    replay_requests: int  # requests per simulate call; one call ends each slice
    exact_queries: int  # queries for the covering-pool exactness check
    recall_queries: int


@dataclass(frozen=True)
class TrainSize:
    users: int
    epochs: int
    setup_repeats: int
    saves: int  # checkpoint saves after each training


SIZES = {
    "serve-demo": ServeSize(
        users=30, items=600, pq_k=256, pq_iterations=25, train_epochs=2,
        setup_repeats=3, loop_requests=320, inserts=32, insert_gap=5,
        parts_cover_inserts=True, replay_requests=100,
        exact_queries=10, recall_queries=50,
    ),
    # 8k ads and 2 Lloyd iterations instead of the CLI's 25 keep two
    # set-ups within the run budget (at 10k, export and PQ training take
    # 6.5 s and 21 s each); serving cost does not depend on the iterations
    "serve-large": ServeSize(
        users=25, items=8_000, pq_k=256, pq_iterations=2, train_epochs=2,
        setup_repeats=2, loop_requests=240, inserts=30, insert_gap=2,
        parts_cover_inserts=False, replay_requests=120,
        exact_queries=10, recall_queries=50,
    ),
    "train-demo": TrainSize(users=100, epochs=2, setup_repeats=3, saves=10),
}

# seconds-long sizes for the harness smoke test
TOY_SIZES = {
    "serve-demo": ServeSize(
        users=16, items=80, pq_k=16, pq_iterations=2, train_epochs=1,
        setup_repeats=2, loop_requests=24, inserts=3, insert_gap=2,
        parts_cover_inserts=False, replay_requests=8,
        exact_queries=2, recall_queries=4,
    ),
    "train-demo": TrainSize(users=16, epochs=1, setup_repeats=2, saves=2),
}


@dataclass
class Result:
    """What one run measured: end-to-end values, report lines and checks."""

    e2e: dict[str, dict] = field(default_factory=dict)
    report: list[tuple[str, float, str, int]] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    pass_counts: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    setup_repeats: int = 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.e2e[name] = {"value": value, "unit": unit}

    def line(self, name: str, value: float, unit: str, samples: int) -> None:
        self.report.append((name, value, unit, samples))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1


# ----------------------------------------------------------------------
# shared helpers


def run_cli(rec: Recorder, *argv) -> dict:
    """One admatch subcommand, in process; returns its stdout summary."""
    stage = argv[0]
    buf = io.StringIO()
    with rec.span(f"cli.{stage}"), redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"admatch {stage} exited with {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def setups(rec: Recorder, res: Result, repeats: int, work: Path, one_setup):
    """Run the set-up ``repeats`` times into fresh directories, yielding each state.

    The caller measures one slice after each repetition, so every metric
    samples the whole run instead of one window of it: noise on the
    shared machine comes in phases of seconds. Reports the median set-up
    wall time as setup_s and checks that every repetition wrote
    byte-identical artifacts, so the slices serve identical states.
    """
    times, previous = [], None
    for r in range(repeats):
        rec.phase = SETUP
        d = work / f"setup{r}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        state, artifacts = one_setup(d)
        times.append(time.perf_counter() - t0)
        hashes = {name: sha256(d / name) for name in artifacts}
        if previous is not None:
            res.check("setup_artifacts_repeat", hashes == previous,
                      f"{len(hashes)} artifacts against the previous repetition")
        previous = hashes
        yield state
    res.artifacts = previous
    res.setup_repeats = repeats
    res.metric("setup_s", statistics.median(times), "s")
    res.line("setup_s", statistics.median(times), "s", repeats)
    for stage in CLI_STAGES:
        spent = rec.durations(f"cli.{stage}", (SETUP,))
        if spent:
            res.line(f"cli.{stage}_s", sum(spent) / repeats, "s", repeats)


# ----------------------------------------------------------------------
# serving workloads


@dataclass
class Serving:
    """The state a serving process holds after start-up."""

    dir: Path
    model: model.MatchingModel
    vocab: data.Vocabulary
    ads: list
    ads_by_id: dict
    held: list  # ads left out of export-vectors, inserted while serving
    oracle: data.PlantedOracle
    index: annindex.AnnIndex
    bidwords: pipeline.BidwordIndex
    scorer: pipeline.PrerankScorer
    part_ids: list
    parts: np.ndarray
    part_rows: dict
    requests: list  # seeded sample of test-day records


def serve_setup(rec: Recorder, size: ServeSize, seed: int, d: Path):
    run_cli(rec, "gen-data", "--out-dir", d, "--seed", seed, "--users", size.users,
            "--items", size.items)
    run_cli(rec, "build-vocab", "--logs", d / "logs.jsonl", "--out", d / "vocab.tsv")
    epochs = size.train_epochs
    run_cli(rec, "train", "--logs", d / "logs.jsonl", "--vocab", d / "vocab.tsv",
            *SPLIT_ARGS, "--checkpoint-out", d / "model.json", "--seed", seed,
            "--max-epochs", epochs, "--patience", epochs)
    rng = np.random.default_rng(seed)
    ads = data.read_ads(d / "ads.jsonl")
    held_idx = set(rng.choice(len(ads), size=size.inserts, replace=False).tolist())
    data.write_ads([a for i, a in enumerate(ads) if i not in held_idx], d / "served_ads.jsonl")
    model_args = ("--checkpoint", d / "model.json", "--vocab", d / "vocab.tsv")
    run_cli(rec, "export-vectors", *model_args, "--ads", d / "served_ads.jsonl",
            "--out", d / "vectors.idx")
    run_cli(rec, "build-index", "--vectors", d / "vectors.idx", "--out", d / "index.idx",
            "--pq-k", size.pq_k, "--pq-iterations", size.pq_iterations, "--seed", seed)
    parts_ads = d / ("ads.jsonl" if size.parts_cover_inserts else "served_ads.jsonl")
    run_cli(rec, "precompute-ad-parts", *model_args, "--ads", parts_ads,
            "--out", d / "parts.bin")

    mdl = model.MatchingModel.load(d / "model.json")
    part_ids, parts = pipeline.load_ad_parts(d / "parts.bin")
    records = [r for r in data.read_log_records(d / "logs.jsonl") if r.day == TEST_DAY]
    order = rng.permutation(len(records))[: size.loop_requests]
    state = Serving(
        dir=d,
        model=mdl,
        vocab=data.Vocabulary.load_tsv(d / "vocab.tsv"),
        ads=ads,
        ads_by_id={a.item_id: a for a in ads},
        held=[ads[i] for i in sorted(held_idx)],
        oracle=data.PlantedOracle.load(d / "oracle.json"),
        index=annindex.AnnIndex.load(d / "index.idx"),
        bidwords=pipeline.BidwordIndex.build(ads),
        scorer=pipeline.PrerankScorer(mdl),
        part_ids=part_ids,
        parts=parts,
        part_rows={a: i for i, a in enumerate(part_ids)},
        requests=[records[i] for i in order],
    )
    artifacts = ("logs.jsonl", "ads.jsonl", "oracle.json", "vocab.tsv", "model.json",
                 "served_ads.jsonl", "vectors.idx", "index.idx", "parts.bin")
    return state, artifacts


def serve_request(st: Serving, cfg: pipeline.PipelineConfig, record):
    """request_from_record -> qu_forward -> retrieve -> prerank."""
    request = data.request_from_record(record, st.vocab, st.model.config.behavior_window)
    v_qu = st.model.qu_forward([request]).data[0]
    candidates = pipeline.retrieve(
        " ".join(record.query_terms), v_qu, st.bidwords, st.index, cfg.k_vector,
        paths=cfg.paths, overfetch_factor=cfg.overfetch_factor, rerank=cfg.rerank,
    )
    selected = pipeline.prerank(
        candidates, v_qu, st.scorer, st.part_rows, st.parts, st.model, st.ads_by_id,
        st.vocab, cfg.top_n,
    )
    return candidates, selected


def insert_ad(st: Serving, ad) -> None:
    """Make one new ad retrievable: encode it and add it to the index."""
    item = data.ad_item_from_descriptor(ad, st.vocab)
    st.index.add(ad.item_id, st.model.ad_forward([item]).data[0])


class PassCounts:
    """Deterministic counts over the first pass, read from retrieve's output."""

    def __init__(self, part_rows: dict) -> None:
        self.part_rows = part_rows
        self.requests = self.candidates = self.keyword = self.vector = 0
        self.overlap = self.misses = self.empty = 0
        self.presented = self.vector_presented = 0

    def add(self, candidates: dict, selected: list) -> None:
        self.requests += 1
        self.candidates += len(candidates)
        self.empty += not candidates
        for ad_id, cand in candidates.items():
            self.keyword += pipeline.KEYWORD_PATH in cand.paths
            self.vector += pipeline.VECTOR_PATH in cand.paths
            self.overlap += len(cand.paths) == 2
            self.misses += ad_id not in self.part_rows
        self.presented += len(selected)
        self.vector_presented += sum(pipeline.VECTOR_PATH in c.paths for c in selected)

    def as_metrics(self) -> dict[str, float]:
        n = self.requests
        return {
            "pipeline.candidates_per_request": self.candidates / n,
            "pipeline.keyword_candidates": self.keyword / n,
            "pipeline.vector_candidates": self.vector / n,
            "pipeline.path_overlap": self.overlap / n,
            "pipeline.parts_misses": self.misses,
            "pipeline.empty_requests": self.empty,
            "pipeline.presented_ratio": self.presented / max(self.candidates, 1),
            "pipeline.vector_presented_ratio": self.vector_presented / max(self.vector, 1),
        }


def ranked_correctly(candidates: dict, selected: list, top_n: int) -> bool:
    scores = [c.prerank_score for c in selected]
    return (
        len(selected) == min(top_n, len(candidates))
        and len({c.ad_id for c in selected}) == len(selected)
        and all(c.ad_id in candidates for c in selected)
        and all(0.0 <= s <= 1.0 for s in scores)
        and all(a >= b for a, b in zip(scores, scores[1:]))
    )


def run_serve(rec: Recorder, size: ServeSize, seed: int, seconds: float, work: Path) -> Result:
    res = Result()
    cfg = pipeline.PipelineConfig(seed=seed)
    counts = PassCounts({})
    latencies, insert_latencies, errors, misranked = [], [], 0, 0
    sims, rates, fixed = [], [], []
    i = 0  # request cursor, continued across slices; the first pass is i < len(requests)
    for r, st in enumerate(
        setups(rec, res, size.setup_repeats, work, lambda d: serve_setup(rec, size, seed, d))
    ):
        # writes first: each held-back ad is inserted, timed, and followed by
        # untimed requests that also warm the process up (its first request
        # is many times slower); requests are timed afterwards on an index
        # that no longer changes, so the median does not ride a ramp of cost
        requests = st.requests
        counts.part_rows = st.part_rows
        for k, ad in enumerate(st.held):
            rec.phase = WRITE
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                insert_ad(st, ad)
            except Exception:
                logger.exception("insert failed")
                errors += 1
            else:
                insert_latencies.append(time.perf_counter() - t0)
            rec.phase = WARMUP
            for j in range(size.insert_gap):
                serve_request(st, cfg, requests[(k * size.insert_gap + j) % len(requests)])

        rec.phase = MEASURE
        last = r == size.setup_repeats - 1
        deadline = time.perf_counter() + seconds / size.setup_repeats
        while time.perf_counter() < deadline or (last and i < len(requests)):
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                candidates, selected = serve_request(st, cfg, requests[i % len(requests)])
            except Exception:
                logger.exception("request failed")
                errors += 1
                i += 1
                continue
            latencies.append(time.perf_counter() - t0)
            if i < len(requests):
                counts.add(candidates, selected)
                misranked += not ranked_correctly(candidates, selected, cfg.top_n)
            i += 1

        # the replay, the way `admatch simulate` runs it: simulate, then
        # write_simulation; one call per slice, the median rate is the throughput
        rec.phase = REPLAY
        part = [requests[(r * size.replay_requests + j) % len(requests)]
                for j in range(size.replay_requests)]
        res.attempted += len(part)
        t0 = time.perf_counter()
        sim = pipeline.simulate(part, st.model, st.vocab, st.index, st.ads, st.oracle,
                                cfg, (st.part_ids, st.parts))
        pipeline.write_simulation(sim, st.dir / "simulation")
        rates.append(len(part) / (time.perf_counter() - t0))
        sims.append(sim)
        # the same call on no requests: the catalog-wide work every call does
        # (bidword index, ad vectors for verify_split), so its share is known
        rec.phase = PROBE
        t0 = time.perf_counter()
        pipeline.simulate([], st.model, st.vocab, st.index, st.ads, st.oracle, cfg,
                          (st.part_ids, st.parts))
        fixed.append(time.perf_counter() - t0)
    res.check("requests_ranked", misranked == 0,
              f"{misranked} of {counts.requests} first-pass requests misranked")
    res.pass_counts = counts.as_metrics()
    res.failed += errors

    rec.phase = CHECK
    served = check_replay(res, sims)
    recall = check_index(res, st, cfg, size.exact_queries, size.recall_queries)

    n = len(latencies)
    ms = [x * 1e3 for x in latencies]
    add_ms = [x * 1e3 for x in insert_latencies]
    res.metric("latency_p50_ms", statistics.median(ms), "ms")
    res.metric("throughput_per_s", statistics.median(rates), "1/s")
    res.metric("write_p50_ms", statistics.median(add_ms), "ms")
    res.metric("quality", recall, "ratio")
    res.line("request_p50_ms", statistics.median(ms), "ms", n)
    res.line("request_p95_ms", percentile(ms, 95), "ms", n)
    res.line("request_p99_ms", percentile(ms, 99), "ms", n)
    res.line("replay_rps", statistics.median(rates), "requests/s", len(rates))
    call_s = size.replay_requests / statistics.median(rates)
    res.line("replay_fixed_s", statistics.median(fixed), "s", len(fixed))
    res.line("replay_fixed_share", statistics.median(fixed) / call_s, "ratio", len(fixed))
    res.line("ctr", served["ctr"], "ratio", served["ad_present_count"])
    res.line("rpm", served["rpm"], "currency", served["ad_present_count"])
    res.line("recall_at_10", recall, "share", size.recall_queries)
    res.line("add_p50_ms", statistics.median(add_ms), "ms", len(add_ms))
    return res


def check_replay(res: Result, sims: list) -> dict:
    """Checks every replay call; returns the metrics of all calls together."""
    worst_dev, recounted, rpm_ok = 0.0, True, True
    presents = clicks = requests = 0
    costs = []
    for sim in sims:
        m = sim.metrics
        dev = m["prerank_split_max_abs_dev"]
        worst_dev = max(worst_dev, math.inf if dev is None else dev)
        call_clicks = sum(row["clicked"] for row in sim.impressions)
        call_cost = math.fsum(row["cost"] for row in sim.impressions)
        recounted &= (
            m["ad_present_count"] == len(sim.impressions)
            and m["ad_click_count"] == call_clicks
            and math.isclose(m["ad_cost_amount"], call_cost, rel_tol=1e-12)
        )
        rpm_ok &= m["rpm"] is not None and m["rpm"] == m["ctr"] * m["cpc"]
        presents += len(sim.impressions)
        clicks += call_clicks
        requests += m["request_count"]
        costs.append(call_cost)
    res.check("prerank_split_identity", worst_dev <= SPLIT_TOLERANCE,
              f"max |split - direct| = {worst_dev}")
    res.check("replay_counts", recounted, f"{presents} impressions, {clicks} clicks recounted")
    res.check("rpm_is_ctr_times_cpc", rpm_ok, f"{len(sims)} replay calls")
    return pipeline.metrics_from_counts(presents, clicks, requests, math.fsum(costs))


def check_index(res: Result, st: Serving, cfg: pipeline.PipelineConfig, n_exact: int,
                n_recall: int) -> float:
    """Exactness with a covering pool; returns PQ recall@10 against exact."""
    requests = [
        data.request_from_record(r, st.vocab, st.model.config.behavior_window)
        for r in st.requests[: max(n_exact, n_recall)]
    ]
    vectors = st.model.qu_forward(requests).data
    units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    k = cfg.k_vector
    covering = max(cfg.overfetch_factor, math.ceil(len(st.index) / k))
    mismatches = 0
    for q in units[:n_exact]:
        approx = st.index.pq_search(q, k, overfetch_factor=covering)
        exact = st.index.exact_topk(q, k)
        same = [a for a, _ in approx] == [a for a, _ in exact] and all(
            math.isclose(s, t, rel_tol=1e-12, abs_tol=1e-12)
            for (_, s), (_, t) in zip(approx, exact)
        )
        mismatches += not same
    res.check("covering_pool_equals_exact", mismatches == 0,
              f"{mismatches} of {n_exact} queries differ")
    overlaps = []
    for q in units[:n_recall]:
        top_pq = {a for a, _ in st.index.pq_search(q, 10, overfetch_factor=cfg.overfetch_factor)}
        top_exact = {a for a, _ in st.index.exact_topk(q, 10)}
        overlaps.append(len(top_pq & top_exact) / len(top_exact))
    return statistics.fmean(overlaps)


# ----------------------------------------------------------------------
# training workload


@dataclass
class TrainingData:
    dir: Path
    vocab: data.Vocabulary
    train: list
    validation: list
    test: list


def train_setup(rec: Recorder, size: TrainSize, seed: int, d: Path):
    run_cli(rec, "gen-data", "--out-dir", d, "--seed", seed, "--users", size.users)
    run_cli(rec, "build-vocab", "--logs", d / "logs.jsonl", "--out", d / "vocab.tsv")
    vocab = data.Vocabulary.load_tsv(d / "vocab.tsv")
    records = data.read_log_records(d / "logs.jsonl")
    splits = data.split_by_day(records, data.DatasetSplit(TRAIN_DAYS, TEST_DAY))
    m = model.EncoderConfig().behavior_window
    sets = [list(data.make_instances(part, vocab, m)) for part in splits]
    return TrainingData(d, vocab, *sets), ("logs.jsonl", "ads.jsonl", "oracle.json", "vocab.tsv")


class StepClock:
    """Times each optimizer step, from the loss forward to the Adam update.

    Two clock reads per step; the untraced run installs only this.
    """

    def __init__(self) -> None:
        self.steps: list[float] = []
        self._start = 0.0
        self._undo: list = []

    def install(self) -> None:
        loss_for_mode = model.MatchingModel.loss_for_mode
        step = training.Adam.step
        clock = self

        def timed_loss(self, *args, **kwargs):
            clock._start = time.perf_counter()
            return loss_for_mode(self, *args, **kwargs)

        def timed_step(self):
            step(self)
            clock.steps.append(time.perf_counter() - clock._start)

        self._undo = [(model.MatchingModel, "loss_for_mode", loss_for_mode),
                      (training.Adam, "step", step)]
        model.MatchingModel.loss_for_mode = timed_loss
        training.Adam.step = timed_step

    def remove(self) -> None:
        for owner, attr, original in self._undo:
            setattr(owner, attr, original)


def run_train(rec: Recorder, size: TrainSize, seed: int, seconds: float, work: Path) -> Result:
    res = Result()
    encoder = model.EncoderConfig()
    config = training.TrainConfig(max_epochs=size.epochs, patience=size.epochs, seed=seed)

    # after each set-up, repeat the same seeded training for a slice of the
    # time, saving the checkpoint after each; every training must reproduce
    # the first one bit for bit
    clock = StepClock()
    clock.install()
    walls, histories, save_ms, digests, trained = [], [], [], set(), None
    try:
        for td in setups(rec, res, size.setup_repeats, work,
                         lambda d: train_setup(rec, size, seed, d)):
            rec.phase = MEASURE
            deadline = time.perf_counter() + seconds / size.setup_repeats
            slice_start = len(walls)
            while len(walls) == slice_start or time.perf_counter() < deadline:
                mdl = model.MatchingModel(encoder, td.vocab.sizes, seed=seed)
                res.attempted += 1
                t0 = time.perf_counter()
                result = training.train(mdl, td.train, td.validation, config)
                walls.append(time.perf_counter() - t0)
                histories.append(result.history)
                if trained is None:
                    trained = result.model
                for _ in range(size.saves):
                    res.attempted += 1
                    t0 = time.perf_counter()
                    trained.save(td.dir / "model.json")
                    save_ms.append((time.perf_counter() - t0) * 1e3)
                    digests.add(sha256(td.dir / "model.json"))
    finally:
        clock.remove()

    rec.phase = CHECK
    first = histories[0]
    res.check("epochs_not_cut", len(first) == size.epochs, f"{len(first)} epochs ran")
    res.check("losses_finite", all(math.isfinite(s.train_loss) for s in first),
              f"final loss {first[-1].train_loss:.6f}")
    res.check("training_reproducible", all(h == first for h in histories),
              f"{len(histories)} seeded trainings compared")
    try:
        aucs = evaluation.model_aucs(trained, td.test, gamma=encoder.gamma)
    except evaluation.UndefinedAucError as exc:
        res.check("test_auc_defined", False, str(exc))
        aucs = {"retrieval_auc": float("nan"), "prerank_auc": float("nan")}
    else:
        res.check("test_auc_defined",
                  all(0.0 <= v <= 1.0 for v in aucs.values()), json.dumps(aucs))

    res.check("checkpoint_saves_identical", len(digests) == 1, f"{len(save_ms)} saves")
    res.artifacts["model.json"] = digests.pop() if len(digests) == 1 else "differs"

    steps_ms = [x * 1e3 for x in clock.steps]
    # median over the repeated trainings, so one burst of machine noise
    # moves one training's rate, not the result
    examples_per_s = statistics.median(len(td.train) * size.epochs / w for w in walls)
    res.metric("latency_p50_ms", statistics.median(steps_ms), "ms")
    res.metric("throughput_per_s", examples_per_s, "1/s")
    res.metric("write_p50_ms", statistics.median(save_ms), "ms")
    res.metric("quality", aucs["retrieval_auc"], "ratio")
    res.line("train_examples_per_s", examples_per_s, "examples/s", len(walls))
    res.line("train_step_p50_ms", statistics.median(steps_ms), "ms", len(steps_ms))
    res.line("train_step_p95_ms", percentile(steps_ms, 95), "ms", len(steps_ms))
    res.line("checkpoint_save_p50_ms", statistics.median(save_ms), "ms", len(save_ms))
    res.line("test_auc_retrieval", aucs["retrieval_auc"], "AUC", len(td.test))
    res.line("test_auc_prerank", aucs["prerank_auc"], "AUC", len(td.test))
    return res


WORKLOADS = {"serve-demo": run_serve, "serve-large": run_serve, "train-demo": run_train}
