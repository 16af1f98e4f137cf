"""Single command-line surface for the whole matching workflow.

Each subcommand is a thin orchestration of one module operation. All
artifacts live at explicit paths, --seed is threaded everywhere, and a
key=value config file can supply defaults (flags win); a key is a flag's
name without its dashes. A flag that fills a config dataclass is named
for its field by ``dest`` and takes its default from that dataclass. A
checkpoint is refused with a vocabulary of other sizes. Logs go to
stderr, data to files, machine-readable summaries to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, annindex
from .annindex import AnnIndex
from .data import (
    DatasetSplit,
    GeneratorConfig,
    PlantedOracle,
    Vocabulary,
    build_vocab,
    generate_synthetic,
    make_instances,
    read_ad_json,
    read_ads,
    read_log_records,
    split_by_day,
    write_ads,
    write_log_records,
)
from .evaluation import (
    ablation_suite,
    gamma_sweep,
    model_aucs,
    report_table,
    report_to_csv,
    sweep_table,
    sweep_to_csv,
)
from .model import (
    ACTIVATIONS,
    PAD_BEHAVIOR,
    VARIANTS,
    EncoderConfig,
    MatchingModel,
    QueryRequest,
    VocabularyError,
)
from .pipeline import (
    PipelineConfig,
    build_exact_index,
    compute_ad_vectors,
    precompute_ad_parts,
    load_ad_parts,
    save_ad_parts,
    simulate,
    write_simulation,
)
from .training import MODES, TrainConfig, train, write_history_csv

logger = logging.getLogger(__name__)

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")
SPLITS = ("train", "validation", "test")  # in split_by_day's order


def _apply_config_file(subparser: argparse.ArgumentParser, path: str) -> None:
    """Set flag defaults from a file of ``key = value`` lines (blank lines
    and ``#`` comments skipped). Each key is a flag's name without its
    dashes, with underscores read as dashes. A flag that takes no value
    reads the key as a boolean, spelled 1/true/yes/on or 0/false/no/off in
    any case: ``no-rerank = true`` turns re-ranking off.
    A line that fails names the file and the line."""
    actions = {s.lstrip("-"): a for a in subparser._actions for s in a.option_strings}
    defaults = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            action = actions.get(key.replace("_", "-"))
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            if action.nargs == 0:
                truthy = raw.lower() in ("1", "true", "yes", "on")
                if not truthy and raw.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{key} takes 1/true/yes/on or 0/false/no/off, got {raw!r}")
                defaults[action.dest] = truthy == action.const
            else:
                defaults[action.dest] = raw if action.type is None else action.type(raw)
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    subparser.set_defaults(**defaults)


def _comma_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in _comma_tuple(raw))


def _config(cls, args: argparse.Namespace):
    """The dataclass ``cls`` filled from the parsed flags named after its
    fields; a field without a flag keeps its default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def _load_model(args: argparse.Namespace) -> tuple[MatchingModel, Vocabulary]:
    """The checkpoint and the vocabulary it was trained on; a vocabulary
    of other sizes would feed the model the wrong ids, so it is refused."""
    model = MatchingModel.load(args.checkpoint)
    vocab = Vocabulary.load_tsv(args.vocab)
    for space, size in vocab.sizes.items():
        if model.vocab_sizes[space] != size:
            raise VocabularyError(
                f"checkpoint {args.checkpoint} has {model.vocab_sizes[space]} {space} ids, "
                f"but vocabulary {args.vocab} has {size}: they do not match"
            )
    return model, vocab


def _load_split_instances(args: argparse.Namespace, vocab: Vocabulary, m: int):
    records = read_log_records(args.logs)
    sets = split_by_day(records, _config(DatasetSplit, args))
    return tuple(list(make_instances(recs, vocab, m)) for recs in sets)


def _training_inputs(args: argparse.Namespace):
    """What train, gamma-sweep and ablation start from: vocab, encoder, three splits."""
    vocab = Vocabulary.load_tsv(args.vocab)
    encoder = _config(EncoderConfig, args)
    return vocab, encoder, *_load_split_instances(args, vocab, encoder.behavior_window)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True, help="vocabulary TSV file")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--logs", required=True, help="JSON Lines impression log file")
    p.add_argument(
        "--train-days", required=True, type=_comma_tuple, help="three comma-separated days"
    )
    p.add_argument("--test-day", required=True, help="held-out test day")
    p.add_argument(
        "--validation-fraction", type=float, default=DatasetSplit.validation_fraction
    )


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The vocabulary, split, encoder and training flags of each training command."""
    p.add_argument("--vocab", required=True, help="vocabulary TSV file")
    _add_split_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default=EncoderConfig.variant)
    p.add_argument("--behavior-window", type=int, default=EncoderConfig.behavior_window)
    p.add_argument("--item-dim", type=int, default=EncoderConfig.item_dim)
    p.add_argument("--shop-dim", type=int, default=EncoderConfig.shop_dim)
    p.add_argument("--brand-dim", type=int, default=EncoderConfig.brand_dim)
    p.add_argument("--term-dim", type=int, default=EncoderConfig.term_dim)
    p.add_argument("--profile-dim", type=int, default=EncoderConfig.profile_dim)
    p.add_argument("--gru-hidden", type=int, default=EncoderConfig.gru_hidden)
    p.add_argument("--attention-hidden", type=int, default=EncoderConfig.attention_hidden)
    p.add_argument(
        "--tower-dims",
        type=_int_tuple,
        default=EncoderConfig.tower_dims,
        help="two widths, e.g. 128,128",
    )
    p.add_argument("--prerank-hidden", type=int, default=EncoderConfig.prerank_hidden)
    share = p.add_mutually_exclusive_group()
    share.add_argument("--share-tower", dest="share_tower", action="store_true")
    share.add_argument("--no-share-tower", dest="share_tower", action="store_false")
    p.set_defaults(share_tower=EncoderConfig.share_tower)
    p.add_argument("--activation", choices=ACTIVATIONS, default=EncoderConfig.activation)
    p.add_argument("--gamma", type=float, default=EncoderConfig.gamma)
    p.add_argument("--alpha", type=float, default=EncoderConfig.alpha)
    p.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


# ----------------------------------------------------------------------
# subcommand implementations


def _cmd_gen_data(args) -> int:
    records, ads, oracle = generate_synthetic(_config(GeneratorConfig, args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_log_records(records, out / "logs.jsonl")
    write_ads(ads, out / "ads.jsonl")
    oracle.save(out / "oracle.json")
    logger.info("wrote %d records, %d ads to %s", len(records), len(ads), out)
    print(json.dumps({"records": len(records), "ads": len(ads)}, sort_keys=True))
    return 0


def _cmd_build_vocab(args) -> int:
    records = read_log_records(args.logs)
    vocab = build_vocab(records, top_k=args.top_k)
    vocab.save_tsv(args.out)
    logger.info("vocabulary sizes: %s", vocab.sizes)
    print(json.dumps(vocab.sizes, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    vocab, encoder, train_set, val_set, test_set = _training_inputs(args)
    model = MatchingModel(encoder, vocab.sizes, seed=args.seed)
    result = train(model, train_set, val_set, _config(TrainConfig, args))
    model.save(args.checkpoint_out)
    if args.history_out:
        write_history_csv(result.history, args.history_out)
    best = result.history[result.best_epoch - 1]
    summary = {
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "val_auc_retrieval": best.val_auc_retrieval,
        "val_auc_prerank": best.val_auc_prerank,
        "train_instances": len(train_set),
        "validation_instances": len(val_set),
        "test_instances": len(test_set),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    model, vocab = _load_model(args)
    sets = _load_split_instances(args, vocab, model.config.behavior_window)
    instances = sets[SPLITS.index(args.split)]
    aucs = model_aucs(model, instances)
    payload = {"split": args.split, "instances": len(instances), **aucs}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True))
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_gamma_sweep(args) -> int:
    vocab, encoder, train_set, val_set, test_set = _training_inputs(args)
    gammas = [float(g) for g in _comma_tuple(args.gammas)]
    rows = gamma_sweep(
        train_set, val_set, test_set, vocab.sizes, encoder, _config(TrainConfig, args), gammas
    )
    if args.out_csv:
        sweep_to_csv(rows, args.out_csv)
    print(sweep_table(rows))
    return 0


def _cmd_ablation(args) -> int:
    vocab, encoder, train_set, val_set, test_set = _training_inputs(args)
    report = ablation_suite(
        train_set, val_set, test_set, vocab.sizes, encoder, _config(TrainConfig, args)
    )
    if args.out_csv:
        report_to_csv(report, args.out_csv)
    print(report_table(report))
    return 0


def _cmd_export_vectors(args) -> int:
    model, vocab = _load_model(args)
    ads = read_ads(args.ads)
    index = build_exact_index(model, ads, vocab)
    index.save(args.out)
    logger.info("exported %d of %d ad vectors", len(index), len(ads))
    print(json.dumps({"exported": len(index), "dim": index.dim}, sort_keys=True))
    return 0


def _cmd_build_index(args) -> int:
    index = AnnIndex.load(args.vectors)
    result = index.train_pq(
        n_subspaces=args.pq_m,
        n_centroids=args.pq_k,
        iterations=args.pq_iterations,
        seed=args.seed,
    )
    logger.info(
        "trained PQ codebooks: final quantization error %.6f, Lloyd passes per subspace %s",
        float(result.error_history[:, -1].mean()),
        result.passes.tolist(),
    )
    index.save(args.out)
    summary = {"entries": len(index), "pq": index.codebooks is not None, "dim": index.dim,
               "lloyd_passes": int(result.passes.max())}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_add_ad(args) -> int:
    raw, where = args.ad_json, "--ad-json"
    if raw.startswith("@"):
        where = raw[1:]
        raw = Path(where).read_text()
    descriptor = read_ad_json(raw, where)
    index = AnnIndex.load(args.index)
    model, vocab = _load_model(args)
    _, vectors = compute_ad_vectors(model, [descriptor], vocab)
    index.add(descriptor.item_id, vectors[0])
    index.save(args.out)
    print(json.dumps({"ad_id": descriptor.item_id, "entries": len(index)}, sort_keys=True))
    return 0


def _cmd_search(args) -> int:
    index = AnnIndex.load(args.index)
    model, vocab = _load_model(args)
    terms = args.query.split()
    request = QueryRequest(
        query_term_ids=vocab.ids_for("term_id", terms),
        profile_ids=(),
        behaviors=(PAD_BEHAVIOR,) * model.config.behavior_window,
    )
    unit = annindex.normalize(model.qu_forward([request]).data[0])
    if args.exact:
        hits = index.exact_topk(unit, args.k)
    else:
        hits = index.pq_search(unit, args.k, overfetch_factor=args.overfetch)
    for ad_id, score in hits:
        print(json.dumps({"ad_id": ad_id, "score": score}, sort_keys=True))
    return 0


def _cmd_precompute_ad_parts(args) -> int:
    model, vocab = _load_model(args)
    ads = read_ads(args.ads)
    ids, parts = precompute_ad_parts(model, ads, vocab)
    save_ad_parts(ids, parts, args.out)
    print(json.dumps({"ads": len(ids), "width": parts.shape[1]}, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    model, vocab = _load_model(args)
    records = read_log_records(args.logs)
    if args.days:
        records = [r for r in records if r.day in args.days]
    ads = read_ads(args.ads)
    oracle = PlantedOracle.load(args.oracle)
    ann_index = AnnIndex.load(args.index) if args.index else None
    ad_parts = load_ad_parts(args.ad_parts) if args.ad_parts else None
    config = _config(PipelineConfig, args)
    result = simulate(records, model, vocab, ann_index, ads, oracle, config, ad_parts)
    write_simulation(result, args.out_dir)
    print(json.dumps(result.metrics, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# parser assembly


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="admatch",
        description="two-tower ad matching: train, index, and simulate",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value defaults file (flags override)")
        p.add_argument(
            "--log-level",
            choices=LOG_LEVELS,
            help="threshold for admatch log messages (default: the root logger's)",
        )
        p.add_argument(
            "--debug",
            action="store_true",
            help="re-raise errors with a traceback instead of a one-line message",
        )
        p.set_defaults(func=func)
        return p

    p = sub("gen-data", _cmd_gen_data, "generate synthetic impression logs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    p.add_argument("--users", dest="n_users", type=int, default=GeneratorConfig.n_users)
    p.add_argument("--items", dest="n_items", type=int, default=GeneratorConfig.n_items)
    p.add_argument(
        "--categories", dest="n_categories", type=int, default=GeneratorConfig.n_categories
    )
    p.add_argument("--days", type=int, default=GeneratorConfig.days)
    p.add_argument(
        "--impressions-per-user-day",
        type=int,
        default=GeneratorConfig.impressions_per_user_day,
    )
    p.add_argument("--p-hi", type=float, default=GeneratorConfig.p_hi)
    p.add_argument("--p-lo", type=float, default=GeneratorConfig.p_lo)
    p.add_argument("--head-query-prob", type=float, default=GeneratorConfig.head_query_prob)
    p.add_argument("--confuser-prob", type=float, default=GeneratorConfig.confuser_prob)

    p = sub("build-vocab", _cmd_build_vocab, "build token vocabularies from logs")
    p.add_argument("--logs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=50000)

    p = sub("train", _cmd_train, "train the matching model")
    _add_training_flags(p)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--history-out")

    p = sub("eval", _cmd_eval, "evaluate a checkpoint on a split")
    _add_model_flags(p)
    _add_split_flags(p)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out")

    p = sub("gamma-sweep", _cmd_gamma_sweep, "train one model per gamma value")
    _add_training_flags(p)
    p.add_argument("--gammas", default="1,3,6,9")
    p.add_argument("--out-csv")

    p = sub("ablation", _cmd_ablation, "run the encoder/training/sharing ablations")
    _add_training_flags(p)
    p.add_argument("--out-csv")

    p = sub("export-vectors", _cmd_export_vectors, "export normalized ad vectors")
    _add_model_flags(p)
    p.add_argument("--ads", required=True)
    p.add_argument("--out", required=True)

    p = sub("build-index", _cmd_build_index, "train PQ codebooks over a vector file")
    p.add_argument("--vectors", required=True, help="index file from export-vectors")
    p.add_argument("--out", required=True)
    p.add_argument("--pq-m", type=int, default=annindex.PQ_SUBSPACES)
    p.add_argument("--pq-k", type=int, default=annindex.PQ_CENTROIDS)
    p.add_argument(
        "--pq-iterations", type=int, default=annindex.PQ_ITERATIONS,
        help="at most this many Lloyd passes per subspace; a subspace stops at "
        "the first pass that repeats the previous pass's assignment",
    )
    p.add_argument("--seed", type=int, default=annindex.PQ_SEED)

    p = sub("add-ad", _cmd_add_ad, "encode one ad and add it to an index")
    p.add_argument("--index", required=True)
    _add_model_flags(p)
    p.add_argument("--ad-json", required=True, help="inline JSON or @file")
    p.add_argument("--out", required=True)

    p = sub("search", _cmd_search, "retrieve top ads for a raw query string")
    p.add_argument("--index", required=True)
    _add_model_flags(p)
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--overfetch", type=int, default=annindex.OVERFETCH_FACTOR)
    p.add_argument("--exact", action="store_true")

    p = sub(
        "precompute-ad-parts",
        _cmd_precompute_ad_parts,
        "precompute the offline ad-side pre-rank partials",
    )
    _add_model_flags(p)
    p.add_argument("--ads", required=True)
    p.add_argument("--out", required=True)

    p = sub("simulate", _cmd_simulate, "replay logs through the two-stage pipeline")
    p.add_argument("--logs", required=True)
    _add_model_flags(p)
    p.add_argument("--ads", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--index")
    p.add_argument("--ad-parts")
    p.add_argument("--days", type=_comma_tuple, help="restrict the replay to these days")
    p.add_argument("--paths", type=_comma_tuple, default=PipelineConfig.paths)
    p.add_argument("--top-n", type=int, default=PipelineConfig.top_n)
    p.add_argument("--k-vector", type=int, default=PipelineConfig.k_vector)
    p.add_argument(
        "--overfetch",
        dest="overfetch_factor",
        type=int,
        default=PipelineConfig.overfetch_factor,
    )
    p.add_argument(
        "--no-rerank", dest="rerank", action="store_false", default=PipelineConfig.rerank
    )
    p.add_argument(
        "--no-verify-split",
        dest="verify_split",
        action="store_false",
        default=PipelineConfig.verify_split,
    )
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out-dir", required=True)

    return parser, subparsers.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser, registry = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        command = next((a for a in argv if not a.startswith("-")), None)
        try:
            if command in registry:
                _apply_config_file(registry[command], known.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    # NOTSET defers to the root logger, as if the flag did not exist
    logging.getLogger("admatch").setLevel(args.log_level or logging.NOTSET)
    try:
        return args.func(args)
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
