"""AUC, prediction statistics, and the sweep/ablation experiment harnesses."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import EncoderConfig, ImpressionInstance, InstanceBatch, MatchingModel, VARIANTS


class UndefinedAucError(ValueError):
    """AUC is undefined without both a positive and a negative label."""


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count one half. Computed by rank sum in O(n log n); equal to
    exhaustive pair counting exactly, because average ranks and their
    sums are dyadic rationals that float64 represents without rounding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    new_group = np.empty(scores.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_scores[1:] != sorted_scores[:-1]
    group_of = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, scores.size))
    avg_rank = starts + (counts + 1) / 2.0  # 1-based average rank per tie group
    ranks = avg_rank[group_of]
    rank_sum_pos = ranks[labels[order] == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class PredictionStats:
    """(mean, variance, [min, max]) of a prediction set; population variance."""

    mean: float
    variance: float
    minimum: float
    maximum: float


def prediction_stats(values) -> PredictionStats:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no predictions to summarize")
    lo, hi = float(values.min()), float(values.max())
    return PredictionStats(
        mean=float(values.mean()),
        variance=0.0 if lo == hi else float(values.var()),
        minimum=lo,
        maximum=hi,
    )


def head_aucs(
    model: MatchingModel,
    instances: Sequence[ImpressionInstance] | InstanceBatch,
    mode: str = "JOINT",
    gamma: float | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float | None]]:
    """Both heads' predictions, and the AUC of each head ``mode`` trains.

    A head the mode does not train gets None. Raises UndefinedAucError
    when the instances hold a single class.
    """
    batch = model.pack(instances)
    preds = model.predict(batch, gamma=gamma)
    trained = {"retrieval": mode != "SINGLE_PRERANK", "prerank": mode != "SINGLE_RETRIEVAL"}
    aucs = {
        head: auc(scores, batch.labels) if trained[head] else None
        for head, scores in preds.items()
    }
    return preds, aucs


def _train_and_score(
    encoder_config: EncoderConfig,
    train_config,
    vocab_sizes: Mapping[str, int],
    train_instances: Sequence[ImpressionInstance],
    val_instances: Sequence[ImpressionInstance],
    test_instances: Sequence[ImpressionInstance],
) -> tuple[dict[str, np.ndarray], dict[str, float | None]]:
    """Train a model seeded by ``train_config`` and score it on the test
    set: ``head_aucs`` under the mode it trained."""
    from .training import train

    model = MatchingModel(encoder_config, vocab_sizes, seed=train_config.seed)
    result = train(model, train_instances, val_instances, train_config)
    return head_aucs(result.model, test_instances, train_config.mode)


def model_aucs(
    model: MatchingModel,
    instances: Sequence[ImpressionInstance],
    gamma: float | None = None,
) -> dict[str, float]:
    """Test AUC of both heads on a labeled instance set."""
    _, aucs = head_aucs(model, instances, gamma=gamma)
    return {"retrieval_auc": aucs["retrieval"], "prerank_auc": aucs["prerank"]}


# ----------------------------------------------------------------------
# gamma sweep


@dataclass
class GammaSweepRow:
    gamma: float
    stats: PredictionStats
    auc: float


def gamma_sweep(
    train_instances: Sequence[ImpressionInstance],
    val_instances: Sequence[ImpressionInstance],
    test_instances: Sequence[ImpressionInstance],
    vocab_sizes: Mapping[str, int],
    encoder_config: EncoderConfig,
    train_config,
    gammas: Sequence[float],
) -> list[GammaSweepRow]:
    """Train one model per gamma under identical seeds and data.

    Each row reports the retrieval-head prediction statistics and AUC on
    the test set. The training mode must train the retrieval head.
    """
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma values must be positive")
    if train_config.mode == "SINGLE_PRERANK":
        raise ValueError("a gamma sweep needs a mode that trains the retrieval head")
    rows = []
    for gamma in gammas:
        preds, aucs = _train_and_score(
            replace(encoder_config, gamma=float(gamma)),
            train_config,
            vocab_sizes,
            train_instances,
            val_instances,
            test_instances,
        )
        rows.append(
            GammaSweepRow(
                gamma=float(gamma),
                stats=prediction_stats(preds["retrieval"]),
                auc=aucs["retrieval"],
            )
        )
    return rows


def sweep_to_csv(rows: Sequence[GammaSweepRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "mean", "variance", "min", "max", "auc"])
        for r in rows:
            writer.writerow(
                [
                    repr(r.gamma),
                    repr(r.stats.mean),
                    repr(r.stats.variance),
                    repr(r.stats.minimum),
                    repr(r.stats.maximum),
                    repr(r.auc),
                ]
            )


def sweep_table(rows: Sequence[GammaSweepRow]) -> str:
    lines = ["gamma  (mean, var, [min, max]) of predictions          AUC"]
    for r in rows:
        s = r.stats
        lines.append(
            f"{r.gamma:<6g} ({s.mean:.4f}, {s.variance:.4f}, "
            f"[{s.minimum:.4f}, {s.maximum:.4f}])".ljust(52) + f" {r.auc:.4f}"
        )
    lines.append("note: variance is population variance")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# ablation suite


@dataclass
class AblationRow:
    label: str
    retrieval_auc: float | None
    prerank_auc: float | None


@dataclass
class AblationReport:
    variant_rows: list[AblationRow]
    training_rows: list[AblationRow]
    sharing_rows: list[AblationRow]
    orderings: dict[str, bool]
    footnotes: list[str]


def ablation_suite(
    train_instances: Sequence[ImpressionInstance],
    val_instances: Sequence[ImpressionInstance],
    test_instances: Sequence[ImpressionInstance],
    vocab_sizes: Mapping[str, int],
    encoder_config: EncoderConfig,
    train_config,
) -> AblationReport:
    """Train all encoder variants, joint-vs-single, and share-vs-non-share
    under one seed/data regime, and flag the directional orderings."""

    def run(label: str, cfg: EncoderConfig, mode: str = "JOINT") -> AblationRow:
        _, aucs = _train_and_score(
            cfg,
            replace(train_config, mode=mode),
            vocab_sizes,
            train_instances,
            val_instances,
            test_instances,
        )
        return AblationRow(label, aucs["retrieval"], aucs["prerank"])

    variant_rows = [run(v, replace(encoder_config, variant=v)) for v in VARIANTS]
    by_variant = {row.label: row for row in variant_rows}

    attentive = replace(encoder_config, variant="ATTENTION_GRU_RNN")
    single_r = run("single training task1", attentive, "SINGLE_RETRIEVAL")
    single_p = run("single training task2", attentive, "SINGLE_PRERANK")
    joint_row = by_variant["ATTENTION_GRU_RNN"]
    training_rows = [
        single_r,
        single_p,
        AblationRow("jointly training", joint_row.retrieval_auc, joint_row.prerank_auc),
    ]

    non_share = run("non-share", replace(attentive, share_tower=False))
    share_row = AblationRow("share", joint_row.retrieval_auc, joint_row.prerank_auc)
    sharing_rows = [share_row, non_share]

    r = {v: by_variant[v].retrieval_auc for v in VARIANTS}
    orderings = {
        "attention_over_dnn": r["ATTENTION_DNN"] > r["DNN"],
        "attention_over_gru": r["ATTENTION_GRU_RNN"] > r["GRU_RNN"],
        "rnn_over_dnn": r["GRU_RNN"] > r["DNN"],
        "joint_at_least_single_retrieval": joint_row.retrieval_auc
        >= single_r.retrieval_auc,
        "joint_at_least_single_prerank": joint_row.prerank_auc >= single_p.prerank_auc,
        "share_at_least_non_share_retrieval": share_row.retrieval_auc
        >= non_share.retrieval_auc,
        "share_at_least_non_share_prerank": share_row.prerank_auc
        >= non_share.prerank_auc,
    }
    footnotes = [
        "variance figures elsewhere in reports are population variance",
        "variant orderings are evaluated on the retrieval-task test AUC",
    ]
    return AblationReport(variant_rows, training_rows, sharing_rows, orderings, footnotes)


def _fmt_auc(x: float | None) -> str:
    return "-" if x is None else f"{x:.4f}"


def report_table(report: AblationReport) -> str:
    lines = ["model/setting                retrieval AUC  prerank AUC"]
    for section in (report.variant_rows, report.training_rows, report.sharing_rows):
        lines.append("-" * 56)
        for row in section:
            lines.append(
                f"{row.label:<28} {_fmt_auc(row.retrieval_auc):>13}  "
                f"{_fmt_auc(row.prerank_auc):>11}"
            )
    lines.append("-" * 56)
    for name, holds in report.orderings.items():
        lines.append(f"ordering {name}: {'holds' if holds else 'VIOLATED'}")
    for note in report.footnotes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def report_to_csv(report: AblationReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "label", "retrieval_auc", "prerank_auc"])
        for section_name, rows in (
            ("variant", report.variant_rows),
            ("training", report.training_rows),
            ("sharing", report.sharing_rows),
        ):
            for row in rows:
                writer.writerow(
                    [
                        section_name,
                        row.label,
                        "" if row.retrieval_auc is None else repr(row.retrieval_auc),
                        "" if row.prerank_auc is None else repr(row.prerank_auc),
                    ]
                )
        for name, holds in report.orderings.items():
            writer.writerow(["ordering", name, int(holds), ""])
