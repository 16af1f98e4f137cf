"""Mini-batch training loop with Adam, checkpointing, and early stopping.

Training is bitwise reproducible: batch order is a seeded shuffle, one
optimizer step runs per batch, and the best-validation checkpoint is
restored at the end. Reserved pad embedding rows are pinned to zero
through every step. The instances are packed into one columnar batch
once per call; each step slices its mini-batch out of the packed store.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import ParamStore, Tape
from .model import InstanceBatch, MatchingModel

MODES = ("JOINT", "SINGLE_RETRIEVAL", "SINGLE_PRERANK")

# Adam's moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


@dataclass
class TrainConfig:
    """Optimization knobs. The loss blend alpha and the retrieval
    sharpness gamma are the model's: ``EncoderConfig`` holds them."""

    batch_size: int = 128
    mode: str = "JOINT"
    learning_rate: float = 3e-3
    max_epochs: int = 10
    patience: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class Adam:
    """Adam with bias correction over a ParamStore.

    Gradients of frozen rows are zeroed before the update and the rows
    themselves re-zeroed after it, so pad embeddings never move and
    their moments never accumulate.
    """

    def __init__(self, store: ParamStore, learning_rate: float) -> None:
        self._store = store
        self._lr = learning_rate
        self._t = 0
        self._moments = {
            name: (np.zeros_like(e.value.data), np.zeros_like(e.value.data))
            for name, e in store.items()
        }

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - ADAM_BETA1**self._t
        bc2 = 1.0 - ADAM_BETA2**self._t
        for name, (m, v) in self._moments.items():
            entry = self._store.entry(name)
            g = entry.value.grad
            for r in entry.frozen_rows:
                g[r] = 0.0
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
            entry.value.data -= self._lr * update
            for r in entry.frozen_rows:
                entry.value.data[r] = 0.0


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc_retrieval: float | None
    val_auc_prerank: float | None


@dataclass
class TrainResult:
    model: MatchingModel
    history: list[EpochStats]
    best_epoch: int


def _selection_key(stats: EpochStats, mode: str):
    """Early-stopping criterion: pre-rank AUC first in JOINT mode, the
    retrieval AUC as tie-break; single modes watch their own task."""
    if mode == "JOINT":
        return (stats.val_auc_prerank, stats.val_auc_retrieval)
    if mode == "SINGLE_RETRIEVAL":
        return (stats.val_auc_retrieval,)
    return (stats.val_auc_prerank,)


def _validation_aucs(
    model: MatchingModel, batch: InstanceBatch, mode: str
) -> tuple[float | None, float | None]:
    from .evaluation import UndefinedAucError, head_aucs  # local: evaluation imports us

    try:
        _, aucs = head_aucs(model, batch, mode)
    except UndefinedAucError:
        # an empty or single-class validation set: no signal for either head
        return None, None
    return aucs["retrieval"], aucs["prerank"]


def train(
    model: MatchingModel,
    train_instances: InstanceBatch | Sequence[InstanceBatch],
    val_instances: InstanceBatch | Sequence[InstanceBatch],
    config: TrainConfig,
) -> TrainResult:
    """Run seeded mini-batch training and restore the best checkpoint.

    The loss and the validation AUCs use the model config's alpha and
    gamma. Raises TrainingDivergedError with batch diagnostics if the loss
    becomes non-finite.
    """
    if not train_instances:
        raise ValueError("empty training set")
    store = model.pack(train_instances)
    val_batch = model.pack(val_instances)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, config.learning_rate)
    history: list[EpochStats] = []
    best_key = None
    best_epoch = 0
    best_arrays = model.params.arrays()
    stale = 0
    n = len(store)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            batch = store[order[lo : lo + config.batch_size]]
            model.params.zero_grads()
            with Tape() as tape:
                loss = model.loss_for_mode(batch, config.mode)
                value = loss.item()
                if not np.isfinite(value):
                    positives = int(batch.labels.sum())
                    raise TrainingDivergedError(
                        f"non-finite loss {value!r} at epoch {epoch}, batch "
                        f"offset {lo} (size {len(batch)}, positives {positives})"
                    )
                tape.backward(loss)
            optimizer.step()
            batch_losses.append(value)
        auc_r, auc_p = _validation_aucs(model, val_batch, config.mode)
        stats = EpochStats(epoch, float(np.mean(batch_losses)), auc_r, auc_p)
        history.append(stats)
        key = _selection_key(stats, config.mode)
        if key[0] is None:
            # no validation signal: keep the latest parameters
            best_arrays = model.params.arrays()
            best_epoch = epoch
            continue
        if best_key is None or key > best_key:
            best_key = key
            best_arrays = model.params.arrays()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.params.load_arrays(best_arrays)
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def write_history_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_auc_retrieval", "val_auc_prerank"])
        for s in history:
            writer.writerow(
                [
                    s.epoch,
                    repr(s.train_loss),
                    "" if s.val_auc_retrieval is None else repr(s.val_auc_retrieval),
                    "" if s.val_auc_prerank is None else repr(s.val_auc_prerank),
                ]
            )
