"""Optimizer behavior, training-loop reproducibility, and mode semantics."""

from dataclasses import replace

import numpy as np
import pytest

from admatch import autodiff as ad
from admatch.autodiff import ParamStore, Tape
from admatch.data import (
    DatasetSplit,
    GeneratorConfig,
    build_vocab,
    generate_synthetic,
    instance_batch,
    split_by_day,
)
from admatch.evaluation import auc
from admatch.model import EncoderConfig, MatchingModel
from admatch.training import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    train,
    write_history_csv,
)

SMALL_ENCODER = EncoderConfig(
    item_dim=8,
    shop_dim=4,
    brand_dim=4,
    term_dim=8,
    profile_dim=4,
    gru_hidden=12,
    attention_hidden=12,
    tower_dims=(24, 16),
    prerank_hidden=16,
)


def planted_instances(seed=31, users=80, days=4, per_day=6, categories=6, top_k=5000):
    records, _, _ = generate_synthetic(
        GeneratorConfig(
            seed=seed,
            n_users=users,
            days=days,
            impressions_per_user_day=per_day,
            n_categories=categories,
        )
    )
    vocab = build_vocab(records, top_k=top_k)
    split = DatasetSplit(("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04")
    train_recs, val_recs, test_recs = split_by_day(records, split)
    return (
        instance_batch(train_recs, vocab, m=6),
        instance_batch(val_recs, vocab, m=6),
        instance_batch(test_recs, vocab, m=6),
        vocab.sizes,
    )


class TestAdam:
    def test_quadratic_bowl_converges(self):
        store = ParamStore()
        store.add("x", [3.0, -2.0, 1.0])
        optimizer = Adam(store, learning_rate=0.05)
        for _ in range(500):
            store.zero_grads()
            with Tape() as tape:
                loss = ad.sum_all(ad.mul(store["x"], store["x"]))
                tape.backward(loss)
            optimizer.step()
        assert np.linalg.norm(store["x"].data) < 1e-3

    def test_zero_gradients_leave_parameters_unchanged(self):
        store = ParamStore()
        store.add("x", [1.5, -0.5])
        optimizer = Adam(store, learning_rate=0.1)
        before = store["x"].data.copy()
        store.zero_grads()
        optimizer.step()
        np.testing.assert_array_equal(store["x"].data, before)
        assert optimizer._t == 1

    def test_frozen_rows_pinned_through_steps(self):
        store = ParamStore()
        store.add("emb", np.full((4, 3), 0.5), frozen_rows=(0,))
        optimizer = Adam(store, learning_rate=0.1)
        for _ in range(100):
            store.zero_grads()
            with Tape() as tape:
                out = ad.sum_all(ad.gather_rows(store["emb"], [0, 1, 2, 3]))
                tape.backward(out)
            optimizer.step()
        np.testing.assert_array_equal(store["emb"].data[0], np.zeros(3))
        assert not np.allclose(store["emb"].data[1], 0.5)


@pytest.fixture(scope="module")
def small_sets():
    return planted_instances()


class TestTrainLoop:
    def test_one_step_reduces_single_instance_loss(self, small_sets):
        tr, _, _, sizes = small_sets
        model = MatchingModel(SMALL_ENCODER, sizes, seed=7)
        inst = tr[:1]
        before = model.joint_loss(inst).item()
        cfg = TrainConfig(batch_size=1, max_epochs=1, learning_rate=1e-3, seed=0)
        optimizer = Adam(model.params, cfg.learning_rate)
        model.params.zero_grads()
        with Tape() as tape:
            tape.backward(model.joint_loss(inst))
        optimizer.step()
        after = model.joint_loss(inst).item()
        assert after < before

    def test_bitwise_reproducibility(self, small_sets, tmp_path):
        tr, va, _, sizes = small_sets
        cfg = TrainConfig(batch_size=128, max_epochs=2, patience=5, seed=11)
        outs = []
        for run in range(2):
            model = MatchingModel(SMALL_ENCODER, sizes, seed=11)
            result = train(model, tr, va, cfg)
            path = tmp_path / f"ckpt{run}.json"
            result.model.save(path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_history_and_best_checkpoint(self, small_sets, tmp_path):
        tr, va, te, sizes = small_sets
        cfg = TrainConfig(batch_size=128, max_epochs=3, patience=10, seed=5)
        model = MatchingModel(SMALL_ENCODER, sizes, seed=5)
        result = train(model, tr, va, cfg)
        assert [s.epoch for s in result.history] == [1, 2, 3]
        assert 1 <= result.best_epoch <= 3
        best = result.history[result.best_epoch - 1]
        labels = va.labels
        preds = result.model.predict(va)
        assert auc(preds["prerank"], labels) == best.val_auc_prerank
        assert auc(preds["retrieval"], labels) == best.val_auc_retrieval
        write_history_csv(result.history, tmp_path / "history.csv")
        lines = (tmp_path / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_auc_retrieval,val_auc_prerank"
        assert len(lines) == 4

    def test_early_stopping_respects_patience(self, small_sets):
        tr, va, _, sizes = small_sets
        cfg = TrainConfig(batch_size=128, max_epochs=40, patience=2, seed=6)
        model = MatchingModel(SMALL_ENCODER, sizes, seed=6)
        result = train(model, tr[:600], va, cfg)
        assert len(result.history) < 40

    def test_divergence_aborts_with_diagnostics(self, small_sets):
        tr, va, _, sizes = small_sets
        model = MatchingModel(SMALL_ENCODER, sizes, seed=8)
        model.params["qu_proj/W"].data[0, 0] = np.nan
        cfg = TrainConfig(batch_size=64, max_epochs=1, seed=8)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(model, tr, va, cfg)

    @pytest.mark.parametrize("mode", ["JOINT", "SINGLE_RETRIEVAL", "SINGLE_PRERANK"])
    def test_single_class_validation_keeps_latest_parameters(self, small_sets, mode):
        tr, va, _, sizes = small_sets
        negatives = va[np.flatnonzero(va.labels == 0)[:64]]
        model = MatchingModel(SMALL_ENCODER, sizes, seed=12)
        cfg = TrainConfig(batch_size=128, max_epochs=2, patience=1, mode=mode, seed=12)
        result = train(model, tr[:256], negatives, cfg)
        assert [(s.val_auc_retrieval, s.val_auc_prerank) for s in result.history] == [
            (None, None),
            (None, None),
        ]
        assert result.best_epoch == 2

    def test_empty_training_set_rejected(self, small_sets):
        tr, va, _, sizes = small_sets
        model = MatchingModel(SMALL_ENCODER, sizes, seed=9)
        with pytest.raises(ValueError):
            train(model, tr[:0], va, TrainConfig())

    def test_pad_rows_zero_after_training(self, small_sets):
        tr, va, _, sizes = small_sets
        model = MatchingModel(SMALL_ENCODER, sizes, seed=10)
        train(model, tr[:512], va[:64], TrainConfig(batch_size=64, max_epochs=1, seed=10))
        for space in sizes:
            row0 = model.params[f"emb/{space}"].data[0]
            np.testing.assert_array_equal(row0, np.zeros_like(row0))


class TestModeSemantics:
    def _step_models(self, mode_a, mode_b, alpha, sizes, batches):
        """Drive two models built with ``alpha`` through identical batches."""
        models = []
        for mode in (mode_a, mode_b):
            model = MatchingModel(replace(SMALL_ENCODER, alpha=alpha), sizes, seed=12)
            optimizer = Adam(model.params, learning_rate=1e-3)
            for batch in batches:
                model.params.zero_grads()
                with Tape() as tape:
                    loss = model.loss_for_mode(batch, mode)
                    tape.backward(loss)
                optimizer.step()
            models.append(model)
        return models

    def test_alpha_one_joint_equals_single_retrieval(self, small_sets):
        tr, _, _, sizes = small_sets
        batches = [tr[i * 32 : (i + 1) * 32] for i in range(5)]
        joint, single = self._step_models("JOINT", "SINGLE_RETRIEVAL", 1.0, sizes, batches)
        for name, entry in joint.params.items():
            assert np.array_equal(entry.value.data, single.params[name].data), name

    def test_alpha_zero_joint_equals_single_prerank(self, small_sets):
        tr, _, _, sizes = small_sets
        batches = [tr[i * 32 : (i + 1) * 32] for i in range(5)]
        joint, single = self._step_models("JOINT", "SINGLE_PRERANK", 0.0, sizes, batches)
        for name, entry in joint.params.items():
            assert np.array_equal(entry.value.data, single.params[name].data), name

    def test_single_prerank_ignores_gamma(self, small_sets):
        tr, va, _, sizes = small_sets
        cfg = TrainConfig(
            batch_size=128, max_epochs=2, patience=5, seed=13, mode="SINGLE_PRERANK"
        )
        outs = []
        for gamma in (1.0, 9.0):
            model = MatchingModel(replace(SMALL_ENCODER, gamma=gamma), sizes, seed=13)
            result = train(model, tr[:512], va[:128], cfg)
            outs.append(result.model.params.arrays())
            assert all(s.val_auc_retrieval is None for s in result.history)
        assert outs[0].keys() == outs[1].keys()
        for name, array in outs[0].items():
            assert np.array_equal(array, outs[1][name]), name

    def test_joint_training_follows_the_model_gamma(self, small_sets):
        tr, va, _, sizes = small_sets
        cfg = TrainConfig(batch_size=128, max_epochs=1, patience=5, seed=14)
        outs = []
        for gamma in (1.0, 9.0):
            model = MatchingModel(replace(SMALL_ENCODER, gamma=gamma), sizes, seed=14)
            outs.append(train(model, tr[:512], va[:128], cfg).model.params.arrays())
        assert any(not np.array_equal(array, outs[1][name]) for name, array in outs[0].items())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="BOTH")


class TestPlantedSignal:
    def test_joint_training_beats_chance_within_five_epochs(self):
        tr, va, te, sizes = planted_instances(seed=41, users=400, per_day=12)
        model = MatchingModel(EncoderConfig(), sizes, seed=41)
        cfg = TrainConfig(batch_size=128, max_epochs=5, patience=5, seed=41)
        result = train(model, tr, va, cfg)
        assert max(s.val_auc_prerank for s in result.history) > 0.55
        assert max(s.val_auc_retrieval for s in result.history) > 0.55

    def test_single_category_control_has_no_signal(self):
        tr, va, te, sizes = planted_instances(
            seed=42, users=60, per_day=8, categories=1
        )
        model = MatchingModel(SMALL_ENCODER, sizes, seed=42)
        cfg = TrainConfig(batch_size=128, max_epochs=3, patience=5, seed=42)
        result = train(model, tr, va, cfg)
        labels = te.labels
        preds = result.model.predict(te)
        score = auc(preds["retrieval"], labels)
        assert abs(score - 0.5) < 0.06
