"""AUC/stat primitives and the sweep/ablation harnesses."""

import numpy as np
import pytest

from admatch.data import DatasetSplit, GeneratorConfig, build_vocab, generate_synthetic, instance_batch, split_by_day
from admatch.evaluation import (
    GammaSweepRow,
    PredictionStats,
    UndefinedAucError,
    ablation_suite,
    auc,
    gamma_sweep,
    prediction_stats,
    report_table,
    report_to_csv,
    sweep_table,
    sweep_to_csv,
)
from admatch.model import EncoderConfig, MatchingModel
from admatch.training import TrainConfig, train


def auc_pair_counting_oracle(scores, labels) -> float:
    """Exhaustive O(n^2) pair counting; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_half_of_pairs_correct(self):
        # positives {0.9, 0.3}, negative {0.8}: one of two pairs correct
        assert auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_all_scores_equal(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAucError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedAucError):
            auc([0.1, 0.2], [0, 0])

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 2])

    def test_matches_pair_counting_oracle_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.random(size=n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # plant ties
            assert auc(scores, labels) == auc_pair_counting_oracle(scores, labels)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(100)
        scores = rng.random(size=150)
        labels = rng.integers(0, 2, size=150)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(2.0 * scores + 1.0, labels) == base
        assert auc(np.exp(scores), labels) == base


class TestPredictionStats:
    def test_hand_computed_example(self):
        s = prediction_stats([0.1, 0.2, 0.3])
        assert s.mean == pytest.approx(0.2, abs=1e-15)
        assert s.variance == pytest.approx(0.006666666666666665, abs=1e-15)
        assert s.minimum == pytest.approx(0.1)
        assert s.maximum == pytest.approx(0.3)

    def test_constant_vector_zero_variance(self):
        s = prediction_stats([0.7, 0.7, 0.7])
        assert s.variance == 0.0

    def test_min_mean_max_ordering(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            s = prediction_stats(rng.random(size=int(rng.integers(1, 60))))
            assert s.minimum <= s.mean <= s.maximum

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prediction_stats([])

    def test_tuple_shape(self):
        s = prediction_stats([1.0])
        assert (s.mean, s.variance, s.minimum, s.maximum) == (1.0, 0.0, 1.0, 1.0)


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


@pytest.fixture(scope="module")
def small_data():
    records, _, _ = generate_synthetic(
        GeneratorConfig(seed=21, n_users=80, days=4, impressions_per_user_day=6,
                        n_categories=6)
    )
    vocab = build_vocab(records, top_k=5000)
    split = DatasetSplit(("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04")
    train_recs, val_recs, test_recs = split_by_day(records, split)
    return (
        instance_batch(train_recs, vocab, m=6),
        instance_batch(val_recs, vocab, m=6),
        instance_batch(test_recs, vocab, m=6),
        vocab.sizes,
    )


class TestGammaSweep:
    def test_single_gamma_matches_standalone_run(self, small_data):
        tr, va, te, sizes = small_data
        tcfg = TrainConfig(batch_size=128, max_epochs=2, patience=5, seed=3)
        rows = gamma_sweep(tr, va, te, sizes, SMALL_ENCODER, tcfg, [6.0])
        assert len(rows) == 1

        from dataclasses import replace

        model = MatchingModel(replace(SMALL_ENCODER, gamma=6.0), sizes, seed=3)
        result = train(model, tr, va, tcfg)
        preds = result.model.predict(te, gamma=6.0)["retrieval"]
        labels = te.labels
        assert rows[0].auc == auc(preds, labels)
        assert rows[0].stats == prediction_stats(preds)

    def test_row_count_matches_gamma_list(self, small_data):
        tr, va, te, sizes = small_data
        tcfg = TrainConfig(batch_size=256, max_epochs=1, patience=5, seed=3)
        rows = gamma_sweep(tr, va, te, sizes, SMALL_ENCODER, tcfg, [1.0, 6.0])
        assert [r.gamma for r in rows] == [1.0, 6.0]

    def test_rejects_nonpositive_gamma(self, small_data):
        tr, va, te, sizes = small_data
        with pytest.raises(ValueError):
            gamma_sweep(tr, va, te, sizes, SMALL_ENCODER, TrainConfig(), [0.0])

    def test_rejects_mode_without_retrieval_head(self, small_data):
        tr, va, te, sizes = small_data
        tcfg = TrainConfig(mode="SINGLE_PRERANK")
        with pytest.raises(ValueError, match="retrieval head"):
            gamma_sweep(tr, va, te, sizes, SMALL_ENCODER, tcfg, [1.0, 6.0])

    def test_csv_and_table_output(self, tmp_path):
        rows = [
            GammaSweepRow(6.0, PredictionStats(0.1, 0.01, 0.0, 0.4), 0.66),
            GammaSweepRow(1.0, PredictionStats(0.3, 0.0, 0.29, 0.31), 0.5),
        ]
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        text = path.read_text()
        assert text.count("\n") == 3
        assert "0.66" in text
        table = sweep_table(rows)
        assert "population variance" in table


class TestAblation:
    def test_report_structure_and_determinism(self, small_data, tmp_path):
        tr, va, te, sizes = small_data
        tcfg = TrainConfig(batch_size=256, max_epochs=1, patience=5, seed=4)
        report = ablation_suite(tr[:800], va, te, sizes, SMALL_ENCODER, tcfg)
        assert len(report.variant_rows) == 5
        assert {r.label for r in report.variant_rows} == {
            "DNN",
            "GRU_RNN",
            "ATTENTION_DNN",
            "ATTENTION_GRU_RNN",
            "CONCATENATE_DNN",
        }
        assert [r.label for r in report.training_rows] == [
            "single training task1",
            "single training task2",
            "jointly training",
        ]
        assert report.training_rows[0].prerank_auc is None
        assert report.training_rows[1].retrieval_auc is None
        assert [r.label for r in report.sharing_rows] == ["share", "non-share"]
        assert set(report.orderings) == {
            "attention_over_dnn",
            "attention_over_gru",
            "rnn_over_dnn",
            "joint_at_least_single_retrieval",
            "joint_at_least_single_prerank",
            "share_at_least_non_share_retrieval",
            "share_at_least_non_share_prerank",
        }

        again = ablation_suite(tr[:800], va, te, sizes, SMALL_ENCODER, tcfg)
        assert again == report

        report_to_csv(report, tmp_path / "ablation.csv")
        body = (tmp_path / "ablation.csv").read_text()
        assert "ATTENTION_GRU_RNN" in body
        table = report_table(report)
        assert "ordering" in table and "note:" in table
