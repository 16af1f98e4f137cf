"""Model semantics: embeddings, encoders, heads, losses, checkpointing."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from admatch import artifact, autodiff as ad
from admatch import model as model_module
from admatch.artifact import ArtifactError
from admatch.autodiff import Tape, Tensor, grad_check
from admatch.model import (
    PAD_BEHAVIOR,
    VARIANTS,
    AdItem,
    BehaviorItem,
    EncoderConfig,
    ImpressionInstance,
    MatchingModel,
    QueryRequest,
    PrerankScorer,
    VocabularyError,
)

VOCAB = {"item_id": 7, "shop_id": 5, "brand_id": 5, "term_id": 9, "profile_id": 4}


def tiny_config(**overrides) -> EncoderConfig:
    base = dict(
        variant="ATTENTION_GRU_RNN",
        behavior_window=3,
        item_dim=4,
        shop_dim=3,
        brand_dim=3,
        term_dim=4,
        profile_dim=3,
        gru_hidden=5,
        attention_hidden=6,
        tower_dims=(7, 8),
        prerank_hidden=6,
        share_tower=True,
        activation="tanh",
        gamma=6.0,
        alpha=0.5,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def make_request(rng, m=3) -> QueryRequest:
    def behavior():
        return BehaviorItem(
            item_id=int(rng.integers(1, VOCAB["item_id"])),
            shop_id=int(rng.integers(1, VOCAB["shop_id"])),
            brand_id=int(rng.integers(1, VOCAB["brand_id"])),
            title_term_ids=tuple(
                int(t) for t in rng.integers(1, VOCAB["term_id"], size=2)
            ),
            query_term_ids=(int(rng.integers(1, VOCAB["term_id"])),),
        )

    n_real = int(rng.integers(1, m + 1))
    behaviors = (PAD_BEHAVIOR,) * (m - n_real) + tuple(
        behavior() for _ in range(n_real)
    )
    return QueryRequest(
        query_term_ids=tuple(
            int(t) for t in rng.integers(1, VOCAB["term_id"], size=2)
        ),
        profile_ids=(int(rng.integers(1, VOCAB["profile_id"])),),
        behaviors=behaviors,
    )


def make_ad(rng) -> AdItem:
    return AdItem(
        item_id=int(rng.integers(1, VOCAB["item_id"])),
        shop_id=int(rng.integers(1, VOCAB["shop_id"])),
        brand_id=int(rng.integers(1, VOCAB["brand_id"])),
        title_term_ids=tuple(
            int(t) for t in rng.integers(1, VOCAB["term_id"], size=2)
        ),
    )


def make_batch(rng, n, m=3):
    return [
        ImpressionInstance(make_request(rng, m), make_ad(rng), int(rng.integers(0, 2)))
        for _ in range(n)
    ]


def embed_item(model, item):
    """One item's embedding row through the towers' packing and embedding
    path; a behavior fills every slot of a request's window."""
    if isinstance(item, BehaviorItem):
        req = QueryRequest((), (), (item,) * model.config.behavior_window)
        return model._embed_behaviors(model._pack_requests([req])).data[-1]
    return model._embed_ads(model._pack_ads([item])).data[0]


def encode_behaviors(model, requests):
    """Behavior encodings h, one row per request, packed and encoded as
    the query tower does it."""
    req = model._pack_requests(requests)
    return model._encode_behaviors(req, model._query_embedding(req))


class TestEmbedItem:
    def test_title_terms_summed(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=1)
        table = model.params["emb/term_id"].data
        item = AdItem(item_id=1, shop_id=1, brand_id=1, title_term_ids=(2, 5))
        out = embed_item(model, item)
        title_slot = out[4 + 3 + 3 : 4 + 3 + 3 + 4]
        np.testing.assert_allclose(title_slot, table[2] + table[5], atol=0)

    def test_all_pad_behavior_is_zero(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=1)
        out = embed_item(model, PAD_BEHAVIOR)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_random_item_matches_row_sum_oracle(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=2)
        rng = np.random.default_rng(0)
        item = BehaviorItem(3, 2, 4, (1, 1, 6), (7, 2))
        p = model.params
        expected = np.concatenate(
            [
                p["emb/item_id"].data[3],
                p["emb/shop_id"].data[2],
                p["emb/brand_id"].data[4],
                p["emb/term_id"].data[1]
                + p["emb/term_id"].data[1]
                + p["emb/term_id"].data[6],
                p["emb/term_id"].data[7] + p["emb/term_id"].data[2],
            ]
        )
        np.testing.assert_allclose(embed_item(model, item), expected, atol=0)

    def test_out_of_range_id_names_space(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=1)
        bad = AdItem(item_id=99, shop_id=1, brand_id=1, title_term_ids=())
        with pytest.raises(VocabularyError, match="item_id"):
            embed_item(model, bad)

    def test_pad_rows_zero_after_init(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=3)
        for space in VOCAB:
            row0 = model.params[f"emb/{space}"].data[0]
            np.testing.assert_array_equal(row0, np.zeros_like(row0))


def gru_oracle(p, xs, hidden):
    """Hand-unrolled GRU over numpy vectors, independent of the tape ops."""
    h = np.zeros(hidden)
    states = []
    for x in xs:
        z = 1.0 / (1.0 + np.exp(-(x @ p["gru/Wz"] + h @ p["gru/Uz"] + p["gru/bz"])))
        r = 1.0 / (1.0 + np.exp(-(x @ p["gru/Wr"] + h @ p["gru/Ur"] + p["gru/br"])))
        n = np.tanh(x @ p["gru/Wn"] + (r * h) @ p["gru/Un"] + p["gru/bn"])
        h = (1.0 - z) * h + z * n
        states.append(h)
    return states


def embed_oracle(p, b):
    term = p["emb/term_id"]
    title = sum((term[t] for t in b.title_term_ids), np.zeros(term.shape[1]))
    query = sum((term[t] for t in b.query_term_ids), np.zeros(term.shape[1]))
    return np.concatenate(
        [
            p["emb/item_id"][b.item_id],
            p["emb/shop_id"][b.shop_id],
            p["emb/brand_id"][b.brand_id],
            title,
            query,
        ]
    )


class TestEncoders:
    def test_dnn_is_mean_of_item_embeddings(self):
        model = MatchingModel(tiny_config(variant="DNN"), VOCAB, seed=4)
        rng = np.random.default_rng(5)
        req = make_request(rng)
        h = encode_behaviors(model, [req]).data[0]
        embeds = [embed_item(model, b) for b in req.behaviors]
        np.testing.assert_allclose(h, np.mean(embeds, axis=0), atol=1e-12)

    @pytest.mark.parametrize("variant", ["DNN", "ATTENTION_DNN"])
    def test_identical_behaviors_reduce_to_single_encoding(self, variant):
        model = MatchingModel(tiny_config(variant=variant), VOCAB, seed=6)
        b = BehaviorItem(2, 1, 3, (4, 5), (1,))
        req = QueryRequest((2, 3), (1,), (b, b, b))
        h = encode_behaviors(model, [req]).data[0]
        np.testing.assert_allclose(h, embed_item(model, b), atol=1e-12)

    def test_gru_matches_hand_unrolled_oracle(self):
        cfg = tiny_config(variant="GRU_RNN", behavior_window=2)
        model = MatchingModel(cfg, VOCAB, seed=7)
        rng = np.random.default_rng(8)
        req = make_request(rng, m=2)
        arrays = {name: e.value.data for name, e in model.params.items()}
        xs = [embed_oracle(arrays, b) for b in req.behaviors]
        expected = gru_oracle(arrays, xs, cfg.gru_hidden)[-1]
        got = encode_behaviors(model, [req]).data[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_attentive_gru_matches_hand_unrolled_oracle(self):
        cfg = tiny_config(variant="ATTENTION_GRU_RNN", behavior_window=2)
        model = MatchingModel(cfg, VOCAB, seed=9)
        rng = np.random.default_rng(10)
        req = make_request(rng, m=2)
        p = {name: e.value.data for name, e in model.params.items()}
        xs = [embed_oracle(p, b) for b in req.behaviors]
        states = gru_oracle(p, xs, cfg.gru_hidden)
        term = p["emb/term_id"]
        q_emb = sum((term[t] for t in req.query_term_ids), np.zeros(term.shape[1]))
        logits = []
        for s in states:
            hid = np.tanh(np.concatenate([s, q_emb]) @ p["attn/W1"] + p["attn/b1"])
            logits.append(float((hid @ p["attn/W2"])[0]))
        logits = np.array(logits)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        expected = w[0] * states[0] + w[1] * states[1]
        got = encode_behaviors(model, [req]).data[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_concatenate_dnn_shape_and_determinism(self):
        cfg = tiny_config(variant="CONCATENATE_DNN")
        model = MatchingModel(cfg, VOCAB, seed=11)
        rng = np.random.default_rng(12)
        req = make_request(rng)
        h1 = encode_behaviors(model, [req]).data
        h2 = encode_behaviors(model, [req]).data
        assert h1.shape == (1, cfg.gru_hidden)
        np.testing.assert_array_equal(h1, h2)

    def test_batched_encoding_matches_single_rows(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=13)
        rng = np.random.default_rng(14)
        reqs = [make_request(rng) for _ in range(4)]
        batched = encode_behaviors(model, reqs).data
        for i, r in enumerate(reqs):
            single = encode_behaviors(model, [r]).data[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_wrong_window_length_rejected(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=13)
        req = QueryRequest((1,), (), (PAD_BEHAVIOR,))
        with pytest.raises(ValueError, match="behavior slots"):
            encode_behaviors(model, [req])


class TestAttention:
    # states are stacked time-major, [m*B x s]; weights come back [m x B]

    def test_identical_states_give_uniform_weights(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=15)
        state = np.tile([[0.3, -0.2, 0.1, 0.4, 0.0]], (2, 1))
        q = Tensor(np.ones((2, 4)) * 0.2)
        w = model.attention_weights(Tensor(np.concatenate([state] * 3)), q).data
        np.testing.assert_allclose(w, np.full((3, 2), 1 / 3), atol=1e-12)

    def test_weights_sum_to_one_and_nonnegative(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=16)
        rng = np.random.default_rng(17)
        states = Tensor(np.concatenate([rng.normal(size=(5, 5)) for _ in range(3)]))
        q = Tensor(rng.normal(size=(5, 4)))
        w = model.attention_weights(states, q).data
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert (w >= 0).all()

    def test_attentive_output_is_convex_combination(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=18)
        rng = np.random.default_rng(19)
        reqs = model._pack_requests([make_request(rng) for _ in range(3)])
        q = model._query_embedding(reqs)
        states = model._gru_states(model._embed_behaviors(reqs), len(reqs))
        h = model._attentive_sum(ad.concat(states, axis=0), q).data
        stacked = np.stack([s.data for s in states])
        assert (h >= stacked.min(axis=0) - 1e-12).all()
        assert (h <= stacked.max(axis=0) + 1e-12).all()


class TestTowers:
    def test_qu_forward_deterministic_and_d_dimensional(self):
        cfg = tiny_config()
        model = MatchingModel(cfg, VOCAB, seed=20)
        rng = np.random.default_rng(21)
        req = make_request(rng)
        v1 = model.qu_forward([req]).data
        v2 = model.qu_forward([req]).data
        assert v1.shape == (1, cfg.d)
        np.testing.assert_array_equal(v1, v2)

    def test_ad_forward_d_dimensional(self):
        cfg = tiny_config()
        model = MatchingModel(cfg, VOCAB, seed=22)
        rng = np.random.default_rng(23)
        assert model.ad_forward([make_ad(rng)]).data.shape == (1, cfg.d)

    def test_share_tower_uses_same_tensors(self):
        model = MatchingModel(tiny_config(share_tower=True), VOCAB, seed=24)
        qu_names = model.tower_param_names("qu")
        ad_names = model.tower_param_names("ad")
        assert qu_names == ad_names
        assert model.params[qu_names[0]] is model.params[ad_names[0]]

    def test_non_share_towers_are_independent(self):
        model = MatchingModel(tiny_config(share_tower=False), VOCAB, seed=24)
        qu_w = model.params[model.tower_param_names("qu")[0]]
        ad_w = model.params[model.tower_param_names("ad")[0]]
        assert qu_w is not ad_w
        assert not np.array_equal(qu_w.data, ad_w.data)

    def test_zero_final_tower_scores_half(self):
        model = MatchingModel(tiny_config(activation="relu"), VOCAB, seed=25)
        model.params["tower2/W"].data[...] = 0.0
        model.params["tower2/b"].data[...] = -1.0  # relu kills everything
        rng = np.random.default_rng(26)
        inst = make_batch(rng, 1)[0]
        v_qu = model.qu_forward([inst.request])
        v_a = model.ad_forward([inst.ad])
        assert not v_qu.data.any() and not v_a.data.any()
        assert model.retrieval_prob(v_qu, v_a).data[0] == 0.5


class TestRetrievalHead:
    def test_cosine_zero_gives_half_exactly(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=27)
        u = Tensor(np.array([[1.0] + [0.0] * 7]))
        v = Tensor(np.array([[0.0, 1.0] + [0.0] * 6]))
        for gamma in (1.0, 3.0, 6.0, 9.0):
            assert model.retrieval_prob(u, v, gamma).data[0] == 0.5

    def test_cosine_one_gamma_six(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=27)
        u = Tensor(np.array([[0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
        p = model.retrieval_prob(u, u, 6.0).data[0]
        assert p == pytest.approx(0.9975273768433653, abs=1e-7)

    def test_sigmoid_symmetry_at_opposite_cosine(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=27)
        u = Tensor(np.array([[1.0] + [0.0] * 7]))
        v = Tensor(np.array([[-1.0] + [0.0] * 7]))
        p = model.retrieval_prob(u, v, 6.0).data[0]
        assert p == pytest.approx(1.0 - 0.9975273768433653, abs=1e-7)

    def test_strictly_increasing_in_cosine(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=27)
        angles = np.linspace(0.0, np.pi, 25)
        base = np.zeros((25, 8))
        base[:, 0] = 1.0
        rotated = np.zeros((25, 8))
        rotated[:, 0] = np.cos(angles)
        rotated[:, 1] = np.sin(angles)
        for gamma in (0.5, 6.0):
            p = model.retrieval_prob(Tensor(base), Tensor(rotated), gamma).data
            assert (np.diff(p) < 0).all()  # cosine decreases along angles

    def test_invalid_gamma(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=27)
        u = Tensor(np.ones((1, 8)))
        with pytest.raises(ValueError):
            model.retrieval_prob(u, u, 0.0)


def bce_oracle(probs, labels):
    """Scalar-loop binary cross-entropy with the same clipping rule."""
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
    return total / len(probs)


class TestLosses:
    def _towers(self, seed, n):
        model = MatchingModel(tiny_config(), VOCAB, seed=seed)
        rng = np.random.default_rng(seed + 1)
        batch = make_batch(rng, n)
        v_qu, v_a, labels = model.towers_forward(batch)
        return model, batch, v_qu, v_a, labels

    def test_half_probability_positive_is_ln2(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=28)
        u = Tensor(np.array([[1.0] + [0.0] * 7]))
        v = Tensor(np.array([[0.0, 1.0] + [0.0] * 6]))
        loss = model.retrieval_loss(u, v, [1.0]).item()
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_batch_loss_near_zero(self):
        model = MatchingModel(tiny_config(gamma=1000.0), VOCAB, seed=28)
        u = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]] @ np.eye(2, 8)))
        v = Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]] @ np.eye(2, 8)))
        loss = model.retrieval_loss(u, v, [1.0, 0.0]).item()
        assert loss < 1e-6

    def test_retrieval_loss_matches_scalar_oracle(self):
        model, batch, v_qu, v_a, labels = self._towers(29, 8)
        got = model.retrieval_loss(v_qu, v_a, labels).item()
        probs = model.retrieval_prob(v_qu, v_a).data
        assert got == pytest.approx(bce_oracle(probs, labels), abs=1e-12)

    def test_prerank_loss_matches_scalar_oracle(self):
        model, batch, v_qu, v_a, labels = self._towers(30, 8)
        got = model.prerank_loss(v_qu, v_a, labels).item()
        probs = model.prerank_prob(v_qu, v_a).data
        assert got == pytest.approx(bce_oracle(probs, labels), abs=1e-12)

    def test_joint_blend_identities(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=31)
        rng = np.random.default_rng(32)
        batch = make_batch(rng, 6)
        v_qu, v_a, labels = model.towers_forward(batch)
        c_v = model.retrieval_loss(v_qu, v_a, labels).item()
        c_r = model.prerank_loss(v_qu, v_a, labels).item()

        def joint(alpha):
            # alpha does not enter initialization: same seed, same towers
            blended = MatchingModel(tiny_config(alpha=alpha), VOCAB, seed=31)
            return blended.joint_loss(batch).item()

        assert joint(1.0) == c_v
        assert joint(0.0) == c_r
        assert joint(0.5) == pytest.approx(0.5 * c_v + 0.5 * c_r, abs=1e-12)

    def test_bad_labels_rejected(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=31)
        u = Tensor(np.ones((1, 8)))
        with pytest.raises(ValueError):
            model.retrieval_loss(u, u, [0.5])
        with pytest.raises(ValueError):
            model.retrieval_loss(u, u, [])


class TestPrerankHead:
    def test_zero_logit_layer_gives_sigmoid_of_bias(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=33)
        model.params["prerank/W2"].data[...] = 0.0
        model.params["prerank/b2"].data[...] = 0.7
        rng = np.random.default_rng(34)
        batch = make_batch(rng, 3)
        v_qu, v_a, _ = model.towers_forward(batch)
        p = model.prerank_prob(v_qu, v_a).data
        np.testing.assert_allclose(p, 1.0 / (1.0 + math.exp(-0.7)), atol=1e-12)

    def test_split_path_matches_direct_probability(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=35)
        rng = np.random.default_rng(36)
        batch = make_batch(rng, 16)
        v_qu, v_a, _ = model.towers_forward(batch)
        direct = model.prerank_prob(v_qu, v_a).data
        scorer = PrerankScorer(model)
        split = np.array([
            scorer.score_from_parts(scorer.q_part(q), scorer.a_part(a)[None, :])[0]
            for q, a in zip(v_qu.data, v_a.data)
        ])
        np.testing.assert_allclose(split, direct, atol=1e-9)


class TestScoresDoNotDependOnTheOtherRows:
    """A candidate's pre-rank score depends only on its ad part and its query
    part: a subset of rows, or many requests scored in one call, gives each
    row the bits of its own request's full call. Weights and parts are
    non-dyadic, so a kernel that rounds by position shows."""

    @staticmethod
    def scorer(width, seed):
        model = MatchingModel(tiny_config(prerank_hidden=width), VOCAB, seed=seed)
        rng = np.random.default_rng(seed)
        for name in ("prerank/W1", "prerank/b1", "prerank/W2"):
            data = model.params[name].data
            data[...] = rng.normal(size=data.shape) / math.sqrt(width)
        return PrerankScorer(model), rng

    # einsum buffers 8,192 elements: 64 divides that, while at 100 rows
    # straddle two buffers; 600 rows fill several either way
    @pytest.mark.parametrize("width", [64, 100])
    def test_a_subset_of_rows_keeps_the_full_calls_bits(self, width):
        scorer, rng = self.scorer(width, 81)
        q_part = scorer.q_part(rng.normal(size=8))
        a_parts = rng.normal(size=(600, width))
        full = scorer.score_from_parts(q_part, a_parts)
        # sizes that leave each remainder of a 2-, 4- or 8-row kernel block
        for size in (1, 2, 3, 5, 6, 7, 257, 598, 599):
            subset = np.sort(rng.permutation(600)[:size])
            subset_scores = scorer.score_from_parts(q_part, a_parts[subset])
            assert subset_scores.tobytes() == full[subset].tobytes()

    @pytest.mark.parametrize("width", [64, 100])
    def test_forty_requests_in_one_call_keep_their_own_bits(self, width):
        scorer, rng = self.scorer(width, 82)
        q_parts = np.stack([scorer.q_part(v) for v in rng.normal(size=(40, 8))])
        sizes = rng.integers(1, 900, size=40)
        a_parts = rng.normal(size=(int(sizes.sum()), width))
        one_by_one = np.concatenate([
            scorer.score_from_parts(q, a)
            for q, a in zip(q_parts, np.split(a_parts, np.cumsum(sizes)[:-1]))
        ])
        together = scorer.score_from_parts(np.repeat(q_parts, sizes, axis=0), a_parts)
        assert together.tobytes() == one_by_one.tobytes()


class TestPrerankSplit:
    def test_recombination_identity_d8(self):
        model = MatchingModel(tiny_config(prerank_hidden=5), VOCAB, seed=37)
        rng = np.random.default_rng(37)
        for _ in range(20):
            v_qu = rng.normal(size=8)
            v_a = rng.normal(size=8)
            w = rng.normal(size=(16, 5))
            b = rng.normal(size=5)
            model.params["prerank/W1"].data[...] = w
            model.params["prerank/b1"].data[...] = b
            scorer = PrerankScorer(model)
            recombined = scorer.q_part(v_qu) + scorer.a_part(v_a)
            direct = np.concatenate([v_qu, v_a]) @ w + b
            np.testing.assert_allclose(recombined, direct, atol=1e-9)


class TestSharedEmbeddings:
    def test_gradients_from_both_towers_hit_one_term_table(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=39)
        req = QueryRequest(
            query_term_ids=(1,),
            profile_ids=(),
            behaviors=(
                PAD_BEHAVIOR,
                PAD_BEHAVIOR,
                BehaviorItem(1, 1, 1, title_term_ids=(6,), query_term_ids=()),
            ),
        )
        ad_item = AdItem(2, 2, 2, title_term_ids=(5,))
        batch = [ImpressionInstance(req, ad_item, 1)]
        model.params.zero_grads()
        with Tape() as tape:
            tape.backward(model.joint_loss(batch))
        grad = model.params["emb/term_id"].grad
        assert np.abs(grad[5]).sum() > 0  # reached via the ad tower
        assert np.abs(grad[6]).sum() > 0  # reached via behavior titles
        np.testing.assert_array_equal(grad[0], np.zeros_like(grad[0]))


def boost_embeddings(model, factor=4.0):
    """Lift embedding tables off the tiny init scale so the gradients of
    deep paths stay resolvable by central differences. Pad rows stay zero."""
    for name, entry in model.params.items():
        if name.startswith("emb/"):
            entry.value.data *= factor
            for r in entry.frozen_rows:
                entry.value.data[r] = 0.0


@pytest.mark.parametrize("share", [True, False])
def test_joint_loss_grad_check_attentive_gru(share):
    cfg = tiny_config(share_tower=share)
    model = MatchingModel(cfg, VOCAB, seed=40)
    boost_embeddings(model)
    rng = np.random.default_rng(41)
    batch = make_batch(rng, 4)
    err = grad_check(lambda s: model.joint_loss(batch), model.params, epsilon=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize(
    "variant", [v for v in VARIANTS if v != "ATTENTION_GRU_RNN"]
)
def test_joint_loss_grad_check_other_variants(variant):
    model = MatchingModel(tiny_config(variant=variant), VOCAB, seed=46)
    boost_embeddings(model)
    rng = np.random.default_rng(47)
    batch = make_batch(rng, 4)
    err = grad_check(lambda s: model.joint_loss(batch), model.params, epsilon=1e-5)
    assert err < 1e-4


def _with_request(inst, **changes):
    request = dataclasses.replace(inst.request, **changes)
    return dataclasses.replace(inst, request=request)


def _with_behavior(inst, **changes):
    behaviors = list(inst.request.behaviors)
    behaviors[-1] = dataclasses.replace(behaviors[-1], **changes)
    return _with_request(inst, behaviors=tuple(behaviors))


def _with_ad(inst, **changes):
    return dataclasses.replace(inst, ad=dataclasses.replace(inst.ad, **changes))


# (space the bad id belongs to, instance edit putting it in one column)
BAD_ID_COLUMNS = {
    "query_term_ids": ("term_id", lambda i, b: _with_request(i, query_term_ids=(1, b))),
    "profile_ids": ("profile_id", lambda i, b: _with_request(i, profile_ids=(b,))),
    "behavior item_id": ("item_id", lambda i, b: _with_behavior(i, item_id=b)),
    "behavior shop_id": ("shop_id", lambda i, b: _with_behavior(i, shop_id=b)),
    "behavior brand_id": ("brand_id", lambda i, b: _with_behavior(i, brand_id=b)),
    "behavior title_term_ids": (
        "term_id", lambda i, b: _with_behavior(i, title_term_ids=(b,))
    ),
    "behavior query_term_ids": (
        "term_id", lambda i, b: _with_behavior(i, query_term_ids=(2, b))
    ),
    "ad item_id": ("item_id", lambda i, b: _with_ad(i, item_id=b)),
    "ad shop_id": ("shop_id", lambda i, b: _with_ad(i, shop_id=b)),
    "ad brand_id": ("brand_id", lambda i, b: _with_ad(i, brand_id=b)),
    "ad title_term_ids": ("term_id", lambda i, b: _with_ad(i, title_term_ids=(b, 1))),
}


class TestPacking:
    @pytest.mark.parametrize("column", list(BAD_ID_COLUMNS))
    def test_out_of_range_id_names_space_at_packing(self, column):
        model = MatchingModel(tiny_config(), VOCAB, seed=48)
        space, edit = BAD_ID_COLUMNS[column]
        rng = np.random.default_rng(49)
        good = make_batch(rng, 3)
        model.pack(good)
        for bad in (VOCAB[space], -1):
            batch = good[:1] + [edit(good[1], bad)] + good[2:]
            with pytest.raises(VocabularyError, match=f"'{space}'.*'{column}'"):
                model.pack(batch)

    def test_sliced_batch_loss_equals_packing_the_slice(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=50)
        rng = np.random.default_rng(51)
        instances = make_batch(rng, 12)
        store = model.pack(instances)
        for rows in ([7, 2, 11], [0], list(range(12))[::-1], [5, 5, 3]):
            sliced = model.joint_loss(store[np.array(rows)]).item()
            direct = model.joint_loss([instances[r] for r in rows]).item()
            assert sliced == direct

    def test_packed_batch_passes_through(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=52)
        store = model.pack(make_batch(np.random.default_rng(53), 4))
        assert model.pack(store) is store

    def test_bad_label_rejected_at_packing(self):
        model = MatchingModel(tiny_config(), VOCAB, seed=54)
        inst = make_batch(np.random.default_rng(55), 2)
        with pytest.raises(ValueError, match="labels"):
            model.pack([inst[0], dataclasses.replace(inst[1], label=2)])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = tiny_config(variant="CONCATENATE_DNN", share_tower=False)
        model = MatchingModel(cfg, VOCAB, seed=42)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = MatchingModel.load(path)
        assert loaded.config == model.config
        assert loaded.vocab_sizes == model.vocab_sizes
        for name, entry in model.params.items():
            other = loaded.params[name]
            assert entry.value.data.tobytes() == other.data.tobytes()
        path2 = tmp_path / "again.ckpt"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_same_predictions_after_reload(self, tmp_path):
        model = MatchingModel(tiny_config(), VOCAB, seed=43)
        rng = np.random.default_rng(44)
        batch = make_batch(rng, 5)
        model.save(tmp_path / "m.ckpt")
        loaded = MatchingModel.load(tmp_path / "m.ckpt")
        a = model.predict(batch)
        b = loaded.predict(batch)
        np.testing.assert_array_equal(a["retrieval"], b["retrieval"])
        np.testing.assert_array_equal(a["prerank"], b["prerank"])

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.ckpt"
        MatchingModel(tiny_config(), VOCAB, seed=45).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", 99) + raw[12:])
        with pytest.raises(ArtifactError, match="version 99") as exc:
            MatchingModel.load(path)
        assert str(exc.value).startswith(f"{path}: ")

    @staticmethod
    def write_meta(path, meta):
        """A checksum-valid checkpoint holding ``meta`` and no parameters."""
        raw = json.dumps(meta).encode("utf-8")
        arrays = [np.array([len(raw)], "<u8"), np.frombuffer(raw, np.uint8)]
        magic, version = model_module._CHECKPOINT_MAGIC, model_module.CHECKPOINT_VERSION
        artifact.write(path, magic, version, arrays, ())

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = MatchingModel(tiny_config(), VOCAB, seed=46)
        model.save(path)
        path.write_bytes(path.read_bytes()[:300])  # a truncated checkpoint
        with pytest.raises(ArtifactError) as exc:
            MatchingModel.load(path)
        assert str(exc.value).startswith(f"{path}: ")
        names = [name for name, _ in model.params.items()]
        self.write_meta(path, {"config": dataclasses.asdict(model.config), "params": names})
        with pytest.raises(ArtifactError) as exc:
            MatchingModel.load(path)
        assert str(exc.value) == f"{path}: checkpoint meta refused: missing key 'vocab_sizes'"

    def test_other_parameter_names_are_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = MatchingModel(tiny_config(), VOCAB, seed=47)
        names = [name for name, _ in model.params.items()]
        config = dataclasses.asdict(model.config)
        self.write_meta(path, {"config": config, "vocab_sizes": VOCAB, "params": names[::-1]})
        with pytest.raises(ArtifactError, match="parameter names") as exc:
            MatchingModel.load(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_json_checkpoint_from_before_the_framing_is_refused(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"config": {}, "format_version": 1}, sort_keys=True))
        with pytest.raises(ArtifactError, match="not an admatch checkpoint file") as exc:
            MatchingModel.load(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            EncoderConfig(variant="LSTM")

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            EncoderConfig(gamma=-1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(alpha=1.5)

    def test_round_trips_through_dict(self):
        cfg = tiny_config(variant="GRU_RNN", share_tower=False, activation="tanh")
        payload = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert EncoderConfig(**payload) == cfg
