"""Two-tower matching network with shared embeddings and two task heads.

The query tower encodes (query terms, profile, behavior sequence) and the
ad tower encodes ad features; both pass through shared fully connected
layers to d-dimensional vectors. Head 1 scores retrieval relevance as
sigmoid(gamma * cosine); head 2 scores pre-rank click probability with a
small fully connected net over the concatenated tower outputs. Both heads
train with binary cross-entropy, optionally blended into one joint loss.
``PrerankScorer`` serves the pre-rank head split: the first layer's ad
side is precomputed per ad, and only the query side runs per request.

The towers read columnar id arrays (``RequestColumns``, ``AdColumns``,
``InstanceBatch``), packed from the input dataclasses with every id
validated once; the behavior encoder works on the whole window at once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifact, autodiff as ad
from .autodiff import ParamStore, Tensor

SPACES = ("item_id", "shop_id", "brand_id", "term_id", "profile_id")

# the single-valued id spaces of a behavior or an ad, in packing order
_ITEM_SHOP_BRAND = ("item_id", "shop_id", "brand_id")

VARIANTS = (
    "DNN",
    "GRU_RNN",
    "ATTENTION_DNN",
    "ATTENTION_GRU_RNN",
    "CONCATENATE_DNN",
)

ACTIVATIONS = ("relu", "tanh")

PROB_CLIP = 1e-12

CHECKPOINT_VERSION = 2
_CHECKPOINT_MAGIC = b"ADMCKP01"

# rows per tape-free forward pass when scoring or encoding many inputs
INFERENCE_CHUNK = 512


class VocabularyError(ValueError):
    """An id, or a checkpoint's table sizes, do not fit a vocabulary."""


@dataclass(frozen=True)
class BehaviorItem:
    """One past behavior: the item plus the query that led to it."""

    item_id: int
    shop_id: int
    brand_id: int
    title_term_ids: tuple[int, ...] = ()
    query_term_ids: tuple[int, ...] = ()


PAD_BEHAVIOR = BehaviorItem(0, 0, 0, (), ())


@dataclass(frozen=True)
class AdItem:
    """An ad candidate's id features (no source-query feature)."""

    item_id: int
    shop_id: int
    brand_id: int
    title_term_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class QueryRequest:
    """Query terms, profile ids, and a fixed-length behavior window.

    Behaviors are time-ordered oldest to newest and left-padded with
    ``PAD_BEHAVIOR`` so the most recent behavior sits in the last slot.
    """

    query_term_ids: tuple[int, ...]
    profile_ids: tuple[int, ...]
    behaviors: tuple[BehaviorItem, ...]


@dataclass(frozen=True)
class ImpressionInstance:
    """One labeled training example: request, ad, click label."""

    request: QueryRequest
    ad: AdItem
    label: int


class _Columns:
    """Equal-length columns; indexing selects the same rows from each."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, rows):
        picked = {f.name: getattr(self, f.name)[rows] for f in fields(self)}
        return type(self)(**picked)


@dataclass(frozen=True, eq=False)
class RequestColumns(_Columns):
    """Query-tower inputs of B requests as validated id arrays.

    Id lists are zero-padded to the longest list in the pack (id 0 is
    the pad id); the window arrays are [B x m], oldest step first.
    """

    query_terms: np.ndarray  # [B x Lq]
    profile_ids: np.ndarray  # [B x Lp]
    item_ids: np.ndarray  # [B x m]
    shop_ids: np.ndarray  # [B x m]
    brand_ids: np.ndarray  # [B x m]
    title_terms: np.ndarray  # [B x m x Lt]
    source_query_terms: np.ndarray  # [B x m x Ls]


@dataclass(frozen=True, eq=False)
class AdColumns(_Columns):
    """Ad-tower inputs of B ads as validated id arrays."""

    item_ids: np.ndarray  # [B]
    shop_ids: np.ndarray  # [B]
    brand_ids: np.ndarray  # [B]
    title_terms: np.ndarray  # [B x La], zero-padded


@dataclass(frozen=True, eq=False)
class InstanceBatch(_Columns):
    """Labeled instances in columnar form; made by ``MatchingModel.pack``.

    Training packs its instance list once and indexes mini-batches out
    of it, so no step rebuilds arrays from Python objects.
    """

    requests: RequestColumns
    ads: AdColumns
    labels: np.ndarray  # [B] float64, each 0 or 1


@dataclass
class EncoderConfig:
    """Architecture and loss hyperparameters.

    The behavior-sequence encoder variant, all layer widths, the tower
    activation, the retrieval sharpness ``gamma`` and the joint-loss
    blend ``alpha`` are config knobs; ``tower_dims`` ends in the common
    output dimension d of both towers. This is the one home of alpha and
    gamma: training, evaluation and serving all read them from here.
    """

    variant: str = "ATTENTION_GRU_RNN"
    behavior_window: int = 6
    item_dim: int = 16
    shop_dim: int = 8
    brand_dim: int = 8
    term_dim: int = 16
    profile_dim: int = 8
    gru_hidden: int = 32
    attention_hidden: int = 32
    tower_dims: tuple[int, int] = (128, 128)
    prerank_hidden: int = 64
    share_tower: bool = True
    # tanh default: relu towers can emit exact zero vectors under training
    # pressure; the cosine head scores such a row 0 and passes it no gradient
    activation: str = "tanh"
    gamma: float = 6.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown encoder variant {self.variant!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.tower_dims = tuple(self.tower_dims)
        if len(self.tower_dims) != 2:
            raise ValueError("tower_dims must hold exactly two layer widths")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        dims = (
            self.behavior_window,
            self.item_dim,
            self.shop_dim,
            self.brand_dim,
            self.term_dim,
            self.profile_dim,
            self.gru_hidden,
            self.attention_hidden,
            self.prerank_hidden,
            *self.tower_dims,
        )
        if any(d < 1 for d in dims):
            raise ValueError("all dimensions must be positive")

    @property
    def d(self) -> int:
        return self.tower_dims[1]

    @property
    def behavior_embed_dim(self) -> int:
        return (
            self.item_dim
            + self.shop_dim
            + self.brand_dim
            + self.term_dim  # title terms
            + self.term_dim  # source-query terms
        )

    @property
    def ad_embed_dim(self) -> int:
        return self.item_dim + self.shop_dim + self.brand_dim + self.term_dim

    @property
    def h_dim(self) -> int:
        """Width of the behavior encoding h, by variant."""
        if self.variant in ("DNN", "ATTENTION_DNN"):
            return self.behavior_embed_dim
        return self.gru_hidden


def _bce(p: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clipped away from 0/1."""
    y = Tensor(labels)
    p = ad.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    per = ad.neg(ad.add(ad.mul(y, ad.log(p)), ad.mul(1.0 - y, ad.log(1.0 - p))))
    return ad.mean_all(per)


def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("empty batch")
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    return labels


class MatchingModel:
    """The full network: embeddings, both towers, and both heads.

    One embedding table exists per id space and is referenced by both
    towers, so gradients from either side update the same storage. Row 0
    of every table is the reserved pad/OOV row and stays at zero.
    """

    def __init__(
        self,
        config: EncoderConfig,
        vocab_sizes: Mapping[str, int],
        seed: int = 0,
    ) -> None:
        missing = [s for s in SPACES if s not in vocab_sizes]
        if missing:
            raise ValueError(f"vocab_sizes missing spaces {missing}")
        self.config = config
        self.vocab_sizes = {s: int(vocab_sizes[s]) for s in SPACES}
        self._item_shop_brand_sizes = np.array(
            [[self.vocab_sizes[s]] for s in _ITEM_SHOP_BRAND], dtype=np.uintp
        )
        if any(v < 1 for v in self.vocab_sizes.values()):
            raise ValueError("every space needs at least the pad row")
        self.params = ParamStore()
        self._init_params(seed)

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, seed: int) -> None:
        cfg = self.config
        rng = np.random.default_rng(seed)

        def emb(rows, cols):
            return rng.uniform(-0.05, 0.05, size=(rows, cols))

        def u(*shape):
            # fan-scaled weights, zero biases: a flat init scale leaves the
            # towers bias-dominated and training stalls at desk widths
            if len(shape) == 1:
                return np.zeros(shape)
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-limit, limit, size=shape)

        dims = {
            "item_id": cfg.item_dim,
            "shop_id": cfg.shop_dim,
            "brand_id": cfg.brand_dim,
            "term_id": cfg.term_dim,
            "profile_id": cfg.profile_dim,
        }
        for space in SPACES:
            self.params.add(
                f"emb/{space}",
                emb(self.vocab_sizes[space], dims[space]),
                frozen_rows=(0,),
            )

        e_b = cfg.behavior_embed_dim
        hid = cfg.gru_hidden
        if cfg.variant in ("GRU_RNN", "ATTENTION_GRU_RNN"):
            for gate in ("z", "r", "n"):
                self.params.add(f"gru/W{gate}", u(e_b, hid))
                self.params.add(f"gru/U{gate}", u(hid, hid))
                self.params.add(f"gru/b{gate}", u(hid))
        if cfg.variant in ("ATTENTION_DNN", "ATTENTION_GRU_RNN"):
            state_dim = e_b if cfg.variant == "ATTENTION_DNN" else hid
            self.params.add("attn/W1", u(state_dim + cfg.term_dim, cfg.attention_hidden))
            self.params.add("attn/b1", u(cfg.attention_hidden))
            # no output bias: softmax ignores a shared logit offset
            self.params.add("attn/W2", u(cfg.attention_hidden, 1))
        if cfg.variant == "CONCATENATE_DNN":
            self.params.add("concat/W", u(cfg.behavior_window * e_b, hid))
            self.params.add("concat/b", u(hid))

        h_dim = cfg.h_dim
        self.params.add("qu_proj/W", u(cfg.term_dim + cfg.profile_dim + h_dim, h_dim))
        self.params.add("qu_proj/b", u(h_dim))
        self.params.add("ad_proj/W", u(cfg.ad_embed_dim, h_dim))
        self.params.add("ad_proj/b", u(h_dim))

        t1, d = cfg.tower_dims
        if cfg.share_tower:
            sides = ("tower",)
        else:
            sides = ("qu_tower", "ad_tower")
        for side in sides:
            self.params.add(f"{side}1/W", u(h_dim, t1))
            self.params.add(f"{side}1/b", u(t1))
            self.params.add(f"{side}2/W", u(t1, d))
            self.params.add(f"{side}2/b", u(d))

        self.params.add("prerank/W1", u(2 * d, cfg.prerank_hidden))
        self.params.add("prerank/b1", u(cfg.prerank_hidden))
        self.params.add("prerank/W2", u(cfg.prerank_hidden, 1))
        self.params.add("prerank/b2", u(1))

    def tower_param_names(self, side: str) -> tuple[str, ...]:
        """Parameter names of the tower used by one side ('qu' or 'ad')."""
        prefix = "tower" if self.config.share_tower else f"{side}_tower"
        return (f"{prefix}1/W", f"{prefix}1/b", f"{prefix}2/W", f"{prefix}2/b")

    # ------------------------------------------------------------------
    # packing: Python objects -> validated columnar id arrays

    def _vocab_error(
        self, space: str, column: str, ids: np.ndarray
    ) -> VocabularyError:
        size = self.vocab_sizes[space]
        bad = ids[(ids < 0) | (ids >= size)][0]
        return VocabularyError(
            f"id {bad} out of range for space '{space}' (vocab size {size}) "
            f"in column '{column}'"
        )

    def _item_shop_brand_ids(
        self, owner: str, items: Sequence[BehaviorItem] | Sequence[AdItem]
    ) -> np.ndarray:
        """Checked [3 x n] item, shop and brand ids of behaviors or ads."""
        ids = np.array(
            [
                [it.item_id for it in items],
                [it.shop_id for it in items],
                [it.brand_id for it in items],
            ],
            dtype=np.intp,
        ).reshape(3, len(items))
        # viewed unsigned, a negative id is larger than any vocabulary size
        bad = (ids.view(np.uintp) >= self._item_shop_brand_sizes).any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            space = _ITEM_SHOP_BRAND[row]
            raise self._vocab_error(space, f"{owner} {space}", ids[row])
        return ids

    def _padded_ids(
        self, space: str, column: str, lists: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """[len(lists) x L] checked ids, each list left-aligned and padded
        with the pad id 0 to the longest one's length L."""
        n = len(lists)
        width = max(map(len, lists), default=0)
        flat = np.fromiter(chain.from_iterable(lists), np.intp)
        if flat.size and flat.view(np.uintp).max() >= self.vocab_sizes[space]:
            raise self._vocab_error(space, column, flat)
        if flat.size == n * width:  # every list is full: nothing to pad
            return flat.reshape(n, width)
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=n)
        out = np.zeros((n, width), dtype=np.intp)
        out[np.arange(width) < lengths[:, None]] = flat
        return out

    def _pack_requests(
        self, requests: Sequence[QueryRequest] | RequestColumns
    ) -> RequestColumns:
        if isinstance(requests, RequestColumns):
            return requests
        m = self.config.behavior_window
        for r in requests:
            if len(r.behaviors) != m:
                raise ValueError(
                    f"request has {len(r.behaviors)} behavior slots, expected {m}"
                )
        n = len(requests)
        behaviors = [b for r in requests for b in r.behaviors]
        items, shops, brands = self._item_shop_brand_ids("behavior", behaviors)

        def window_lists(column: str, lists) -> np.ndarray:
            ids = self._padded_ids("term_id", column, lists)
            return ids.reshape(n, m, ids.shape[1])

        return RequestColumns(
            query_terms=self._padded_ids(
                "term_id", "query_term_ids", [r.query_term_ids for r in requests]
            ),
            profile_ids=self._padded_ids(
                "profile_id", "profile_ids", [r.profile_ids for r in requests]
            ),
            item_ids=items.reshape(n, m),
            shop_ids=shops.reshape(n, m),
            brand_ids=brands.reshape(n, m),
            title_terms=window_lists(
                "behavior title_term_ids", [b.title_term_ids for b in behaviors]
            ),
            source_query_terms=window_lists(
                "behavior query_term_ids", [b.query_term_ids for b in behaviors]
            ),
        )

    def _pack_ads(self, ads: Sequence[AdItem] | AdColumns) -> AdColumns:
        if isinstance(ads, AdColumns):
            return ads
        items, shops, brands = self._item_shop_brand_ids("ad", ads)
        return AdColumns(
            item_ids=items,
            shop_ids=shops,
            brand_ids=brands,
            title_terms=self._padded_ids(
                "term_id", "ad title_term_ids", [a.title_term_ids for a in ads]
            ),
        )

    def pack(
        self, instances: Sequence[ImpressionInstance] | InstanceBatch
    ) -> InstanceBatch:
        """Columnar batch of instances, every id and label validated once.

        Raises VocabularyError naming the space and column of an id
        outside its vocabulary. A packed batch is returned unchanged, so
        every entry point below accepts either form.
        """
        if isinstance(instances, InstanceBatch):
            return instances
        labels = np.array([i.label for i in instances], dtype=np.float64)
        if labels.size:
            _check_labels(labels)
        return InstanceBatch(
            requests=self._pack_requests([i.request for i in instances]),
            ads=self._pack_ads([i.ad for i in instances]),
            labels=labels,
        )

    # ------------------------------------------------------------------
    # behavior-sequence encoders

    def _act(self, x: Tensor) -> Tensor:
        return ad.relu(x) if self.config.activation == "relu" else ad.tanh(x)

    def _embed_behaviors(self, req: RequestColumns, time_major: bool = True) -> Tensor:
        """Embeddings of all m*B window slots in one gather or segment sum
        per id space: [m*B x e_b], row t*B + b when time-major (so step t
        is a contiguous row block), row b*m + t otherwise."""
        p = self.params
        rows = req.item_ids.size

        def flat(ids: np.ndarray) -> np.ndarray:
            # [B x m (x L)] -> [m*B (x L)]
            ordered = ids.swapaxes(0, 1) if time_major else ids
            return ordered.reshape(rows, *ids.shape[2:])

        term = p["emb/term_id"]
        return ad.concat(
            [
                ad.gather_rows(p["emb/item_id"], flat(req.item_ids)),
                ad.gather_rows(p["emb/shop_id"], flat(req.shop_ids)),
                ad.gather_rows(p["emb/brand_id"], flat(req.brand_ids)),
                ad.segment_sum(term, flat(req.title_terms)),
                ad.segment_sum(term, flat(req.source_query_terms)),
            ],
            axis=1,
        )

    def _embed_ads(self, ads: AdColumns) -> Tensor:
        p = self.params
        return ad.concat(
            [
                ad.gather_rows(p["emb/item_id"], ads.item_ids),
                ad.gather_rows(p["emb/shop_id"], ads.shop_ids),
                ad.gather_rows(p["emb/brand_id"], ads.brand_ids),
                ad.segment_sum(p["emb/term_id"], ads.title_terms),
            ],
            axis=1,
        )

    def _gru_states(self, x: Tensor, batch: int) -> list[Tensor]:
        """GRU states per step over time-major inputs x [m*B x e_b].

        The input projections x@W + b run once for the whole window; only
        the h@U recurrence runs per step. h starts at zero, so the first
        step has no recurrent terms.
        """
        p = self.params
        proj = {g: x @ p[f"gru/W{g}"] + p[f"gru/b{g}"] for g in ("z", "r", "n")}
        states: list[Tensor] = []
        h: Tensor | None = None
        for t in range(x.shape[0] // batch):
            rows = (t * batch, (t + 1) * batch)
            xz = ad.take(proj["z"], *rows, axis=0)
            xn = ad.take(proj["n"], *rows, axis=0)
            if h is None:
                h = ad.mul(ad.sigmoid(xz), ad.tanh(xn))
            else:
                xr = ad.take(proj["r"], *rows, axis=0)
                z = ad.sigmoid(xz + h @ p["gru/Uz"])
                r = ad.sigmoid(xr + h @ p["gru/Ur"])
                n = ad.tanh(xn + ad.mul(r, h) @ p["gru/Un"])
                # (1 - z) * h + z * n
                h = ad.add(h, ad.mul(z, ad.sub(n, h)))
            states.append(h)
        return states

    def attention_weights(self, states: Tensor, query_emb: Tensor) -> Tensor:
        """Softmax credit over behavior states, keyed on the query embedding.

        ``states`` holds the m window steps time-major, [m*B x s]; each is
        scored by a two-layer net on concat(state, query), computed as
        state @ W1[:s] + (query @ W1[s:] + b1) so the query side runs once
        per request. The returned [m x B] weights are non-negative and
        each column sums to 1.
        """
        p = self.params
        batch = query_emb.shape[0]
        m = states.shape[0] // batch
        s = states.shape[1]
        w1 = p["attn/W1"]
        state_part = ad.reshape(states @ ad.take(w1, 0, s, axis=0), (m, batch, -1))
        query_part = query_emb @ ad.take(w1, s, w1.shape[0], axis=0) + p["attn/b1"]
        hidden = self._act(ad.add(state_part, query_part))
        logits = ad.reshape(hidden, (m * batch, -1)) @ p["attn/W2"]
        return ad.softmax(ad.reshape(logits, (m, batch)), axis=0)

    def _attentive_sum(self, states: Tensor, query_emb: Tensor) -> Tensor:
        weights = self.attention_weights(states, query_emb)
        m, batch = weights.shape
        weighted = ad.mul(
            ad.reshape(weights, (m, batch, 1)), ad.reshape(states, (m, batch, -1))
        )
        return ad.sum_axis(weighted, 0)

    def _encode_behaviors(self, req: RequestColumns, query_emb: Tensor) -> Tensor:
        cfg = self.config
        m = cfg.behavior_window
        batch = len(req)
        if cfg.variant == "CONCATENATE_DNN":
            # batch-major rows reshape straight into concat(step 1, ..., step m)
            x = self._embed_behaviors(req, time_major=False)
            stacked = ad.reshape(x, (batch, m * cfg.behavior_embed_dim))
            return self._act(stacked @ self.params["concat/W"] + self.params["concat/b"])
        x = self._embed_behaviors(req)
        if cfg.variant == "DNN":
            steps = ad.reshape(x, (m, batch, cfg.behavior_embed_dim))
            return ad.mul(ad.sum_axis(steps, 0), 1.0 / m)
        if cfg.variant == "ATTENTION_DNN":
            return self._attentive_sum(x, query_emb)
        states = self._gru_states(x, batch)
        if cfg.variant == "GRU_RNN":
            return states[-1]
        return self._attentive_sum(ad.concat(states, axis=0), query_emb)

    def _query_embedding(self, req: RequestColumns) -> Tensor:
        return ad.segment_sum(self.params["emb/term_id"], req.query_terms)

    # ------------------------------------------------------------------
    # towers

    def _tower(self, x: Tensor, side: str) -> Tensor:
        w1, b1, w2, b2 = (self.params[n] for n in self.tower_param_names(side))
        return self._act(self._act(x @ w1 + b1) @ w2 + b2)

    def qu_forward(self, requests: Sequence[QueryRequest] | RequestColumns) -> Tensor:
        """Query-tower outputs V_qu, shape [batch x d]."""
        if not len(requests):
            raise ValueError("empty request batch")
        req = self._pack_requests(requests)
        query_emb = self._query_embedding(req)
        profile_emb = ad.segment_sum(self.params["emb/profile_id"], req.profile_ids)
        h = self._encode_behaviors(req, query_emb)
        x = ad.concat([query_emb, profile_emb, h], axis=1)
        x = self._act(x @ self.params["qu_proj/W"] + self.params["qu_proj/b"])
        return self._tower(x, "qu")

    def ad_forward(self, ads: Sequence[AdItem] | AdColumns) -> Tensor:
        """Ad-tower outputs V_a, shape [batch x d]."""
        if not len(ads):
            raise ValueError("empty ad batch")
        x = self._embed_ads(self._pack_ads(ads))
        x = self._act(x @ self.params["ad_proj/W"] + self.params["ad_proj/b"])
        return self._tower(x, "ad")

    # ------------------------------------------------------------------
    # heads and losses

    def retrieval_prob(
        self, v_qu: Tensor, v_a: Tensor, gamma: float | None = None
    ) -> Tensor:
        """sigmoid(gamma * cosine(V_qu, V_a)) per row, in (0, 1)."""
        g = self.config.gamma if gamma is None else gamma
        if g <= 0:
            raise ValueError(f"gamma must be positive, got {g}")
        return ad.sigmoid(ad.mul(ad.cosine_rows(v_qu, v_a), g))

    def retrieval_loss(self, v_qu: Tensor, v_a: Tensor, labels) -> Tensor:
        labels = _check_labels(labels)
        return _bce(self.retrieval_prob(v_qu, v_a), labels)

    def prerank_prob(self, v_qu: Tensor, v_a: Tensor) -> Tensor:
        """Click probability from the lightweight interaction net, per row."""
        p = self.params
        x = ad.concat([v_qu, v_a], axis=1)
        hidden = self._act(x @ p["prerank/W1"] + p["prerank/b1"])
        logit = hidden @ p["prerank/W2"] + p["prerank/b2"]
        return ad.sigmoid(ad.reshape(logit, (-1,)))

    def prerank_loss(self, v_qu: Tensor, v_a: Tensor, labels) -> Tensor:
        labels = _check_labels(labels)
        return _bce(self.prerank_prob(v_qu, v_a), labels)

    def towers_forward(
        self, instances: Sequence[ImpressionInstance] | InstanceBatch
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """One shared forward pass up to both tower outputs."""
        if not len(instances):
            raise ValueError("empty batch")
        batch = self.pack(instances)
        v_qu = self.qu_forward(batch.requests)
        v_a = self.ad_forward(batch.ads)
        return v_qu, v_a, batch.labels

    def joint_loss(self, instances: Sequence[ImpressionInstance] | InstanceBatch) -> Tensor:
        """alpha * retrieval loss + (1 - alpha) * pre-rank loss, one forward."""
        a = self.config.alpha
        v_qu, v_a, labels = self.towers_forward(instances)
        c_v = self.retrieval_loss(v_qu, v_a, labels)
        c_r = self.prerank_loss(v_qu, v_a, labels)
        return ad.add(ad.mul(c_v, a), ad.mul(c_r, 1.0 - a))

    def loss_for_mode(
        self, instances: Sequence[ImpressionInstance] | InstanceBatch, mode: str
    ) -> Tensor:
        """The training loss of ``mode``, at the config's alpha and gamma."""
        if mode == "JOINT":
            return self.joint_loss(instances)
        v_qu, v_a, labels = self.towers_forward(instances)
        if mode == "SINGLE_RETRIEVAL":
            return self.retrieval_loss(v_qu, v_a, labels)
        if mode == "SINGLE_PRERANK":
            return self.prerank_loss(v_qu, v_a, labels)
        raise ValueError(f"unknown training mode {mode!r}")

    # ------------------------------------------------------------------
    # inference

    def predict(
        self,
        instances: Sequence[ImpressionInstance] | InstanceBatch,
        gamma: float | None = None,
    ) -> dict[str, np.ndarray]:
        """Tape-free scores for both heads over a list of instances."""
        batch = self.pack(instances)
        retrieval: list[np.ndarray] = []
        prerank: list[np.ndarray] = []
        for lo in range(0, len(batch), INFERENCE_CHUNK):
            chunk = batch[lo : lo + INFERENCE_CHUNK]
            v_qu = self.qu_forward(chunk.requests)
            v_a = self.ad_forward(chunk.ads)
            retrieval.append(self.retrieval_prob(v_qu, v_a, gamma).data)
            prerank.append(self.prerank_prob(v_qu, v_a).data)
        return {
            "retrieval": np.concatenate(retrieval) if retrieval else np.zeros(0),
            "prerank": np.concatenate(prerank) if prerank else np.zeros(0),
        }

    # ------------------------------------------------------------------
    # checkpointing

    def save(self, path: str | Path) -> None:
        """Write a framed checkpoint: the meta length, the JSON meta (config,
        vocab sizes, parameter names), then each parameter as float64 in
        store order, so weights round-trip bit-exactly."""
        names = [name for name, _ in self.params.items()]
        meta = {"config": asdict(self.config), "vocab_sizes": self.vocab_sizes, "params": names}
        raw = json.dumps(meta, sort_keys=True).encode("utf-8")
        arrays = [np.array([len(raw)], "<u8"), np.frombuffer(raw, np.uint8)]
        arrays += [entry.value.data for _, entry in self.params.items()]
        artifact.write(path, _CHECKPOINT_MAGIC, CHECKPOINT_VERSION, arrays, ())

    @classmethod
    def load(cls, path: str | Path) -> "MatchingModel":
        """Read ``save``'s file; a damaged or foreign one raises
        ``ArtifactError`` naming it. Shapes come from the rebuilt model."""
        frame = artifact.Reader(
            path, _CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", "re-run train"
        )
        (size,) = frame.array("<u8", (1,)).tolist()
        raw = frame.array(np.uint8, (size,)).tobytes()
        try:
            meta = json.loads(raw)
            model = cls(EncoderConfig(**meta["config"]), meta["vocab_sizes"], seed=0)
            names = meta["params"]
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise frame.error(f"checkpoint meta refused: {what}") from None
        if names != [name for name, _ in model.params.items()]:
            raise frame.error("its parameter names are not those of the model its config builds")
        for _, entry in model.params.items():
            entry.value.data[...] = frame.array("<f8", entry.value.data.shape)
        return model


class PrerankScorer:
    """Serving-side split computation of the pre-rank head.

    The first interaction layer concat(V_qu, V_a) @ W1 + b1 splits into a
    query partial (computed once per request, bias folded in) plus an ad
    partial (precomputable offline); q_part calls are counted so tests
    can assert the once-per-request contract. The output keeps its own
    1 / (1 + e^-logit): ``ad.sigmoid`` can differ in the last bit for
    negative logits, and served scores keep theirs.
    """

    def __init__(self, model: MatchingModel) -> None:
        d = model.config.d
        w1 = model.params["prerank/W1"].data
        self.w_query = w1[:d].copy()
        self.w_ad = w1[d:].copy()
        self.bias = model.params["prerank/b1"].data.copy()
        self.w_out = model.params["prerank/W2"].data[:, 0].copy()
        self.b_out = float(model.params["prerank/b2"].data[0])
        self._act = model._act
        self.q_part_count = 0

    def q_part(self, v_qu: np.ndarray) -> np.ndarray:
        self.q_part_count += 1
        return v_qu @ self.w_query + self.bias

    def a_part(self, v_a: np.ndarray) -> np.ndarray:
        return v_a @ self.w_ad

    def score_from_parts(self, q_part: np.ndarray, a_parts: np.ndarray) -> np.ndarray:
        """Scores of [n, H] ad parts against one query part, [H], or one per
        row, [n, H]. The output layer is an ``einsum``, which adds each row in
        one order, so a row's score does not depend on the other rows in the
        call (a gemv's does)."""
        hidden = self._act(Tensor(q_part + a_parts)).data
        logit = np.einsum("ij,j->i", hidden, self.w_out) + self.b_out
        return 1.0 / (1.0 + np.exp(-logit))
