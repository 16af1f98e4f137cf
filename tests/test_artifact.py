"""Framing of the binary artifacts: every damaged file fails loudly."""

import struct

import numpy as np
import pytest

from admatch import annindex, artifact
from admatch.annindex import AnnIndex
from admatch.artifact import ArtifactError
from admatch.model import SPACES, EncoderConfig, MatchingModel
from admatch.pipeline import load_ad_parts, save_ad_parts


def exact_index(path):
    rng = np.random.default_rng(40)
    index = AnnIndex(4)
    index.add_many((f"ad{i}", rng.normal(size=4)) for i in range(5))
    index.save(path)


def pq_index(path):
    rng = np.random.default_rng(41)
    index = AnnIndex(4)
    index.add_many((f"ad{i}", rng.normal(size=4)) for i in range(6))
    index.train_pq(n_subspaces=2, n_centroids=4, iterations=3, seed=41)
    index.save(path)


def parts_file(path):
    rng = np.random.default_rng(42)
    save_ad_parts(["ad0", "ad1", "adé2", "ad3"], rng.normal(size=(4, 3)), path)


def checkpoint(path):
    # every width 1 and two rows per table: about 1 KB, so the every-byte
    # loops stay fast
    widths = ("behavior_window", "item_dim", "shop_dim", "brand_dim", "term_dim",
              "profile_dim", "gru_hidden", "attention_hidden", "prerank_hidden")
    config = EncoderConfig(variant="GRU_RNN", tower_dims=(1, 1), **dict.fromkeys(widths, 1))
    MatchingModel(config, dict.fromkeys(SPACES, 2), seed=43).save(path)


ARTIFACTS = {
    "exact-index": (exact_index, AnnIndex.load),
    "pq-index": (pq_index, AnnIndex.load),
    "ad-parts": (parts_file, load_ad_parts),
    "checkpoint": (checkpoint, MatchingModel.load),
}


@pytest.fixture(params=sorted(ARTIFACTS))
def artifact_file(request, tmp_path):
    make, load = ARTIFACTS[request.param]
    path = tmp_path / "good.bin"
    make(path)
    load(path)  # the intact file loads
    return path.read_bytes(), load, tmp_path / "damaged.bin"


def assert_rejected(load, path):
    with pytest.raises(ArtifactError) as info:
        load(path)
    assert str(path) in str(info.value)


class TestDamage:
    def test_every_truncation_rejected(self, artifact_file):
        raw, load, path = artifact_file
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            assert_rejected(load, path)

    def test_every_single_byte_flip_rejected(self, artifact_file):
        raw, load, path = artifact_file
        rng = np.random.default_rng(len(raw))
        masks = rng.integers(1, 256, size=len(raw))
        for pos, mask in enumerate(masks.tolist()):
            damaged = bytearray(raw)
            damaged[pos] ^= mask
            path.write_bytes(bytes(damaged))
            assert_rejected(load, path)

    def test_appended_bytes_rejected(self, artifact_file):
        raw, load, path = artifact_file
        path.write_bytes(raw + b"\0")
        assert_rejected(load, path)


class TestVersions:
    @pytest.mark.parametrize(
        "old, load, remedy",
        [
            (b"ADMIDX01" + struct.pack("<IIIIQ", 1, 4, 0, 0, 0), AnnIndex.load, "re-export"),
            (b"ADMPRT01" + struct.pack("<IIQ", 1, 3, 0), load_ad_parts, "re-export"),
            # nothing exports a checkpoint: training writes it
            (b"ADMCKP01" + struct.pack("<IQ", 1, 0), MatchingModel.load, "re-run train"),
        ],
        ids=["index", "ad-parts", "checkpoint"],
    )
    def test_old_version_names_its_remedy(self, tmp_path, old, load, remedy):
        path = tmp_path / "old.bin"
        path.write_bytes(old)
        with pytest.raises(ArtifactError, match=remedy) as info:
            load(path)
        assert str(path) in str(info.value)


class TestHeaderBeyondPayload:
    def test_count_past_the_payload_is_truncation_not_reshape(self, tmp_path):
        # a checksum-valid file whose header claims more rows than it holds
        path = tmp_path / "forged.idx"
        vectors = np.eye(4, dtype=np.float32)[:2]
        header = np.array((4, 0, 0, 9), "<u8")
        artifact.write(
            path, annindex._MAGIC, annindex._FORMAT_VERSION, (header, vectors), ["a", "b"]
        )
        with pytest.raises(ArtifactError, match="truncated"):
            AnnIndex.load(path)
