"""CLI behavior: determinism, the full recipe, config files, errors."""

import functools
import inspect
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admatch
from admatch import cli
from admatch.annindex import AnnIndex
from admatch.cli import main
from admatch.data import GeneratorConfig
from admatch.model import EncoderConfig
from admatch.pipeline import CatalogMismatchError, PipelineConfig
from admatch.training import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str):
    lines = [l for l in out.strip().splitlines() if l.strip()]
    return json.loads(lines[-1])


GEN = ["gen-data", "--users", "25", "--items", "120", "--categories", "5",
       "--days", "4", "--impressions-per-user-day", "4"]
TINY_MODEL = [
    "--item-dim", "8", "--shop-dim", "4", "--brand-dim", "4", "--term-dim", "8",
    "--profile-dim", "4", "--gru-hidden", "8", "--attention-hidden", "8",
    "--tower-dims", "16,16", "--prerank-hidden", "8",
]
SPLIT = ["--train-days", "2024-01-01,2024-01-02,2024-01-03", "--test-day", "2024-01-04"]


def write_vectors(path, n, dim, seed=11):
    """A seeded vectors file, as ``export-vectors`` writes one."""
    index = AnnIndex(dim)
    rng = np.random.default_rng(seed)
    index.add_many((f"ad{i:05d}", v) for i, v in enumerate(rng.normal(size=(n, dim))))
    index.save(path)


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        for d in ("a", "b"):
            code, out, _ = run_cli(capsys, *GEN, "--seed", "7", "--out-dir", str(tmp_path / d))
            assert code == 0
        for name in ("logs.jsonl", "ads.jsonl", "oracle.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path, capsys):
        run_cli(capsys, *GEN, "--seed", "1", "--out-dir", str(tmp_path / "a"))
        run_cli(capsys, *GEN, "--seed", "2", "--out-dir", str(tmp_path / "b"))
        assert (tmp_path / "a/logs.jsonl").read_bytes() != (tmp_path / "b/logs.jsonl").read_bytes()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + build-vocab + a quick train, shared by the recipe tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(GEN + ["--seed", "5", "--out-dir", str(root)]) == 0
    assert main([
        "build-vocab", "--logs", str(root / "logs.jsonl"),
        "--out", str(root / "vocab.tsv"), "--top-k", "5000",
    ]) == 0
    assert main([
        "train", "--logs", str(root / "logs.jsonl"), "--vocab", str(root / "vocab.tsv"),
        *SPLIT, *TINY_MODEL,
        "--max-epochs", "2", "--patience", "5", "--seed", "5",
        "--checkpoint-out", str(root / "model.ckpt"),
        "--history-out", str(root / "history.csv"),
    ]) == 0
    return root


class TestRecipe:
    def test_eval_matches_train_validation_report(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "train", "--logs", str(workspace / "logs.jsonl"),
            "--vocab", str(workspace / "vocab.tsv"), *SPLIT, *TINY_MODEL,
            "--max-epochs", "2", "--patience", "5", "--seed", "5",
            "--checkpoint-out", str(workspace / "model2.ckpt"),
        )
        assert code == 0
        summary = last_json(out)
        code, out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(workspace / "model2.ckpt"),
            "--logs", str(workspace / "logs.jsonl"), "--vocab", str(workspace / "vocab.tsv"),
            *SPLIT, "--split", "validation",
        )
        assert code == 0
        evaluated = last_json(out)
        assert evaluated["retrieval_auc"] == summary["val_auc_retrieval"]
        assert evaluated["prerank_auc"] == summary["val_auc_prerank"]

    def test_full_recipe_end_to_end(self, workspace, capsys):
        root = workspace
        code, out, _ = run_cli(
            capsys, "export-vectors", "--checkpoint", str(root / "model.ckpt"),
            "--ads", str(root / "ads.jsonl"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(root / "vectors.idx"),
        )
        assert code == 0 and last_json(out)["exported"] == 120

        code, out, _ = run_cli(
            capsys, "build-index", "--vectors", str(root / "vectors.idx"),
            "--out", str(root / "index.idx"), "--pq-m", "4", "--pq-k", "16",
            "--pq-iterations", "8", "--seed", "5",
        )
        assert code == 0 and last_json(out)["pq"] is True
        assert 1 <= last_json(out)["lloyd_passes"] <= 8

        code, out, _ = run_cli(
            capsys, "precompute-ad-parts", "--checkpoint", str(root / "model.ckpt"),
            "--ads", str(root / "ads.jsonl"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(root / "parts.bin"),
        )
        assert code == 0 and last_json(out)["ads"] == 120

        code, out, _ = run_cli(
            capsys, "simulate", "--logs", str(root / "logs.jsonl"),
            "--checkpoint", str(root / "model.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--ads", str(root / "ads.jsonl"), "--oracle", str(root / "oracle.json"),
            "--index", str(root / "index.idx"), "--ad-parts", str(root / "parts.bin"),
            "--days", "2024-01-04", "--top-n", "5", "--k-vector", "20",
            "--seed", "5", "--out-dir", str(root / "sim"),
        )
        assert code == 0
        metrics = last_json(out)
        assert metrics["request_count"] == 100
        assert metrics["prerank_split_max_abs_dev"] < 1e-9
        assert (root / "sim" / "impressions.jsonl").exists()
        assert (root / "sim" / "metrics.json").exists()

    def test_add_ad_then_search_finds_it(self, workspace, capsys):
        root = workspace
        ad = {
            "item_id": "brand-new-ad", "shop_id": "shop0_0", "brand_id": "brand0_0",
            "title_terms": ["t0_1", "t0_2"], "bid_keywords": ["t0_1"], "cost": 1.25,
        }
        code, out, _ = run_cli(
            capsys, "add-ad", "--index", str(root / "index.idx"),
            "--checkpoint", str(root / "model.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--ad-json", json.dumps(ad), "--out", str(root / "index2.idx"),
        )
        assert code == 0 and last_json(out)["entries"] == 121

        code, out, _ = run_cli(
            capsys, "search", "--index", str(root / "index2.idx"),
            "--checkpoint", str(root / "model.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--query", "t0_1 t0_2", "-k", "121", "--exact",
        )
        assert code == 0
        hits = [json.loads(l) for l in out.strip().splitlines()]
        assert any(h["ad_id"] == "brand-new-ad" for h in hits)

    def test_simulate_refuses_an_index_ad_missing_from_the_catalog(self, workspace, capsys):
        root = workspace
        model_args = [
            "--checkpoint", str(root / "model.ckpt"), "--vocab", str(root / "vocab.tsv"),
        ]
        ad = {
            "item_id": "newad", "shop_id": "shop0_0", "brand_id": "brand0_0",
            "title_terms": ["t0_1"], "bid_keywords": ["t0_1"], "cost": 1.0,
        }
        for argv in (
            ["export-vectors", *model_args, "--ads", str(root / "ads.jsonl"),
             "--out", str(root / "catalog.idx")],
            ["add-ad", "--index", str(root / "catalog.idx"), *model_args,
             "--ad-json", json.dumps(ad), "--out", str(root / "plus_new.idx")],
            ["precompute-ad-parts", *model_args, "--ads", str(root / "ads.jsonl"),
             "--out", str(root / "catalog_parts.bin")],
        ):
            assert run_cli(capsys, *argv)[0] == 0
        replay = [
            "simulate", "--logs", str(root / "logs.jsonl"), *model_args,
            "--index", str(root / "plus_new.idx"),
            "--ad-parts", str(root / "catalog_parts.bin"), "--days", "2024-01-04",
            "--k-vector", "121",
        ]
        unchanged = ["--ads", str(root / "ads.jsonl"), "--oracle", str(root / "oracle.json")]
        code, _, err = run_cli(capsys, *replay, *unchanged, "--out-dir", str(root / "refused"))
        assert code == 1
        assert "error: the ad catalog lacks 1 of the indexed ads; first: newad" in err
        assert not (root / "refused").exists()
        with pytest.raises(CatalogMismatchError, match="indexed ads; first: newad$"):
            main([*replay, *unchanged, "--out-dir", str(root / "refused"), "--debug"])

        # the remedy the README gives: the new ad in --ads and in the oracle
        with open(root / "ads.jsonl") as fh:
            (root / "ads_new.jsonl").write_text(fh.read() + json.dumps(ad) + "\n")
        oracle = json.loads((root / "oracle.json").read_text())
        oracle["item_categories"]["newad"] = 0
        (root / "oracle_new.json").write_text(json.dumps(oracle))
        code, out, err = run_cli(
            capsys, *replay, "--ads", str(root / "ads_new.jsonl"),
            "--oracle", str(root / "oracle_new.json"), "--out-dir", str(root / "replayed"),
        )
        assert code == 0 and last_json(out)["request_count"] == 100
        assert b'"ad_id": "newad"' in (root / "replayed" / "impressions.jsonl").read_bytes()

    def test_gamma_sweep_single_value(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "gamma-sweep", "--logs", str(workspace / "logs.jsonl"),
            "--vocab", str(workspace / "vocab.tsv"), *SPLIT, *TINY_MODEL,
            "--max-epochs", "1", "--seed", "5", "--gammas", "6",
            "--out-csv", str(workspace / "sweep.csv"),
        )
        assert code == 0
        assert "population variance" in out
        assert (workspace / "sweep.csv").read_text().count("\n") == 2


def test_relu_towers_train(tmp_path, capsys):
    # relu towers emit exact zero vectors on this recipe; their rows score
    # cosine 0 instead of aborting the run
    assert main(["gen-data", "--users", "60", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    logs = str(tmp_path / "logs.jsonl")
    vocab = str(tmp_path / "vocab.tsv")
    assert main(["build-vocab", "--logs", logs, "--out", vocab]) == 0
    code, out, err = run_cli(
        capsys, "train", "--logs", logs, "--vocab", vocab, *SPLIT,
        "--max-epochs", "2", "--seed", "3", "--gamma", "3", "--alpha", "0.3",
        "--no-share-tower", "--tower-dims", "16,8", "--variant", "GRU_RNN",
        "--activation", "relu", "--checkpoint-out", str(tmp_path / "model.ckpt"),
    )
    assert code == 0, err
    assert last_json(out)["epochs_run"] == 2


class TestErrors:
    def test_unknown_flag_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out-dir", "/tmp/x", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--logs", "somefile"])
        assert exc.value.code == 2

    def test_runtime_error_returns_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "build-vocab", "--logs", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "v.tsv"),
        )
        assert code == 1
        assert "error:" in err

    def test_build_index_names_a_count_below_one(self, tmp_path, capsys):
        write_vectors(tmp_path / "vectors.idx", 40, 8)
        code, _, err = run_cli(
            capsys, "build-index", "--vectors", str(tmp_path / "vectors.idx"),
            "--out", str(tmp_path / "index.idx"), "--pq-m", "2", "--pq-k", "8",
            "--pq-iterations", "0",
        )
        assert code == 1
        assert "error: iterations must be at least 1, got 0" in err
        assert not (tmp_path / "index.idx").exists()

    def test_eval_names_a_malformed_vocab_file(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "bad.tsv"
        vocab.write_text("a\tterm_id\t1\nb\tterm_id\n")
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--logs", str(workspace / "logs.jsonl"), "--vocab", str(vocab),
            *SPLIT, "--split", "test",
        )
        assert code == 1
        assert f"error: {vocab}, line 2: " in err

    def test_eval_refuses_a_vocab_the_checkpoint_was_not_trained_on(
        self, workspace, tmp_path, capsys
    ):
        # the checkpoint was trained on the top 5000 tokens of each space
        vocab = tmp_path / "top20.tsv"
        logs = str(workspace / "logs.jsonl")
        assert main(["build-vocab", "--logs", logs, "--out", str(vocab), "--top-k", "20"]) == 0
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--logs", logs, "--vocab", str(vocab), *SPLIT, "--split", "test",
        )
        assert code == 1
        assert "auc" not in out
        assert f"checkpoint {workspace / 'model.ckpt'} has 121 item_id ids" in err
        assert f"vocabulary {vocab} has 21" in err

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize(
        "ad_json, defect",
        [
            ('{"item_id": "a1" "shop_id": "s1"}', "Expecting ',' delimiter"),
            ('{"item_id": "a1"}', "AdDescriptor.__init__() missing 5 required"),
        ],
    )
    def test_add_ad_names_the_source_of_a_bad_ad(
        self, workspace, tmp_path, capsys, ad_json, defect, from_file
    ):
        source = "--ad-json"
        if from_file:
            source = str(tmp_path / "ad.json")
            Path(source).write_text(ad_json)
            ad_json = f"@{source}"
        code, _, err = run_cli(
            capsys, "add-ad", "--index", str(workspace / "index.idx"),
            "--checkpoint", str(workspace / "model.ckpt"),
            "--vocab", str(workspace / "vocab.tsv"),
            "--ad-json", ad_json, "--out", str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert err.startswith(f"error: {source}: {defect}")
        assert not (tmp_path / "out.idx").exists()

    def test_debug_reraises_with_traceback(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing.jsonl"):
            main([
                "build-vocab", "--logs", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "v.tsv"), "--debug",
            ])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def test_build_index_bytes_do_not_depend_on_blas_threads(tmp_path):
    # two processes, one after the other: the thread count is read when
    # numpy loads its BLAS, so each setting needs a fresh interpreter
    write_vectors(tmp_path / "vectors.idx", 1300, 64)
    src = str(Path(admatch.__file__).resolve().parents[1])
    built, summaries = [], []
    for threads in ("1", "2"):
        env = {
            **os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path]),
            "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
        }
        out = tmp_path / f"index{threads}.idx"
        done = subprocess.run(
            [sys.executable, "-m", "admatch", "build-index",
             "--vectors", str(tmp_path / "vectors.idx"), "--out", str(out),
             "--pq-m", "8", "--pq-iterations", "3", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        built.append(out.read_bytes())
        summaries.append(last_json(done.stdout))
    assert built[0] == built[1]
    # the pass count is as deterministic as the bytes
    assert summaries[0] == summaries[1]


# exact, PQ with a covering pool, PQ with a smaller pool, PQ without re-rank
SEARCH_GRID = """
import sys
import numpy as np
from admatch.annindex import AnnIndex
index = AnnIndex.load(sys.argv[1])
for q in np.random.default_rng(5).normal(size=(8, index.dim)):
    for factor, rerank, pq in ((10, True, False), (30, True, True), (4, True, True), (4, False, True)):
        hits = index.search_rows(q, 50, factor, rerank, pq)
        sys.stdout.buffer.write(hits.rows.tobytes() + hits.scores.tobytes())
"""


def test_search_does_not_depend_on_blas_threads(tmp_path):
    # two processes, one after the other, as for build-index above
    index = AnnIndex(64)
    rng = np.random.default_rng(12)
    index.add_many((f"ad{i:05d}", v) for i, v in enumerate(rng.normal(size=(1300, 64))))
    index.train_pq(n_subspaces=8, n_centroids=64, iterations=3, seed=3)
    index.save(tmp_path / "index.idx")
    src = str(Path(admatch.__file__).resolve().parents[1])
    found = []
    for threads in ("1", "2"):
        env = {
            **os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path]),
            "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
        }
        proc = subprocess.run(
            [sys.executable, "-c", SEARCH_GRID, str(tmp_path / "index.idx")],
            env=env, capture_output=True, timeout=300, check=True,
        )
        found.append(proc.stdout)
    assert len(found[0]) == 8 * 4 * 50 * 16 and found[0] == found[1]


class TestLogLevel:
    GEN_TINY = ["gen-data", "--users", "2", "--days", "1", "--items", "16"]

    def admatch_records(self, caplog, tmp_path, *flags):
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            assert main([*self.GEN_TINY, "--out-dir", str(tmp_path), *flags]) == 0
        return [r for r in caplog.records if r.name.startswith("admatch")]

    def test_default_leaves_info_messages_on(self, tmp_path, caplog):
        records = self.admatch_records(caplog, tmp_path)
        assert any(r.levelno == logging.INFO for r in records)

    def test_warning_level_silences_info(self, tmp_path, caplog):
        assert self.admatch_records(caplog, tmp_path, "--log-level", "WARNING") == []
        # the threshold does not outlive the call
        assert self.admatch_records(caplog, tmp_path)

    def test_unknown_level_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*self.GEN_TINY, "--out-dir", str(tmp_path), "--log-level", "LOUD"])
        assert exc.value.code == 2


def parsed_defaults(subparser):
    """A subcommand's parsed flags when only its required ones are given."""
    argv = []
    for action in subparser._actions:
        if action.required:
            argv += [action.option_strings[0], "x"]
    return subparser.parse_args(argv)


def config_of(cls):
    return functools.partial(cli._config, cls)


MODEL_CONFIGS = [(config_of(EncoderConfig), EncoderConfig), (config_of(TrainConfig), TrainConfig)]


def param_defaults(fn, *names):
    """Builds the defaults of ``fn``'s parameters ``names``, in order."""
    params = inspect.signature(fn).parameters
    return lambda: [params[n].default for n in names]


class TestDefaults:
    CONFIGS = {
        "gen-data": [(config_of(GeneratorConfig), GeneratorConfig)],
        "train": MODEL_CONFIGS,
        "gamma-sweep": MODEL_CONFIGS,
        "ablation": MODEL_CONFIGS,
        "simulate": [(config_of(PipelineConfig), PipelineConfig)],
        # flags passed straight to the index, whose signature holds the defaults
        "build-index": [(
            lambda a: [a.pq_m, a.pq_k, a.pq_iterations, a.seed],
            param_defaults(AnnIndex.train_pq, "n_subspaces", "n_centroids", "iterations", "seed"),
        )],
        "search": [
            (lambda a: [a.overfetch], param_defaults(AnnIndex.pq_search, "overfetch_factor"))
        ],
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_flag_defaults_are_the_config_defaults(self, command):
        _, registry = cli.build_parser()
        args = parsed_defaults(registry[command])
        for build, config_class in self.CONFIGS[command]:
            assert build(args) == config_class()


class TestConfigFile:
    @pytest.mark.parametrize("raw, expected", [("false", False), ("true", True)])
    def test_share_tower_key(self, tmp_path, monkeypatch, raw, expected):
        built = []
        monkeypatch.setattr(
            cli, "_cmd_train", lambda args: built.append(cli._config(EncoderConfig, args)) or 0
        )
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"share-tower = {raw}\n")
        argv = ["train", "--config", str(cfg), "--logs", "x", "--vocab", "x", *SPLIT,
                "--checkpoint-out", "x"]
        assert main(argv) == 0
        assert [c.share_tower for c in built] == [expected]

    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 7\nseed = 3\ndays = 2\nimpressions-per-user-day = 2\n")
        code, out, _ = run_cli(
            capsys, "gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "a"),
        )
        assert code == 0
        assert last_json(out)["records"] == 7 * 2 * 2
        code, out, _ = run_cli(
            capsys, "gen-data", "--config", str(cfg), "--users", "3",
            "--out-dir", str(tmp_path / "b"),
        )
        assert code == 0
        assert last_json(out)["records"] == 3 * 2 * 2

    @pytest.mark.parametrize(
        "command, line, config_class, field, expected",
        [
            ("simulate", "no-rerank = true", PipelineConfig, "rerank", False),
            ("simulate", "no_verify_split = yes", PipelineConfig, "verify_split", False),
            ("simulate", "overfetch = 3", PipelineConfig, "overfetch_factor", 3),
            ("simulate", "paths = vector", PipelineConfig, "paths", ("vector",)),
            ("train", "tower-dims = 32,16", EncoderConfig, "tower_dims", (32, 16)),
            ("train", "no-share-tower = true", EncoderConfig, "share_tower", False),
            ("simulate", "no-rerank = OFF", PipelineConfig, "rerank", True),
            ("train", "no-share-tower = On", EncoderConfig, "share_tower", False),
            ("gen-data", "impressions_per_user_day = 2", GeneratorConfig,
             "impressions_per_user_day", 2),
        ],
    )
    def test_key_is_a_flag_name(self, tmp_path, command, line, config_class, field, expected):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(line + "\n")
        _, registry = cli.build_parser()
        cli._apply_config_file(registry[command], str(cfg))
        config = cli._config(config_class, parsed_defaults(registry[command]))
        assert getattr(config, field) == expected

    def test_search_k_key(self, tmp_path):
        # a single-dash flag is a key too
        cfg = tmp_path / "x.cfg"
        cfg.write_text("k = 4\n")
        _, registry = cli.build_parser()
        cli._apply_config_file(registry["search"], str(cfg))
        assert parsed_defaults(registry["search"]).k == 4

    # a field name is not a flag name, and build-index has no --no-pq
    @pytest.mark.parametrize(
        "key, argv",
        [
            ("not-a-real-knob", ["gen-data", "--out-dir", "x"]),
            ("n_users", ["gen-data", "--out-dir", "x"]),
            ("no-pq", ["build-index", "--vectors", "x", "--out", "x"]),
        ],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 9\n")
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert f"unknown config key {key!r}" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(
            capsys, "gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("gen-data", "bogus = 9", "unknown config key 'bogus'"),
            ("gen-data", "users = abc", "invalid literal for int() with base 10: 'abc'"),
            ("gen-data", "just some words", "expected key=value, got 'just some words'"),
            # a misspelled boolean used to read as false, leaving re-ranking on
            ("simulate", "no-rerank = ture",
             "no-rerank takes 1/true/yes/on or 0/false/no/off, got 'ture'"),
            ("simulate", "no-verify-split = flase",
             "no-verify-split takes 1/true/yes/on or 0/false/no/off, got 'flase'"),
        ],
        ids=["unknown-key", "bad-value", "malformed-line", "bool-ture", "bool-flase"],
    )
    def test_config_error_names_the_file_and_line(
        self, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# defaults\nseed = 3\n\n{line}\n")
        code, _, err = run_cli(
            capsys, command, "--config", str(cfg), "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"error: {cfg}, line 4: {message}\n"
