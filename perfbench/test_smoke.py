"""Seconds-long smoke test of the benchmark harness at toy sizes.

    python -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a perturbed pre-rank score fails the correctness verdict, and that
a checkout without the program exits non-zero without a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from admatch import pipeline  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.TOY_SIZES))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res, metrics, _ = run.measure(workload, 3, 0.2, bool(trace), workloads.TOY_SIZES)
    assert run.correct(res), res.checks
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_perturbed_prerank_score_fails_the_verdict(monkeypatch):
    original = pipeline.PrerankScorer.score_from_parts
    monkeypatch.setattr(
        pipeline.PrerankScorer,
        "score_from_parts",
        lambda self, q_part, a_parts: original(self, q_part, a_parts) + 1e-6,
    )
    res, _, _ = run.measure("serve-demo", 3, 0.2, False, workloads.TOY_SIZES)
    failed = {name for name, ok, _ in res.checks if not ok}
    assert "prerank_split_identity" in failed
    assert not run.correct(res)


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
