#!/usr/bin/env python3
"""admatch benchmark: one workload per run, or all of them with a report.

    python3 perfbench/run.py --workload serve-demo --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

Run from the repository root. The program is imported from ``src/`` of
the same checkout; without it the run exits non-zero and prints no
result. A single-workload run prints a human report, one ``provenance``
line, one ``report`` line, and as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload untraced and traced in child
processes and prints the two side by side (the tracing overhead).
Timing output never goes into the program's own artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("serve-demo", "serve-large", "train-demo")


def import_program() -> None:
    """Put this checkout's src/ first on the path and insist on it."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(SRC))
    try:
        import admatch
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import admatch from {SRC}: {exc}")
    if Path(admatch.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: admatch was imported from {admatch.__file__}")


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: int, size, res) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "admatch").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, ValueError, KeyError):
        blas = None
    # a checkout that is not itself a git work tree has no rev to report
    in_git = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": asdict(size),
        "git_rev": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "artifacts_sha256": res.artifacts,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload in this process; returns (Result, metrics to print)."""
    import spans
    import workloads

    size = (sizes or workloads.SIZES)[workload]
    rec = spans.Recorder()
    work = BENCH_DIR / "_work" / f"{workload}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    # admatch logs (fallback warnings included) go to a file, as a server's would
    root = logging.getLogger()
    handler = logging.FileHandler(work / "admatch.log")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    restore = spans.install(rec) if trace else (lambda: None)
    try:
        res = workloads.WORKLOADS[workload](rec, size, seed, seconds, work)
    finally:
        restore()
        root.removeHandler(handler)
        handler.close()
        shutil.rmtree(work, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.metric("peak_rss_mb", rss_mb, "MiB")
    res.line("peak_rss_mb", rss_mb, "MiB", 1)
    res.line("fail_ratio", res.failed / max(res.attempted, 1), "failed/attempted",
             res.attempted)
    if trace:
        return res, spans.layer_metrics(rec, res.setup_repeats, res.pass_counts), size
    return res, dict(res.e2e), size


def correct(res) -> bool:
    return res.failed == 0 and all(ok for _, ok, _ in res.checks) and all(
        math.isfinite(m["value"]) for m in res.e2e.values()
    )


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    res, metrics, size = measure(workload, seed, seconds, bool(trace))
    ok = correct(res)
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, value, unit, n in res.report:
        print(f"  {name:<26} {value:>14.6g} {unit:<18} n={n}")
    for name, passed, detail in res.checks:
        print(f"  check {name:<28} {'PASS' if passed else 'FAIL'} {detail}")
    if trace:
        for name, m in sorted(metrics.items()):
            print(f"  layer {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  verdict {'PASS' if ok else 'FAIL'}: attempted {res.attempted}, "
          f"failed {res.failed}")
    print("provenance " + json.dumps(provenance(workload, seed, seconds, trace, size, res),
                                     sort_keys=True))
    print("report " + json.dumps({"workload": workload, "trace": trace, "e2e": res.e2e,
                                  "lines": res.report}))
    print(json.dumps({"correct": ok, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own child process."""
    reports, final, ok = {}, {}, True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(l for l in lines[:-1] if not l.startswith(("report ", "provenance "))))
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            reports[workload, trace] = next(
                json.loads(l[len("report "):]) for l in lines if l.startswith("report ")
            )
            final[workload, trace] = json.loads(lines[-1])
    print("\n== tracing overhead: end-to-end metrics untraced vs traced")
    for workload in WORKLOAD_NAMES:
        if (workload, 0) not in reports or (workload, 1) not in reports:
            continue
        plain, traced = reports[workload, 0]["e2e"], reports[workload, 1]["e2e"]
        for name in sorted(plain):
            a, b = plain[name]["value"], traced[name]["value"]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {workload:<12} {name:<20} {a:>12.5g} {b:>12.5g} {change:>8} "
                  f"{plain[name]['unit']}")
    metrics = {
        f"{w}.{name}": m
        for (w, t), out in final.items() if t == 0
        for name, m in out["metrics"].items()
    }
    ok = ok and all(out["correct"] for out in final.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(out["attempted"] for out in final.values()) or 1,
        "failed": sum(out["failed"] for out in final.values()),
        "metrics": metrics,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    # one caller thread: multi-threaded BLAS on these small matrices mostly
    # waits for a second core that other work may hold; set before numpy loads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    import_program()
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
