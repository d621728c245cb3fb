"""Benchmark of the ftcc simulator: seeded workloads through the public API.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sparse16 --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

One operation is what ``ftcc export`` does for a scenario file: load it,
``initialize``, ``run_closed_loop`` and write the trace CSV.  On ``init16`` it
is what ``ftcc init`` does (load, ``initialize``, write the gains JSON),
followed by a short closed loop that gives the workload a step rate.  The
benchmark runs whole passes over the workload's scenarios for ``--seconds``,
checks every result, and prints the metrics by name; the last line of
standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` spends the first half of the time untraced and the second half
with the layer wrappers of ``tracing.py`` installed, and reports the
per-layer metrics plus the tracing overhead.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0
# BENCHMARK.json declares the workloads that gate a change; the other two
# run on request and in --workload all (see README.md, "Workloads").
WORKLOADS = ("paper4-quad", "sparse16", "complete48", "init16")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: run length, and each metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class ProgramMissing(Exception):
    """The ftcc sources are not in this checkout."""


def _single_thread_blas() -> None:
    """One client, and no threads besides it.

    The matrices here are at most a few dozen wide.  A second OpenBLAS
    thread made no step faster; it spun a second processor for the whole
    run and doubled the run-to-run spread on a shared machine.  Must run
    before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    """Import ftcc from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ftcc" / "__init__.py").is_file():
        raise ProgramMissing(f"no ftcc sources under {src}")
    sys.path.insert(0, str(src))
    import ftcc

    if src.resolve() not in Path(ftcc.__file__).resolve().parents:
        raise ProgramMissing(f"imported ftcc from {ftcc.__file__}, not from {src}")
    return ftcc


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ftcc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(seed: int, nproc: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_single(args, spec: dict, nproc: int) -> int:
    import bench

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        report = bench.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale == "tiny", work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args.seed, nproc)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": report["metrics"].get(m["name"]), "unit": m["unit"]}
        for m in declared
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report.pop("tracer").write(OUT_DIR / f"{stem}.spans.jsonl")
    detail = {
        "workload": args.workload,
        "provenance": prov,
        "scenarios": report["scenarios"],
        "digests": report["digests"],
        "violations": report["violations"],
        "notes": report["notes"],
        "ops": report["ops"],
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")

    attempted, failed = report["attempted"], report["failed"]
    correct = not report["violations"] and attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {report['ops']}  seconds {args.seconds}")
    print("provenance " + json.dumps(prov))
    kinds = Counter(
        "N={N} E={E} n={n} m_bar={m_bar} {precision} horizon {horizon}".format(**sc)
        for sc in report["scenarios"]
    )
    print("scenarios " + "; ".join(f"{count} x {kind}" for kind, count in kinds.items()))
    for name, m in metrics.items():
        print(f"  {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    share = failed / attempted if attempted else 0.0
    print(f"  {'failed_share':32s} {share:>14.6g} ratio ({failed} of {attempted})")
    for note in report["notes"]:
        print(f"note: {note}")
    for v in report["violations"]:
        print(f"CORRECTNESS VIOLATION: {v}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            correct = False
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}/{name}"] = m
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every scenario, for the smoke test",
    )
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    _single_thread_blas()
    try:
        _import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_single(args, spec, nproc)


if __name__ == "__main__":
    raise SystemExit(main())
