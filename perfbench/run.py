#!/usr/bin/env python3
"""Benchmark of streamhash: the ingest, mixed and offline workloads.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # all three workloads, untraced

Run from any directory; the program is imported from ``src/`` next to this
directory. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is ``{"report": ...}``: the workload's own
metrics, the output digests and the recorded context. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ingest", "mixed", "offline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# The workload metrics the report carries, where they apply.
REPORT_UNITS = {
    "setup_s": "s",
    "stream_points_per_s": "1/s",
    "freshness_ms.p50": "ms",
    "freshness_ms.p90": "ms",
    "query_ms.p50": "ms",
    "query_ms.p99": "ms",
    "batch_queries_per_s": "1/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}

# Spans whose summed seconds per pass are per-layer metrics "<span>.s".
SPAN_SECONDS = (
    "online.process_stream_point",
    "labelcodes.ideal_code",
    "itq.fit_pca_itq",
    "itq.encode_batch",
    "itq.encode",
    "index.insert_many",
    "index.refresh_projected_codes",
    "index.query_asymmetric",
    "index.query_symmetric",
    "codes.hamming_rows",
    "evaluate.mean_average_precision.asym",
    "evaluate.mean_average_precision.sym",
    "evaluate.mean_relevant_fraction",
    "fileformats.save_bundle",
    "fileformats.save_index",
    "fileformats.load_bundle",
    "fileformats.load_index",
    "fileformats.read_features",
    "fileformats.read_labels",
)
SPAN_CALLS = ("labelcodes.ideal_code", "index.query_asymmetric", "index.query_symmetric")
COUNTERS = (
    "online.points",
    "online.code_mistakes",
    "online.feature_mistakes",
    "index.refresh.rows",
    "index.cache_lag_points.max",
    "codes.hamming_rows.rows",
    "fileformats.bytes_written",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark the streamhash workloads.")
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for smoke tests only")
    return p.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def layer_metrics(tr) -> dict:
    m = {f"{name}.s": tr.seconds(name) for name in SPAN_SECONDS}
    m.update({f"{name}.calls": tr.calls(name) for name in SPAN_CALLS})
    m.update({name: tr.counts[name] for name in COUNTERS})
    points = tr.counts["online.points"]
    m["online.us_per_point"] = 1e6 * m["online.process_stream_point.s"] / points if points else 0.0
    m["labelcodes.distinct_label_sets"] = len(tr.distinct["labelcodes.distinct_label_sets"])
    m["index.rank_sort.s"] = tr.self_seconds("index.query_asymmetric") + tr.self_seconds(
        "index.query_symmetric"
    )
    m["cli.self.s"] = sum(
        tr.self_seconds(name) for name in ("cli.init", "cli.stream", "cli.query", "cli.eval")
    )
    return m


def workload_metrics(name: str, passes: list[dict], np) -> tuple[dict, dict]:
    """The workload's own end-to-end metrics and the sample count behind each."""
    med = lambda key: float(np.median([p[key] for p in passes]))  # noqa: E731
    values, samples = {}, {}
    if name == "ingest":
        values["stream_points_per_s"] = passes[0]["points"] / med("stream_s")
        samples["stream_points_per_s"] = len(passes)
    elif name == "mixed":
        fresh = np.concatenate([p["fresh"] for p in passes]) * 1e3
        latency = np.concatenate([p["latency"] for p in passes]) * 1e3
        values["stream_points_per_s"] = sum(p["points"] for p in passes) / sum(
            p["write_s"] for p in passes
        )
        values["freshness_ms.p50"] = float(np.percentile(fresh, 50))
        values["freshness_ms.p90"] = float(np.percentile(fresh, 90))
        values["query_ms.p50"] = float(np.percentile(latency, 50))
        values["query_ms.p99"] = float(np.percentile(latency, 99))
        samples.update({"stream_points_per_s": len(fresh), "freshness_ms": len(fresh),
                        "query_ms": len(latency)})
    else:
        values["batch_queries_per_s"] = passes[0]["queries"] / med("query_s")
        values["eval_s"] = med("eval_s")
        samples.update({"batch_queries_per_s": len(passes), "eval_s": len(passes)})
    return values, samples


def measure(wl, args, checks, ref):
    """Alternate passes (untraced first when tracing) until --seconds are measured.

    The reference kernel runs before the first pass and after every pass;
    each record's ``ref_s`` is the mean of the two runs around its pass.
    """
    records = []
    measured = 0.0
    start = perf_counter()
    min_passes = max(wl.min_passes, 2 if args.trace else 1)
    ref_before = ref.seconds()
    while True:
        tr = Tracer() if args.trace and len(records) % 2 == 1 else None
        t0 = perf_counter()
        try:
            rec = wl.run_pass(tr)
        except Exception:
            checks.attempted += 1
            checks.fail(f"{wl.name} pass {len(records) + 1} raised:\n{traceback.format_exc()}")
            rec = None
        last = rec["pass_s"] if rec else perf_counter() - t0
        ref_after = ref.seconds()
        if rec:
            rec["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        measured += last
        records.append((tr, rec))
        if len(records) >= min_passes and measured + last > args.seconds:
            break
        if perf_counter() - start > 3 * args.seconds + 60:
            break
    return records


def timed_setups(wl, ref) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds around it) of each of the run's set-ups."""
    out = []
    ref_before = ref.seconds()
    for _ in range(wl.setups):
        wall = wl.setup()
        ref_after = ref.seconds()
        out.append((wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return out


def run_one(args) -> int:
    inherited = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    os.environ.update({v: str(BLAS_THREADS) for v in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    # BLAS reads its thread count when numpy loads, so numpy, the program and
    # everything that imports them load only now.
    import numpy as np
    import streamhash

    if not Path(streamhash.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported streamhash from {streamhash.__file__}", file=sys.stderr)
        return 2
    import hostspeed
    from oracle import Checks
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = Checks()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, str(workdir), checks)
        ref = hostspeed.Reference()
        setups = timed_setups(wl, ref)
        if args.trace:
            setup_tracer = Tracer()
            wl.setup(setup_tracer)
        records = measure(wl, args, checks, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [rec for tr, rec in records if tr is None and rec]
    traced = [(tr, rec) for tr, rec in records if tr is not None and rec]
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = hostspeed.scaled_median([(r["pass_s"], r["ref_s"]) for r in untraced])
    setup_s = hostspeed.scaled_median(setups)
    wall = {
        "pass_s": float(np.median([r["pass_s"] for r in untraced])),
        "setup_s": float(np.median([w for w, _ in setups])),
        "reference_s": float(np.median([r["ref_s"] for r in untraced] + [r for _, r in setups])),
    }

    own, samples = workload_metrics(args.workload, untraced, np)
    own.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
               error_rate=checks.failed / max(checks.attempted, 1))
    samples.update(setup_s=wl.setups, pass_s=len(untraced))

    if args.trace:
        per_pass = [layer_metrics(tr) for tr, _ in traced]
        metrics = {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}
        # The fixed hash stage is fitted in set-up on every workload.
        metrics["itq.fit_pca_itq.s"] = setup_tracer.seconds("itq.fit_pca_itq")
        traced_pass_s = float(np.median([rec["pass_s"] for _, rec in traced]))
        metrics["trace.overhead_pct"] = 100.0 * (traced_pass_s / wall["pass_s"] - 1.0)
        declared = bench["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for i, (tr, _) in enumerate(traced):
                tr.write(f, i)
    else:
        metrics = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
        declared = bench["end_to_end"]
    if set(metrics) != {d["name"] for d in declared}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env_inherited": inherited,
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "samples": samples,
    }
    report = {
        "metrics": {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in own.items()},
        "pass_s": {"value": pass_s, "unit": "s"},
        "wall_s": wall,
        "pass_wall_and_reference_s": [[r["pass_s"], r["ref_s"]] for r in untraced],
        "digests": untraced[0]["digests"],
        "context": context,
        "check_failures": checks.messages[:10],
    }
    if args.trace:
        report["trace_overhead_pct"] = metrics["trace.overhead_pct"]
    print(json.dumps({"report": report}))
    units = {d["name"]: d["unit"] for d in declared}
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    table = {}
    correct, attempted, failed = True, 0, 0
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = result["metrics"] if args.trace else {**report["metrics"], "pass_s": report["pass_s"]}
        for metric, entry in shown.items():
            table[f"{name}.{metric}"] = entry
            print(f"{name:8s} {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:8s} digests {json.dumps(report['digests'])}")
        print(f"{name:8s} context {json.dumps(report['context'])}")
    if status:
        return status
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": table}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "streamhash" / "__init__.py").is_file():
        print(f"error: no streamhash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
