"""Tests of the benchmark itself: smoke runs and the output check.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import loadgen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

# The workload metrics each workload must report.
OWN_METRICS = {
    "ingest": {"stream_points_per_s"},
    "mixed": {"stream_points_per_s", "freshness_ms.p50", "freshness_ms.p90",
              "query_ms.p50", "query_ms.p99"},
    "offline": {"batch_queries_per_s", "eval_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "error_rate"}


def smoke(workload: str, trace: int, seed: int = 5):
    argv = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(OWN_METRICS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert set(report["metrics"]) == OWN_METRICS[workload] | COMMON
    assert all(v["unit"] for v in report["metrics"].values())
    assert report["metrics"]["error_rate"]["value"] == 0.0
    context = report["context"]
    for key in ("seed", "nproc", "blas_threads_env_inherited", "blas_threads_pinned",
                "python", "numpy", "git_commit", "samples"):
        assert key in context
    assert set(report["wall_s"]) == {"pass_s", "setup_s", "reference_s"}
    assert all(wall > 0 and ref > 0 for wall, ref in report["pass_wall_and_reference_s"])
    if trace:
        assert "trace_overhead_pct" in report


def test_same_seed_same_digests_and_traced_replay_matches():
    first, _ = smoke("offline", 0, seed=9)
    again, result = smoke("offline", 1, seed=9)
    assert result["correct"] is True
    assert first["digests"] == again["digests"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_time_divides_out_the_host_speed():
    import hostspeed

    ref = hostspeed.REF_SECONDS
    # The same pass on a host at half speed takes twice the wall time and
    # twice the kernel time: the scaled figure does not move.
    assert hostspeed.scaled_median([(2.0, ref), (4.0, 2 * ref), (9.0, ref)]) == 2.0
    assert hostspeed.Reference().seconds() > 0


def test_loadgen_is_seeded():
    a = loadgen.generate(1000, 8, 5, seed=3)
    b = loadgen.generate(1000, 8, 5, seed=3)
    c = loadgen.generate(1000, 8, 5, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert a[1].any(axis=1).all()
    assert [len(s) for s in loadgen.label_sets(a[1])] == a[1].sum(axis=1).tolist()


def _first_pass(cls, tmp_path):
    checks = oracle.Checks()
    wl = cls(2, "tiny", str(tmp_path), checks)
    wl.setup()
    rec = wl.run_pass(None)
    assert checks.failed == 0, checks.messages
    wl.checks = oracle.Checks()
    return wl, rec


def _caught(check) -> bool:
    """The check fails, or the tampered file cannot even be parsed."""
    try:
        check()
    except ValueError:
        return True
    return False


def test_tampered_hit_list_is_caught(tmp_path):
    wl, rec = _first_pass(workloads.Offline, tmp_path)
    baseline = float(rec["digests"]["baseline"])
    lines = Path(wl.hits).read_text().splitlines()
    for i in range(1, len(lines), workloads.K):  # every query's rank-1 row
        q, rank, idx, dist = lines[i].split(",")
        lines[i] = ",".join([q, rank, str(int(idx) + 1), dist])
    Path(wl.hits).write_text("\n".join(lines) + "\n")
    wl.verify(baseline)
    assert wl.checks.failed > 0


def test_tampered_eval_is_caught(tmp_path):
    wl, rec = _first_pass(workloads.Offline, tmp_path)
    path = Path(wl.eval_out["sym"])
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    path.write_text(header + "\n" + ",".join(fields) + "\n")
    wl.verify(float(rec["digests"]["baseline"]))
    assert wl.checks.failed > 0


def _index_offsets(data: bytes) -> dict[str, int]:
    image = oracle.parse_index(data)
    digest_start = 33
    words_start = len(data) - image["projected"].nbytes - 18 - image["words"].nbytes
    return {
        "digest": digest_start + 5,
        "code_bit": words_start + 8 * 3,
        "code_pad": words_start + 8 * 3 + 5,
        "cache_bit": len(data) - 8 * 4,
        "cache_pad": len(data) - 8 * 4 + 6,
    }


@pytest.mark.parametrize("where", ["digest", "code_bit", "code_pad", "cache_bit", "cache_pad"])
def test_flipped_index_byte_is_caught(tmp_path, where):
    wl, _ = _first_pass(workloads.Ingest, tmp_path)
    data = bytearray(Path(wl.index).read_bytes())
    data[_index_offsets(bytes(data))[where]] ^= 0x01
    Path(wl.index).write_bytes(bytes(data))
    assert _caught(wl.verify) or wl.checks.failed > 0
