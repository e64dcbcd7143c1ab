"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import percentile, reference_count, tail  # noqa: E402
from tracing import layer_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in summary["metrics"].items()}
    for value in summary["metrics"].values():
        assert isinstance(value["value"], (int, float))
    result = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert result["work_repeats_exactly"] is True
    for key in ("nproc", "python", "numpy", "commit", "seed", "loadavg_start", "loadavg_end"):
        assert key in result["provenance"]
    if trace:
        spans = (HERE / "out" / f"{workload}-seed3-trace1.spans.jsonl").read_text().splitlines()
        assert set(json.loads(spans[0])) >= {"name", "start", "end", "parent", "run"}


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ctx = workloads.Context(ROOT, HERE / "out", smoke=True)
    for name in workloads.NAMES:
        a = workloads.make(name, 5, ctx)
        b = workloads.make(name, 5, ctx)
        assert [op.kind for op in a.ops] == [op.kind for op in b.ops]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "count-profile", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert "no sumfree sources" in proc.stderr
    assert not proc.stdout.strip()


def test_tail_has_ten_samples_beyond():
    vals = sorted(range(1000))
    assert tail(vals)[0] == 99.0
    assert tail(vals[:150])[0] == 90.0
    assert tail(vals[:20])[0] == 50.0
    assert percentile([1.0, 3.0], 50.0) == 2.0


def test_self_time_subtracts_children():
    spans = [
        ("outer", "sampling", 0.0, 10.0, -1, None),
        ("inner", "enumeration", 1.0, 4.0, 0, None),
        ("nested", "enumeration", 2.0, 3.0, 1, None),
    ]
    busy, self_time = layer_times(spans)
    assert busy == {"sampling": 10.0, "enumeration": 3.0}
    assert self_time == {"sampling": 7.0, "enumeration": 3.0}


def test_reference_counts_sum_free_sets():
    from workloads import FROZEN

    for n in (1, 12, 16):
        assert reference_count(n) == sum(FROZEN[n].values())
