"""The benchmark's own tests.

Run them from the repository root::

    python3 -m pytest perfbench/check_perfbench.py -q

They are named ``check_*`` so the repository's tier-1 run does not
collect them: the smoke cases start shard pools and host processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import Span, closure, covered, percentile, self_times  # noqa: E402
from workloads import WORKLOADS, make_frames, make_schedule, smoke  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_catalogue_names_every_workload():
    assert sorted(w["name"] for w in CATALOGUE["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        remote = [n for n in result["metrics"] if n.startswith(("hostpool.", "net."))]
        nonzero = any(result["metrics"][n]["value"] for n in remote)
        assert nonzero == (workload == "stream_hosted")


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = _run(["--workload", "paper_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_regenerates_inputs_and_schedules(name):
    workload = smoke(WORKLOADS[name])
    first, again, other = (make_frames(workload, s) for s in (5, 5, 6))
    for shape in workload.shapes:
        assert all(np.array_equal(a, b) for a, b in zip(first[shape], again[shape]))
        assert not all(np.array_equal(a, b) for a, b in zip(first[shape], other[shape]))
    assert make_schedule(workload, 5, 1, 200) == make_schedule(workload, 5, 1, 200)
    assert make_schedule(workload, 5, 1, 200) != make_schedule(workload, 6, 1, 200)


def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered((0.0, 10.0), [(-5.0, 2.0), (9.0, 15.0)]) == 3.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("frame", 0.0, 10.0),
        Span("ingest.admit", 0.0, 1.0, parent=0),
        Span("ingest.queue_wait", 1.0, 4.0, parent=0),
        Span("shard.run_leased", 3.0, 8.0, parent=0),  # overlaps queue_wait
        Span("arena.lease", 3.0, 3.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.0, 3.0, 4.5, 0.5])
    assert closure(spans, "frame") == pytest.approx(0.8)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0
