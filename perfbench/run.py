"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload stream_sharded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced variant and
reports the per-layer metrics.  ``--workload all`` runs every workload
untraced and then traced, each in a fresh process.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.tonemap.pipeline import ToneMapParams  # noqa: E402

import offline  # noqa: E402
import probes  # noqa: E402
import proc  # noqa: E402
import stream  # noqa: E402
from spans import write_spans  # noqa: E402
from workloads import WORKLOADS, Outcome, make_frames, smoke  # noqa: E402

TRACE_DIR = HERE / "traces"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny frames and pools: exercises every code path in seconds",
    )
    return parser.parse_args(argv)


def measure(args) -> Outcome:
    """Run one workload; teardown and leak checks included."""
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    params = ToneMapParams(sigma=workload.sigma)
    frames = make_frames(workload, args.seed)
    refs = probes.references(params, frames)
    outcome = Outcome()
    before = proc.shm_segments()
    try:
        if workload.kind == "offline":
            offline.run(workload, params, frames, refs, args.seconds, bool(args.trace), outcome)
        else:
            stream.run(
                workload, params, frames, refs, args.seed, args.seconds, bool(args.trace), outcome
            )
        leaked = len(proc.shm_segments() - before)
    finally:
        proc.stop_helpers()
    outcome.layers["arena.leaked_segments"] = float(leaked)
    outcome.failed += leaked
    if leaked:
        outcome.problems.append(f"{leaked} shared-memory segments outlived teardown")
    leftover = proc.descendants()
    if leftover:
        outcome.problems.append(f"processes still running after teardown: {leftover}")
    return outcome


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(command + ["--smoke"] * args.smoke).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    outcome = measure(args)
    measured = outcome.layers if args.trace else outcome.end_to_end
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    if args.trace:
        write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz", outcome.spans.spans)
    attempted = max(1, outcome.attempted)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    print(f"  {'failed_frac':34s} {outcome.failed / attempted:14.6g} ratio")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in outcome.report_ms.items():
        print(f"  {name:34s} {value:14.6g} ms (not gated)")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
