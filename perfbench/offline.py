"""The offline workloads: one caller running back-to-back batches.

``paper_wide`` and ``paper_narrow`` hand 1024² RGB stacks to an
in-process planned ``BatchToneMapper`` in a closed loop; each frame's
latency is its batch's ``run_stack`` call.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.planner import Planner, Workload as PlanWorkload
from repro.runtime import BatchToneMapper

import probes
import proc
from spans import clock, closure, median, percentile, repeat_setup, wrap_method
from workloads import Outcome, Workload

PROBE_REPS = 3
#: Untraced/traced segment pairs of the traced run.
PAIRS = 3


def run(workload: Workload, params, frames, refs, seconds: float, traced: bool,
        outcome: Outcome) -> None:
    shape = workload.shapes[0]
    pool, want = frames[shape], refs[shape]
    size = workload.batch
    groups = [list(range(lo, lo + size)) for lo in range(0, len(pool) - size + 1, size)]
    stacks = [np.stack([pool[i] for i in g]) for g in groups]
    for stack, group in zip(stacks, groups):
        for slot, i in enumerate(group):
            pool[i] = stack[slot]  # keep one copy of each 12 MB frame
    out = np.empty(stacks[0].shape, dtype=np.float32)
    plan_s: List[float] = []
    pending: List[tuple] = []  # run_stack call intervals seen by the wrapper
    mapper = plan = None
    exact = True

    def check(k: int) -> None:
        outcome.attempted += size
        outcome.failed += sum(
            not probes.matches(out[slot], want[i], exact)
            for slot, i in enumerate(groups[k])
        )

    def build() -> float:
        nonlocal mapper, plan, exact
        start = clock()
        plan = Planner().plan(
            PlanWorkload(shape[0], shape[1], batch=size, sigma=workload.sigma,
                         color=workload.color)
        )
        plan_s.append(clock() - start)
        mapper = BatchToneMapper(params, plan=plan)
        mapper.run_stack(stacks[0], out)
        elapsed = clock() - start
        exact = probes.exact_contract(plan)
        check(0)
        return elapsed

    def measure(duration: float, root: str = "") -> List[float]:
        """Batches back to back for ``duration`` s; returns call seconds."""
        times: List[float] = []
        end = clock() + duration
        while not times or clock() < end:
            k = len(times) % len(stacks)
            t0 = clock()
            mapper.run_stack(stacks[k], out)
            t1 = clock()
            times.append(t1 - t0)
            if root:
                batch = len(outcome.spans.spans) // 2
                parent = outcome.spans.add(root, t0, t1, batch=batch)
                outcome.spans.add("batch.run_stack", *pending.pop(), parent=parent,
                                  batch=batch)
            check(k)
        return times

    try:
        setup_s = repeat_setup(build, lambda: mapper.close())
        measure(min(1.0, seconds / 4))  # warm caches and the allocator
        if not traced:
            times = measure(seconds)
            outcome.end_to_end.update(
                setup_s=median(setup_s),
                frames_per_s=median([size / t for t in times]),
                frame_p50_ms=percentile(times, 0.50) * 1e3,
                peak_rss_mb=proc.peak_rss_mb(),
            )
            outcome.report_ms["frame_p95_ms"] = percentile(times, 0.95) * 1e3
            return
        # Untraced and traced segments alternate, so slow drift of the
        # host stays out of trace.overhead.
        plain: List[float] = []
        traced_times: List[float] = []
        for _ in range(PAIRS):
            plain += measure(seconds / (2 * PAIRS))
            unwrap = wrap_method(
                mapper, "run_stack",
                lambda start, args, kwargs: lambda end, result: pending.append((start, end)),
            )
            try:
                traced_times += measure(seconds / (2 * PAIRS), root="batch")
            finally:
                unwrap()
        outcome.layers.update(
            {
                "planner.plan_ms": median(plan_s) * 1e3,
                "batch.run_stack_ms": median(outcome.spans.durations("batch.run_stack"))
                * 1e3 / size,
                "trace.overhead": 1.0 - median([1 / t for t in traced_times])
                / median([1 / t for t in plain]),
                "trace.closure": closure(outcome.spans.spans, "batch"),
            }
        )
        stages, identical = probes.stage_probe(params, stacks[0], PROBE_REPS)
        outcome.layers.update(stages)
        if not identical:
            outcome.problems.append("staged stage composition differs from run_stack")
        if plan.engine == "fused":
            expected = np.stack([want[i] for i in groups[0]])
            fused, ok = probes.fused_probe(
                params, plan, stacks[0], plan.threads, PROBE_REPS, expected, exact
            )
            outcome.layers.update(fused)
            if not ok:
                outcome.problems.append("fused probe output differs from the reference")
    finally:
        if mapper is not None:
            mapper.close()
