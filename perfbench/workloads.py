"""The four benchmark workloads and their seeded inputs.

Everything a run feeds the program is derived from ``--seed``: which
scene builder and scene seed make each frame, its peak luminance, the
Poisson gaps of the open-loop schedule, and each arrival's shape, frame,
tenant and service class.  The program only ever sees the generated
frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.image.synthetic import SCENE_BUILDERS, SceneParams, make_scene

from spans import Tracer

#: Deficit-round-robin weights of the three stream tenants.
TENANTS = {"a": 2.0, "b": 1.0, "c": 1.0}
#: Share of stream arrivals submitted as ``interactive`` (rest: standard).
INTERACTIVE_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    """One traffic description.

    ``shapes`` lists frame ``(height, width)`` pairs (the first is the
    main shape, which the plan is made for) and ``mix`` their relative
    arrival weights.  ``rate_fps`` is the open-loop Poisson rate and
    ``in_flight`` the frames the closed-loop saturation phase keeps in
    the system; both are zero for offline workloads.
    """

    name: str
    kind: str  # "offline" or "stream"
    shapes: Tuple[Tuple[int, int], ...]
    mix: Tuple[int, ...]
    color: bool
    sigma: float
    batch: int
    pool: int  # distinct frames generated per shape
    rate_fps: float = 0.0
    in_flight: int = 0
    queue_limit: int = 0
    shards: int = 0
    hosts: int = 0
    lease_results: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_wide", "offline", ((1024, 1024),), (1,), True, 16.0, 4, 8),
        Workload("paper_narrow", "offline", ((1024, 1024),), (1,), True, 2.0, 4, 8),
        Workload(
            "stream_sharded", "stream", ((128, 128), (96, 128)), (3, 1), True, 2.0,
            8, 24, rate_fps=400.0, in_flight=16, queue_limit=32, shards=2,
        ),
        Workload(
            "stream_hosted", "stream", ((64, 64),), (1,), False, 2.0,
            8, 24, rate_fps=600.0, in_flight=16, queue_limit=32, hosts=2,
            lease_results=True,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A tiny variant for the benchmark's own tests: same code paths."""
    if workload.kind == "offline":
        return replace(workload, shapes=((64, 64),), pool=5)
    return replace(workload, pool=5)


def make_frames(workload: Workload, seed: int) -> Dict[Tuple[int, int], List[np.ndarray]]:
    """``workload.pool`` float32 frames per shape, cycling every scene builder."""
    rng = np.random.default_rng([seed, 1])
    builders = sorted(SCENE_BUILDERS)
    frames = {}
    for shape in workload.shapes:
        order = list(rng.permutation(builders))
        pool = []
        for i in range(workload.pool):
            params = SceneParams(
                height=shape[0],
                width=shape[1],
                peak_luminance=float(rng.uniform(500.0, 8000.0)),
                seed=int(rng.integers(2**31)),
                color=workload.color,
            )
            pool.append(make_scene(order[i % len(order)], params).pixels)
        frames[shape] = pool
    return frames


@dataclass
class Outcome:
    """What one run measured and checked.

    ``attempted`` counts frames submitted (warm-up included), ``failed``
    the frames that errored, were refused or shed, or came back wrong,
    plus leaked arena segments.  ``problems`` lists any other check that
    failed (a probe mismatch, a leftover process); a run is correct only
    when both ``failed`` and ``problems`` are empty.  ``report_ms`` holds
    timings printed in the report lines but not gated in
    ``BENCHMARK.json``.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report_ms: Dict[str, float] = field(default_factory=dict)
    spans: Tracer = field(default_factory=Tracer)


@dataclass(frozen=True)
class Arrival:
    """One stream submission: when it is due and what it carries."""

    due: float  # seconds after the phase starts (open loop only)
    shape: Tuple[int, int]
    frame: int
    tenant: str
    priority: str


def make_schedule(workload: Workload, seed: int, phase: int, count: int) -> List[Arrival]:
    """``count`` seeded arrivals; ``due`` follows Poisson gaps at the rate."""
    rng = np.random.default_rng([seed, 2, phase])
    rate = workload.rate_fps or 1.0
    dues = np.cumsum(rng.exponential(1.0 / rate, count))
    weights = np.asarray(workload.mix, dtype=np.float64)
    shapes = rng.choice(len(workload.shapes), size=count, p=weights / weights.sum())
    frames = rng.integers(workload.pool, size=count)
    names = sorted(TENANTS)
    tenant_weights = np.array([TENANTS[n] for n in names])
    tenants = rng.choice(len(names), size=count, p=tenant_weights / tenant_weights.sum())
    interactive = rng.random(count) < INTERACTIVE_SHARE
    return [
        Arrival(
            due=float(dues[i]),
            shape=workload.shapes[shapes[i]],
            frame=int(frames[i]),
            tenant=names[tenants[i]],
            priority="interactive" if interactive[i] else "standard",
        )
        for i in range(count)
    ]
