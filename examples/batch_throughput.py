"""Batched tone-mapping throughput demo.

Builds a stack of synthetic HDR scenes and pushes them through the
pipeline four ways:

1. one image at a time through :class:`repro.tonemap.pipeline.ToneMapper`
   (the seed serving model);
2. whole-batch through :class:`repro.runtime.BatchToneMapper`;
3. batched *and* thread-pooled through
   :class:`repro.runtime.ToneMapService`;
4. streamed through :class:`repro.runtime.ToneMapIngestor` (a batch
   whenever a slot is idle, backpressure) onto a 2-process
   :class:`repro.runtime.ShardPool`.

Run with ``PYTHONPATH=src python examples/batch_throughput.py [size] [count]``.
"""

import sys
import time

from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import BatchToneMapper, ToneMapIngestor, ToneMapService
from repro.tonemap.pipeline import ToneMapParams, ToneMapper


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    params = ToneMapParams()  # sigma 16: the paper's mask width

    print(f"tone-mapping {count} x {size}x{size} RGB scenes (sigma=16)\n")
    images = [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=2018 + i),
        )
        for i in range(count)
    ]
    pixels = count * size * size

    start = time.perf_counter()
    mapper = ToneMapper(params)
    for image in images:
        mapper.run(image)
    sequential = time.perf_counter() - start
    print(f"per-image ToneMapper : {sequential:6.2f} s  "
          f"{pixels / sequential / 1e6:6.2f} Mpix/s")

    start = time.perf_counter()
    BatchToneMapper(params).run(images)
    batched = time.perf_counter() - start
    print(f"BatchToneMapper      : {batched:6.2f} s  "
          f"{pixels / batched / 1e6:6.2f} Mpix/s  "
          f"({sequential / batched:.2f}x)")

    start = time.perf_counter()
    with ToneMapService(params, batch_size=max(1, count // 4)) as service:
        service.map_many(images)
    pooled = time.perf_counter() - start
    print(f"ToneMapService       : {pooled:6.2f} s  "
          f"{pixels / pooled / 1e6:6.2f} Mpix/s  "
          f"({sequential / pooled:.2f}x)")

    # 4. streamed one image at a time through the async ingestion
    #    front-end (a batch whenever a slot is idle, bounded-queue
    #    backpressure) and sharded across two worker processes.
    start = time.perf_counter()
    with ToneMapService(
        params, batch_size=max(1, count // 4), shards=2
    ) as service:
        with ToneMapIngestor(service, queue_limit=count) as ingestor:
            ingestor.map_many(images)
            stats = ingestor.stats
    streamed = time.perf_counter() - start
    print(f"Ingestor + 2 shards  : {streamed:6.2f} s  "
          f"{pixels / streamed / 1e6:6.2f} Mpix/s  "
          f"({sequential / streamed:.2f}x)  "
          f"p95 latency {stats.latency_p95_ms:.0f} ms")


if __name__ == "__main__":
    main()
