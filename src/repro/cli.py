"""Command-line interface: ``repro-experiments``.

Subcommands map one-to-one to the paper's artifacts::

    repro-experiments table2              # Table II
    repro-experiments fig5 [-o DIR]       # Fig. 5 images + PSNR/SSIM
    repro-experiments fig6|fig7|fig8      # the three bar charts
    repro-experiments profile             # the SDSoC profiling step
    repro-experiments report NAME         # HLS report of one variant
    repro-experiments all [-o DIR]        # everything
    repro-experiments batch [...]         # batched tone-mapping throughput
    repro-experiments planner explain     # plan + rationale for a workload
    repro-experiments planner calibrate   # measure this host's crossovers

``--size`` shrinks the Fig. 5 image for quick runs (timing experiments
are analytic and unaffected).

``batch`` is the serving-path entry point: it tone-maps N images (a
directory of .pfm/.ppm files, or synthetic scenes) through the batched
:class:`repro.runtime.BatchToneMapper` on a
:class:`repro.runtime.ToneMapService` thread pool and reports aggregate
pixels/second.  Every batch is staged in the service's persistent
shared-memory arena (``--arena-slots`` sets its depth);
``--shards`` partitions each one across worker processes, one slab
per worker; ``--max-delay-ms`` / ``--queue-limit`` / ``--policy`` stream
the images through the :class:`repro.runtime.ToneMapIngestor` front-end
(deadline coalescing + bounded-queue backpressure, zero-copy into the
arena) instead of submitting them as one pre-grouped
workload; ``--deadline-ms`` / ``--shard-timeout-ms`` / ``--breaker`` /
``--fault-plan`` arm the reliability layer (per-frame latency budgets,
the hung-shard watchdog + hedged replay, circuit-breaker brownout to
the in-process backend, and seeded chaos injection — the counters land
in the report); ``--plan auto`` lets the execution planner
(:mod:`repro.planner`) pick the engine and blur path from the workload
and the host calibration — every float workload runs the fused band
engine, single-pass banded stages with no full-frame intermediates
(:mod:`repro.runtime.fused`) — and ``--plan FILE`` replays a saved
plan; without ``--plan`` batches run the staged reference engine.
``--threads N`` sizes the in-process mapper's fused engine (shard
workers run one thread each).  ``serve-host --plan FILE`` loads a plan
the same way for a serving host.  ``planner explain`` prints the plan
and its cost rationale for a described workload without running anything;
``planner calibrate`` measures this host's two crossovers (staged
folded vs FFT, fused band ring vs whole-plane FFT mask) and can
write them as a profile (``-o host.json``, activated via
``REPRO_PLANNER_PROFILE``).  See ``docs/architecture.md`` for the full
data path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.calibration import make_paper_flow
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.runner import run_all_experiments
from repro.experiments.table2 import run_table2
from repro.experiments.workload import paper_workload
from repro.planner import calibrate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Hardware Acceleration of "
            "HDR-Image Tone Mapping on an FPGA-CPU Platform Through "
            "High-Level Synthesis' (SOCC 2018)."
        ),
    )
    parser.add_argument(
        "--size", type=int, default=1024,
        help="image size for pixel-processing experiments (default 1024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="Table II execution times")
    fig5 = sub.add_parser("fig5", help="Fig. 5 images and PSNR/SSIM")
    fig5.add_argument(
        "-o", "--output-dir", type=Path, default=None,
        help="write fig5a/b/c image files here",
    )
    sub.add_parser("fig6", help="Fig. 6 PS/PL time bars")
    sub.add_parser("fig7", help="Fig. 7 energy-by-rail bars")
    sub.add_parser("fig8", help="Fig. 8 bottomline/overhead bars")
    sub.add_parser("profile", help="SDSoC profiling step (flow step 1)")
    sub.add_parser("ablations", help="ablation sweeps of the design choices")
    sub.add_parser("extensions", help="overlap + video-throughput studies")
    sub.add_parser("robustness", help="FxP quality across scene classes")
    report = sub.add_parser("report", help="HLS report of one variant")
    report.add_argument(
        "variant", choices=("marked_hw", "sequential", "pragmas", "fxp")
    )
    allcmd = sub.add_parser("all", help="run every experiment")
    allcmd.add_argument(
        "-o", "--output-dir", type=Path, default=None,
        help="write Fig. 5 image files here",
    )
    batch = sub.add_parser(
        "batch", help="batched tone-mapping throughput (the serving path)"
    )
    batch.add_argument(
        "--images", type=Path, default=None,
        help="directory of .pfm/.ppm HDR inputs (default: synthetic scenes)",
    )
    batch.add_argument(
        "--count", type=int, default=8,
        help="number of synthetic images when no --images dir (default 8)",
    )
    batch.add_argument(
        "--scene", default="window_interior",
        help="synthetic scene name (see repro.image.synthetic.SCENE_BUILDERS)",
    )
    batch.add_argument(
        "--batch-size", type=int, default=8,
        help="images per batched pipeline run (default 8)",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool width (default: executor default)",
    )
    batch.add_argument(
        "--fixed", action="store_true",
        help="use the bit-accurate 16-bit fixed-point blur",
    )
    batch.add_argument(
        "--sigma", type=float, default=None,
        help="Gaussian mask sigma (default: the paper's 16)",
    )
    batch.add_argument(
        "--threads", type=int, default=None,
        help="fused engine threads of the in-process mapper (planned by "
             "--plan auto, pinned onto a --plan FILE; shard workers run "
             "one thread each; requires --plan)",
    )
    batch.add_argument(
        "--shards", type=int, default=None,
        help="partition each batch across N worker processes "
             "(persistent shared-memory arena; beats the GIL on the "
             "fixed-point glue)",
    )
    batch.add_argument(
        "--hosts", default=None, metavar="N|ADDR[,ADDR...]",
        help="route batches across shard hosts instead of local worker "
             "processes: an integer spawns that many localhost host "
             "processes (2 workers each), a comma-separated "
             "host:port list connects to already-running "
             "'serve-host' processes; mutually exclusive with --shards",
    )
    batch.add_argument(
        "--arena-slots", type=int, default=4,
        help="shared-memory arena depth per size class (pooled input "
             "stacks / output-ring slabs; default 4)",
    )
    batch.add_argument(
        "--max-delay-ms", type=float, default=None,
        help="stream images through the ingestor, coalescing same-shape "
             "arrivals into batches under this deadline",
    )
    batch.add_argument(
        "--queue-limit", type=int, default=None,
        help="bounded admission queue for the streaming path "
             "(images in flight; implies the ingestor)",
    )
    batch.add_argument(
        "--policy", choices=("block", "reject", "shed-oldest"),
        default="block",
        help="backpressure policy when the queue is full (default block)",
    )
    batch.add_argument(
        "--tenant-weights", default=None, metavar="NAME=W[,NAME=W...]",
        help="serve the stream as multiple tenants with these "
             "deficit-round-robin weights (images are assigned "
             "round-robin across the named tenants; implies the "
             "streaming path); per-tenant depth/served/latency and the "
             "fairness index are reported",
    )
    batch.add_argument(
        "--per-tenant-queue-limit", type=int, default=None,
        help="per-tenant in-flight bound (each tenant's own admission "
             "budget, on top of --queue-limit; implies the streaming "
             "path)",
    )
    batch.add_argument(
        "--lease-results", action="store_true",
        help="resolve results as zero-copy arena lease handles "
             "(released after consumption) instead of materialized "
             "copies; implies the streaming path",
    )
    batch.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-frame end-to-end latency budget: frames still queued "
             "past it are shed with DeadlineExceededError and the "
             "remaining budget rides into the shard pool as the batch "
             "timeout (implies the streaming path)",
    )
    batch.add_argument(
        "--shard-timeout-ms", type=float, default=None,
        help="per-attempt batch execution budget on the shard pool: the "
             "watchdog SIGKILLs workers that hold a batch past it and "
             "hedge-replays the batch once (requires --shards or "
             "--hosts)",
    )
    batch.add_argument(
        "--breaker", type=int, default=None, metavar="K",
        help="circuit breaker: after K shard failures in a 30 s window, "
             "brown batches out to the in-process mapper (bit-identical, "
             "slower) until probes succeed (requires --shards or "
             "--hosts)",
    )
    batch.add_argument(
        "--slo-p95-ms", type=float, default=None,
        help="declare a p95 latency SLO on the streaming path: an "
             "overload controller walks the degradation ladder (full -> "
             "shed best-effort -> brownout) when the observed p95 "
             "breaches it, and back when it recovers "
             "(implies the streaming path)",
    )
    batch.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="chaos injection plan, e.g. 'kill@2,hang%%0.05,seed=7' "
             "(kinds: kill/hang/exhaust/slow and, with --hosts, "
             "partition/slow-link/host-loss; @ lists batch indices, "
             "%% a probability); also read from REPRO_FAULT_PLAN",
    )
    batch.add_argument(
        "--plan", default=None, metavar="auto|FILE",
        help="dispatch through the execution planner: 'auto' plans from "
             "the workload and the active calibration profile (the fused "
             "engine for every float workload); a file path replays a "
             "plan saved by 'planner explain --json'; default: the "
             "staged engine",
    )
    batch.add_argument(
        "-o", "--output-dir", type=Path, default=None,
        help="write tone-mapped outputs here as .ppm",
    )

    serve = sub.add_parser(
        "serve-host",
        help="run one shard host serving the multi-host wire protocol "
             "(pair with 'batch --hosts host:port,...')",
    )
    serve.add_argument(
        "--bind", default="127.0.0.1",
        help="address to listen on (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the bound address is "
             "printed on startup)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="worker processes on this host (default 2)",
    )
    serve.add_argument(
        "--fixed", action="store_true",
        help="use the bit-accurate 16-bit fixed-point blur",
    )
    serve.add_argument(
        "--plan", default=None, metavar="FILE",
        help="execution plan saved by 'planner explain --json' (as for "
             "'batch --plan FILE'); default: the staged engine",
    )
    serve.add_argument(
        "--sigma", type=float, default=None,
        help="Gaussian mask sigma (default: the paper's 16)",
    )
    serve.add_argument(
        "--arena-slots", type=int, default=4,
        help="shared-memory arena depth per size class (default 4)",
    )
    serve.add_argument(
        "--shard-timeout-ms", type=float, default=None,
        help="per-attempt batch execution budget on this host's pool "
             "(arms the shard watchdog)",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="chaos injection plan for this host's worker pool "
             "(kinds: kill/hang/exhaust/slow)",
    )

    planner = sub.add_parser(
        "planner",
        help="execution planner: explain plans, calibrate this host",
    )
    psub = planner.add_subparsers(dest="planner_command", required=True)
    explain = psub.add_parser(
        "explain",
        help="print the plan (and cost rationale) for a workload",
    )
    explain.add_argument("--height", type=int, default=1024)
    explain.add_argument("--width", type=int, default=1024)
    explain.add_argument("--batch", type=int, default=1)
    explain.add_argument("--sigma", type=float, default=16.0)
    explain.add_argument(
        "--radius", type=int, default=None,
        help="kernel radius (default: ceil(3*sigma))",
    )
    explain.add_argument(
        "--dtype", choices=("float32", "float64", "fixed"),
        default="float32",
    )
    explain.add_argument("--color", action="store_true")
    explain.add_argument("--threads", type=int, default=None)
    explain.add_argument(
        "--profile", type=Path, default=None,
        help="calibration profile JSON (default: the active profile — "
             "the REPRO_PLANNER_PROFILE file, else the built-ins)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the plan as JSON (replayable via 'batch --plan FILE')",
    )
    calibrate.add_arguments(psub.add_parser(
        "calibrate",
        help="measure this host's dispatch crossovers and write a "
             "calibration profile",
    ))
    return parser


def _batch_images(args) -> list:
    """Inputs for the ``batch`` command: a directory or synthetic scenes."""
    from repro.image.hdr import HDRImage
    from repro.image.pfm import read_pfm
    from repro.image.ppm import read_ppm
    from repro.image.synthetic import SceneParams, make_scene

    if args.images is not None:
        if not args.images.is_dir():
            raise SystemExit(f"--images path {args.images} is not a directory")
        images = []
        for path in sorted(args.images.iterdir()):
            if path.suffix.lower() == ".pfm":
                images.append(read_pfm(path))
            elif path.suffix.lower() in (".ppm", ".pgm"):
                images.append(HDRImage(read_ppm(path), name=path.stem))
        if not images:
            raise SystemExit(f"no .pfm/.ppm/.pgm images found in {args.images}")
        return images
    return [
        make_scene(args.scene, SceneParams(
            height=args.size, width=args.size, seed=2018 + i,
        ))
        for i in range(args.count)
    ]


def _parse_tenant_weights(spec: str) -> dict:
    """``"heavy=3,light=1"`` → ``{"heavy": 3.0, "light": 1.0}``."""
    tenants = {}
    for part in spec.split(","):
        name, sep, weight = part.partition("=")
        name = name.strip()
        try:
            parsed = float(weight)
        except ValueError:
            parsed = -1.0
        if not sep or not name or parsed <= 0:
            raise SystemExit(
                f"--tenant-weights: expected NAME=POSITIVE_WEIGHT, got "
                f"{part!r}"
            )
        tenants[name] = parsed
    return tenants


def _load_plan(path):
    """Read an execution plan saved by ``planner explain --json``."""
    import json

    from repro.errors import ToneMapError
    from repro.planner.plan import ExecutionPlan

    try:
        return ExecutionPlan.from_json_dict(
            json.loads(Path(path).read_text())
        )
    except (OSError, ValueError, KeyError, TypeError, ToneMapError) as exc:
        raise SystemExit(f"--plan {path}: {exc}") from exc


def _params(args):
    """Pipeline parameters from the shared ``--sigma`` / ``--fixed`` flags."""
    from repro.tonemap.fixed_blur import make_fixed_blur_fn
    from repro.tonemap.pipeline import ToneMapParams

    blur_fn = make_fixed_blur_fn() if args.fixed else None
    if args.sigma is None:
        return ToneMapParams(blur_fn=blur_fn)
    return ToneMapParams(sigma=args.sigma, blur_fn=blur_fn)


def run_batch(args) -> None:
    """The ``batch`` subcommand: tone-map N images, report throughput."""
    import time

    from repro.errors import DeadlineExceededError, ServiceOverloadedError
    from repro.image.ppm import write_ppm
    from repro.runtime import (
        BreakerPolicy,
        ResultHandle,
        ServiceLevelObjective,
        ToneMapIngestor,
        ToneMapService,
    )

    # Flag validation first: a usage error must not cost the caller the
    # synthetic-image generation below.
    if args.threads is not None and args.plan is None:
        raise SystemExit("--threads requires --plan")
    if args.threads is not None and args.threads < 1:
        raise SystemExit(f"--threads must be >= 1, got {args.threads}")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise SystemExit(f"--deadline-ms must be > 0, got {args.deadline_ms}")
    if args.shard_timeout_ms is not None and args.shard_timeout_ms <= 0:
        raise SystemExit(
            f"--shard-timeout-ms must be > 0, got {args.shard_timeout_ms}"
        )
    if args.breaker is not None and args.breaker < 1:
        raise SystemExit(f"--breaker must be >= 1, got {args.breaker}")
    if args.slo_p95_ms is not None and args.slo_p95_ms <= 0:
        raise SystemExit(f"--slo-p95-ms must be > 0, got {args.slo_p95_ms}")
    hosts = None
    if args.hosts is not None:
        if args.shards is not None:
            raise SystemExit(
                "--hosts and --shards are mutually exclusive — each host "
                "runs its own worker pool"
            )
        if args.hosts.isdigit():
            hosts = int(args.hosts)
            if hosts < 1:
                raise SystemExit(f"--hosts must be >= 1, got {hosts}")
        else:
            hosts = [part.strip() for part in args.hosts.split(",") if part.strip()]
            if not hosts:
                raise SystemExit(f"--hosts: no addresses in {args.hosts!r}")
    if (
        (args.shard_timeout_ms is not None or args.breaker is not None)
        and args.shards is None
        and hosts is None
    ):
        raise SystemExit(
            "--shard-timeout-ms/--breaker require a shard pool "
            "(--shards or --hosts) — they guard the worker processes"
        )
    fault_plan = None
    if args.fault_plan is not None:
        from repro.errors import ToneMapError
        from repro.runtime import FaultPlan

        try:
            fault_plan = FaultPlan.from_spec(args.fault_plan)
        except ToneMapError as exc:
            raise SystemExit(f"--fault-plan: {exc}") from exc
    params = _params(args)
    images = _batch_images(args)
    plan = None
    if args.plan is not None:
        from repro.planner.plan import pinned, plan_for

        if args.plan == "auto":
            sample = images[0].pixels
            plan = plan_for(
                height=int(sample.shape[0]),
                width=int(sample.shape[1]),
                batch=min(len(images), args.batch_size),
                sigma=params.sigma,
                dtype="fixed" if args.fixed else "float32",
                color=sample.ndim == 3,
                threads=args.threads,
            )
        else:
            plan = _load_plan(args.plan)
            if args.threads is not None:
                plan = pinned(plan, threads=args.threads)
        print(
            f"planner: engine={plan.engine} blur={plan.blur_method} "
            f"fused_h={plan.fused_h_method} threads={plan.threads} "
            f"(profile: {plan.profile.source})",
            file=sys.stderr,
        )
    tenants = (
        _parse_tenant_weights(args.tenant_weights)
        if args.tenant_weights is not None
        else None
    )
    streaming = (
        args.max_delay_ms is not None
        or args.queue_limit is not None
        or tenants is not None
        or args.per_tenant_queue_limit is not None
        or args.lease_results
        or args.deadline_ms is not None
        or args.slo_p95_ms is not None
    )
    dropped = 0
    expired = 0
    start = time.perf_counter()
    with ToneMapService(
        params,
        max_workers=args.workers,
        batch_size=args.batch_size,
        shards=args.shards,
        hosts=hosts,
        arena_slots=args.arena_slots,
        plan=plan,
        shard_timeout_ms=args.shard_timeout_ms,
        breaker=(
            None if args.breaker is None
            else BreakerPolicy(failure_threshold=args.breaker)
        ),
        faults=fault_plan,
    ) as service:
        if streaming:
            tenant_names = sorted(tenants) if tenants else None
            with ToneMapIngestor(
                service,
                max_delay_ms=(
                    5.0 if args.max_delay_ms is None else args.max_delay_ms
                ),
                queue_limit=(
                    64 if args.queue_limit is None else args.queue_limit
                ),
                policy=args.policy,
                tenants=tenants,
                per_tenant_queue_limit=args.per_tenant_queue_limit,
                lease_results=args.lease_results,
                default_deadline_ms=args.deadline_ms,
                overload=(
                    None if args.slo_p95_ms is None
                    else ServiceLevelObjective(p95_ms=args.slo_p95_ms)
                ),
            ) as ingestor:
                futures = []
                for index, image in enumerate(images):
                    # Demo traffic split: images round-robin across the
                    # named tenants (real deployments tag per caller).
                    tenant = (
                        tenant_names[index % len(tenant_names)]
                        if tenant_names
                        else "default"
                    )
                    try:
                        futures.append(ingestor.submit(image, tenant))
                    except ServiceOverloadedError:
                        dropped += 1
                outputs = []
                for future in futures:
                    try:
                        result = future.result()
                    except ServiceOverloadedError:
                        dropped += 1
                        continue
                    except DeadlineExceededError:
                        expired += 1
                        continue
                    if isinstance(result, ResultHandle):
                        # Lease-native consumption: materialize only if
                        # the frame must outlive the slab (file output),
                        # else read in place and release to the ring.
                        if args.output_dir is not None:
                            outputs.append(result.materialize())
                        else:
                            result.release()
                    else:
                        outputs.append(result)
                stats = ingestor.stats
        else:
            outputs = service.map_many(images)
            stats = service.stats
    elapsed = time.perf_counter() - start

    blur_name = "fixed-point 16-bit" if args.fixed else "float (auto path)"
    mode = "streaming (ingestor)" if streaming else "pre-grouped"
    print("BATCH TONE-MAPPING")
    print(f"  images        : {stats.images}")
    print(f"  pixels        : {stats.pixels}")
    print(f"  blur          : {blur_name}")
    if plan is not None:
        print(f"  plan          : engine={plan.engine} "
              f"blur={plan.blur_method} fused_h={plan.fused_h_method} "
              f"threads={plan.threads} (profile: {plan.profile.source})")
    print(f"  mode          : {mode}")
    print(f"  batch size    : {args.batch_size}")
    if hosts is not None:
        label = (
            f"{hosts} local host(s)" if isinstance(hosts, int)
            else ", ".join(hosts)
        )
        print(f"  hosts         : {label}")
        if stats.reliability.hosts_lost:
            print(f"  hosts lost    : {stats.reliability.hosts_lost}")
    else:
        print(f"  shards        : {args.shards or 1} process(es)")
    print(f"  wall time     : {elapsed:.3f} s")
    print(f"  throughput    : {stats.pixels / elapsed:,.0f} pixels/sec")
    if streaming:
        print(f"  queue peak    : {stats.queue_peak} "
              f"(limit {64 if args.queue_limit is None else args.queue_limit}, "
              f"policy {args.policy})")
        print(f"  latency p50   : {stats.latency_p50_ms:.1f} ms   "
              f"p95 {stats.latency_p95_ms:.1f} ms   "
              f"p99 {stats.latency_p99_ms:.1f} ms")
        if args.lease_results:
            print("  results       : lease-native (zero-copy handles)")
        if tenants:
            for tenant in stats.tenants:
                print(
                    f"  tenant {tenant.tenant:<7}: w={tenant.weight:g} "
                    f"served {tenant.served}/{tenant.submitted}  "
                    f"shed {tenant.shed}  rejected {tenant.rejected}  "
                    f"p95 {tenant.latency_p95_ms:.1f} ms"
                )
            print(f"  fairness      : {stats.fairness_index:.3f} "
                  "(Jain, 1.0 = weight-proportional)")
        if dropped:
            print(f"  dropped       : {dropped} "
                  f"(rejected {stats.rejected}, shed {stats.shed})")
    reliability = stats.reliability
    reliability_on = (
        args.deadline_ms is not None
        or args.shard_timeout_ms is not None
        or args.breaker is not None
        or args.slo_p95_ms is not None
        or fault_plan is not None
        or reliability.deadline_shed
        or reliability.hedged_replays
        or reliability.watchdog_kills
        or reliability.brownout_batches
        or reliability.ladder_transitions
    )
    if reliability_on:
        print(f"  deadline shed : {reliability.deadline_shed}"
              + (f" (of {expired + len(outputs)} resolved)" if expired else ""))
        print(f"  watchdog      : {reliability.watchdog_kills} kill(s), "
              f"{reliability.hedged_replays} hedged replay(s)")
        print(f"  breaker       : {reliability.breaker_state} "
              f"({reliability.breaker_transitions} transition(s), "
              f"{reliability.brownout_batches} brownout batch(es))")
        print(f"  ladder        : {reliability.ladder_rung} "
              f"({reliability.ladder_transitions} transition(s), "
              f"{reliability.ladder_shed} best-effort shed)")
        if fault_plan is not None:
            print(f"  fault plan    : {fault_plan.to_spec()}")
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        for index, output in enumerate(outputs):
            name = output.name.replace(":", "_")
            write_ppm(
                output.pixels, args.output_dir / f"{index:04d}_{name}.ppm"
            )
        print(f"  outputs written to {args.output_dir}/")


def run_serve_host(args) -> int:
    """The ``serve-host`` subcommand: serve batches over the wire.

    Runs one :class:`~repro.runtime.hostpool.HostServer` in the
    foreground until interrupted; prints the bound ``host:port`` so a
    ``batch --hosts`` client (possibly on another machine) can connect.
    SIGTERM / SIGINT trigger a graceful drain: in-flight batches are
    answered, then the shard pool and its ``/dev/shm`` arena segments
    are released — so an orchestrator's stop never leaks shared memory.
    """
    import signal as _signal

    from repro.errors import ToneMapError
    from repro.runtime.hostpool import HostServer
    from repro.runtime.shard import ShardPool

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.shard_timeout_ms is not None and args.shard_timeout_ms <= 0:
        raise SystemExit(
            f"--shard-timeout-ms must be > 0, got {args.shard_timeout_ms}"
        )
    plan = None if args.plan is None else _load_plan(args.plan)
    try:
        server = HostServer(
            ShardPool(
                params=_params(args),
                shards=args.shards,
                plan=plan,
                arena_slots=args.arena_slots,
                default_timeout_ms=args.shard_timeout_ms,
                faults=args.fault_plan,
            ),
            bind=args.bind,
            port=args.port,
        )
    except (ToneMapError, OSError) as exc:
        raise SystemExit(f"serve-host: {exc}") from exc
    host, port = server.address
    print(f"serving {args.shards} shard(s) on {host}:{port}", flush=True)

    def _graceful(signum, frame):
        # Unwind into the finally below so drain() runs — SIGKILL is
        # the only way to leave arena segments behind now.
        raise SystemExit(0)

    _signal.signal(_signal.SIGTERM, _graceful)
    _signal.signal(_signal.SIGINT, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - pre-handler race
        pass
    finally:
        server.drain()
    return 0


def run_planner(args) -> int:
    """The ``planner`` subcommand: explain a plan or calibrate the host."""
    if args.planner_command == "calibrate":
        return calibrate.run(args)

    import json

    from repro.planner.plan import plan_for
    from repro.planner.profile import CalibrationProfile

    profile = (
        CalibrationProfile.load(args.profile)
        if args.profile is not None
        else None
    )
    plan = plan_for(
        height=args.height,
        width=args.width,
        batch=args.batch,
        sigma=args.sigma,
        radius=args.radius,
        dtype=args.dtype,
        color=args.color,
        threads=args.threads,
        profile=profile,
    )
    if args.json:
        print(json.dumps(plan.to_json_dict(), indent=2))
    else:
        print(plan.describe())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "planner":
        return run_planner(args)
    if args.command == "serve-host":
        return run_serve_host(args)
    flow = make_paper_flow()

    if args.command == "table2":
        print(run_table2(flow).render())
    elif args.command == "fig5":
        result = run_fig5(paper_workload(size=args.size), args.output_dir)
        print(result.render())
        if args.output_dir:
            print(f"  images written to {args.output_dir}/")
    elif args.command == "fig6":
        print(run_fig6(flow).render())
    elif args.command == "fig7":
        print(run_fig7(flow).render())
    elif args.command == "fig8":
        print(run_fig8(flow).render())
    elif args.command == "profile":
        variant = flow.variants["sw"]
        print(flow.project_for(variant).profile().render())
    elif args.command == "ablations":
        from repro.experiments.ablations import run_all_ablations

        for series in run_all_ablations():
            print(series.render())
            print()
    elif args.command == "extensions":
        from repro.experiments.extensions import (
            overlap_study,
            runtime_throughput,
            video_throughput,
        )

        print(overlap_study(flow).render())
        print()
        # Measure the software runtime at a moderate frame size so the
        # study stays interactive; the accelerator rows are analytic.
        size = min(args.size, 256)
        runtime_rows = [
            runtime_throughput(size=size, frames=6),
            runtime_throughput(size=size, frames=6, shards=2),
        ]
        print(video_throughput(flow, runtime=runtime_rows).render())
    elif args.command == "robustness":
        from repro.experiments.robustness import quality_robustness

        print(quality_robustness(size=min(args.size, 512)).render())
    elif args.command == "report":
        result = flow.run_variant(args.variant)
        print(result.hls_design.report())
    elif args.command == "batch":
        run_batch(args)
    elif args.command == "all":
        suite = run_all_experiments(
            flow, image_size=args.size, output_dir=args.output_dir
        )
        print(suite.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
