"""Fused single-pass tone mapping: band dataflow + worker threads.

The paper's accelerator owes its throughput to a fused streaming
dataflow — normalization, Gaussian blur, masking, and adjustment run
concurrently over line buffers with **no intermediate frame buffers**
(the HLS ``DATAFLOW`` pragma).  The staged software path
(:meth:`repro.runtime.batch.BatchToneMapper._run_stack`) is the
opposite: each stage materializes a full-stack float64 temporary and the
whole working set streams through main memory four-plus times.  This
module is the software analogue of the pragma:

* :class:`FusedToneMapPlan` decomposes every image into **row bands**
  sized so one band's scratch stays resident in last-level cache
  (:data:`BAND_BYTES`), and runs mask → exponent → gamma →
  adjust over each band in one pass, writing the output band straight
  into the caller's buffer.
* The mask (the blurred luminance) comes from one of two regimes,
  chosen by the profile's ``fused_fft_min_taps`` crossover
  (:meth:`FusedToneMapPlan.h_method`):

  - **ring** (narrow kernels): the vertical blur halo (``radius`` rows
    above and below a band) comes from a reusable **line-buffer ring**
    of horizontally-blurred rows, mirroring the paper's line-buffer
    architecture: consecutive bands share ``2 * radius`` ring rows, so
    every image row is horizontally convolved exactly once.
  - **plane** (wide kernels): the wide stencil is computed once per
    image ("at root") into a pooled ``(H, W)`` workspace plane with the
    staged path's own FFT row convolution, on row blocks for the
    horizontal pass and transposed column blocks for the vertical pass,
    so the FFT transients stay block-sized; the band epilogue then reads
    its mask rows from that plane.

* Every band pass runs through one five-kernel interface
  (:mod:`repro.runtime.band_kernels`): the ring's horizontal and
  vertical folded passes, and the epilogue steps before, between and
  after the two ``np.power`` calls.  It has a compiled implementation
  (a small C library built by the system compiler on first use and
  loaded through :mod:`ctypes`) and a NumPy one, the reference and the
  fallback wherever no compiler works or a run's arrays are not
  C-contiguous.  Both powers, the luminance ``np.matmul`` and the plane
  regime's FFT stay NumPy under either implementation.
* :class:`FusedExecutor` adds the ROADMAP's threaded row-partitioned
  execution: a persistent worker pool partitions the ``(image, row)``
  space (whole images in the plane regime) into contiguous per-thread
  chunks (NumPy's ufunc and FFT loops and the ``ctypes`` kernel calls
  release the GIL, so chunks on different threads really overlap),
  sized by the plan, else from ``os.cpu_count()``.

**Tolerance contract** (tested in ``tests/test_fused.py`` under both
kernel implementations): fused masks and outputs are **bit-identical**
to the staged path wherever the staged blur resolves to the
folded row convolution (the ring replays the multiply-add order
of :func:`~repro.tonemap.gaussian.fold_rows_into` horizontally and over
ring rows vertically) and throughout the plane regime (the plane runs
the staged :func:`~repro.tonemap.gaussian._convolve_fft` on the same
rows; each row transforms on its own, so blocking cannot change a
bit).  Only between the two crossovers
(``fft_crossover_taps <= taps < fused_fft_min_taps``) does the ring's
folded arithmetic meet a staged FFT, so outputs agree to the blur
module's documented 1e-9 absolute band instead.

**Steady-state allocation contract**: per-thread scratch (the plane
included) is allocated on first use (or when the frame geometry changes)
and reused forever after; :class:`FusedStats.intermediate_bytes` counts
every scratch byte allocated, so a steady-state delta of zero *proves*
the fused path materializes no stage temporaries — the claim
``benchmarks/baseline.json`` gates strictly in both regimes.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ToneMapError
from repro.image.color import LUMA_WEIGHTS
from repro.planner.profile import CalibrationProfile, select_fused_h_method
from repro.runtime import band_kernels
from repro.tonemap.gaussian import _convolve_fft
from repro.tonemap.pipeline import ToneMapParams

#: Byte budget of one block's FFT transients in the plane regime.
#: ``_convolve_fft`` allocates the padded rows, their spectrum and the
#: inverse transform per call; blocking keeps those transients
#: cache-sized instead of frame-sized.  Rows transform independently,
#: so the block size never changes a bit of the mask (8- to 1024-row
#: blocks at 1024² all match ``blur_batch`` exactly).  2 MiB (73 rows
#: at 1024², σ 16) measured among the fastest of 0.5-4 MiB budgets on
#: the reference host.
PLANE_FFT_BLOCK_BYTES = 1 << 21

#: Default byte budget for one band's float64 scratch working set
#: (:func:`band_rows_for`).  4 MiB keeps a band plus its halo ring
#: resident in commodity last-level caches while leaving bands wide
#: enough to amortize the per-band call overhead (measured best of
#: 2-32 MiB at 1024² on the reference host).
BAND_BYTES = 1 << 22

#: How many distinct scratch geometries (frame shape × radius × band
#: budget × mask regime) one :class:`FusedExecutor` keeps warm.  Each
#: geometry retains up to ``threads`` workspaces; beyond the cap the
#: least-recently-used geometry's scratch is dropped (and re-warmed on
#: return — visible as an ``intermediate_bytes`` bump), so
#: arbitrarily-shaped traffic cannot grow resident scratch without
#: bound.
POOLED_GEOMETRIES = 8


def _default_threads() -> int:
    """Worker-thread default: the CPU count."""
    return os.cpu_count() or 1


def band_rows_for(
    height: int, width: int, color: bool, radius: int, band_bytes: int
) -> int:
    """Rows per fused band such that the band scratch stays cache-resident.

    The budget of 6 float64 rows plus 3 per channel plus one padded
    row bounds what either kernel implementation keeps per band row:
    ring, vertical accumulator, mask, exponent and the 2.0 base plane,
    and per channel the colour staging row, the output band, the
    repeated exponent and the black flags.  The floor of
    ``max(8, radius)`` keeps the 2·radius-row ring copy between bands
    amortized over at least a comparable amount of compute.  Single
    definition shared by :meth:`FusedToneMapPlan.band_rows` and the
    planner's band-partition reporting.
    """
    channels = 3 if color else 1
    per_row = 8 * width * (6 + 3 * channels) + 8 * (width + 2 * radius)
    rows = int(band_bytes // per_row)
    rows = max(rows, 8, radius)
    return min(rows, height)


@dataclass(frozen=True)
class FusedStats:
    """Counters proving (or disproving) the fused-dataflow claims.

    Attributes
    ----------
    runs / frames:
        Fused stack executions and frames processed so far.
    bands_executed:
        Row bands run through the fused mask→exponent→gamma→adjust pass.
    halo_rows_reused:
        Horizontally-blurred ring rows carried from one band to the next
        instead of being recomputed (the line-buffer win; 0 in the
        plane regime, which has no ring).
    intermediate_bytes:
        Bytes of engine-managed scratch allocated, cumulative.  Warm-up
        allocates each workspace's buffers once (the plane regime's
        ``(H, W)`` mask plane included); a steady-state delta of zero is
        the machine-independent proof that the fused path materializes
        **no** stage temporaries after warm-up, in either regime.
    fft_scratch_bytes:
        Bytes of FFT transients churned by the plane regime's block
        transforms, cumulative: per block, the edge-padded rows, their
        spectrum and the inverse transform (plus the transposed column
        block of the vertical pass).  Block-sized by construction
        (:data:`PLANE_FFT_BLOCK_BYTES`), never frame-sized; 0 in the
        ring regime.
    threads_used:
        Row partitions of the most recent run (≤ configured threads).
    scratch_bytes:
        Resident pooled-workspace footprint (all workspaces summed) —
        the fused path's whole persistent memory overhead, in place of
        the staged path's several full-stack float64 temporaries.
    """

    runs: int = 0
    frames: int = 0
    bands_executed: int = 0
    halo_rows_reused: int = 0
    intermediate_bytes: int = 0
    fft_scratch_bytes: int = 0
    threads_used: int = 0
    scratch_bytes: int = 0


class _Workspace:
    """Pooled scratch arrays, reused across bands, spans, and runs.

    ``get`` returns the cached array for a key when shape and dtype still
    match, else (re)allocates and counts the bytes — the counter behind
    :attr:`FusedStats.intermediate_bytes`.  A ``fill`` value initialises
    the array whenever it is (re)allocated, so scratch that is read
    before it is written never sees a recycled buffer's contents.

    ``bytes_allocated`` and ``resident_bytes`` are plain ints maintained
    inside :meth:`get` so that a stats poll from another thread reads
    GIL-atomic counters instead of iterating ``_arrays`` while a worker
    mutates it (dict mutation during iteration raises).
    """

    __slots__ = ("_arrays", "bytes_allocated", "resident_bytes")

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self.bytes_allocated = 0
        self.resident_bytes = 0

    def get(
        self, key: str, shape: tuple, dtype=np.float64, fill=None
    ) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != np.dtype(dtype):
            if arr is not None:
                self.resident_bytes -= arr.nbytes
            arr = (
                np.empty(shape, dtype=dtype)
                if fill is None
                else np.full(shape, fill, dtype=dtype)
            )
            self._arrays[key] = arr
            self.bytes_allocated += arr.nbytes
            self.resident_bytes += arr.nbytes
        return arr


def _partition_spans(
    count: int, height: int, parts: int
) -> List[List[Tuple[int, int, int]]]:
    """Split the ``(image, row)`` space into ``parts`` contiguous chunks.

    Returns one span list per chunk; a span is ``(image, row_lo, row_hi)``.
    Chunks are balanced to within one row over the flattened
    ``count * height`` row space, and each chunk's spans are contiguous so
    the line-buffer ring stays valid within a span (only chunk boundaries
    pay a halo recompute).
    """
    total = count * height
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    chunks: List[List[Tuple[int, int, int]]] = []
    start = 0
    for part in range(parts):
        end = start + base + (1 if part < extra else 0)
        spans: List[Tuple[int, int, int]] = []
        flat = start
        while flat < end:
            image, row = divmod(flat, height)
            row_hi = min(height, row + (end - flat))
            spans.append((image, row, row_hi))
            flat += row_hi - row
        chunks.append(spans)
        start = end
    return chunks


class FusedToneMapPlan:
    """Band decomposition + stage fusion for one parameter set.

    The plan is stateless across runs (all scratch lives in the
    executor's per-thread workspaces), so one plan instance may be shared
    by any number of concurrent :class:`FusedExecutor` runs.

    Parameters
    ----------
    params:
        Pipeline parameters.  ``params.blur_fn`` must be ``None`` — the
        fused engine *is* the blur implementation (custom/fixed-point
        blurs take the staged path).
    band_bytes:
        Scratch budget per band; defaults to :data:`BAND_BYTES`.
    profile:
        Calibration profile pinning the horizontal-pass dispatch.  When
        ``None`` (the default), :meth:`h_method` consults
        :func:`repro.planner.profile.active_profile` per call; an
        :class:`~repro.planner.plan.ExecutionPlan` passes its own
        profile here so a planned decision stays pinned for the plan's
        lifetime.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        band_bytes: Optional[int] = None,
        profile: Optional[CalibrationProfile] = None,
    ):
        params = params if params is not None else ToneMapParams()
        if params.blur_fn is not None:
            raise ToneMapError(
                "the fused engine is float-only: params.blur_fn must be "
                "None (custom and fixed-point blurs run the staged path)"
            )
        self.params = params
        self.kernel = params.kernel()
        self.profile = profile
        self.band_bytes = BAND_BYTES if band_bytes is None else band_bytes

    def h_method(self) -> str:
        """Mask regime: ``"folded"`` (band ring) or ``"fft"`` (plane).

        Wherever the staged ``method="auto"`` dispatch resolves to
        folded, this returns ``"folded"`` — the bit-identity
        contract requires the ring's folded arithmetic.  In the staged
        FFT regime the ring's folded window stays ahead up to the
        profile's ``fused_fft_min_taps``; from there the whole-plane
        FFT mask runs the staged transform itself.  Consults the plan's
        pinned profile when one was given, else the active profile — at
        call time, like every dispatch decision.
        """
        return select_fused_h_method(
            self.kernel.coefficients.size, self.profile
        )

    def band_rows(self, height: int, width: int, color: bool) -> int:
        """Rows per band such that the band scratch stays cache-resident.

        Delegates to :func:`band_rows_for`, the single definition shared
        with the planner's :class:`~repro.planner.plan.ExecutionPlan`.
        """
        return band_rows_for(
            height, width, color, self.kernel.radius, self.band_bytes
        )


def _denominator(peak: float) -> np.float32:
    """Normalization denominator, float32 exactly as the staged path's
    ``stack32 / np.where(peaks == 0, 1, peaks)`` computes it."""
    return np.float32(1.0) if peak == 0.0 else np.float32(peak)


def _finish_band(
    plan: FusedToneMapPlan,
    ws: _Workspace,
    kernels,
    band: int,
    blurred: np.ndarray,
    plane32: np.ndarray,
    denom: np.float32,
    out: np.ndarray,
    masks_out: Optional[np.ndarray],
    index: int,
    lo: int,
) -> None:
    """The band epilogue shared by both mask regimes.

    ``blurred`` holds the band's blurred luminance rows ``[lo, lo + n)``.
    The clipped mask band (written through to ``masks_out`` when the
    caller wants masks), its exponent, and the masked, adjusted output
    band are produced in band scratch, and the result lands in
    ``out[index, lo:hi]``.  ``kernels`` run every pass but the two
    ``np.power`` calls, which stay NumPy under either implementation
    and get contiguous operands: a pooled plane of 2.0 as the first
    base, and the exponent operand
    :meth:`~repro.runtime.band_kernels.NumpyKernels.mid` returns as the
    second.
    """
    n, width = blurred.shape
    hi = lo + n
    masking = plan.params.masking
    expo = ws.get("expo", (band, width))[:n]
    two = ws.get("two", (band, width), fill=2.0)[:n]
    out_shape = (band,) + out.shape[2:]
    oband = ws.get("oband", out_shape)[:n]
    black = ws.get("black", out_shape, bool, fill=False)[:n]
    if masks_out is not None:
        mask = masks_out[index, lo:hi]
    else:
        mask = ws.get("mask", (band, width))[:n]
    kernels.pre(blurred, mask, expo, masking.strength)
    np.power(two, expo, out=expo)
    exponent = kernels.mid(
        ws, band, plane32[lo:hi], denom, masking.epsilon, expo, oband, black
    )
    np.power(oband, exponent, out=oband)
    kernels.post(oband, black, plan.params.adjust, out[index, lo:hi])


def _process_span(
    plan: FusedToneMapPlan,
    ws: _Workspace,
    kernels,
    stack32: np.ndarray,
    out: np.ndarray,
    masks_out: Optional[np.ndarray],
    index: int,
    row_lo: int,
    row_hi: int,
    peak: float,
) -> Tuple[int, int]:
    """Ring regime: the fused four-stage pass over rows ``[row_lo, row_hi)``.

    Returns ``(bands_executed, halo_rows_reused)``.  The dataflow per
    band ``[lo, hi)``:

    1. The line-buffer ring is topped up with horizontally-blurred
       normalized-luminance rows covering ``[lo - radius, hi + radius)``
       (virtual rows beyond the image clamp to the edge row, matching
       the staged path's edge-replicate padding); ``2 * radius`` rows
       carry over from the previous band.
    2. The vertical folded pass accumulates the band's blurred rows from
       ring rows using the exact multiply-add order of the staged folded
       convolution.
    3. :func:`_finish_band` turns them into the output band — nothing
       frame-sized is ever allocated.
    """
    height, width = stack32.shape[1], stack32.shape[2]
    color = stack32.ndim == 4
    coeffs = plan.kernel.coefficients
    radius = (coeffs.size - 1) // 2
    band = plan.band_rows(height, width, color)
    cap = band + 2 * radius
    denom = _denominator(peak)
    plane32 = stack32[index]

    ring = ws.get("ring", (cap, width))
    padded = ws.get("pad", (cap, width + 2 * radius))
    rgb = ws.get("rgb", (cap, width, 3)) if color else None
    vert = ws.get("vert", (band, width))

    def fill_ring(dest: int, virtual_lo: int, virtual_hi: int) -> None:
        kernels.horizontal(
            ws, plane32, denom, virtual_lo, virtual_hi - virtual_lo, padded,
            rgb, coeffs, ring, dest,
        )

    bands_executed = 0
    halo_reused = 0
    previous_n = 0  # output rows of the previous band (0 = no band yet)
    lo = row_lo
    while lo < row_hi:
        hi = min(lo + band, row_hi)
        n = hi - lo
        if previous_n == 0:
            fill_ring(0, lo - radius, hi + radius)
        else:
            # The ring holds virtual [lo - radius, lo + radius) at
            # positions [previous_n, previous_n + 2*radius): slide it to
            # the front (NumPy buffers overlapping assignments) and only
            # compute the genuinely new rows.
            keep = 2 * radius
            ring[:keep] = ring[previous_n : previous_n + keep]
            halo_reused += keep
            fill_ring(keep, lo + radius, hi + radius)

        # Vertical folded pass: output row lo+t reads ring rows
        # [t, t + 2*radius], the staged folded convolution's exact
        # multiply-add order with ring rows standing in for the padded
        # columns.
        kernels.vertical(ws, ring, coeffs, n, vert)
        _finish_band(
            plan, ws, kernels, band, vert[:n], plane32, denom, out,
            masks_out, index, lo,
        )

        bands_executed += 1
        previous_n = n
        lo = hi
    return bands_executed, halo_reused


def _fft_transient_bytes(rows: int, length: int, taps: int) -> int:
    """Bytes ``_convolve_fft`` allocates for ``rows`` rows of ``length``:
    the edge-padded rows, their spectrum, and the inverse transform."""
    padded = length + taps - 1
    n_fft = padded + taps - 1
    return 8 * rows * (padded + 2 * (n_fft // 2 + 1) + n_fft)


def _fft_block_rows(length: int, taps: int) -> int:
    """Rows per transform block: one block's transients stay within
    :data:`PLANE_FFT_BLOCK_BYTES`."""
    per_row = _fft_transient_bytes(1, length, taps)
    return max(1, PLANE_FFT_BLOCK_BYTES // per_row)


def _blur_plane(plane: np.ndarray, coeffs: np.ndarray) -> int:
    """Blur ``plane`` in place with the staged FFT row convolution.

    The horizontal pass runs on row blocks, the vertical pass on
    transposed column blocks — the same rows, in the same memory
    layout, that :func:`~repro.tonemap.gaussian.blur_batch` transforms
    over the whole plane.  Each row transforms on its own, so the result
    is bit-identical to the staged blur while the FFT transients stay
    block-sized.  Returns the transient bytes churned.
    """
    height, width = plane.shape
    taps = coeffs.size
    churned = 0
    block = _fft_block_rows(width, taps)
    for lo in range(0, height, block):
        rows = plane[lo : lo + block]
        rows[...] = _convolve_fft(rows, coeffs)
        churned += _fft_transient_bytes(rows.shape[0], width, taps)
    block = _fft_block_rows(height, taps)
    for lo in range(0, width, block):
        columns = np.ascontiguousarray(plane[:, lo : lo + block].T)
        plane[:, lo : lo + block] = _convolve_fft(columns, coeffs).T
        churned += columns.nbytes + _fft_transient_bytes(
            columns.shape[0], height, taps
        )
    return churned


def _process_image(
    plan: FusedToneMapPlan,
    ws: _Workspace,
    kernels,
    stack32: np.ndarray,
    out: np.ndarray,
    masks_out: Optional[np.ndarray],
    index: int,
    peak: float,
) -> Tuple[int, int]:
    """Plane regime: the fused pass over one whole image.

    Returns ``(bands_executed, fft_scratch_bytes)``.  The normalized
    luminance is written band by band into the workspace's ``(H, W)``
    plane, blurred there once by :func:`_blur_plane`, and each band of
    mask rows then runs the shared :func:`_finish_band` epilogue.
    """
    height, width = stack32.shape[1], stack32.shape[2]
    color = stack32.ndim == 4
    band = plan.band_rows(height, width, color)
    denom = _denominator(peak)
    plane32 = stack32[index]
    plane = ws.get("plane", (height, width))
    if color:
        src32 = ws.get("src32", (band, width, 3), np.float32)
        rgb = ws.get("rgb", (band, width, 3))
    else:
        src32 = ws.get("src32", (band, width), np.float32)

    for lo in range(0, height, band):
        n = min(band, height - lo)
        np.divide(plane32[lo : lo + n], denom, out=src32[:n])
        if color:
            np.copyto(rgb[:n], src32[:n])
            np.matmul(rgb[:n], LUMA_WEIGHTS, out=plane[lo : lo + n])
        else:
            np.copyto(plane[lo : lo + n], src32[:n])
    churned = _blur_plane(plane, plan.kernel.coefficients)
    bands_executed = 0
    for lo in range(0, height, band):
        _finish_band(
            plan, ws, kernels, band, plane[lo : lo + band], plane32, denom,
            out, masks_out, index, lo,
        )
        bands_executed += 1
    return bands_executed, churned


class FusedExecutor:
    """Persistent worker pool running fused plans over row partitions
    (whole-image partitions in the plane regime).

    Parameters
    ----------
    threads:
        Worker-thread count; ``None`` uses ``os.cpu_count()``.  With
        one thread the caller's thread executes inline (no pool hop).

    One executor may serve many concurrent callers (the service's batch
    threads all funnel through their mapper's executor): scratch lives
    in a checked-out workspace pool — a span chunk acquires a free
    workspace for its duration and returns it — so steady-state reuse
    is guaranteed by the pool, not by which executor thread happened to
    pick the chunk up (thread-local scratch would re-allocate whenever
    the schedule shifted).  Use as a context manager or call
    :meth:`close` to retire the pool; an unreferenced executor's
    threads also exit on garbage collection.
    """

    def __init__(self, threads: Optional[int] = None):
        if threads is None:
            threads = _default_threads()
        if threads < 1:
            raise ToneMapError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._pool = (
            ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="fused"
            )
            if threads > 1
            else None
        )
        self._workspaces: List[_Workspace] = []  # live pooled workspaces
        # Free lists are keyed by scratch geometry (frame shape, radius,
        # band budget, mask regime): a workspace sized for one geometry
        # is only ever reissued to runs of the same geometry, so
        # mixed-shape traffic through one executor keeps one warm
        # scratch set per shape instead of reallocating on every
        # alternation (the same size-classing idea as the arena's input
        # pools).  Insertion order tracks recency; geometries beyond
        # :data:`POOLED_GEOMETRIES` are evicted LRU-first so unbounded
        # shape diversity cannot grow scratch without bound.
        self._free: "OrderedDict[tuple, List[_Workspace]]" = OrderedDict()
        self._lock = threading.Lock()
        self._runs = 0
        self._frames = 0
        self._bands = 0
        self._halo = 0
        self._fft_bytes = 0
        self._retired_bytes = 0
        self._threads_last = 0

    def _acquire_workspaces(self, key: tuple, count: int) -> List[_Workspace]:
        """Check out ``count`` distinct workspaces for one run.

        A run takes its whole set up front and pins chunk *i* to
        workspace *i*, so how the executor threads interleave (or
        whether they overlap at all) cannot change which scratch gets
        touched — the warm-up run allocates exactly the set every later
        run of the same geometry ``key`` reuses, which is what makes
        the steady-state ``intermediate_bytes == 0`` gate
        deterministic.
        """
        with self._lock:
            free = self._free.setdefault(key, [])
            self._free.move_to_end(key)  # most recently used
            acquired = []
            for _ in range(count):
                if free:
                    acquired.append(free.pop())
                else:
                    ws = _Workspace()
                    self._workspaces.append(ws)
                    acquired.append(ws)
            return acquired

    def _release_workspaces(
        self, key: tuple, workspaces: List[_Workspace]
    ) -> None:
        with self._lock:
            # setdefault, not indexing: while this run was in flight its
            # geometry's free-list entry may have been LRU-evicted by
            # releases of other geometries — the returning workspaces
            # then re-seed the entry (as most-recently-used) instead of
            # raising and leaking.
            self._free.setdefault(key, []).extend(workspaces)
            self._free.move_to_end(key)
            while len(self._free) > POOLED_GEOMETRIES:
                _, evicted = self._free.popitem(last=False)  # LRU geometry
                gone = set(map(id, evicted))
                # Keep the cumulative-allocation counter monotonic: an
                # evicted workspace's history moves to the retired sum.
                self._retired_bytes += sum(
                    ws.bytes_allocated for ws in evicted
                )
                self._workspaces = [
                    ws for ws in self._workspaces if id(ws) not in gone
                ]

    def run(
        self,
        plan: FusedToneMapPlan,
        stack32: np.ndarray,
        out: np.ndarray,
        masks_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Tone-map ``stack32`` into ``out`` through the fused dataflow.

        ``stack32`` is a float32 ``(N, H, W[, 3])`` stack (the staged
        path's storage dtype at the normalization boundary — outputs are
        bit-compatible only from float32 inputs).  ``out`` is written
        band by band (float64 values cast to ``out``'s dtype on
        assignment, exactly like the staged ``run_stack``).  With
        ``masks_out`` (float64 ``(N, H, W)``) the clipped blurred
        luminance is written through as it is produced.
        """
        stack32 = np.asarray(stack32)
        if stack32.dtype != np.float32:
            raise ToneMapError(
                f"fused run expects a float32 stack, got {stack32.dtype}"
            )
        if stack32.ndim not in (3, 4) or (
            stack32.ndim == 4 and stack32.shape[3] != 3
        ):
            raise ToneMapError(
                f"fused run expects (N, H, W) or (N, H, W, 3), got "
                f"{stack32.shape}"
            )
        if out.shape != stack32.shape:
            raise ToneMapError(
                f"out shape {out.shape} does not match stack {stack32.shape}"
            )
        if masks_out is not None:
            want = stack32.shape[:3]
            if masks_out.shape != want or masks_out.dtype != np.float64:
                raise ToneMapError(
                    f"masks_out must be float64 of shape {want}, got "
                    f"{masks_out.dtype} {masks_out.shape}"
                )
        count, height, width = stack32.shape[:3]
        # Per-image normalization peaks, computed once over the float32
        # stack (max is exact, so the reduction order is irrelevant).
        peaks = np.amax(stack32, axis=tuple(range(1, stack32.ndim)))

        # The plane regime partitions whole images (a chunk of one-row
        # "images"); the ring regime partitions the (image, row) space.
        plane_mask = plan.h_method() == "fft"
        chunks = _partition_spans(
            count, 1 if plane_mask else height, self.threads
        )
        # Everything that sizes scratch: frame geometry, kernel radius,
        # the band budget, and the mask regime.
        geometry = (
            tuple(stack32.shape[1:]),
            plan.kernel.radius,
            plan.band_bytes,
            plane_mask,
        )
        workspaces = self._acquire_workspaces(geometry, len(chunks))
        kernels = band_kernels.select(stack32, out, masks_out)

        def work(index: int) -> Tuple[int, int, int]:
            ws = workspaces[index]
            bands = halo = fft_bytes = 0
            for image, lo, hi in chunks[index]:
                peak = float(peaks[image])
                if plane_mask:
                    b, f = _process_image(
                        plan, ws, kernels, stack32, out, masks_out, image,
                        peak,
                    )
                    fft_bytes += f
                else:
                    b, h = _process_span(
                        plan, ws, kernels, stack32, out, masks_out,
                        image, lo, hi, peak,
                    )
                    halo += h
                bands += b
            return bands, halo, fft_bytes

        try:
            if self._pool is None or len(chunks) == 1:
                results = [work(i) for i in range(len(chunks))]
            else:
                futures = [
                    self._pool.submit(work, i) for i in range(len(chunks))
                ]
                results = [future.result() for future in futures]
        finally:
            self._release_workspaces(geometry, workspaces)

        with self._lock:
            self._runs += 1
            self._frames += count
            self._bands += sum(r[0] for r in results)
            self._halo += sum(r[1] for r in results)
            self._fft_bytes += sum(r[2] for r in results)
            self._threads_last = len(chunks)
        return out

    @property
    def stats(self) -> FusedStats:
        """Snapshot of the fused-dataflow counters."""
        with self._lock:
            workspaces = list(self._workspaces)
            return FusedStats(
                runs=self._runs,
                frames=self._frames,
                bands_executed=self._bands,
                halo_rows_reused=self._halo,
                intermediate_bytes=self._retired_bytes + sum(
                    ws.bytes_allocated for ws in workspaces
                ),
                fft_scratch_bytes=self._fft_bytes,
                threads_used=self._threads_last,
                scratch_bytes=sum(
                    ws.resident_bytes for ws in workspaces
                ),
            )

    def close(self) -> None:
        """Retire the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "FusedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
