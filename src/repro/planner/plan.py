"""Workload → :class:`ExecutionPlan`: the model-driven dispatch planner.

The runtime used to pick execution paths through env-var thresholds
scattered across modules and captured at import.  This module is the
replacement: describe a workload (shape, sigma/taps, batch, dtype,
threads), and :class:`Planner` consults the host calibration
(:mod:`repro.planner.profile`) plus the analytic cost model
(:mod:`repro.planner.cost`) to emit one :class:`ExecutionPlan` — the
record of every dispatch decision (engine, blur strategy, band budget,
thread partition) with a human-readable cost rationale.  Runtime
constructors (:class:`repro.runtime.batch.BatchToneMapper`,
:class:`repro.runtime.shard.ShardPool`,
:class:`repro.runtime.service.ToneMapService`) accept a plan and follow
it verbatim; without one they fall back to the same call-time decision
formulas, so planned and unplanned execution cannot diverge.

Plans are frozen, JSON-round-trippable (golden snapshot tests pin them),
and picklable (a :class:`~repro.runtime.shard.ShardPool` ships its plan
to worker processes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import ToneMapError
from repro.planner import cost as _cost
from repro.planner.profile import (
    CalibrationProfile,
    active_profile,
    select_blur_method,
    select_engine,
    select_fused_h_method,
)
from repro.tonemap.gaussian import BLUR_METHODS

#: Workload dtypes the planner understands.  ``float32``/``float64``
#: take the float pipeline (fused-eligible); ``fixed`` is the Q-format
#: fixed-point pipeline, which is staged-only (the fused engine *is*
#: the float blur).
WORKLOAD_DTYPES = ("float32", "float64", "fixed")

#: Allowed values of each decision field of an :class:`ExecutionPlan`.
#: A staged plan pins a concrete blur method, never ``"auto"``.
PLAN_CHOICES = {
    "engine": ("fused", "staged"),
    "blur_method": tuple(m for m in BLUR_METHODS if m != "auto"),
    "fused_h_method": ("folded", "fft"),
}


@dataclass(frozen=True)
class Workload:
    """What the planner plans for: one tone-mapping traffic description.

    ``sigma``/``radius`` follow :class:`repro.tonemap.gaussian.GaussianKernel`
    semantics exactly (``radius=None`` → ``ceil(3 * sigma)``), so the
    planner's notion of kernel width cannot drift from the kernel the
    runtime actually builds.
    """

    height: int
    width: int
    batch: int = 1
    sigma: float = 16.0
    radius: Optional[int] = None
    dtype: str = "float32"
    color: bool = False
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ToneMapError(
                f"workload shape must be positive, got "
                f"{self.height}x{self.width}"
            )
        if self.batch < 1:
            raise ToneMapError(f"batch must be >= 1, got {self.batch}")
        if self.sigma <= 0:
            raise ToneMapError(f"sigma must be positive, got {self.sigma}")
        if self.radius is not None and self.radius < 1:
            raise ToneMapError(f"radius must be >= 1, got {self.radius}")
        if self.dtype not in WORKLOAD_DTYPES:
            raise ToneMapError(
                f"unknown workload dtype {self.dtype!r}; expected one of "
                f"{WORKLOAD_DTYPES}"
            )
        if self.threads is not None and self.threads < 1:
            raise ToneMapError(f"threads must be >= 1, got {self.threads}")

    @property
    def effective_radius(self) -> int:
        """Kernel radius, defaulted the way :class:`GaussianKernel` does."""
        if self.radius is not None:
            return self.radius
        return max(1, math.ceil(3.0 * self.sigma))

    @property
    def taps(self) -> int:
        return 2 * self.effective_radius + 1

    @property
    def fixed(self) -> bool:
        return self.dtype == "fixed"

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Workload":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _resolve_threads(requested: Optional[int]) -> int:
    """Fused worker-thread count: explicit request, else the runtime
    default (the CPU count)."""
    if requested is not None:
        return requested
    from repro.runtime.fused import _default_threads

    return _default_threads()


@dataclass(frozen=True)
class ExecutionPlan:
    """Every dispatch decision for one workload, with its rationale.

    Attributes
    ----------
    workload / profile:
        What was planned and against which host calibration.  The
        profile is embedded so executing the plan later (or in another
        process — plans are picklable) replays exactly the decisions
        recorded here, whatever the environment does in between.
    engine:
        ``"fused"`` (single-pass band dataflow; every float workload) or
        ``"staged"`` (stage-at-a-time with full-frame temporaries; the
        fixed-point pipeline).
    blur_method:
        Staged row-convolution strategy (``folded``/``fft``; ``direct``
        only when pinned) — the path the staged engine runs, and the
        reference the fused engine's tolerance contract is stated
        against.
    fused_h_method:
        Mask regime the fused engine would use: ``folded`` (band ring)
        or ``fft`` (whole-plane FFT mask); meaningful when
        ``engine == "fused"``.
    band_bytes / band_rows:
        Fused band scratch budget and the resulting rows per band for
        this workload's geometry.
    threads / partitions:
        Fused worker threads and how many chunks the work actually
        splits into (≤ threads for small workloads): ``(image, row)``
        chunks for the band ring, whole-image chunks for the plane mask.
    rationale:
        Human-readable lines: which calibrated crossover decided what,
        plus the cost model's candidate estimates.
    cost_estimates:
        ``(candidate, model_seconds)`` pairs from
        :func:`repro.planner.cost.estimate_candidates`, cheapest first.
        These *explain* the plan (and golden tests pin their ordering);
        the decisions come from the calibrated crossovers.
    """

    workload: Workload
    profile: CalibrationProfile
    engine: str
    blur_method: str
    fused_h_method: str
    band_bytes: int
    band_rows: int
    threads: int
    partitions: int
    rationale: Tuple[str, ...] = ()
    cost_estimates: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Plans arrive from files and pins, not only from the planner: a
        # stale or hand-edited value must fail here, not at the first
        # batch.
        for name, allowed in PLAN_CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ToneMapError(
                    f"plan field {name}={value!r} is not one of "
                    f"{allowed}; re-run `planner explain` for a current "
                    "plan"
                )

    def decision(self) -> dict:
        """The plan's load-bearing choices (what golden tests pin)."""
        return {
            "engine": self.engine,
            "blur_method": self.blur_method,
            "fused_h_method": self.fused_h_method,
            "band_bytes": self.band_bytes,
            "band_rows": self.band_rows,
            "partitions": self.partitions,
        }

    def describe(self) -> str:
        """Multi-line human-readable plan dump (the CLI's output)."""
        w = self.workload
        lines = [
            f"workload: {w.batch}x{w.height}x{w.width} "
            f"{'color' if w.color else 'gray'} {w.dtype}, "
            f"sigma={w.sigma} ({w.taps} taps)",
            f"profile: {self.profile.source} "
            f"({'calibrated' if self.profile.calibrated else 'defaults'}, "
            f"host: {self.profile.host})",
            f"plan: engine={self.engine} blur={self.blur_method} "
            f"fused_h={self.fused_h_method} band_bytes={self.band_bytes} "
            f"band_rows={self.band_rows} threads={self.threads} "
            f"partitions={self.partitions}",
            "rationale:",
        ]
        lines.extend(f"  - {line}" for line in self.rationale)
        lines.append("cost model (relative, not wall-clock):")
        lines.extend(
            f"  - {line}"
            for line in _cost.format_candidates(dict(self.cost_estimates))
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "workload": self.workload.to_json_dict(),
            "profile": self.profile.to_json_dict(),
            "engine": self.engine,
            "blur_method": self.blur_method,
            "fused_h_method": self.fused_h_method,
            "band_bytes": self.band_bytes,
            "band_rows": self.band_rows,
            "threads": self.threads,
            "partitions": self.partitions,
            "rationale": list(self.rationale),
            "cost_estimates": [list(pair) for pair in self.cost_estimates],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExecutionPlan":
        return cls(
            workload=Workload.from_json_dict(data["workload"]),
            profile=CalibrationProfile.from_json_dict(data["profile"]),
            engine=data["engine"],
            blur_method=data["blur_method"],
            fused_h_method=data["fused_h_method"],
            band_bytes=data["band_bytes"],
            band_rows=data["band_rows"],
            threads=data["threads"],
            partitions=data["partitions"],
            rationale=tuple(data.get("rationale", ())),
            cost_estimates=tuple(
                (name, float(seconds))
                for name, seconds in data.get("cost_estimates", ())
            ),
        )


class Planner:
    """Emits :class:`ExecutionPlan` objects from a calibration profile.

    ``profile=None`` (the default) resolves the active profile *per
    plan* — env overrides and ``override()`` scopes take effect
    immediately; pass a profile to pin one calibration for the
    planner's lifetime (the golden tests pin the checked-in reference
    profile this way).
    """

    def __init__(self, profile: Optional[CalibrationProfile] = None):
        self._profile = profile

    @property
    def profile(self) -> CalibrationProfile:
        return (
            self._profile if self._profile is not None else active_profile()
        )

    def plan(self, workload: Workload) -> ExecutionPlan:
        from repro.runtime.fused import (
            BAND_BYTES,
            _partition_spans,
            band_rows_for,
        )

        profile = self.profile
        taps = workload.taps

        engine = select_engine(fixed=workload.fixed)
        blur_method = select_blur_method(taps, profile)
        fused_h = select_fused_h_method(taps, profile)
        band_rows = band_rows_for(
            workload.height,
            workload.width,
            workload.color,
            workload.effective_radius,
            BAND_BYTES,
        )
        threads = _resolve_threads(workload.threads)
        # The plane mask partitions whole images, the ring image rows.
        rows = 1 if fused_h == "fft" else workload.height
        partitions = len(_partition_spans(workload.batch, rows, threads))

        costs = _cost.estimate_candidates(
            workload.batch, workload.height, workload.width, taps
        )
        if workload.fixed:  # the fused engine is float-only
            costs = {
                name: seconds for name, seconds in costs.items()
                if not name.startswith("fused")
            }
        rationale = self._rationale(
            workload, profile, engine, blur_method, fused_h, band_rows,
            BAND_BYTES, partitions,
        )
        return ExecutionPlan(
            workload=workload,
            profile=profile,
            engine=engine,
            blur_method=blur_method,
            fused_h_method=fused_h,
            band_bytes=BAND_BYTES,
            band_rows=band_rows,
            threads=threads,
            partitions=partitions,
            rationale=tuple(rationale),
            cost_estimates=tuple(
                sorted(costs.items(), key=lambda item: item[1])
            ),
        )

    @staticmethod
    def _rationale(
        workload: Workload,
        profile: CalibrationProfile,
        engine: str,
        blur_method: str,
        fused_h: str,
        band_rows: int,
        band_bytes: int,
        partitions: int,
    ) -> list:
        taps = workload.taps
        lines = []
        if workload.fixed:
            lines.append(
                "engine=staged: fixed-point pipeline — the fused engine "
                "is float-only (it is the float blur)"
            )
        elif fused_h == "fft":
            lines.append(
                f"engine=fused: taps {taps} >= fused_fft_min_taps "
                f"{profile.fused_fft_min_taps} — whole-plane FFT mask "
                "computed once per image, then the band epilogue; "
                "bit-identical to staged (measured ~2x staged at sigma 16 "
                "on the reference host)"
            )
        else:
            lines.append(
                f"engine=fused: band ring — taps {taps} < "
                f"fused_fft_min_taps {profile.fused_fft_min_taps} or a "
                "non-FFT staged blur; the folded window beats staged "
                "execution for narrow kernels (measured 1.4-1.9x on the "
                "reference host)"
            )
        if blur_method == "fft":
            lines.append(
                f"blur=fft: taps {taps} >= fft_crossover_taps "
                f"{profile.fft_crossover_taps} — O(W log W) per row beats "
                f"{(taps + 1) // 2} folded multiply passes"
            )
        else:
            lines.append(
                f"blur=folded: taps {taps} < fft_crossover_taps "
                f"{profile.fft_crossover_taps} — "
                f"{(taps + 1) // 2} folded multiply passes beat the "
                "transforms"
            )
        if engine == "fused":
            mask = "plane" if fused_h == "fft" else "ring"
            unit = "whole-image" if fused_h == "fft" else "row"
            lines.append(
                f"fused mask={mask} (fused_h={fused_h}), "
                f"band_rows={band_rows} (band budget "
                f"{band_bytes} B), {partitions} {unit} partition(s)"
            )
        return lines


def plan_for(
    height: int,
    width: int,
    batch: int = 1,
    sigma: float = 16.0,
    radius: Optional[int] = None,
    dtype: str = "float32",
    color: bool = False,
    threads: Optional[int] = None,
    profile: Optional[CalibrationProfile] = None,
) -> ExecutionPlan:
    """One-call convenience: build the workload and plan it."""
    return Planner(profile).plan(
        Workload(
            height=height,
            width=width,
            batch=batch,
            sigma=sigma,
            radius=radius,
            dtype=dtype,
            color=color,
            threads=threads,
        )
    )


def pinned(plan: ExecutionPlan, **changes) -> ExecutionPlan:
    """A copy of *plan* with explicit decision overrides applied.

    The escape hatch for operators who want the planner's record-keeping
    but a specific path: ``pinned(plan, engine="staged")`` keeps the
    workload, profile, and rationale but notes the pin.  An unknown
    field, or a decision value outside :data:`PLAN_CHOICES`, raises
    :class:`~repro.errors.ToneMapError`.
    """
    allowed = {
        "engine", "blur_method", "fused_h_method", "band_bytes", "threads",
    }
    unknown = set(changes) - allowed
    if unknown:
        raise ToneMapError(
            f"cannot pin unknown plan fields: {sorted(unknown)}"
        )
    note = ", ".join(f"{k}={v}" for k, v in sorted(changes.items()))
    return replace(
        plan,
        **changes,
        rationale=plan.rationale + (f"pinned by caller: {note}",),
    )
