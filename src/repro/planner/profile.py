"""Calibration profiles and the shared dispatch-decision formulas.

This module is the planner's foundation and deliberately imports nothing
from the rest of the package (or from the tonemap/runtime modules that
consult it), so the hot paths can read it without import cycles:

* :class:`CalibrationProfile` — the serialized host calibration: every
  dispatch crossover (the ``DEFAULT_*`` constants below, each
  overridable by its ``REPRO_*`` env var) collected into one frozen,
  JSON-round-trippable record with provenance.
* :func:`active_profile` — the **call-time** resolution every dispatch
  decision goes through.  Nothing is captured at import any more: the
  resolution order is (1) a profile pinned programmatically with
  :func:`set_active_profile` / :func:`override`, else (2) the file named
  by ``REPRO_PLANNER_PROFILE``, else (3) the built-in defaults — and in
  cases (2)-(3) the historical per-threshold env vars are overlaid
  *fresh on every call*, so exporting ``REPRO_FFT_CROSSOVER_TAPS`` (or
  un-exporting it) moves the very next dispatch without
  ``importlib.reload``.  Env vars thereby remain explicit overrides
  that pin a decision; they are no longer the decision mechanism.
* :func:`select_blur_method` / :func:`select_fused_h_method` /
  :func:`select_engine` — the *single* definitions of the dispatch
  formulas.  ``repro.tonemap.gaussian`` applies them per blur call,
  ``repro.runtime.fused`` per fused plan, and
  :class:`repro.planner.plan.Planner` ahead of time when emitting an
  :class:`~repro.planner.plan.ExecutionPlan` — so a planned decision
  and an inline ``method="auto"`` decision cannot diverge.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Union

#: Schema version of the serialized profile.  Bump on incompatible field
#: changes; :func:`load_or_default` treats a mismatched (stale) version
#: like a missing file and falls back to the built-in defaults rather
#: than letting an old calibration silently misdirect the dispatch.
PROFILE_VERSION = 1

# Built-in defaults, measured on the reference hosts.  These are the
# values the planner uses when no calibration profile has been loaded;
# ``repro.planner.calibrate`` re-measures them for other hosts.

#: Kernel width (taps) at which ``method="auto"`` switches the staged
#: row convolution from the folded sliding-window path to the FFT path.
DEFAULT_FFT_CROSSOVER_TAPS = 25

#: Plane size (bytes of float64 data) at which ``method="auto"``
#: switches narrow-kernel convolution from ``folded`` to the
#: cache-blocked ``tiled`` path.  8 MiB ~ the working set leaving
#: last-level cache on commodity parts: below it the folded temporaries
#: stay cached and blocking only adds loop overhead; from it upward the
#: tiled path wins by the memory-traffic ratio (measured 1.4-1.55x at
#: 1024²-3072², sigma 4, on the reference host — see
#: ``benchmarks/bench_blur.py``).
DEFAULT_TILED_MIN_PLANE_BYTES = 1 << 23

#: Kernel width at which the fused engine leaves the band ring for the
#: whole-plane FFT mask.  Deliberately above the staged path's FFT
#: crossover: the ring's folded window stays ahead of a transform
#: until the kernel is this wide (4 x 1024² RGB over staged, 1-2
#: threads on the reference host: taps 25 ring 2.0-3.3x vs plane
#: 1.5-2.3x; taps 33 plane 1.7-2.2x vs ring 1.3-1.7x; taps 97 plane
#: 1.9-2.5x vs ring 0.7-1.0x).
DEFAULT_FUSED_FFT_MIN_TAPS = 33

#: Byte budget for one fused band's float64 scratch working set.
#: 4 MiB keeps a band plus its halo ring resident in commodity
#: last-level caches (the same neighbourhood as the blur module's
#: tiled crossover) while leaving bands wide enough to amortize the
#: per-band Python overhead (measured best of 2-32 MiB at 1024² on the
#: reference host).
DEFAULT_FUSED_BAND_BYTES = 1 << 22

#: How many distinct scratch geometries (frame shape × radius × band
#: budget × mask regime) one fused executor keeps warm.  Each geometry
#: retains up to ``threads`` workspaces; beyond the cap the
#: least-recently-used geometry's scratch is dropped (and re-warmed on
#: return — visible as an ``intermediate_bytes`` bump), so
#: arbitrarily-shaped traffic cannot grow resident scratch without
#: bound.
DEFAULT_FUSED_POOLED_GEOMETRIES = 8

#: Env var naming a profile JSON file to load as the base calibration.
PROFILE_ENV = "REPRO_PLANNER_PROFILE"

#: Per-threshold env overrides (the historical interface, still honored
#: — but now read at call time, overlaid on the base profile).
THRESHOLD_ENV_VARS = {
    "fft_crossover_taps": "REPRO_FFT_CROSSOVER_TAPS",
    "tiled_min_plane_bytes": "REPRO_TILED_MIN_PLANE_BYTES",
    "fused_fft_min_taps": "REPRO_FUSED_FFT_MIN_TAPS",
    "fused_band_bytes": "REPRO_FUSED_BAND_BYTES",
    "fused_pooled_geometries": "REPRO_FUSED_POOLED_GEOMETRIES",
}


def _env_positive_int(name: str, default: int) -> int:
    """An env-var override (must be a positive int); malformed or
    non-positive values fall back to the default rather than poisoning
    the dispatch."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


@dataclass(frozen=True)
class CalibrationProfile:
    """One host's calibrated dispatch crossovers, with provenance.

    Attributes
    ----------
    fft_crossover_taps:
        Kernel width (taps) at which the staged row convolution leaves
        the folded sliding window for the FFT.
    tiled_min_plane_bytes:
        Plane size (float64 bytes) at which narrow-kernel convolution
        switches from ``folded`` to the cache-blocked ``tiled``
        traversal.
    fused_fft_min_taps:
        Kernel width at which the fused engine leaves the band ring's
        folded window for the whole-plane FFT mask.
    fused_band_bytes:
        Scratch budget for one fused band's working set.
    fused_pooled_geometries:
        Distinct scratch geometries a fused executor keeps warm (not a
        dispatch crossover, but host-memory calibration all the same).
    host / source / calibrated:
        Provenance: free-form host description, where the numbers came
        from (``"defaults"``, ``"calibration"``, ``"override"``, a file
        path), and whether they were measured (vs built-in).
    version:
        Serialization schema version (see :data:`PROFILE_VERSION`).
    """

    fft_crossover_taps: int = DEFAULT_FFT_CROSSOVER_TAPS
    tiled_min_plane_bytes: int = DEFAULT_TILED_MIN_PLANE_BYTES
    fused_fft_min_taps: int = DEFAULT_FUSED_FFT_MIN_TAPS
    fused_band_bytes: int = DEFAULT_FUSED_BAND_BYTES
    fused_pooled_geometries: int = DEFAULT_FUSED_POOLED_GEOMETRIES
    host: str = "builtin defaults"
    source: str = "defaults"
    calibrated: bool = False
    version: int = PROFILE_VERSION

    def __post_init__(self) -> None:
        for name in (
            "fft_crossover_taps",
            "tiled_min_plane_bytes",
            "fused_fft_min_taps",
            "fused_band_bytes",
            "fused_pooled_geometries",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"profile threshold {name} must be a positive int, "
                    f"got {value!r}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CalibrationProfile":
        """Build from a parsed JSON object.

        Unknown keys (e.g. the calibrator's raw sweep rows) are ignored;
        missing keys take the built-in defaults.  Raises ``ValueError``
        for a wrong schema version or invalid threshold values — the
        caller decides whether that is fatal (:meth:`load`) or a
        fallback (:func:`load_or_default`).
        """
        if not isinstance(data, dict):
            raise ValueError(f"profile JSON must be an object, got {type(data)}")
        version = data.get("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise ValueError(
                f"stale profile: schema version {version} != "
                f"{PROFILE_VERSION}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path: Union[str, Path], extra: Optional[dict] = None) -> Path:
        """Write the profile (plus optional extra sections) as JSON."""
        path = Path(path)
        payload = self.to_json_dict()
        if extra:
            for key, value in extra.items():
                payload.setdefault(key, value)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        """Load a profile; raises on a missing, unparseable, or stale file."""
        path = Path(path)
        profile = cls.from_json_dict(json.loads(path.read_text()))
        return replace(profile, source=str(path))


def load_or_default(
    path: Union[str, Path, None]
) -> CalibrationProfile:
    """Load *path*, falling back to built-in defaults when it is missing,
    unparseable, or a stale schema version.

    The fallback is deliberate policy, not error-swallowing: a serving
    process pointed at a deleted or outdated profile must keep making
    *sane* dispatch decisions (the defaults) rather than crash in the
    hot path — the golden-plan tests pin what those defaults decide.
    """
    if path is None:
        return CalibrationProfile()
    try:
        return CalibrationProfile.load(path)
    except (OSError, ValueError, json.JSONDecodeError):
        return CalibrationProfile()


# ----------------------------------------------------------------------
# Active-profile resolution (call time, never import time)
# ----------------------------------------------------------------------
_PIN_LOCK = threading.Lock()
_PINNED: List[CalibrationProfile] = []

#: Cache of the ``REPRO_PLANNER_PROFILE`` file, keyed by (path, mtime):
#: re-reading a JSON file on every blur call would be absurd, but a
#: *changed* file (recalibration mid-flight) must be picked up.
_FILE_CACHE: dict = {}


def _base_profile() -> CalibrationProfile:
    """The env-file profile or the defaults (no per-field env overlay)."""
    path = os.environ.get(PROFILE_ENV)
    if not path:
        return CalibrationProfile()
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return CalibrationProfile()
    key = (path, mtime)
    cached = _FILE_CACHE.get(key)
    if cached is None:
        cached = load_or_default(path)
        _FILE_CACHE.clear()  # one live entry; old mtimes are dead
        _FILE_CACHE[key] = cached
    return cached


def active_profile() -> CalibrationProfile:
    """The profile every dispatch decision consults, resolved *now*.

    A programmatically pinned profile wins outright (tests and the
    calibrator pin per-case without touching the environment); otherwise
    the base profile (env file or defaults) is overlaid with any
    per-threshold env vars, read fresh so exports made after import
    still take effect.
    """
    with _PIN_LOCK:
        if _PINNED:
            return _PINNED[-1]
    profile = _base_profile()
    overrides = {}
    for field_name, env_name in THRESHOLD_ENV_VARS.items():
        current = getattr(profile, field_name)
        value = _env_positive_int(env_name, current)
        if value != current:
            overrides[field_name] = value
    if overrides:
        profile = replace(profile, **overrides, source="env-override")
    return profile


def set_active_profile(
    profile: Optional[CalibrationProfile],
) -> None:
    """Pin *profile* as the active calibration (``None`` unpins all).

    A pinned profile is used verbatim — no env overlay — so a test or a
    service that loaded a specific calibration gets exactly it.
    """
    with _PIN_LOCK:
        _PINNED.clear()
        if profile is not None:
            _PINNED.append(profile)


class override:
    """Context manager pinning threshold overrides for the enclosed calls.

    >>> with override(fft_crossover_taps=5):
    ...     ...  # every ``method="auto"`` dispatch in here sees taps>=5 as FFT

    Overlays the currently active profile, so nesting composes.  This is
    the per-case re-pinning mechanism the env-var module constants never
    offered: no ``importlib.reload``, no process restart.
    """

    def __init__(self, **thresholds):
        self._thresholds = thresholds
        self._profile: Optional[CalibrationProfile] = None

    def __enter__(self) -> CalibrationProfile:
        self._profile = replace(
            active_profile(), **self._thresholds, source="override"
        )
        with _PIN_LOCK:
            _PINNED.append(self._profile)
        return self._profile

    def __exit__(self, exc_type, exc, tb) -> None:
        with _PIN_LOCK:
            if self._profile in _PINNED:
                _PINNED.remove(self._profile)


# ----------------------------------------------------------------------
# The dispatch formulas (single definitions, shared by every consumer)
# ----------------------------------------------------------------------
def select_blur_method(
    taps: int, plane_bytes: int, profile: Optional[CalibrationProfile] = None
) -> str:
    """Staged row-convolution strategy for a kernel/plane combination.

    FFT once the kernel is wide enough to amortize the transforms;
    below that, the cache-blocked tiled traversal when the plane's
    working set spills last-level cache, else the plain folded window.
    """
    profile = profile if profile is not None else active_profile()
    if taps >= profile.fft_crossover_taps:
        return "fft"
    if plane_bytes >= profile.tiled_min_plane_bytes:
        return "tiled"
    return "folded"


def select_fused_h_method(
    taps: int, plane_bytes: int, profile: Optional[CalibrationProfile] = None
) -> str:
    """Mask regime of the fused engine: ``"folded"`` or ``"fft"``.

    ``"folded"`` is the band ring (folded horizontal window plus the
    vertical pass over ring rows); ``"fft"`` is the whole-plane mask,
    which runs the staged FFT row convolution itself.  Wherever the
    staged dispatch resolves folded/tiled this must return ``"folded"``
    (the bit-identity contract requires the exact same arithmetic).  In
    the staged FFT regime the ring's folded window stays ahead up to
    ``fused_fft_min_taps``; from there the plane mask wins.
    """
    profile = profile if profile is not None else active_profile()
    if select_blur_method(taps, plane_bytes, profile) != "fft":
        return "folded"
    return "fft" if taps >= profile.fused_fft_min_taps else "folded"


def select_engine(fixed: bool = False) -> str:
    """Fused engine vs staged stack execution for a whole workload.

    The fused engine is float-only (it *is* the blur), so fixed-point
    workloads stay staged.  Every float workload runs fused, whatever
    the kernel width: the band ring for narrow kernels (measured
    1.4-1.9x staged on the reference host), the whole-plane FFT mask
    from ``fused_fft_min_taps`` upward (measured ~2x staged at sigma 16,
    bit-identical) — :func:`select_fused_h_method` picks between them.
    """
    return "staged" if fixed else "fused"
