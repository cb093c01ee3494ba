"""The fused engine's band kernels: one interface, compiled or NumPy.

:mod:`repro.runtime.fused` runs every band through five kernels: the
line-buffer ring's horizontal and vertical folded passes, and the three
epilogue steps around the two ``np.power`` calls (:meth:`pre` before
the masking exponent's ``2 ** x``, :meth:`mid` before the per-pixel
gamma, :meth:`post` after it).  Two implementations share that
interface:

* :data:`NUMPY` (:class:`NumpyKernels`) runs them as NumPy ufunc passes.
  It is the reference, and the fallback wherever no C compiler works.
* :class:`CompiledKernels` runs ``band_kernels.c`` through
  :mod:`ctypes`.  Each C loop replays its NumPy pass's per-element
  operation order, so masks and outputs are bit-identical under either
  implementation, and ``ctypes`` drops the GIL for every call, so the
  fused threads overlap as they do on NumPy's loops.  Its folded
  passes hold 16 outputs in registers across every tap, and the
  vertical pass walks the ring in 16-column strips whose rows stay in
  L1 across a band (the ring's row stride is padded for it).

Three operations stay NumPy in both: the two ``np.power`` calls and the
luminance ``np.matmul``.  NumPy's SIMD ``power`` differs from libm
``pow`` in the last bit on about 5% of inputs, and the BLAS dot product
behind ``rgb @ LUMA_WEIGHTS`` rounds differently from a plain
three-term sum, so a C loop could not reproduce the staged engine's
bits there.

**Build and cache.**  The library is compiled on first use with
:data:`CFLAGS` by the first of ``cc``, ``gcc`` or ``clang`` on
``PATH``.  ``-ffp-contract=off`` keeps every multiply and add a
separate rounding; ``-ffast-math`` or ``-march=native`` (which could
contract them into FMAs) are never used.  The library is cached under a
hash of the source, the flags and the compiler, in a private per-user
directory (``~/.cache/repro``, else ``<tmp>/repro-<uid>``) that is
created 0700 and used only when this user owns it and nobody else can
write to it.  A build writes a temporary file and publishes it with
``os.replace``, so processes that start at once never load a
half-written library.

Which implementation runs depends only on whether the library built and
loaded (:func:`compiled_kernels`), and, per run, on the arrays being
C-contiguous, aligned and of a dtype the C loops take
(:func:`select`).  No option chooses it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.image.color import LUMA_WEIGHTS
from repro.tonemap.gaussian import fold_rows_into

#: Compiler flags of the band library.  Never add ``-ffast-math`` or
#: ``-march=native``: a contracted multiply-add changes bits.
CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_SOURCE = Path(__file__).with_name("band_kernels.c")
_COMPILERS = ("cc", "gcc", "clang")
_BUILD_TIMEOUT_S = 120.0


class NumpyKernels:
    """The band kernels as NumPy ufunc passes: the reference."""

    def horizontal(
        self, ws, plane32, denom, virtual_lo, n, padded, rgb, coeffs,
        ring, dest,
    ) -> None:
        """Ring fill: virtual rows ``[virtual_lo, virtual_lo + n)`` of
        ``plane32`` (rows beyond the image clamp to the edge row, the
        staged path's edge-replicate padding) are normalized, reduced to
        luminance (``rgb`` is the colour staging buffer, ``None`` for
        gray), edge-padded in ``padded`` and folded horizontally into
        ``ring[dest : dest + n]``.  The ring's rows are padded past the
        frame width; only their first ``width`` values are written."""
        height, width = plane32.shape[:2]
        radius = (coeffs.size - 1) // 2
        ring = ring[:, :width]
        center = padded[:n, radius : radius + width]
        # The float32 division loop runs whatever the out dtype, so
        # dividing straight into float64 scratch widens exactly like the
        # staged path's divide-then-astype.
        normalized = center if rgb is None else rgb[:n]
        lo = min(max(virtual_lo, 0), height)
        hi = max(min(virtual_lo + n, height), 0)
        if hi > lo:
            at = lo - virtual_lo
            np.divide(plane32[lo:hi], denom, out=normalized[at : at + hi - lo])
        for virtual in range(virtual_lo, min(virtual_lo + n, 0)):
            np.divide(plane32[0], denom, out=normalized[virtual - virtual_lo])
        for virtual in range(max(virtual_lo, height), virtual_lo + n):
            np.divide(
                plane32[height - 1], denom,
                out=normalized[virtual - virtual_lo],
            )
        if rgb is not None:
            np.matmul(rgb[:n], LUMA_WEIGHTS, out=center)
        padded[:n, :radius] = center[:, :1]
        padded[:n, radius + width :] = center[:, -1:]
        pair = ws.get("pair", ring.shape)
        fold_rows_into(padded[:n], coeffs, ring[dest : dest + n], pair[:n])

    def vertical(self, ws, ring, coeffs, n, vert) -> None:
        """Vertical folded pass: ``vert[t]`` from ring rows
        ``[t, t + 2 * radius]`` for ``t < n`` -- the staged folded
        arithmetic, run down the columns of the ring."""
        radius = (coeffs.size - 1) // 2
        ring = ring[:, : vert.shape[1]]
        pair = ws.get("pair", ring.shape)
        fold_rows_into(
            ring[: n + 2 * radius].T, coeffs, vert[:n].T, pair[:n].T
        )

    def pre(self, blurred, mask, expo, strength) -> None:
        """Clip the mask into ``mask`` and write ``(m * 2 - 1) *
        strength`` into ``expo`` (the masking exponent's argument)."""
        np.clip(blurred, 0.0, 1.0, out=mask)
        np.multiply(mask, 2.0, out=expo)
        expo -= 1.0
        expo *= strength

    def mid(self, ws, band, src32, denom, eps, expo, oband, black):
        """Normalize ``src32`` into ``oband``, flag true blacks, clip to
        ``[eps, 1]``; return the gamma exponent operand (``expo``,
        broadcast over channels for colour)."""
        np.divide(src32, denom, out=oband)
        np.less_equal(oband, eps, out=black)
        np.clip(oband, eps, 1.0, out=oband)
        return expo[..., np.newaxis] if oband.ndim == 3 else expo

    def post(self, oband, black, adjust, dest) -> None:
        """True blacks to 0, brightness/contrast, unit clip, store."""
        np.copyto(oband, 0.0, where=black)
        oband -= 0.5
        oband *= adjust.contrast
        oband += 0.5
        oband += adjust.brightness
        np.clip(oband, 0.0, 1.0, out=oband)
        dest[...] = oband


#: The reference implementation (stateless, shared by every run).
NUMPY = NumpyKernels()


def _ptr(array: np.ndarray) -> int:
    """The data address of a C-contiguous array.  Taking a writeable
    array's buffer through ``ctypes`` costs about a third of building
    ``ndarray.ctypes``, and a band makes some 17 of these calls."""
    if array.flags.writeable and array.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _declare(function, *argtypes):
    function.argtypes = argtypes
    function.restype = None
    return function


class CompiledKernels:
    """The band kernels as C loops over C-contiguous, aligned arrays."""

    def __init__(self, lib: ctypes.CDLL):
        p, i = ctypes.c_void_p, ctypes.c_ssize_t
        f, d = ctypes.c_float, ctypes.c_double
        self._normalize = _declare(lib.rk_normalize, p, i, i, i, i, f, p, i)
        self._hfold = _declare(lib.rk_hfold, p, i, i, i, p, p, i)
        self._vfold = _declare(lib.rk_vfold, p, i, i, i, i, p, p)
        self._pre = _declare(lib.rk_pre, p, i, d, p, p)
        self._mid = _declare(lib.rk_mid, p, i, i, f, d, p, p, p, p)
        self._post = _declare(lib.rk_post, p, p, i, d, d, p, ctypes.c_int)

    def horizontal(
        self, ws, plane32, denom, virtual_lo, n, padded, rgb, coeffs,
        ring, dest,
    ) -> None:
        height, width = plane32.shape[:2]
        radius = (coeffs.size - 1) // 2
        if rgb is None:
            center = _ptr(padded) + 8 * radius
            self._normalize(
                _ptr(plane32), height, width, virtual_lo, n, denom, center,
                width + 2 * radius,
            )
        else:
            self._normalize(
                _ptr(plane32), height, 3 * width, virtual_lo, n, denom,
                _ptr(rgb), 3 * width,
            )
            np.matmul(
                rgb[:n], LUMA_WEIGHTS, out=padded[:n, radius : radius + width]
            )
        stride = ring.shape[1]
        self._hfold(
            _ptr(padded), n, width, radius, _ptr(coeffs),
            _ptr(ring) + 8 * dest * stride, stride,
        )

    def vertical(self, ws, ring, coeffs, n, vert) -> None:
        self._vfold(
            _ptr(ring), ring.shape[1], n, vert.shape[1],
            (coeffs.size - 1) // 2, _ptr(coeffs), _ptr(vert),
        )

    def pre(self, blurred, mask, expo, strength) -> None:
        self._pre(_ptr(blurred), blurred.size, strength, _ptr(mask), _ptr(expo))

    def mid(self, ws, band, src32, denom, eps, expo, oband, black):
        if oband.ndim == 3:
            # numpy's power runs faster on a contiguous per-channel copy
            # of the exponent than on a broadcast view, bit for bit alike.
            repeated = ws.get("expo_rep", (band,) + oband.shape[1:], fill=0.0)
            repeated = repeated[: oband.shape[0]]
            channels, pointer = 3, _ptr(repeated)
        else:
            repeated, channels, pointer = expo, 1, None
        self._mid(
            _ptr(src32), expo.size, channels, denom, eps, _ptr(expo),
            _ptr(oband), _ptr(black), pointer,
        )
        return repeated

    def post(self, oband, black, adjust, dest) -> None:
        self._post(
            _ptr(oband), _ptr(black), oband.size, adjust.contrast,
            adjust.brightness, _ptr(dest), int(dest.dtype == np.float32),
        )


_load_lock = threading.Lock()
_resolved = False
_compiled: Optional[CompiledKernels] = None


def _reset_after_fork() -> None:
    # A fork while another thread builds would copy a held lock.
    global _load_lock
    _load_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def compiled_kernels() -> Optional[CompiledKernels]:
    """The compiled kernels, built and loaded on the first call; ``None``
    when no C compiler, cache directory or library load works."""
    global _resolved, _compiled
    if not _resolved:
        with _load_lock:
            if not _resolved:
                _compiled = _load()
                _resolved = True
    return _compiled


def _flat(array: np.ndarray, written: bool = True) -> bool:
    flags = array.flags
    return (
        flags.c_contiguous and flags.aligned
        and (flags.writeable or not written)
    )


def select(
    stack32: np.ndarray, out: np.ndarray, masks_out: Optional[np.ndarray]
):
    """The kernels for one fused run: compiled when the library loaded
    and every array is a C-contiguous, aligned block the C loops can
    index (``out`` float32 or float64, the outputs writeable), else
    :data:`NUMPY`, which also raises NumPy's own errors for the rest."""
    compiled = compiled_kernels()
    if (
        compiled is not None
        and _flat(stack32, written=False)
        and _flat(out)
        and out.dtype in (np.float32, np.float64)
        and (masks_out is None or _flat(masks_out))
    ):
        return compiled
    return NUMPY


def _compiler() -> Optional[str]:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _private_dir(path: Path) -> bool:
    """Create ``path`` 0700 if missing; true when it is a real directory
    this user owns and nobody else can read or write."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.getuid()
        and info.st_mode & 0o077 == 0
    )


def _cache_dirs():
    with contextlib.suppress(RuntimeError, KeyError, OSError):
        yield Path.home() / ".cache" / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _cache_dir() -> Optional[Path]:
    if not hasattr(os, "getuid"):  # no owner check without POSIX uids
        return None
    return next((path for path in _cache_dirs() if _private_dir(path)), None)


def _cache_key(source: bytes, compiler: str) -> str:
    real = os.path.realpath(compiler)
    info = os.stat(real)
    # blake2b is CPython's own code: no OpenSSL start-up in each worker.
    digest = hashlib.blake2b(source, digest_size=10)
    for part in (
        *CFLAGS, real, str(info.st_size), str(info.st_mtime_ns),
        platform.machine(),
    ):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()


def _build(source: bytes, compiler: str, path: Path) -> bool:
    """Compile ``source`` into ``path`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-o", tmp, "-"],
            input=source, capture_output=True, check=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _owned_file(path: Path) -> bool:
    info = os.lstat(path)
    return (
        stat.S_ISREG(info.st_mode)
        and info.st_uid == os.getuid()
        and info.st_mode & 0o022 == 0
    )


def _load() -> Optional[CompiledKernels]:
    """Build (or find cached) and load the band library."""
    compiler = _compiler()
    directory = _cache_dir()
    if compiler is None or directory is None:
        return None
    try:
        source = _SOURCE.read_bytes()
        path = directory / f"band_kernels-{_cache_key(source, compiler)}.so"
        if not path.exists() and not _build(source, compiler, path):
            return None
        if not _owned_file(path):
            return None
        return CompiledKernels(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None
