"""Portable Float Map (PFM) reader/writer.

PFM is the simplest widely-supported HDR interchange format: an ASCII
header (``PF`` color / ``Pf`` gray, dimensions, byte-order scale) followed
by raw float32 scanlines, bottom-to-top.  Implemented from scratch so the
library has no imaging dependencies; used to persist experiment inputs and
the Fig. 5 outputs.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ImageFormatError
from repro.image.hdr import HDRImage

PathLike = Union[str, Path]


def write_pfm(image: HDRImage, path: PathLike) -> None:
    """Write *image* to *path* as a binary PFM file.

    Color images are written as ``PF``, gray as ``Pf``.  Scale is ``-1.0``
    (little-endian), the de-facto standard.
    """
    pixels = np.asarray(image.pixels, dtype=np.float32)
    color = pixels.ndim == 3
    magic = b"PF" if color else b"Pf"
    height, width = pixels.shape[:2]
    header = b"%s\n%d %d\n-1.0\n" % (magic, width, height)
    # PFM stores scanlines bottom-to-top.
    data = np.flipud(pixels).astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_pfm(path: PathLike, name: str | None = None) -> HDRImage:
    """Read a binary PFM file into an :class:`HDRImage`.

    Handles both byte orders (negative scale = little endian).  Non-unit
    |scale| values rescale the samples, per the PFM convention.
    """
    with open(path, "rb") as fh:
        magic = _read_token(fh)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise ImageFormatError(f"{path}: not a PFM file (magic {magic!r})")
        try:
            width = int(_read_token(fh))
            height = int(_read_token(fh))
            scale = float(_read_token(fh))
        except ValueError as exc:
            raise ImageFormatError(f"{path}: malformed PFM header") from exc
        if width <= 0 or height <= 0:
            raise ImageFormatError(f"{path}: invalid dimensions {width}x{height}")
        if scale == 0.0:
            raise ImageFormatError(f"{path}: PFM scale must be non-zero")
        count = width * height * channels
        raw = fh.read(count * 4)
        if len(raw) != count * 4:
            raise ImageFormatError(
                f"{path}: truncated PFM payload "
                f"({len(raw)} bytes, expected {count * 4})"
            )
    endian = "<" if scale < 0 else ">"
    samples = np.frombuffer(raw, dtype=f"{endian}f4").astype(np.float32)
    magnitude = abs(scale)
    if magnitude != 1.0:
        samples = samples * magnitude
    if channels == 3:
        pixels = samples.reshape(height, width, 3)
    else:
        pixels = samples.reshape(height, width)
    pixels = np.flipud(pixels)  # back to top-to-bottom
    # HDR images are non-negative; PFM files may contain tiny negative
    # values from prior processing.  Clamp rather than reject.
    pixels = np.clip(pixels, 0.0, None)
    return HDRImage(pixels, name=name or Path(path).stem)


def _read_token(fh) -> bytes:
    """Read one whitespace-delimited header token (PFM allows any blanks)."""
    token = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise ImageFormatError("unexpected end of PFM header")
        if ch.isspace():
            if token:
                return token
            continue
        token += ch
