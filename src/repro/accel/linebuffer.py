"""Streaming line-buffer and shift-window structures.

The paper's Fig. 4 restructuring: "Pixels are now sequentially read from
the off-chip RAM and stored in a local buffer inside the programmable
logic, the block RAM.  Once the buffer becomes full, the Gaussian blur
starts the computation and each new streamed pixel substitutes the oldest
one in the buffer."

:class:`LineBuffer` and :class:`ShiftWindow` are the functional Python
equivalents of the HLS idioms, and :func:`streaming_blur_plane_scalar`
runs the full streaming dataflow through them one pixel per step — the
closest mirror of the HLS inner loop, O(K) Python work per pixel, so
it is meant for small planes and dataflow tests.  The runtime's fast
form of the same line-buffer schedule is the fused engine's halo ring
(:mod:`repro.runtime.fused`).

The model must agree with the batch reference in
:func:`repro.tonemap.gaussian.separable_blur` to floating-point
reassociation tolerance (tested): the restructuring is a pure
reordering of the arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ToneMapError
from repro.tonemap.gaussian import GaussianKernel


class LineBuffer:
    """A rolling buffer of the most recent K image rows.

    Backed by a ``(K, W)`` array with a rotating row index, exactly like
    the BRAM-based structure HLS infers: inserting a pixel overwrites the
    oldest row's entry for that column; ``column(x)`` yields the K most
    recent values of column *x* in top-to-bottom (oldest-first) order.
    """

    def __init__(self, rows: int, width: int):
        if rows < 1 or width < 1:
            raise ToneMapError(f"invalid line buffer shape {rows}x{width}")
        self.rows = rows
        self.width = width
        self._data = np.zeros((rows, width), dtype=np.float64)
        self._newest = rows - 1  # index of the most recently written row
        self._arange = np.arange(rows)
        # Oldest-first physical row order, refreshed once per row rotation
        # so per-column reads stop rebuilding the index array.
        self._order = (self._newest + 1 + self._arange) % rows

    def start_row(self) -> None:
        """Advance to a new image row (rotates the oldest row in)."""
        self._newest = (self._newest + 1) % self.rows
        self._order = (self._newest + 1 + self._arange) % self.rows

    def insert(self, x: int, value: float) -> None:
        """Write the incoming pixel of the current row at column *x*."""
        if not 0 <= x < self.width:
            raise ToneMapError(f"column {x} out of range 0..{self.width - 1}")
        self._data[self._newest, x] = value

    def column(self, x: int) -> np.ndarray:
        """The K values of column *x*, oldest row first."""
        if not 0 <= x < self.width:
            raise ToneMapError(f"column {x} out of range 0..{self.width - 1}")
        return self._data[self._order, x]

    def fill_row(self, values: np.ndarray) -> None:
        """Convenience: start a row and insert a full row of pixels."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.width,):
            raise ToneMapError(
                f"expected a row of {self.width} values, got {values.shape}"
            )
        self.start_row()
        self._data[self._newest, :] = values


class ShiftWindow:
    """A K-element shift register window (the horizontal filter window).

    Stored as a ring buffer: ``shift_in`` overwrites the oldest slot and
    advances a head index (O(1)) instead of copying the K-1 surviving
    elements the way a literal shift register would.
    """

    def __init__(self, taps: int):
        if taps < 1:
            raise ToneMapError(f"taps must be >= 1, got {taps}")
        self.taps = taps
        self._values = np.zeros(taps, dtype=np.float64)
        self._head = 0  # index of the oldest element

    def shift_in(self, value: float) -> None:
        """Push a value; the oldest falls out."""
        self._values[self._head] = value
        self._head = (self._head + 1) % self.taps

    @property
    def values(self) -> np.ndarray:
        """Window contents, oldest first (read-only)."""
        ordered = np.concatenate(
            (self._values[self._head :], self._values[: self._head])
        )
        ordered.setflags(write=False)
        return ordered

    def dot(self, coefficients: np.ndarray) -> float:
        """Weighted sum of the window with *coefficients* (oldest-first)."""
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != (self.taps,):
            raise ToneMapError(
                f"expected {self.taps} coefficients, got {coefficients.shape}"
            )
        split = self.taps - self._head
        return float(
            self._values[self._head :] @ coefficients[:split]
            + self._values[: self._head] @ coefficients[split:]
        )


def streaming_blur_plane_scalar(
    plane: np.ndarray, kernel: GaussianKernel
) -> np.ndarray:
    """The literal one-pixel-per-step streaming dataflow.

    Each incoming row enters the line buffer; the vertical convolution
    reads one line-buffer column; its result shifts into the horizontal
    window whose dot product is the output pixel.  This is O(K) Python
    work per pixel; use it on small planes (tests, demos).
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ToneMapError(f"expected a 2-D plane, got shape {plane.shape}")
    height, width = plane.shape
    taps, radius = kernel.taps, kernel.radius
    coeffs = kernel.coefficients

    linebuf = LineBuffer(rows=taps, width=width)
    for prefill in range(-radius, radius):
        linebuf.fill_row(plane[_clamp(prefill, height)])

    out = np.zeros_like(plane)
    for y in range(height):
        linebuf.fill_row(plane[_clamp(y + radius, height)])

        def vertical_at(x: int) -> float:
            return float(linebuf.column(_clamp_col(x, width)) @ coeffs)

        # Prime the horizontal window with the clamped left-border
        # results: before emitting x=0 it must hold the vertical results
        # of columns clamp(-radius) .. clamp(radius - 1).
        window = ShiftWindow(taps)
        for j in range(-radius, radius):
            window.shift_in(vertical_at(j))

        for x in range(width):
            window.shift_in(vertical_at(x + radius))
            out[y, x] = window.dot(coeffs)
    return out


def _clamp(row: int, height: int) -> int:
    return min(max(row, 0), height - 1)


def _clamp_col(col: int, width: int) -> int:
    return min(max(col, 0), width - 1)
