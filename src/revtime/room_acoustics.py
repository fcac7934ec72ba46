"""Simulated ground truth: shoebox image-method impulse responses and
Schroeder backward-integration T60 measurement. The module simulates and
measures only and writes no files: the trainer module stores each simulated
room and its sidecar."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import RevtimeError
from .signal_core import AudioBuffer, _check_finite, _whole_rate

SPEED_OF_SOUND = 343.0
SABINE_CONSTANT = 0.161

# Fit window of the decay-curve line, per the T30 convention: regress
# between -5 dB and -35 dB and extrapolate to 60 dB.
FIT_START_DB = -5.0
FIT_STOP_DB = -35.0

EDC_FLOOR = 1e-40  # relative energy floor, -400 dB


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with one source and one microphone."""

    dims: tuple
    source: tuple
    mic: tuple
    target_t60: float
    sample_rate: int
    rir_length: float

    def __post_init__(self):
        dims = tuple(_check_finite("dims", float(v)) for v in self.dims)
        source = tuple(float(v) for v in self.source)
        mic = tuple(float(v) for v in self.mic)
        if len(dims) != 3 or len(source) != 3 or len(mic) != 3:
            raise RevtimeError("dims, source and mic must each have 3 components")
        _check_finite("target_t60", self.target_t60)
        _check_finite("rir_length", self.rir_length)
        rate = _whole_rate(self.sample_rate)
        for name, point in (("source", source), ("mic", mic)):
            if not all(0.0 < p < d for p, d in zip(point, dims)):
                raise RevtimeError(f"{name} must lie strictly inside the room")
        if source == mic:
            raise RevtimeError("source and mic must not coincide")
        if self.rir_length < self.target_t60:
            raise RevtimeError("rir_length must be at least target_t60")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "mic", mic)
        object.__setattr__(self, "sample_rate", rate)


@dataclass(frozen=True, eq=False)
class Rir:
    """Simulated impulse response."""

    buf: AudioBuffer

    def __post_init__(self):
        if not np.any(self.buf.samples != 0.0):
            raise RevtimeError("impulse response has zero energy")


@dataclass(frozen=True, eq=False)
class Edc:
    """Energy decay curve in dB per sample, normalized to 0 dB at the start."""

    curve: np.ndarray

    def __post_init__(self):
        curve = np.asarray(self.curve, dtype=np.float64)
        if curve.ndim != 1 or curve.size == 0:
            raise RevtimeError("EDC must be a non-empty 1-D curve")
        if abs(curve[0]) > 1e-9:
            raise RevtimeError("EDC must start at 0 dB")
        if curve.size > 1 and np.any(np.diff(curve) > 1e-9):
            raise RevtimeError("EDC must be non-increasing")
        object.__setattr__(self, "curve", curve)


def sabine_absorption(dims, t60: float) -> float:
    """Uniform surface absorption that yields t60 under the Sabine relation
    alpha = 0.161 * V / (S * t60)."""
    lx, ly, lz = (_check_finite("dims", float(v)) for v in dims)
    _check_finite("t60", t60)
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + ly * lz + lx * lz)
    alpha = SABINE_CONSTANT * volume / (surface * t60)
    if alpha > 1.0 + 1e-9:
        raise RevtimeError(
            f"room cannot achieve target T60: required absorption {alpha:.3f} > 1"
        )
    return min(alpha, 1.0)


def _axis_orders(dims, rir_length: float) -> list:
    """Image order on each axis needed for reflections to cover rir_length."""
    reach = SPEED_OF_SOUND * rir_length
    return [int(np.ceil(reach / (2.0 * float(d)))) + 1 for d in dims]


# Images enumerated per x-slab by image_method_rir: enough to amortize the
# per-slab overhead, few enough that a slab's temporaries stay in cache.
_SLAB_IMAGES = 1 << 16

# Relative slack added to every per-axis clip limit. An image that passes
# the float test dist2 <= radius**2 can exceed its exact cross-section
# limit on one axis by rounding of at most ~sqrt(4 * eps) * radius (about
# 3e-8 radius); 1e-6 radius covers that many times over.
_CLIP_SLACK = 1e-6


def _clip(coords: np.ndarray, limit: float) -> tuple:
    """Index range of the ascending coords with |c| <= limit."""
    return (int(np.searchsorted(coords, -limit, side="left")),
            int(np.searchsorted(coords, limit, side="right")))


def image_method_rir(spec: RoomSpec) -> Rir:
    """Rectangular-room image-method impulse response.

    Wall reflections have magnitude sqrt(1 - alpha), with alpha from the
    Sabine inversion of target_t60, and reverse phase. The sign alternation
    matters with nearest-sample delay rounding: all-positive images pile up
    coherently in late bins and drag the measured decay far past the target.
    Each image contributes amplitude 1 / (4*pi*distance) at the
    nearest-sample arrival time.

    Images are enumerated in eight parity blocks over the per-axis orders
    of _axis_orders, so the image set always covers rir_length. Each block
    is walked in x-slabs of about _SLAB_IMAGES images, and each slab
    is clipped to the y/z bounding box of the sphere's cross-section over
    that slab, so the (2N+1)**3 cube is never built. The exact test
    ``dist2 <= radius**2`` (a sphere one sample wider than the response,
    compared before any sqrt) still judges every enumerated image, and
    ``sample < n_out`` every image inside the sphere: those at n_out and
    n_out + 1 go to two tail bins that are dropped. Gains come from the
    table ``beta ** arange(max_refl + 1)`` indexed by reflection count
    (stored as int16 when it fits). Each image's delay and amplitude are
    the same floats the full enumeration computes, and ``np.add.at`` adds a
    block's images in the full enumeration's order, as ``bincount`` does,
    so the response is bit-identical to summing every image in the box.
    """
    alpha = sabine_absorption(spec.dims, spec.target_t60)
    beta = -float(np.sqrt(1.0 - alpha))
    fs = spec.sample_rate
    n_out = int(round(spec.rir_length * fs))
    dims = np.asarray(spec.dims)
    src = np.asarray(spec.source)
    mic = np.asarray(spec.mic)

    orders = _axis_orders(spec.dims, spec.rir_length)
    axis_n = [np.arange(-orders[d], orders[d] + 1) for d in range(3)]
    # rint(fs * dist / c) < n_out needs fs * dist / c <= n_out - 0.5. A sphere
    # of n_out + 1 samples leaves 1.5 samples of margin, far above rounding
    # error, so it drops no image that lands before n_out. The images it
    # keeps land at sample <= n_out + 1; bins n_out and n_out + 1 of each
    # block collect the late ones and are dropped.
    radius = (n_out + 1) * SPEED_OF_SOUND / fs
    radius2 = radius * radius
    slack = _CLIP_SLACK * radius
    # Axis d contributes at most |2*(-n_d) - 1| = 2*n_d + 1 reflections.
    max_refl = sum(2 * n + 1 for n in orders)
    refl_type = np.int16 if max_refl <= np.iinfo(np.int16).max else np.int64
    gains = beta ** np.arange(max_refl + 1)
    h = np.zeros(n_out)
    block = np.empty(n_out + 2)
    for px, py, pz in product((0, 1), repeat=3):
        parity = (px, py, pz)
        # Image coordinates 2*n*L + (1-2p)*s, ascending in n; reflection
        # count |2n - p| per axis.
        coords = [
            2.0 * axis_n[d] * dims[d] + (1 - 2 * parity[d]) * src[d] - mic[d]
            for d in range(3)
        ]
        squares = [c ** 2 for c in coords]
        counts = [np.abs(2 * axis_n[d] - parity[d]).astype(refl_type)
                  for d in range(3)]
        y0, y1 = _clip(coords[1], radius + slack)
        z0, z1 = _clip(coords[2], radius + slack)
        rows = max(1, _SLAB_IMAGES // max(1, (y1 - y0) * (z1 - z0)))
        block.fill(0.0)
        for i0 in range(0, axis_n[0].size, rows):
            sx = slice(i0, i0 + rows)
            # Every image of the slab has dist2 >= the slab's smallest x**2;
            # a slab wholly outside the sphere gets an (almost always) empty
            # box.
            rest = radius2 - squares[0][sx].min()
            limit = np.sqrt(max(rest, 0.0)) + slack
            sy = slice(*_clip(coords[1], limit))
            sz = slice(*_clip(coords[2], limit))
            if sy.start == sy.stop or sz.start == sz.stop:
                continue
            dist2 = (
                squares[0][sx, None, None]
                + squares[1][None, sy, None]
                + squares[2][None, None, sz]
            ).ravel()
            near = dist2 <= radius2
            dist = np.sqrt(dist2[near])
            refl = (
                counts[0][sx, None, None]
                + counts[1][None, sy, None]
                + counts[2][None, None, sz]
            ).ravel()[near]
            sample = np.rint(fs * dist / SPEED_OF_SOUND).astype(np.intp)
            amp = gains.take(refl) / (4.0 * np.pi * dist)
            np.add.at(block, sample, amp)
        h += block[:n_out]
    return Rir(AudioBuffer(h, fs))


def schroeder_edc(rir) -> Edc:
    """Backward-integrated energy decay curve of an impulse response.

    curve[n] = 10*log10(sum_{m>=n} h^2[m] / total energy), floored at
    -400 dB where the tail energy is exactly zero.
    """
    buf = rir.buf if isinstance(rir, Rir) else rir
    energy = np.square(buf.samples)
    tail = np.cumsum(energy[::-1])[::-1]
    total = tail[0]
    if total <= 0.0:
        raise RevtimeError("cannot integrate a zero-energy impulse response")
    curve = 10.0 * np.log10(np.maximum(tail / total, EDC_FLOOR))
    curve[0] = 0.0
    return Edc(curve)


def t60_from_edc(edc: Edc, sample_rate: int) -> float:
    """T60 from a line fit to the EDC between -5 dB and -35 dB, extrapolated
    to a 60 dB traversal."""
    curve = edc.curve
    below_start = np.nonzero(curve <= FIT_START_DB)[0]
    below_stop = np.nonzero(curve <= FIT_STOP_DB)[0]
    if below_stop.size == 0:
        raise RevtimeError(
            f"decay range never reached: EDC stops above {FIT_STOP_DB} dB"
        )
    i0, i1 = int(below_start[0]), int(below_stop[0])
    if i1 - i0 < 2:
        raise RevtimeError("too few EDC samples between -5 dB and -35 dB to fit")
    times = np.arange(i0, i1 + 1) / float(sample_rate)
    slope = np.polynomial.polynomial.polyfit(times, curve[i0:i1 + 1], 1)[1]
    if slope >= 0:
        raise RevtimeError("EDC fit produced a non-decaying slope")
    return float(-60.0 / slope)


def measure_t60(buf: AudioBuffer) -> float:
    """Schroeder T60 of an impulse response: every label revtime assigns."""
    return t60_from_edc(schroeder_edc(buf), buf.sample_rate)

