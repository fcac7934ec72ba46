"""Shared audio substrate: WAV, JSON and CSV I/O, active speech levels,
the noise gain for a target SNR and FFT convolution. The estimator's STFT
and Mel front-end lives in ``estimator``; ``eval_harness.build_corpus``
mixes the noise in.

The runtime needs numpy only. WAV files are read and written by a small RIFF
codec on ``struct`` and ``numpy``: it reads PCM (8-bit unsigned, 16-, 24- and
32-bit signed), IEEE float (32 and 64 bit) and ``WAVE_FORMAT_EXTENSIBLE``
files, and writes the same bytes ``scipy.io.wavfile.write`` would. ``convolve``
is a real FFT convolution on ``numpy.fft`` (``rfft``/``irfft`` at the smallest
2^a*3^b*5^c length that holds the full output), the same computation
``scipy.signal.fftconvolve`` makes, bit for bit. Oracle tests hold both to
scipy.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from .errors import RevtimeError

PCM16_SCALE = 32768.0

# Activity gate used by active_speech_level: 10 ms frames, frames more than
# 35 dB below the loudest frame are treated as silence.
ACTIVITY_FRAME_S = 0.010
ACTIVITY_THRESHOLD_DB = -35.0


# Elements per block of _all_finite: 512 KiB of float64 and its 64 KiB mask
# stay in a core's L2 cache.
_FINITE_BLOCK = 1 << 16


def _all_finite(x: np.ndarray) -> bool:
    """Whether every value of x is finite (true for an empty array). One
    pass over cache-sized blocks of x's memory (a view for any contiguous
    x), so the mask never has the size of x."""
    flat = x.ravel(order="K")
    return all(np.isfinite(flat[i:i + _FINITE_BLOCK]).all()
               for i in range(0, flat.size, _FINITE_BLOCK))


def _is_finite(value, rule: str = "positive") -> bool:
    """Whether the scalar value is finite and, by rule, "positive" (> 0),
    "non-negative" (>= 0) or of "any" sign. NaN fails every comparison, so
    it passes no rule. The one test of a physical quantity's range."""
    sign_ok = {"positive": value > 0, "non-negative": value >= 0, "any": True}[rule]
    return sign_ok and abs(value) < math.inf


def _check_finite(what: str, value, rule: str = "positive"):
    """value, if _is_finite(value, rule); otherwise RevtimeError naming what."""
    if not _is_finite(value, rule):
        must = "finite" if rule == "any" else f"finite and {rule}"
        raise RevtimeError(f"{what} must be {must}, got {value!r}")
    return value


def _whole_rate(rate) -> int:
    """A sample rate as whole hertz, checked before int(), which raises on
    NaN and inf, and after it, which truncates a rate below 1 Hz to 0."""
    return _check_finite("sample_rate", int(_check_finite("sample_rate", rate)))


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono sampled signal, float64, nominally within [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise RevtimeError("audio must be a non-empty 1-D sample array")
        if not _all_finite(samples):
            raise RevtimeError("audio contains NaN or Inf samples")
        rate = _whole_rate(self.sample_rate)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


# RIFF format tags, and the tail of the KSDATAFORMAT_SUBTYPE GUID through
# which a WAVE_FORMAT_EXTENSIBLE header names its sub-format tag.
_WAVE_PCM = 0x0001
_WAVE_FLOAT = 0x0003
_WAVE_EXTENSIBLE = 0xFFFE
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# Bytes per sample each format tag is read at (24-bit PCM is 3).
_SAMPLE_WIDTHS = {_WAVE_PCM: (1, 2, 3, 4), _WAVE_FLOAT: (4, 8)}


def _parse_fmt(body: bytes):
    """(format tag, channels, rate, bytes per sample) from a fmt chunk."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes, need 16")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _WAVE_EXTENSIBLE:
        if len(body) < 40 or body[28:40] != _SUBTYPE_GUID_TAIL:
            raise ValueError("malformed WAVE_FORMAT_EXTENSIBLE header")
        tag = struct.unpack("<I", body[24:28])[0]
    if tag not in _SAMPLE_WIDTHS:
        raise ValueError(f"unsupported format tag 0x{tag:04x}")
    if channels == 0 or rate == 0:
        raise ValueError(f"{channels} channels at {rate} Hz")
    width = block_align // channels
    if (block_align != width * channels or width not in _SAMPLE_WIDTHS[tag]
            or not 0 < bits <= 8 * width):
        raise ValueError(f"unsupported layout: {bits}-bit samples in "
                         f"{block_align}-byte frames of {channels} channels")
    return tag, channels, rate, width


def _channel0(frames: np.ndarray, tag: int, width: int) -> np.ndarray:
    """Channel 0 of (n_frames, block_align) raw bytes as float64. Integer
    PCM is scaled by 2^-(bits - 1) of its container; 8-bit PCM is unsigned
    and maps to (x - 128) / 128."""
    raw = frames[:, :width]
    if tag == _WAVE_FLOAT:
        return np.ascontiguousarray(raw).view(f"<f{width}").ravel().astype(np.float64)
    if width == 1:
        return (raw.ravel() - 128.0) / 128.0
    if width == 3:
        # Left-justify into 4 bytes so the sign bit lands in int32's.
        wide = np.zeros((raw.shape[0], 4), dtype=np.uint8)
        wide[:, 1:] = raw
        raw, width = wide, 4
    return np.ascontiguousarray(raw).view(f"<i{width}").ravel() / 2.0 ** (8 * width - 1)


def _wav_header(fh):
    """(format tag, channels, rate, bytes per sample, frame count) of a RIFF
    WAVE stream, leaving it at the first sample; walks the chunks to
    ``data`` and skips unknown ones, pad byte included. Raises ValueError
    for anything malformed or unsupported, a data chunk longer than the
    bytes left in the file included."""
    header = fh.read(12)
    if len(header) < 12:
        raise ValueError("truncated RIFF header")
    if header[:4] == b"RIFX":
        raise ValueError("big-endian RIFX files are not supported")
    if header[:4] != b"RIFF" or header[8:] != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    fmt = None
    while len(chunk := fh.read(8)) == 8:
        kind, size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
        if kind == b"fmt ":
            body = fh.read(size)
            if len(body) < size:
                raise ValueError("truncated fmt chunk")
            fmt = _parse_fmt(body)
        elif kind == b"data":
            if fmt is None:
                raise ValueError("data chunk before fmt chunk")
            tag, channels, rate, width = fmt
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if size > left:
                raise ValueError(f"data chunk holds {left} of {size} bytes")
            return tag, channels, rate, width, size // (width * channels)
        else:
            fh.seek(size, 1)
        if size % 2:
            fh.seek(1, 1)
    raise ValueError("no data chunk")


def _read_wav(path, samples: bool = True):
    """(rate, channels, frame count, channel-0 samples) of a WAV file; the
    samples are None when not asked for, and only the header is read.
    Raises RevtimeError for a file that does not load; a missing file
    raises FileNotFoundError."""
    try:
        with open(path, "rb") as fh:
            tag, channels, rate, width, n_frames = _wav_header(fh)
            data = None
            if samples:
                frame = width * channels
                raw = np.fromfile(fh, dtype=np.uint8, count=n_frames * frame)
                data = _channel0(raw.reshape(n_frames, frame), tag, width)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise RevtimeError(f"unreadable WAV file {path}: {exc}") from exc
    if n_frames == 0:
        raise RevtimeError(f"zero-length audio: {path}")
    return rate, channels, n_frames, data


def wav_info(path) -> tuple:
    """(sample rate, frame count) from a WAV file's header, without reading
    its samples. Raises as load_wav does for a file that would not load."""
    rate, _, n_frames, _ = _read_wav(path, samples=False)
    return rate, n_frames


def load_wav(path) -> AudioBuffer:
    """Read a RIFF WAV file as a mono AudioBuffer.

    Reads PCM (8-bit unsigned, 16-, 24- and 32-bit signed), IEEE float (32
    and 64 bit) and those formats inside WAVE_FORMAT_EXTENSIBLE. Integer
    samples are scaled to [-1, 1): int16 by 1/32768, 24-bit by 2^-23,
    32-bit by 2^-31, unsigned 8-bit as (x - 128) / 128. Multichannel files
    are reduced to channel 0 with a warning. Anything else raises
    RevtimeError; a missing file raises FileNotFoundError.
    """
    rate, channels, _, samples = _read_wav(path)
    if channels > 1:
        warnings.warn(f"{path}: multichannel input, taking channel 0")
    return AudioBuffer(samples, rate)


def _write_wav(path, data: np.ndarray, rate: int) -> None:
    """Write mono little-endian samples in the layout scipy.io.wavfile.write
    uses: integer PCM gets a 16-byte fmt chunk; IEEE float an 18-byte one
    (cbSize 0) followed by a fact chunk."""
    width = data.dtype.itemsize
    tag = _WAVE_FLOAT if data.dtype.kind == "f" else _WAVE_PCM
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == _WAVE_FLOAT:
        fmt += b"\x00\x00"  # cbSize
        fact = b"fact" + struct.pack("<II", 4, data.size)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
            + b"data" + struct.pack("<I", data.nbytes))
    if len(body) + data.nbytes > 0xFFFFFFFF:
        raise RevtimeError(f"{path}: {data.size} samples do not fit a RIFF WAV file")
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body) + data.nbytes) + body)
        data.tofile(fh)


def save_wav(buf: AudioBuffer, path, fmt: str = "pcm16") -> None:
    """Write an AudioBuffer as mono WAV, 16-bit PCM by default.

    Samples outside [-1, 1] are clipped with a warning. fmt="float32"
    writes IEEE float (used for impulse responses, which keep full range).
    """
    if fmt == "pcm16":
        x = buf.samples
        if max(x.max(), -x.min()) > 1.0:
            warnings.warn(f"{path}: samples exceed full scale, clipping")
        # Clipping the scaled samples to the int16 range clips at full scale.
        pcm = np.multiply(x, PCM16_SCALE)
        np.rint(pcm, out=pcm)
        np.clip(pcm, -32768, 32767, out=pcm)
        _write_wav(path, pcm.astype("<i2"), buf.sample_rate)
    elif fmt == "float32":
        _write_wav(path, buf.samples.astype("<f4"), buf.sample_rate)
    else:
        raise RevtimeError(f"unknown WAV output format: {fmt}")


def save_json(data, path) -> None:
    """Write data as JSON indented by two spaces, ending in a newline (the
    format of model files, sidecars and reports)."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_json(path):
    """Parse a JSON file; invalid JSON raises RevtimeError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise RevtimeError(f"{path} is not valid JSON: {exc}") from exc


def read_lines(path) -> list:
    """A text file's lines with their ends, as csv reads them, without a
    leading UTF-8 byte-order mark (spreadsheets' "CSV UTF-8" exports start
    with one); bytes that do not decode raise RevtimeError naming the file."""
    with open(path, newline="") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise RevtimeError(f"{path} cannot be read as text: {exc}") from exc
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return lines


def _from_fields(cls, data, where: str):
    """Build dataclass ``cls`` from a mapping of strings or JSON values,
    converting fields annotated str, int or float by that type and ignoring
    keys that are not fields. A None value (JSON null, a short CSV row) is
    missing. Anything malformed raises RevtimeError naming ``where``."""
    if not isinstance(data, dict):
        raise RevtimeError(f"{where} is not a JSON object")
    missing = [f.name for f in fields(cls)
               if data.get(f.name) is None and (f.name in data or f.default is MISSING)]
    if missing:
        raise RevtimeError(f"{where} is missing key(s) {', '.join(missing)}")
    values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
    types = {"str": str, "int": int, "float": float}
    for f in fields(cls):
        # Annotations are strings under ``from __future__ import annotations``.
        parse = types.get(getattr(f.type, "__name__", f.type))
        if parse is None or f.name not in values:
            continue
        value = values[f.name]
        try:
            parsed = parse(value)
        except (TypeError, ValueError, OverflowError):
            parsed = None
        # int() truncates a float; only a whole number reads as an int. A
        # JSON boolean is no number, though int() and float() take it.
        if (parsed is None or (parse is not str and isinstance(value, bool))
                or (parse is int and isinstance(value, float) and parsed != value)):
            raise RevtimeError(f"{where}: {f.name} {value!r} cannot be "
                               f"read as {parse.__name__}")
        values[f.name] = parsed
    try:
        return cls(**values)
    except (TypeError, ValueError, RevtimeError) as exc:
        raise RevtimeError(f"{where}: {exc}") from exc


def _write_csv(header, rows, path) -> None:
    """Write rows of values as CSV under ``header``, non-strings by ``repr``
    (floats at full precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(v) for v in row])


def _write_rows(cls, rows, path) -> None:
    """Write dataclass rows as CSV under a header of ``cls``'s field names."""
    _write_csv([f.name for f in fields(cls)], map(astuple, rows), path)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def active_speech_level(buf: AudioBuffer) -> float:
    """RMS level in dB over speech-active frames only.

    A 10 ms frame counts as active when its RMS is within 35 dB of the
    loudest frame. Raises if no frame is active (pure silence).

    The whole frames are measured at once as the rows of a
    ``(n_full, frame)`` view, the trailing partial frame on its own. Each
    row's mean of squares sums the same samples in the same order as a
    per-frame slice would, and the active samples are gathered in their
    original order, so the level is the same float a frame-by-frame loop
    gives.
    """
    frame = max(1, int(round(buf.sample_rate * ACTIVITY_FRAME_S)))
    n_full = len(buf) // frame
    rows = buf.samples[:n_full * frame].reshape(n_full, frame)
    tail = buf.samples[n_full * frame:]
    frame_rms = np.sqrt(np.mean(np.square(rows), axis=1))
    if tail.size:
        frame_rms = np.append(frame_rms, _rms(tail))
    peak = frame_rms.max()
    if peak == 0.0:
        raise RevtimeError("no active frames: signal is silent")
    active = frame_rms >= peak * 10.0 ** (ACTIVITY_THRESHOLD_DB / 20.0)
    chunks = [rows[active[:n_full]].ravel()]
    if tail.size and active[-1]:
        chunks.append(tail)
    return 20.0 * float(np.log10(_rms(np.concatenate(chunks))))


def noise_gain_for_snr(speech: AudioBuffer, noise: AudioBuffer, snr_db: float, *,
                       speech_level_db: float | None = None) -> float:
    """Gain to apply to noise so that active-speech level minus noise RMS
    level (over the speech span) equals snr_db.

    speech_level_db, when given, must be ``active_speech_level(speech)``;
    a caller that mixes one signal at several SNRs measures it once.
    """
    if speech.sample_rate != noise.sample_rate:
        raise RevtimeError(
            f"sample-rate mismatch: speech {speech.sample_rate} Hz vs noise {noise.sample_rate} Hz"
        )
    if len(noise) < len(speech):
        raise RevtimeError(
            f"noise ({len(noise)} samples) is shorter than speech ({len(speech)})"
        )
    span = noise.samples[:len(speech)]
    noise_rms = _rms(span)
    if noise_rms == 0.0:
        raise RevtimeError("noise is silent over the speech span")
    if speech_level_db is None:
        speech_level_db = active_speech_level(speech)
    noise_level = 20.0 * np.log10(noise_rms)
    return float(10.0 ** ((speech_level_db - noise_level - snr_db) / 20.0))


def _next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n (n >= 1): the FFT length
    ``scipy.fft.next_fast_len(n, real=True)`` returns."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve(signal: AudioBuffer, kernel: AudioBuffer) -> AudioBuffer:
    """Full linear convolution (output length len(a) + len(b) - 1).

    Bit-identical to ``scipy.signal.fftconvolve(a, b, mode="full")``: a
    1-sample input is a plain product, as there, and otherwise both inputs
    are transformed with ``rfft`` at ``_next_fast_len`` of the full length,
    multiplied, and transformed back with ``irfft``.
    """
    if signal.sample_rate != kernel.sample_rate:
        raise RevtimeError(
            f"sample-rate mismatch: {signal.sample_rate} Hz vs {kernel.sample_rate} Hz"
        )
    x, h = signal.samples, kernel.samples
    if x.size == 1 or h.size == 1:
        out = x * h
    else:
        full = x.size + h.size - 1
        n_fft = _next_fast_len(full)
        spectrum = np.fft.rfft(x, n_fft)
        spectrum *= np.fft.rfft(h, n_fft)
        out = np.fft.irfft(spectrum, n_fft)[:full]
    return AudioBuffer(out, signal.sample_rate)
