"""Simulated rooms for training and evaluation, the training set built
over them and the NSV -> T60 fit. save_rooms is the one writer of simulated
rooms: each float32 WAV and its JSON sidecar."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import EstimationError, RevtimeError
from .estimator import (MIN_FLOOR_FRAMES, EstimatorConfig, MappingModel, mel_weights,
                        nsv_from_audio)
from .room_acoustics import (SABINE_CONSTANT, RoomSpec, image_method_rir, measure_t60,
                             sabine_absorption)
from .signal_core import (AudioBuffer, _check_finite, _write_rows, convolve, load_wav,
                          save_json, save_wav, wav_info)


@dataclass(frozen=True)
class TrainingPair:
    """One (NSV, true T60) observation with its provenance."""

    nsv: float
    t60_true: float
    room_id: str
    utt_id: str

    def __post_init__(self):
        _check_finite("nsv", self.nsv)
        _check_finite("t60_true", self.t60_true)


@dataclass(frozen=True)
class RoomSampler:
    """Seeded random room geometry for a requested T60.

    Room scale is solved from a drawn absorption coefficient so the Sabine
    inversion stays in its diffuse-field comfort zone; dims are then clamped
    to [min_dim, max_dim] per axis.
    """

    alpha_range: tuple = (0.12, 0.28)
    # Near-cubic rooms: strongly elongated boxes develop a slow axial decay
    # mode that biases the broadband T60 well past the Sabine target.
    width_ratio = (1.0, 1.3)
    height_ratio = (0.6, 0.9)
    min_dim = 1.0
    max_dim = 10.0
    position_margin = 0.12
    rir_length_factor = 1.0
    rir_length_min = 0.25

    def sample(self, rng: np.random.Generator, target_t60: float,
               sample_rate: int) -> RoomSpec:
        _check_finite("T60", target_t60)
        shape = np.array([
            1.0,
            rng.uniform(*self.width_ratio),
            rng.uniform(*self.height_ratio),
        ])
        alpha = rng.uniform(*self.alpha_range)
        vol = shape.prod()
        surf = 2.0 * (shape[0] * shape[1] + shape[1] * shape[2] + shape[0] * shape[2])
        scale = alpha * target_t60 * surf / (SABINE_CONSTANT * vol)
        scale = max(scale, self.min_dim / shape.min())
        scale = min(scale, self.max_dim / shape.max())
        dims = scale * shape
        sabine_absorption(dims, target_t60)  # raises if the clamp broke feasibility
        margin = self.position_margin * dims
        min_sep = 0.25 * dims.min()
        for _ in range(100):
            source = rng.uniform(margin, dims - margin)
            mic = rng.uniform(margin, dims - margin)
            if np.linalg.norm(source - mic) >= min_sep:
                break
        return RoomSpec(
            dims=tuple(dims),
            source=tuple(source),
            mic=tuple(mic),
            target_t60=float(target_t60),
            sample_rate=sample_rate,
            rir_length=float(self.rir_length(target_t60)),
        )

    def rir_length(self, target_t60: float) -> float:
        """Seconds of impulse response simulated for a room of this target:
        the target itself, and at least rir_length_min. That is enough for
        the T30 label, whose fit ends at -35 dB: a response cut at T60 has
        decayed 60 dB, so the tail left out lies 25 dB below the fit's end
        and lowers the Schroeder curve there by 10 log10(1 - 10^-2.5), about
        0.014 dB."""
        return max(self.rir_length_min, self.rir_length_factor * target_t60)


def _check_pair_count(n: int, order: int) -> None:
    """A polynomial fit of this order needs ten pairs per coefficient."""
    if n < 10 * (order + 1):
        raise RevtimeError(
            f"need at least {10 * (order + 1)} pairs to fit order {order}, got {n}")


# A limit on run time, not on acoustics: image_method_rir reaches any
# target, but one room takes about T60 cubed to simulate (0.1 s at 3 s and
# 4 s at 10 s for a 16 kHz room on a 2-vCPU VM; by the cube law about 33 s
# at 20 s), so a 100 s target would run for over an hour.
MAX_TARGET_T60 = 10.0


def _room_name(t60: float, r: int) -> str:
    """The name of room r of a target: its file stem after the prefix, and
    its pair label. The target keeps three decimals."""
    return f"t60_{t60:.3f}_room{r}"


def check_targets(t60s, name: str) -> None:
    """Three rules for a list of target T60s, each raising RevtimeError that
    calls the targets name. The list is not empty. No target is above
    MAX_TARGET_T60. No two targets share a room name: they would share
    files or a pair label."""
    if len(t60s) == 0:
        raise RevtimeError(f"{name} must not be empty")
    if max(t60s) > MAX_TARGET_T60:
        raise RevtimeError(f"{name} {max(t60s):g} is above {MAX_TARGET_T60:g} s, the longest "
                           "target simulated (simulation time grows as T60 cubed)")
    rooms = [_room_name(t60, 0) for t60 in t60s]
    counts = Counter(rooms)
    for t60, room in zip(t60s, rooms):
        if counts[room] > 1:
            raise RevtimeError(f"{name} {t60:g} gives the same room name ({t60:.3f}) "
                               f"as another {name}")


def draw_rooms(seed, t60s, rooms_per_t60: int, sample_rate: int, name: str = "t60_grid"):
    """Run check_targets(t60s, name), then draw every RoomSpec from
    default_rng(seed), where seed is an int or the Generator to draw from.
    Returns the list of (t60, room_index, RoomSpec), targets outer, rooms
    inner. Nothing is simulated: each consumer simulates a room as it
    reaches it."""
    check_targets(t60s, name)
    rng = np.random.default_rng(seed)
    sampler = RoomSampler()
    return [(t60, r, sampler.sample(rng, t60, sample_rate))
            for t60 in t60s for r in range(rooms_per_t60)]


def save_rooms(out, prefix: str, rooms):
    """Simulate each room of draw_rooms and write it to out as a float32 WAV
    (full range kept) named <prefix>_t60_<t60:.3f>_room<r>.wav, plus a JSON
    sidecar with the same stem holding its RoomSpec and its label: the
    Schroeder T60 of the stored float32 samples, which build-corpus also
    gives the WAV. Yields (path, t60, label); out is made when the first
    room is asked for."""
    Path(out).mkdir(parents=True, exist_ok=True)
    for t60, r, spec in rooms:
        rir = image_method_rir(spec)
        path = Path(out) / f"{prefix}_{_room_name(t60, r)}.wav"
        stored = AudioBuffer(rir.buf.samples.astype(np.float32), rir.buf.sample_rate)
        label = measure_t60(stored)
        save_wav(stored, path, fmt="float32")
        save_json({"room": asdict(spec), "measured_t60": label}, path.with_suffix(".json"))
        yield path, t60, label


def default_t60_grid(t60_max: float) -> list:
    """The 0.1 s steps from 0.1 up to t60_max whose room name differs from
    t60_max's, then t60_max, so check_targets accepts every grid built."""
    _check_finite("T60", t60_max)
    top = _room_name(t60_max, 0)
    steps = (round(0.1 * k, 10) for k in range(1, int(t60_max / 0.1) + 1))
    return [t60 for t60 in steps if _room_name(t60, 0) != top] + [float(t60_max)]


def speech_files(speech_dir):
    """(paths, sample_rate) of a training speech directory: its WAV files
    (suffix in any case) in name order and their one sample rate, read from
    the headers. No file or more than one rate raises RevtimeError."""
    paths = sorted(p for p in Path(speech_dir).glob("*") if p.name.lower().endswith(".wav"))
    if not paths:
        raise RevtimeError(f"no WAV files found in {speech_dir}")
    rates = {wav_info(p)[0] for p in paths}
    if len(rates) != 1:
        raise RevtimeError(f"speech files have mixed sample rates: {sorted(rates)}")
    return paths, rates.pop()


def check_frame(paths, frame_len: int) -> int:
    """Raise RevtimeError if an analysis frame of frame_len samples is longer
    than every speech file, read from the headers: no utterance could give
    a pair, and an FFT that size may not even fit in memory. Returns the
    longest file's length in samples."""
    longest = max(wav_info(p)[1] for p in paths)
    if frame_len > longest:
        raise RevtimeError(f"analysis frame of {frame_len} samples is longer than "
                           f"the longest training utterance ({longest} samples)")
    return longest


def _check_window(longest: int, rooms, cfg: EstimatorConfig, fs: int) -> None:
    """Raise RevtimeError if even the longest utterance (longest samples)
    convolved with the longest room gives fewer frames than the slope window
    needs, or, for mel_band, than MIN_FLOOR_FRAMES: no room could give a
    pair. The room's length is rounded up, so a run that could give a pair
    is never rejected."""
    n = longest + math.ceil(max((spec.rir_length for _, _, spec in rooms), default=0) * fs) - 1
    frames = (n - cfg.stft.frame_len) // cfg.stft.hop + 1
    floor = MIN_FLOOR_FRAMES if cfg.variant == "mel_band" else 0
    need = max(cfg.window_frames, floor)
    if frames < need:
        floor_text = f", mel_band noise floor {floor}" if floor else ""
        raise RevtimeError(f"training needs {need} frames (window_frames {cfg.window_frames}"
                           f"{floor_text}), but the longest utterance convolved with the "
                           f"longest room gives {frames}")


def build_training_set(speech_dir, rooms, cfg: EstimatorConfig):
    """Simulate each room of draw_rooms, convolve every utterance, and
    collect (NSV, measured T60) pairs. No noise is added.

    Labels come from Schroeder measurement of each generated impulse
    response, not from the grid target. Returns (pairs, n_skipped) where
    skipped items raised "insufficient decay evidence". A frame longer than
    every utterance, rooms drawn at a rate other than the speech's, or too
    few frames for the slope window (or mel_band's noise floor) even from
    the longest utterance in the longest room, fail before any utterance is
    loaded.
    """
    paths, fs = speech_files(speech_dir)
    longest = check_frame(paths, cfg.stft.frame_len)
    mel_weights(cfg, fs)  # too many bands for the FFT fails here, not per room
    rates = sorted({spec.sample_rate for _, _, spec in rooms} - {fs})
    if rates:
        raise RevtimeError(f"rooms drawn at {rates[0]} Hz cannot train on {fs} Hz speech")
    _check_window(longest, rooms, cfg, fs)

    utts = [load_wav(p) for p in paths]
    pairs = []
    skipped = 0
    for t60, r, spec in rooms:
        rir = image_method_rir(spec)
        t60_true = measure_t60(rir.buf)
        room_id = _room_name(t60, r)
        for path, utt in zip(paths, utts):
            reverberant = convolve(utt, rir.buf)
            try:
                stat = nsv_from_audio(reverberant, cfg)
            except EstimationError:
                skipped += 1
                continue
            if stat.value == 0.0:
                skipped += 1
                continue
            pairs.append(TrainingPair(stat.value, t60_true, room_id, path.stem))
    return pairs, skipped


def fit_mapping(pairs, cfg: EstimatorConfig, t60_train_max: float, order: int = 2,
                target: str = "t60"):
    """Ordinary least squares of the target against powers of log10(NSV).

    target "t60" fits seconds directly (the mapping can then go negative,
    which the estimator clamps); "log_t60" fits log10 seconds. Returns
    (MappingModel stamped with t60_train_max, rms residual in seconds).
    """
    _check_pair_count(len(pairs), order)
    x = np.log10([p.nsv for p in pairs])
    t60s = np.array([p.t60_true for p in pairs])
    y = np.log10(t60s) if target == "log_t60" else t60s
    design = np.vander(x, order + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < order + 1:
        raise RevtimeError("rank-deficient fit: the NSV values do not span the design")
    pred = design @ coeffs
    pred_seconds = 10.0 ** pred if target == "log_t60" else pred
    rms = float(np.sqrt(np.mean(np.square(t60s - pred_seconds))))
    model = MappingModel(
        coefficients=coeffs,
        t60_train_max=float(t60_train_max),
        config=cfg,
        target=target,
    )
    return model, rms


def train_model(speech_dir, cfg: EstimatorConfig, rooms, seed: int, path, order: int = 2,
                target: str = "t60", pairs_csv=None):
    """build_training_set over the rooms of draw_rooms, then fit_mapping on
    its pairs, stamping the top target as t60_train_max. Writes the model to
    path, its training report beside it as <stem>.report.json (seed is
    the draw's, recorded there) and, if pairs_csv is given, the pairs there.
    The parents of those files are made, and too few possible pairs
    (rooms x utterances) for the fit fails, before any room is simulated.

    Returns (model, report).
    """
    # A missing parent found after training would throw the run away.
    for file in filter(None, (path, pairs_csv)):
        Path(file).parent.mkdir(parents=True, exist_ok=True)
    _check_pair_count(len(rooms) * len(speech_files(speech_dir)[0]), order)
    pairs, skipped = build_training_set(speech_dir, rooms, cfg)
    grid = list(dict.fromkeys(t60 for t60, _, _ in rooms))
    model, rms = fit_mapping(pairs, cfg, max(grid), order=order, target=target)
    report = {
        "variant": cfg.variant, "n_pairs": len(pairs), "n_skipped": skipped,
        "rms_residual_s": rms, "t60_train_max": model.t60_train_max,
        "grid": grid, "target": target, "order": order, "seed": seed,
    }
    model.save(path)
    save_json(report, Path(path).with_suffix(".report.json"))
    if pairs_csv:
        _write_rows(TrainingPair, pairs, pairs_csv)
    return model, report
