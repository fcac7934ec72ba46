"""Blind room reverberation time (T60) estimation from noisy reverberant
speech, plus the simulation, training and evaluation tools around it."""

from .errors import EstimationError, RevtimeError
from .estimator import (
    BandSpectrogram,
    EstimateResult,
    EstimatorConfig,
    GradientMatrix,
    MappingModel,
    NsvStatistic,
    StftConfig,
    band_spectrogram,
    decay_gradients,
    estimate_band_snr,
    estimate_t60,
    map_nsv_to_t60,
    nsv,
    nsv_from_audio,
    select_bins,
)
from .eval_harness import (
    BoxStats,
    CorpusItem,
    EvalRecord,
    box_stats,
    build_corpus,
    load_items,
    rtf,
    run_eval_paired,
    write_report,
)
from .room_acoustics import (
    Edc,
    Rir,
    RoomSpec,
    image_method_rir,
    sabine_absorption,
    schroeder_edc,
    t60_from_edc,
)
from .signal_core import (
    AudioBuffer,
    active_speech_level,
    convolve,
    load_wav,
    save_wav,
)
from .trainer import (
    RoomSampler,
    TrainingPair,
    build_training_set,
    default_t60_grid,
    draw_rooms,
    fit_mapping,
)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "BandSpectrogram", "BoxStats", "CorpusItem", "Edc",
    "EstimateResult", "EstimationError", "EstimatorConfig", "EvalRecord",
    "GradientMatrix", "MappingModel", "NsvStatistic",
    "RevtimeError", "Rir", "RoomSampler", "RoomSpec",
    "StftConfig", "TrainingPair", "active_speech_level",
    "band_spectrogram", "box_stats", "build_corpus",
    "build_training_set", "convolve", "decay_gradients", "default_t60_grid",
    "draw_rooms", "estimate_band_snr", "estimate_t60", "fit_mapping", "image_method_rir",
    "load_items", "load_wav", "map_nsv_to_t60", "nsv",
    "nsv_from_audio", "rtf", "run_eval_paired",
    "sabine_absorption", "save_wav",
    "schroeder_edc", "select_bins", "t60_from_edc",
    "write_report",
]
