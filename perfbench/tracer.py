"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each revtime layer module from the
outside: every module namespace in the ``revtime`` package that holds a
reference to a traced function gets the wrapper, so direct imports (``cli``,
``trainer``, ``eval_harness``) and a module's calls to its own globals
(``estimator``) all pass through it. Nothing inside ``src/`` changes.

Each wrapped call records a span (name, parent span, start, end) in memory.
Per function the tracer reports calls, total time and self time, where self
time is a span's duration minus the durations of its direct children.
Observers attached to some functions count work and waste at the same
boundaries (room re-simulation, WAV bytes, gradient selection, training
pairs).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer module -> traced public functions (Class.method for methods).
LAYERS = {
    "room_acoustics": ("image_method_rir", "schroeder_edc", "t60_from_edc"),
    "signal_core": ("convolve", "active_speech_level", "noise_gain_for_snr",
                    "load_wav", "save_wav"),
    "estimator": ("estimate_t60", "nsv_from_audio", "band_spectrogram",
                  "decay_gradients", "estimate_band_snr", "select_bins", "nsv",
                  "map_nsv_to_t60"),
    "trainer": ("build_training_set", "fit_mapping", "RoomSampler.sample"),
    "eval_harness": ("build_corpus", "run_eval_paired", "box_stats",
                     "write_report", "write_records"),
    "synth": ("synthetic_speech", "shaped_noise", "babble_noise"),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The two stage boundaries the untraced runs time and inspect.
STAGES = ("eval_harness.build_corpus", "eval_harness.run_eval_paired")


def _path_arg(args, kwargs, position):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _obs_image_method_rir(tracer, args, kwargs, result):
    tracer.rooms.add(args[0] if args else kwargs["spec"])
    tracer.counts["room_acoustics.rir_samples"] += len(result.buf)


def _obs_convolve(tracer, args, kwargs, result):
    tracer.counts["signal_core.audio_s_convolved"] += (
        args[0] if args else kwargs["signal"]).duration


def _obs_save_wav(tracer, args, kwargs, result):
    tracer.counts["signal_core.wav_bytes_written"] += os.path.getsize(
        _path_arg(args, kwargs, 1))


def _obs_load_wav(tracer, args, kwargs, result):
    tracer.counts["signal_core.wav_bytes_read"] += os.path.getsize(
        _path_arg(args, kwargs, 0))


def _obs_nsv_from_audio(tracer, args, kwargs, result):
    tracer.counts["estimator.audio_s"] += (args[0] if args else kwargs["buf"]).duration


def _obs_decay_gradients(tracer, args, kwargs, result):
    tracer.counts["estimator.gradients"] += result.slopes.size


def _obs_nsv(tracer, args, kwargs, result):
    tracer.counts["estimator.selected"] += result.n_selected
    tracer.counts["estimator.negative"] += result.n_negative


def _obs_build_training_set(tracer, args, kwargs, result):
    pairs, skipped = result
    tracer.counts["trainer.pairs"] += len(pairs)
    tracer.counts["trainer.skipped"] += skipped


def _obs_build_corpus(tracer, args, kwargs, result):
    tracer.corpus_sizes.append(len(result))


def _obs_run_eval_paired(tracer, args, kwargs, result):
    n_items = len(args[0] if args else kwargs["items"])
    tracer.evaluations.append(
        (n_items, {tag: (len(recs), len(fails)) for tag, (recs, fails) in result.items()}))


OBSERVERS = {
    "room_acoustics.image_method_rir": _obs_image_method_rir,
    "signal_core.convolve": _obs_convolve,
    "signal_core.save_wav": _obs_save_wav,
    "signal_core.load_wav": _obs_load_wav,
    "estimator.nsv_from_audio": _obs_nsv_from_audio,
    "estimator.decay_gradients": _obs_decay_gradients,
    "estimator.nsv": _obs_nsv,
    "trainer.build_training_set": _obs_build_training_set,
    "eval_harness.build_corpus": _obs_build_corpus,
    "eval_harness.run_eval_paired": _obs_run_eval_paired,
}


class Tracer:
    """In-memory span recorder with work counters.

    spans holds [name, parent_index, start, end] lists; parent_index is -1
    for a root span. The tracer assumes one thread of calls.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.rooms = set()
        self.corpus_sizes = []
        self.evaluations = []

    def call(self, name, fn, args, kwargs):
        span = [name, self._stack[-1] if self._stack else -1, self.clock(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._stack.pop()
        observer = OBSERVERS.get(name)
        if observer is not None:
            observer(self, args, kwargs, result)
        return result

    def total_s(self, name) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over the recorded spans."""
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = {}
        for (name, _, start, end), child in zip(self.spans, children):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def counters(self) -> dict:
        c = self.counts
        rir_calls = sum(1 for s in self.spans if s[0] == "room_acoustics.image_method_rir")
        return {
            "room_acoustics.unique_room_ratio":
                len(self.rooms) / rir_calls if rir_calls else 0.0,
            "room_acoustics.rir_samples": c["room_acoustics.rir_samples"],
            "signal_core.audio_s_convolved": c["signal_core.audio_s_convolved"],
            "signal_core.wav_bytes_written": c["signal_core.wav_bytes_written"],
            "signal_core.wav_bytes_read": c["signal_core.wav_bytes_read"],
            "estimator.audio_s": c["estimator.audio_s"],
            "estimator.gradients": c["estimator.gradients"],
            "estimator.selected_ratio":
                c["estimator.selected"] / c["estimator.gradients"]
                if c["estimator.gradients"] else 0.0,
            "estimator.negative_ratio":
                c["estimator.negative"] / c["estimator.selected"]
                if c["estimator.selected"] else 0.0,
            "trainer.pairs": c["trainer.pairs"],
            "trainer.skipped": c["trainer.skipped"],
        }


def _resolve(name):
    """(owner, attribute, original) for a traced 'layer.fn' name."""
    layer, _, fn = name.partition(".")
    module = importlib.import_module(f"revtime.{layer}")
    if "." in fn:
        cls_name, meth = fn.split(".")
        owner = getattr(module, cls_name)
        return owner, meth, owner.__dict__[meth]
    return module, fn, getattr(module, fn)


@contextmanager
def installed(tracer: Tracer, names=TRACED):
    """Route the named functions through the tracer inside the block.

    Every ``revtime`` module attribute bound to a traced function object is
    replaced by the wrapper, and restored on exit.
    """
    # Import every layer first, so no module binds a wrapper at import time
    # and keeps it after exit.
    importlib.import_module("revtime.cli")
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        wrappers = {}
        for name in names:
            owner, attr, original = _resolve(name)
            wrapper = _wrap(tracer, name, original)
            if isinstance(owner, type):
                patch(owner, attr, wrapper)
            else:
                wrappers[id(original)] = wrapper
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "revtime" or key.startswith("revtime.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patch(module, attr, wrappers[id(value)])
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced
