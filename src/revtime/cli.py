"""Command-line interface: estimate, simulate-rir, build-corpus, train,
evaluate, rtf, and a zero-asset demo chaining every stage."""

from __future__ import annotations

import argparse
import json
import sys

from .demo import run_demo
from .errors import EstimationError, RevtimeError
from .estimator import (
    FRAME_MS,
    HOP_MS,
    TARGETS,
    VARIANTS,
    EstimatorConfig,
    MappingModel,
    StftConfig,
    estimate_t60,
)
from .eval_harness import (
    _parse_snr,
    build_corpus,
    evaluate_to_dir,
    load_items,
    read_records,
    rtf_table,
)
# Unused: cli simulates through trainer.save_rooms and trainer.train_model.
# perfbench's holder check still expects cli to hold the simulator (ROADMAP
# item 12).
from .room_acoustics import image_method_rir  # noqa: F401
from .signal_core import _from_fields, _is_finite, load_wav, read_lines
from .trainer import (
    check_frame,
    default_t60_grid,
    draw_rooms,
    save_rooms,
    speech_files,
    train_model,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _list_of(item):
    """argparse type: a comma-separated list of item values, at least one."""
    def parse(text: str) -> list:
        values = [item(v) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one number")
        return values
    parse.__name__ = "float"  # argparse reports a non-number as "invalid float value"
    return parse


def _number(kind, ok, rule: str):
    """argparse type: a kind (int or float) value for which ok holds. A
    value that fails is quoted as typed for a float, as read for an int."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            got = text.strip() if kind is float else value
            raise argparse.ArgumentTypeError(f"must be {rule}, got {got}")
        return value
    parse.__name__ = kind.__name__  # argparse reports "invalid int value" and so on
    return parse


def _snr(text: str) -> float:
    """argparse type: an SNR in dB as a manifest row takes it."""
    try:
        return _parse_snr(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_positive = _number(float, _is_finite, "finite and > 0")
_finite = _number(float, lambda v: _is_finite(v, "any"), "finite")
_count = _number(int, lambda v: v >= 1, "at least 1")
_order = _number(int, lambda v: v >= 0, "at least 0")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument("--config", default=None,
                        help="key=value file merged under explicit flags")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    parser = _Parser(prog="revtime",
                     description="Blind reverberation time (T60) estimation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", parents=[common],
                        help="estimate T60 for one audio file")
    p.add_argument("audio", help="WAV file to analyze")
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("simulate-rir", parents=[common],
                        help="generate image-method impulse responses")
    p.add_argument("--out", required=True)
    p.add_argument("--t60", type=_positive, action="append", required=True,
                   help="target T60 in seconds (repeatable)")
    p.add_argument("--rooms-per-t60", type=_count, default=1)
    p.add_argument("--sample-rate", type=_count, default=16000)
    p.set_defaults(func=cmd_simulate_rir)

    p = subs.add_parser("build-corpus", parents=[common],
                        help="realize a manifest into noisy reverberant files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_corpus)

    p = subs.add_parser("train", parents=[common],
                        help="fit an NSV-to-T60 mapping on simulated rooms")
    p.add_argument("--speech-dir", required=True,
                   help="directory of anechoic WAV files")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--variant", choices=VARIANTS, default="mel_band")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--t60-max", type=_positive, default=0.95,
                      help="top of the default grid (0.1 s steps from 0.1)")
    grid.add_argument("--grid", type=_list_of(_positive), default=None,
                      help="explicit comma-separated T60 grid")
    p.add_argument("--rooms-per-t60", type=_count, default=3)
    p.add_argument("--order", type=_order, default=2)
    p.add_argument("--target", choices=TARGETS, default="t60")
    p.add_argument("--n-mel-bands", type=int, default=EstimatorConfig.n_mel_bands)
    p.add_argument("--window-frames", type=int, default=EstimatorConfig.window_frames)
    p.add_argument("--snr-margin", type=_finite, default=EstimatorConfig.snr_margin)
    p.add_argument("--frame-ms", type=_positive, default=FRAME_MS)
    p.add_argument("--hop-ms", type=_positive, default=HOP_MS)
    p.add_argument("--pairs-csv", default=None,
                   help="also dump training pairs as CSV")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", parents=[common],
                        help="run one or more models over a built corpus")
    p.add_argument("--corpus", required=True, help="directory with items.json")
    p.add_argument("--model", action="append", required=True,
                   help="model JSON (repeat to compare variants)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_count, default=1,
                   help="parallel workers; keep 1 for reference RTF timing")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("rtf", parents=[common],
                        help="real-time-factor table from an evaluation records file")
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_rtf)

    p = subs.add_parser("demo", parents=[common],
                        help="synthesize assets, train, evaluate and report")
    p.add_argument("--out", required=True)
    p.add_argument("--talkers", type=_count, default=2)
    p.add_argument("--utterances", type=_count, default=3)
    p.add_argument("--t60-list", type=_list_of(_positive),
                   default=[0.3, 0.5, 0.7, 0.9, 1.1])
    p.add_argument("--snr-list", type=_list_of(_snr), default=[-1.0, 12.0, 18.0])
    p.add_argument("--train-t60-max", type=_positive, default=0.95)
    p.add_argument("--train-rooms", type=_count, default=3)
    p.add_argument("--train-utterances", type=_count, default=3)
    p.add_argument("--order", type=_order, default=2)
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=cmd_demo)

    return parser


def _config_tokens(path, args) -> list:
    """Turn a key=value config file into --flag=value tokens. A key is a long
    option name of the parsed subcommand; a true boolean adds its bare flag."""
    keys = set(vars(args)) - {"command", "func", "config"}
    tokens = []
    for line in read_lines(path):
        line = line.strip()
        if not line or line.startswith(("#", "[")):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if not sep:
            raise RevtimeError(f"config line without '=': {line!r}")
        if dest not in keys:
            raise RevtimeError(f"unknown config key: {key}")
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("true", "1", "yes", "on"):
            tokens.append(flag)
        elif value.lower() not in ("false", "0", "no", "off"):
            raise RevtimeError(f"config key {key}: {value!r} is not "
                               "true/false, 1/0, yes/no or on/off")
    return tokens


def cmd_estimate(args) -> int:
    # A missing model or audio file raises FileNotFoundError: exit 1 in main.
    model = MappingModel.load(args.model)
    result = estimate_t60(load_wav(args.audio), model)
    flags = ",".join(result.flags) or "none"
    if args.json:
        print(json.dumps({
            "t60_seconds": result.t60,
            "nsv": result.nsv.value,
            "n_negative": result.nsv.n_negative,
            "n_selected": result.nsv.n_selected,
            "flags": list(result.flags),
        }))
    else:
        print(f"t60_seconds={result.t60!r} nsv={result.nsv.value!r} flags={flags}")
    return 0


def cmd_simulate_rir(args) -> int:
    rooms = draw_rooms(0 if args.seed is None else args.seed, args.t60, args.rooms_per_t60,
                       args.sample_rate, "--t60")
    for path, t60, measured in save_rooms(args.out, "rir", rooms):
        _say(args, f"{path.name}: target {t60:.3f} s, measured {measured:.3f} s")
    return 0


def cmd_build_corpus(args) -> int:
    items = build_corpus(args.manifest, args.out)
    _say(args, f"built {len(items)} corpus items in {args.out}")
    return 0


def cmd_train(args) -> int:
    seed = 0 if args.seed is None else args.seed
    paths, sample_rate = speech_files(args.speech_dir)
    # --variant, --n-mel-bands, --window-frames and --snr-margin set the
    # EstimatorConfig fields they are named after.
    try:
        stft = StftConfig.for_sample_rate(sample_rate, args.frame_ms, args.hop_ms)
    except RevtimeError as exc:
        # The one rule for_sample_rate can break: hop <= frame, in samples.
        raise RevtimeError(f"--hop-ms {args.hop_ms:g} is longer than --frame-ms "
                           f"{args.frame_ms:g} at {sample_rate} Hz ({exc})") from None
    try:
        check_frame(paths, stft.frame_len)
    except RevtimeError as exc:
        raise RevtimeError(f"--frame-ms {args.frame_ms:g} at {sample_rate} Hz: {exc}") from None
    cfg = _from_fields(EstimatorConfig, {**vars(args), "stft": stft}, "train options")
    grid = args.grid if args.grid else default_t60_grid(args.t60_max)
    rooms = draw_rooms(seed, grid, args.rooms_per_t60, sample_rate,
                       "--grid" if args.grid else "--t60-max")
    _, report = train_model(args.speech_dir, cfg, rooms, seed, args.out, order=args.order,
                            target=args.target, pairs_csv=args.pairs_csv)
    _say(args, f"trained {args.variant} on {report['n_pairs']} pairs "
               f"({report['n_skipped']} skipped), rms residual "
               f"{report['rms_residual_s']:.3f} s, "
               f"t60_train_max {report['t60_train_max']:g} s -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    items = load_items(args.corpus)
    models = [MappingModel.load(p) for p in args.model]
    results = evaluate_to_dir(items, models, args.out, jobs=args.jobs)
    for tag, (_, failures) in results.items():
        if failures:
            _say(args, f"{tag}: {len(failures)} items failed")
    _say(args, f"evaluated {len(items)} items x {len(models)} model(s)")
    _say(args, rtf_table([r for records, _ in results.values() for r in records]))
    return 0


def cmd_rtf(args) -> int:
    print(rtf_table(read_records(args.records)))
    return 0


def cmd_demo(args) -> int:
    run_demo(args.out, seed=7 if args.seed is None else args.seed,
             talkers=args.talkers, utterances=args.utterances,
             t60_list=args.t60_list, snr_list=args.snr_list,
             train_t60_max=args.train_t60_max, train_rooms=args.train_rooms,
             train_utterances=args.train_utterances, order=args.order,
             jobs=args.jobs, say=lambda message: _say(args, message))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:  # the file's flags go first, so the user's own win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_tokens(args.config, args),
                                      *argv[at:]])
        return args.func(args)
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2
    except (RevtimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
