"""Command-line front end.

Subcommands::

    synth     generate a synthetic dataset file
    train     train a spiking decoder -> checkpoint + training log
    eval      evaluate a checkpoint, optionally writing a velocity trace
    stream    frame-by-frame stateful decode, checked against eval
    profile   spike statistics and op/memory cost vs a dense reference
    kf        fit or evaluate the Kalman baseline

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.
Every subcommand is deterministic given its seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checkpoint as ckpt
from .data import (
    FrameSet,
    Standardizer,
    load_frames,
    save_frames,
    split_train_val,
    synth_generate,
)
from .errors import DataError, NumericError
from .kalman import kf_fit, kf_run
from .metrics import evaluate
from .network import NetworkSpec, forward_streaming, reset_state
from .neuron import RESET_MODES
from .profiler import ann_report, compare_report, count_spikes, snn_cost
from .train import (
    TrainConfig,
    decode_sequence,
    decoder_spec,
    fit,
    make_windows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="snndecode", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--channels", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--smoothness", type=float, default=10.0)
    p.add_argument("--frame-ms", type=float, default=50.0)
    p.add_argument("--format", choices=("binary", "csv"), default="binary")

    p = sub.add_parser("train", help="train a decoder")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="training log path")
    p.add_argument("--config", help="JSON file of TrainConfig fields; "
                                    "flags override it")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--overlap", type=int,
                   help="frames shared by consecutive windows "
                        "(default: window length - 1)")
    p.add_argument("--threshold", type=float, default=NetworkSpec.threshold)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--window", type=int, dest="window_len")
    p.add_argument("--discard", type=int, dest="warmup_discard")
    p.add_argument("--seed", type=int)
    p.add_argument("--reset-mode", choices=sorted(RESET_MODES))
    p.add_argument("--fixed-tau", action="store_true", default=None,
                   help="keep membrane decay constants at their init")
    p.add_argument("--dropout", type=float, dest="dropout_p")
    p.add_argument("--grad-clip", type=float)

    for name, extra in (("eval", "write metrics and an optional trace"),
                        ("stream", "stateful frame-by-frame decode"),
                        ("profile", "operation/memory cost report")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--split", choices=("val", "train", "all"),
                       default="val")
        p.add_argument("--split-ratio", type=float, default=0.8)
        if name == "eval":
            p.add_argument("--trace", help="CSV of true vs predicted "
                                           "velocities in original units")
        if name == "profile":
            p.add_argument("--ann-mac", type=int, default=529000,
                           help="MAC count of the dense reference decoder")
            p.add_argument("--json", dest="json_out",
                           help="also write the report as JSON")

    p = sub.add_parser("kf", help="fit or evaluate the Kalman baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="existing kf checkpoint (skip fitting)")
    p.add_argument("--out", help="save the fitted model here")
    p.add_argument("--split-ratio", type=float, default=0.8)

    return top


def _cmd_synth(args) -> int:
    frames = synth_generate(args.frames, channels=args.channels,
                            seed=args.seed, noise_std=args.noise_std,
                            smoothness=args.smoothness,
                            frame_ms=args.frame_ms)
    save_frames(frames, args.out, fmt=args.format)
    print(f"wrote {frames.meta.sample_count} frames "
          f"({frames.meta.channel_count} channels, "
          f"{frames.meta.duration_s:.0f} s) to {args.out}")
    return EXIT_OK


_CONFIG_FIELDS = tuple(TrainConfig.__dataclass_fields__)


def _merged_config(args) -> TrainConfig:
    """Precedence: explicit flags > --config file > defaults."""
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON: {exc}") from exc
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise DataError(
                f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update(loaded)
    for field in _CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            merged[field] = value
    if args.fixed_tau:
        merged["trainable_tau"] = False
    if "tau_init" in merged and isinstance(merged["tau_init"], list):
        merged["tau_init"] = tuple(merged["tau_init"])
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad training configuration: {exc}") from exc


def _standardized_split(frames: FrameSet, ratio: float):
    train, val = split_train_val(frames, ratio)
    std = Standardizer.fit(train)
    return train, val, std


def _cmd_train(args) -> int:
    config = _merged_config(args)
    frames = load_frames(args.data)
    train, val, std = _standardized_split(frames, args.split_ratio)
    ftr, vtr = std.apply(train)
    fva, vva = std.apply(val)
    dataset = make_windows(ftr, vtr, config.window_len,
                           overlap=args.overlap)
    spec = decoder_spec(config, frames.meta.channel_count,
                        train.velocities.shape[1], threshold=args.threshold)
    params, log = fit(dataset, config, spec=spec,
                      val_features=fva, val_velocities=vva)
    for record in log.records:
        print(record.line(include_wall=True))
    final_r = log.records[-1].val_r if log.records else None
    ckpt.save_snn(args.out, params, spec, std, extra={
        "train_config": log.config,
        "final_val_r": list(final_r) if final_r is not None else None,
    })
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(log.canonical())
    print(f"saved checkpoint to {args.out}")
    return EXIT_OK


def _select_split(frames: FrameSet, which: str, ratio: float) -> tuple:
    """Returns (subset FrameSet, index of its first frame in the file)."""
    if which == "all":
        return frames, 0
    train, val = split_train_val(frames, ratio)
    if which == "train":
        return train, 0
    return val, train.meta.sample_count


def _load_checkpoint(model_path, data_path, which, ratio):
    """Shared eval/stream/profile loading: the decoder and the
    standardized features of the chosen split."""
    params, spec, std, _ = ckpt.load_snn(model_path)
    frames = load_frames(data_path)
    if frames.meta.channel_count != spec.input_width:
        raise DataError(
            f"{data_path}: {frames.meta.channel_count} channels, model "
            f"expects {spec.input_width}")
    subset, offset = _select_split(frames, which, ratio)
    feats = std.apply_features(subset.features)
    return params, spec, std, subset, offset, feats


def _cmd_eval(args) -> int:
    params, spec, std, subset, offset, feats = _load_checkpoint(
        args.model, args.data, args.split, args.split_ratio)
    preds = std.invert_velocity(decode_sequence(params, spec, feats))
    report = evaluate(preds, subset.velocities)
    for line in report.lines():
        print(line)
    if args.trace:
        frame_s = subset.meta.frame_ms / 1000.0
        with open(args.trace, "w") as fh:
            fh.write("time_s,true_v1,pred_v1,true_v2,pred_v2\n")
            for i in range(len(preds)):
                t = (offset + i) * frame_s
                row = (t, subset.velocities[i, 0], preds[i, 0],
                       subset.velocities[i, 1], preds[i, 1])
                fh.write(",".join(format(x, ".6f") for x in row) + "\n")
        print(f"wrote trace to {args.trace}")
    return EXIT_OK


def _cmd_stream(args) -> int:
    params, spec, std, subset, _, feats = _load_checkpoint(
        args.model, args.data, args.split, args.split_ratio)
    eval_rows = decode_sequence(params, spec, feats)
    state = reset_state(spec)
    rows = np.empty_like(eval_rows)
    for t, frame in enumerate(feats):
        rows[t], state = forward_streaming(params, spec, frame, state)
    # bit-level comparison: a 1-ulp drift, a NaN or a signed zero counts
    differs = (rows.view(np.uint8) != eval_rows.view(np.uint8)).any(axis=1)
    if differs.any():
        t = int(np.argmax(differs))
        raise NumericError(
            f"streaming decode diverged from windowed eval at frame {t}: "
            f"{rows[t].tolist()} vs {eval_rows[t].tolist()}")
    report = evaluate(std.invert_velocity(rows), subset.velocities)
    for line in report.lines():
        print(line)
    print(f"stream rows bit-identical to eval over {len(rows)} frames")
    return EXIT_OK


def _cmd_profile(args) -> int:
    params, spec, _, _, _, feats = _load_checkpoint(
        args.model, args.data, args.split, args.split_ratio)
    stats = count_spikes(params, spec, feats)
    snn = snn_cost(spec, stats.layer_rates)
    dense = ann_report(args.ann_mac)
    table = compare_report([("dense-ann", dense), ("snn", snn)])
    rates = " ".join(f"layer{l + 1}={r:.4f}"
                     for l, r in enumerate(stats.layer_rates))
    print(f"spike rates over {stats.frames} frames: {rates}")
    print(f"mean spikes per inference: {stats.spikes_per_frame:.1f}")
    print(table.to_text(), end="")
    if args.json_out:
        payload = table.to_dict()
        payload["spike_rates"] = list(stats.layer_rates)
        payload["spikes_per_frame"] = stats.spikes_per_frame
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.json_out}")
    return EXIT_OK


def _cmd_kf(args) -> int:
    frames = load_frames(args.data)
    train, val, std = _standardized_split(frames, args.split_ratio)
    if args.model:
        model, std, _ = ckpt.load_kf(args.model)
    else:
        ftr, vtr = std.apply(train)
        model = kf_fit(ftr.astype(np.float64), vtr.astype(np.float64))
        if args.out:
            ckpt.save_kf(args.out, model, std, extra={"data": "fit"})
            print(f"saved kf checkpoint to {args.out}")
    fva = std.apply_features(val.features).astype(np.float64)
    preds = std.invert_velocity(kf_run(model, fva))
    report = evaluate(preds, val.velocities)
    for line in report.lines():
        print(line)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "stream": _cmd_stream,
    "profile": _cmd_profile,
    "kf": _cmd_kf,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
