"""Command-line front end.

Subcommands::

    synth     generate a synthetic dataset file
    train     train a spiking decoder -> checkpoint + training log
    eval      evaluate a checkpoint, optionally writing a velocity trace
    stream    frame-by-frame stateful decode, checked against eval
    profile   spike statistics and op/memory cost vs a dense reference
    kf        fit or evaluate the Kalman baseline

Exit codes: 0 ok, 1 usage error, 2 data error (a bad file, setting or
output path), 3 numeric failure.  Every subcommand is deterministic
given its seed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

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
from .errors import DataError, NumericError, refused
from .kalman import kf_fit, kf_run
from .metrics import check_targets, evaluate
from .network import NetworkSpec, forward_streaming, reset_state
from .neuron import RESET_MODES
from .profiler import (DENSE_ANN_MACS, ann_report, compare_report,
                       count_spikes, snn_cost)
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
    p.add_argument("--threshold", type=float, default=NetworkSpec.threshold)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--window", type=int, dest="window_len")
    p.add_argument("--discard", type=int, dest="warmup_discard")
    p.add_argument("--seed", type=int)
    p.add_argument("--reset-mode", choices=sorted(RESET_MODES))
    p.add_argument("--fixed-tau", dest="trainable_tau", action="store_false",
                   default=None,
                   help="keep membrane decay constants at their init")
    p.add_argument("--dropout", type=float, dest="dropout_p")

    for name, extra in (("eval", "write metrics and an optional trace"),
                        ("stream", "stateful frame-by-frame decode"),
                        ("profile", "operation/memory cost report")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--split", choices=("val", "train", "all"),
                       default="val")
        if name == "eval":
            p.add_argument("--trace", help="CSV of true vs predicted "
                                           "velocities in original units")
        if name == "profile":
            p.add_argument("--json", dest="json_out",
                           help="also write the report as JSON")

    p = sub.add_parser("kf", help="fit or evaluate the Kalman baseline")
    p.add_argument("--data", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--model", help="existing kf checkpoint (skip fitting)")
    source.add_argument("--out", help="save the fitted model here")

    return top


def _cmd_synth(args) -> int:
    frames = synth_generate(args.frames, channels=args.channels,
                            seed=args.seed, noise_std=args.noise_std,
                            smoothness=args.smoothness,
                            frame_ms=args.frame_ms)
    save_frames(frames, args.out, fmt=args.format)
    print(f"wrote {len(frames)} frames ({frames.channel_count} channels, "
          f"{frames.duration_s:.0f} s) to {args.out}")
    return EXIT_OK


_CONFIG_FIELDS = tuple(TrainConfig.__dataclass_fields__)


def _merged_config(args) -> TrainConfig:
    """Precedence: explicit flags > --config file > defaults.  A config
    file that cannot be read or used raises :class:`DataError` naming it,
    and settings :class:`TrainConfig` refuses raise ``ValueError``."""
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
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad training configuration: {exc}") from exc


def _check_output_paths(args):
    """Refuse an output path that is empty, names a directory (a trailing
    separator does) or lies in a missing one, or that names an input or
    an earlier output, so a typo ends the command before its work, not
    after; creates nothing."""
    given = {name: getattr(args, name, None) for name in _INPUTS + _OUTPUTS}
    seen = [given[name] for name in _INPUTS if given[name] is not None]
    for path in (given[name] for name in _OUTPUTS if given[name] is not None):
        if (not path or path.endswith(os.sep) or os.path.isdir(path)
                or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
            raise DataError(f"cannot write output {path!r}: it is empty or "
                            f"a directory, or its directory does not exist")
        for other in seen:
            if _same_file(path, other):
                raise DataError(f"cannot write output {path!r}: it is also "
                                f"{other!r}, which the command reads or "
                                f"writes")
        seen.append(path)


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file, through links too."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _check_channels(data_path, frames: FrameSet, channels: int):
    if frames.channel_count != channels:
        raise DataError(
            f"{data_path}: {frames.channel_count} channels, model "
            f"expects {channels}")


def _split(data_path, frames: FrameSet):
    """The recording's ``(train, val)`` split, or a refusal naming it."""
    with refused(data_path):
        return split_train_val(frames)


def _check_scored(data_path, subset: FrameSet, which: str):
    """Refuse a split whose velocities cannot be scored, naming the data
    file and the split; the rule is :func:`metrics.check_targets`."""
    with refused(f"{data_path}: the {which} split"):
        check_targets(subset.velocities)


def _standardized(data_path, frames: FrameSet, window_len=None):
    """``(standardizer, train part, val split)`` for fitting a decoder:
    the standardizer fit on the train split, that split standardized
    (and cut into windows of ``window_len`` when given), and the val
    split once it can be scored.  A refusal names the data file and the
    split at fault, the train split's first."""
    train, val = _split(data_path, frames)
    with refused(f"{data_path}: the train split"):
        std = Standardizer.fit(train)
        part = std.apply(train)
        if window_len is not None:
            part = make_windows(*part, window_len)
    _check_scored(data_path, val, "val")
    return std, part, val


def _cmd_train(args) -> int:
    config = _merged_config(args)
    frames = load_frames(args.data)
    std, dataset, val = _standardized(args.data, frames, config.window_len)
    fva, vva = std.apply(val)
    spec = decoder_spec(config, frames.channel_count,
                        frames.velocities.shape[1], threshold=args.threshold)
    params, log = fit(dataset, config, spec=spec,
                      val_features=fva, val_velocities=vva)
    for record in log.records:
        print(record.line(include_wall=True))
    final_r = log.records[-1].val_r if log.records else None
    ckpt.save_snn(args.out, params, spec, std, extra={
        "train_config": log.config,
        # a flat decode has no correlation, stored as null
        "final_val_r": None if final_r is None else [
            None if np.isnan(r) else r for r in final_r],
    })
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(log.canonical())
    print(f"saved checkpoint to {args.out}")
    return EXIT_OK


def _load_checkpoint(model_path, data_path, which):
    """Shared eval/stream/profile loading: the decoder, the split
    ``which``, the index of its first frame in the file and its
    standardized features.  A recording of another channel or velocity
    count than the decoder's is refused before any decode."""
    params, spec, std, _ = ckpt.load_snn(model_path)
    frames = load_frames(data_path)
    _check_channels(data_path, frames, spec.input_width)
    if frames.velocities.shape[1] != spec.output_width:
        raise DataError(f"{model_path}: decodes {spec.output_width} "
                        f"velocities, {data_path} holds "
                        f"{frames.velocities.shape[1]}")
    subset, offset = frames, 0
    if which != "all":
        train, val = _split(data_path, frames)
        subset, offset = (train, 0) if which == "train" else (val, len(train))
    feats = std.apply_features(subset.features)
    return params, spec, std, subset, offset, feats


def _cmd_eval(args) -> int:
    params, spec, std, subset, offset, feats = _load_checkpoint(
        args.model, args.data, args.split)
    _check_scored(args.data, subset, args.split)
    preds = std.invert_velocity(decode_sequence(params, spec, feats))
    report = evaluate(preds, subset.velocities)
    for line in report.lines():
        print(line)
    if args.trace:
        frame_s = subset.frame_ms / 1000.0
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
        args.model, args.data, args.split)
    _check_scored(args.data, subset, args.split)
    eval_rows = decode_sequence(params, spec, feats)
    state = reset_state(spec, dtype=params.dtype)
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
        args.model, args.data, args.split)
    tic = time.perf_counter()
    stats = count_spikes(params, spec, feats)
    frame_us = (time.perf_counter() - tic) / stats.frames * 1e6
    snn = snn_cost(spec, stats.layer_rates)
    dense = ann_report(DENSE_ANN_MACS)
    table = compare_report([("dense-ann", dense), ("snn", snn)])
    rates = " ".join(f"layer{l + 1}={r:.4f}"
                     for l, r in enumerate(stats.layer_rates))
    print(f"spike rates over {stats.frames} frames: {rates}")
    print(f"mean spikes per inference: {stats.spikes_per_frame:.1f}")
    print(table.to_text(), end="")
    # wall time varies from run to run, so it stays out of the JSON report
    print(f"snn measured: {frame_us:.1f} us per frame for "
          f"{snn.total_ops:,} predicted ops (one inference pass over "
          f"{stats.frames} frames)")
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
    if args.model:
        _, val = _split(args.data, frames)
        model, std, _ = ckpt.load_kf(args.model)
        _check_channels(args.data, frames, len(model.C))
        _check_scored(args.data, val, "val")
    else:
        std, train, val = _standardized(args.data, frames)
        model = kf_fit(*train)
    fva = std.apply_features(val.features)
    preds = std.invert_velocity(kf_run(model, fva))
    report = evaluate(preds, val.velocities)
    # saved only once the model has decoded the validation part
    if args.out:
        ckpt.save_kf(args.out, model, std, extra={"data": "fit"})
        print(f"saved kf checkpoint to {args.out}")
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

# The output and input flags, as argparse names them; main checks the
# output paths a subcommand has before any work.
_OUTPUTS = ("out", "log", "trace", "json_out")
_INPUTS = ("data", "model", "config")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output_paths(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:      # an output that failed while being written
        print(f"data error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
