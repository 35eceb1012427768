import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snndecode import cli
from snndecode import container
from snndecode.checkpoint import load_snn, save_kf, save_snn
from snndecode.cli import main
from snndecode.data import FrameSet, Standardizer, save_frames, synth_generate
from snndecode.kalman import KfModel
from snndecode.network import NetworkSpec, init_params


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "frames.bin"
    assert main(["synth", "--frames", "400", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    d = tmp_path_factory.mktemp("cli-train")
    ckpt, log = d / "m.ckpt", d / "train.log"
    code = main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--log", str(log), "--epochs", "2", "--seed", "1"])
    assert code == 0
    return ckpt, log


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for p in (a, b):
        assert main(["synth", "--frames", "120", "--seed", "3",
                     "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_csv_format(tmp_path):
    p = tmp_path / "d.csv"
    assert main(["synth", "--frames", "50", "--seed", "0", "--out", str(p),
                 "--format", "csv"]) == 0
    head = p.read_text().splitlines()[0]
    assert head.startswith("#")


def test_train_then_eval(trained, dataset, capsys, tmp_path):
    ckpt, log = trained
    lines = log.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert len(lines) == 1 + 2              # header + one record per epoch
    assert '"seed": 1' in lines[0]

    trace = tmp_path / "trace.csv"
    assert main(["eval", "--model", str(ckpt), "--data", str(dataset),
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "r_mean=" in out and "mse=" in out
    for token in out.split():
        if token.startswith(("r1=", "r2=", "mse=")):
            assert np.isfinite(float(token.split("=")[1]))

    rows = trace.read_text().splitlines()
    assert rows[0] == "time_s,true_v1,pred_v1,true_v2,pred_v2"
    assert len(rows) == 1 + 80              # header + val frames
    first = [float(x) for x in rows[1].split(",")]
    assert len(first) == 5
    assert first[0] == 16.0                 # val split starts at frame 320


@pytest.mark.parametrize("split, frames", [("train", 320), ("all", 400)])
def test_eval_trace_of_train_and_all_splits(trained, dataset, capsys,
                                            tmp_path, split, frames):
    """The training part and the whole file both start at the file's first
    frame, so their traces start at time 0 and step one frame a row."""
    trace = tmp_path / "trace.csv"
    assert main(["eval", "--model", str(trained[0]), "--data", str(dataset),
                 "--split", split, "--trace", str(trace)]) == 0
    capsys.readouterr()
    times = [float(row.split(",")[0])
             for row in trace.read_text().splitlines()[1:]]
    assert len(times) == frames
    assert times[0] == 0.0 and times[-1] == round((frames - 1) * 0.05, 6)


def test_eval_stream_agree(trained, dataset, capsys):
    ckpt, _ = trained
    assert main(["eval", "--model", str(ckpt),
                 "--data", str(dataset)]) == 0
    eval_out = capsys.readouterr().out
    assert main(["stream", "--model", str(ckpt),
                 "--data", str(dataset)]) == 0
    stream_out = capsys.readouterr().out
    get = lambda text: float(
        [t for t in text.split() if t.startswith("r_mean=")][0][7:])
    assert abs(get(eval_out) - get(stream_out)) < 1e-6
    assert "bit-identical" in stream_out


def test_stream_rejects_one_ulp_drift(trained, dataset, capsys, monkeypatch):
    """One streamed row off by one unit in the last place exits 3."""
    ckpt, _ = trained
    real = cli.forward_streaming
    frames = []

    def nudged(params, spec, frame, state):
        pred, state = real(params, spec, frame, state)
        frames.append(frame)
        if len(frames) == 5:
            pred = pred.copy()
            pred[1] = np.nextafter(pred[1], np.inf, dtype=pred.dtype)
        return pred, state

    monkeypatch.setattr(cli, "forward_streaming", nudged)
    assert main(["stream", "--model", str(ckpt),
                 "--data", str(dataset)]) == 3
    assert "frame 4" in capsys.readouterr().err


def test_profile_subcommand(trained, dataset, capsys, tmp_path):
    """``profile`` prints the measured time per frame beside the predicted
    ops; the JSON report leaves the time out, so it is the same bytes on
    every run."""
    ckpt, _ = trained
    reports = [tmp_path / "cost.json", tmp_path / "again.json"]
    for report in reports:
        assert main(["profile", "--model", str(ckpt), "--data",
                     str(dataset), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "spike rates" in out
        assert "Total ops" in out
        assert re.search(r"snn measured: \d+\.\d us per frame for "
                         r"[\d,]+ predicted ops", out)
    assert reports[0].read_bytes() == reports[1].read_bytes()
    doc = json.loads(reports[0].read_text())
    assert doc["models"]["dense-ann"]["mac_count"] == 529_000
    assert len(doc["spike_rates"]) == 3


def test_kf_subcommand(dataset, capsys, tmp_path):
    ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    fit_out = capsys.readouterr().out
    assert "r_mean=" in fit_out
    assert main(["kf", "--data", str(dataset), "--model", str(ckpt)]) == 0
    reload_out = capsys.readouterr().out
    assert fit_out.splitlines()[-1] == reload_out.splitlines()[-1]


def test_kf_model_checks_data_channels(dataset, capsys, tmp_path):
    """A data file whose channel count differs from the kf model's is
    refused naming the file and both counts."""
    ckpt, narrow = tmp_path / "kf.ckpt", tmp_path / "narrow.bin"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    assert main(["synth", "--frames", "100", "--channels", "6",
                 "--out", str(narrow)]) == 0
    capsys.readouterr()
    assert main(["kf", "--data", str(narrow), "--model", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert str(narrow) in err and "6 channels" in err and "expects 96" in err


def test_kf_model_rejects_negative_scale(dataset, capsys, tmp_path):
    """A kf checkpoint whose velocity scale is negated would decode with
    every velocity's sign flipped; it is refused at load."""
    ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    meta, arrays = container.read(ckpt, "kf")
    arrays["std.vel_std"] = -arrays["std.vel_std"]
    container.write(ckpt, "kf", meta, list(arrays.items()))
    capsys.readouterr()
    assert main(["kf", "--data", str(dataset), "--model", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "std.vel_std" in err


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_kf_model_rejects_narrow_float(dataset, capsys, tmp_path, dtype):
    """A kf checkpoint rewritten in a narrower float would decode at that
    precision; it is refused at load, naming the file and the array."""
    ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    meta, arrays = container.read(ckpt, "kf")
    container.write(ckpt, "kf", meta, [
        (name, a.astype(dtype) if name.startswith("kf.") else a)
        for name, a in arrays.items()])
    capsys.readouterr()
    assert main(["kf", "--data", str(dataset), "--model", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert f"{ckpt}: kf.A is {np.dtype(dtype)}" in err and not out


@pytest.mark.parametrize("command", ["eval", "stream", "profile"])
def test_model_of_another_output_width_exits_2(dataset, tmp_path, capsys,
                                               monkeypatch, command):
    """A decoder of three outputs on a recording of two velocities is
    refused before any decode, naming both files, as a model of another
    input width is."""
    spec = NetworkSpec(layer_widths=(96, 8, 3))
    std = Standardizer(np.zeros(96, np.float32), np.ones(96, np.float32),
                       np.zeros(3, np.float32), np.ones(3, np.float32))
    ckpt = tmp_path / "three.ckpt"
    save_snn(ckpt, init_params(spec, np.random.default_rng(0)), spec, std)

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a model of another output width")
    for name in ("decode_sequence", "forward_streaming", "count_spikes"):
        monkeypatch.setattr(cli, name, no_decode)
    assert main([command, "--model", str(ckpt), "--data", str(dataset)]) == 2
    out, err = capsys.readouterr()
    assert f"{ckpt}: decodes 3 velocities, {dataset} holds 2" in err
    assert not out


@pytest.mark.parametrize("kind, key", [("snn", "threshold"), ("kf", "ridge")])
def test_checkpoint_with_a_bool_setting_exits_2(trained, dataset, tmp_path,
                                                capsys, kind, key):
    """A checkpoint storing ``true`` for a number it needs is refused at
    load, naming the file and the setting, not run as the number 1."""
    ckpt = tmp_path / f"{kind}.ckpt"
    if kind == "snn":
        ckpt.write_bytes(trained[0].read_bytes())
        command = ["eval", "--model", str(ckpt)]
    else:
        assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
        command = ["kf", "--model", str(ckpt)]
    meta, arrays = container.read(ckpt, kind)
    (meta["spec"] if kind == "snn" else meta)[key] = True
    container.write(ckpt, kind, meta, list(arrays.items()))
    capsys.readouterr()
    assert main([*command, "--data", str(dataset)]) == 2
    out, err = capsys.readouterr()
    assert str(ckpt) in err and f"{key}=True" in err and not out


def test_kf_model_singular_filter_exits_3(dataset, capsys, tmp_path):
    """A kf checkpoint whose observation matrix and noise are all zeros
    loads (every array is finite), and its first step finds the
    innovation covariance singular: exit 3, as for any numeric failure."""
    ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    meta, arrays = container.read(ckpt, "kf")
    arrays["kf.C"] = np.zeros_like(arrays["kf.C"])
    arrays["kf.Q"] = np.zeros_like(arrays["kf.Q"])
    container.write(ckpt, "kf", meta, list(arrays.items()))
    capsys.readouterr()
    assert main(["kf", "--data", str(dataset), "--model", str(ckpt)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith(
        "numeric failure: innovation covariance numerically singular")
    assert not out


def test_config_file_and_flag_precedence(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "seed": 5,
                               "learning_rate": 1e-3}))
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "t.log"
    # --seed overrides the config file; epochs comes from the file
    assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--log", str(log), "--config", str(cfg),
                 "--seed", "9"]) == 0
    capsys.readouterr()
    header = log.read_text().splitlines()[0]
    assert '"seed": 9' in header
    assert '"epochs": 1' in header
    assert '"learning_rate": 0.001' in header


def test_threshold_reaches_training_log(dataset, tmp_path, capsys):
    """The log and the checkpoint record the threshold that was trained."""
    headers = {}
    for threshold in ("0.4", "0.6"):
        ckpt = tmp_path / f"m{threshold}.ckpt"
        log = tmp_path / f"t{threshold}.log"
        assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                     "--log", str(log), "--epochs", "1",
                     "--threshold", threshold]) == 0
        line = log.read_text().splitlines()[0]
        header = json.loads(line[len("# config "):])
        assert header["spec"]["threshold"] == float(threshold)
        _, spec, _, extra = load_snn(ckpt)
        assert spec.threshold == float(threshold)
        assert extra["train_config"] == header
        headers[threshold] = line
    capsys.readouterr()
    assert headers["0.4"] != headers["0.6"]


@pytest.mark.parametrize("flag, value", [
    *(pytest.param("--frame-ms", v, id=v) for v in ("nan", "inf", "0", "-1")),
    *(pytest.param("--noise-std", v, id=f"noise-std-{v}")
      for v in ("nan", "inf", "-0.3", "1e308")),
    *(pytest.param("--smoothness", v, id=f"smoothness-{v}")
      for v in ("nan", "inf", "1e17", "1")),
])
def test_synth_rejects_bad_frame_ms(tmp_path, capsys, flag, value):
    """Settings that would write an unusable file (NaN features, constant
    velocities, a frame length of no time) exit 2 naming the setting, and
    write nothing."""
    out = tmp_path / "d.bin"
    assert main(["synth", "--frames", "20", "--out", str(out),
                 flag, value]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_zero_channels(tmp_path, capsys):
    """A file without channels would be refused by every loader; synth
    refuses it, and a negative count, before anything is drawn."""
    out = tmp_path / "d.bin"
    for channels in ("0", "-1"):
        assert main(["synth", "--frames", "20", "--out", str(out),
                     "--channels", channels]) == 2
        assert "channel_count" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("field, flags, config", [
    pytest.param("batch_size", [], {"batch_size": 2.5}, id="batch_size-2.5"),
    pytest.param("window_len", [], {"window_len": 2.5}, id="window_len-2.5"),
    pytest.param("seed", [], {"seed": 1.5}, id="seed-1.5"),
    pytest.param("learning_rate", [], {"learning_rate": float("nan")},
                 id="learning_rate-NaN"),
    pytest.param("tau_init", [], {"tau_init": [0.5, 1.5]},
                 id="tau_init-above-one"),
    pytest.param("tau_init", [], {"tau_init": 0.5}, id="tau_init-scalar"),
    pytest.param("tau_init", [], {"tau_init": [0.1, 0.2, 0.3]},
                 id="tau_init-three"),
    pytest.param("tau_init", [], {"tau_init": [0.9, 0.1]},
                 id="tau_init-reversed"),
    pytest.param("dropout_p", [], {"dropout_p": "0.2"},
                 id="dropout_p-string"),
    pytest.param("dropout_p", [], {"dropout_p": None}, id="dropout_p-null"),
    pytest.param("epochs", [], {"epochs": True}, id="epochs-true"),
    pytest.param("seed", [], {"seed": True}, id="seed-true"),
    pytest.param("trainable_tau", [], {"trainable_tau": "no"},
                 id="trainable_tau-string"),
    pytest.param("grad_clip", [], {"grad_clip": None},
                 id="grad_clip-retired"),
    pytest.param("batch_size", [], {"batch_size": 0}, id="batch_size-0"),
    pytest.param("warmup_discard", [],
                 {"window_len": 4, "warmup_discard": 4},
                 id="warmup_discard-whole-window"),
    pytest.param("learning_rate", [], {"learning_rate": "fast"},
                 id="learning_rate-string"),
    pytest.param("reset mode", [], {"reset_mode": "hard"},
                 id="reset_mode-unknown"),
    pytest.param("learning_rate", ["--lr", "-0.01"], None, id="lr-negative"),
    pytest.param("weight_decay", ["--weight-decay", "nan"], None,
                 id="weight-decay-nan"),
    pytest.param("threshold", ["--threshold", "nan"], None,
                 id="threshold-nan"),
    pytest.param("threshold", ["--threshold", "inf"], None,
                 id="threshold-inf"),
])
def test_train_rejects_bad_setting(dataset, tmp_path, capsys, field, flags,
                                   config):
    """A setting outside its range exits 2 naming it, before a checkpoint
    is written: no traceback, no training by gradient ascent, no
    divergence reported as a numeric failure."""
    ckpt = tmp_path / "m.ckpt"
    args = ["train", "--data", str(dataset), "--out", str(ckpt), *flags]
    if config is None:
        args += ["--epochs", "1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **config}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert field in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("args, expect", [
    pytest.param(["synth", "--frames", "20", "--out", "{missing}"],
                 "{missing}", id="synth-out"),
    pytest.param(["train", "--data", "{data}", "--epochs", "1",
                  "--out", "{missing}"], "{missing}", id="train-out"),
    pytest.param(["train", "--data", "{data}", "--epochs", "1",
                  "--out", "{tmp}/m.ckpt", "--log", "{missing}"],
                 "{missing}", id="train-log"),
    pytest.param(["train", "--data", "{data}", "--epochs", "1",
                  "--out", "{tmp}"], "{tmp}", id="train-out-is-directory"),
    pytest.param(["eval", "--model", "{model}", "--data", "{data}",
                  "--trace", "{missing}"], "{missing}", id="eval-trace"),
    pytest.param(["profile", "--model", "{model}", "--data", "{data}",
                  "--json", "{missing}"], "{missing}", id="profile-json"),
    pytest.param(["kf", "--data", "{data}", "--out", "{missing}"],
                 "{missing}", id="kf-out"),
    pytest.param(["eval", "--model", "{model}", "--data", "{data}",
                  "--trace", ""], "''", id="eval-trace-empty"),
    pytest.param(["profile", "--model", "{model}", "--data", "{data}",
                  "--json", "{tmp}/new/"], "{tmp}/new/",
                 id="profile-json-trailing-separator"),
])
def test_unusable_output_or_reference_exits_2(trained, dataset, tmp_path,
                                              capsys, args, expect):
    """An output path that is empty, in a missing directory or naming a
    directory exits 2 naming it instead of a traceback, before any work:
    nothing is printed and no other output is written."""
    fill = {"missing": tmp_path / "no_such_dir" / "out", "data": dataset,
            "model": trained[0], "tmp": tmp_path}
    assert main([a.format(**fill) for a in args]) == 2
    out, err = capsys.readouterr()
    assert expect.format(**fill) in err
    assert out == ""
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("args, clash", [
    pytest.param(["train", "--data", "{data}", "--out", "{data}"], "{data}",
                 id="train-out-is-data"),
    pytest.param(["train", "--data", "{data}", "--out", "{tmp}/m.ckpt",
                  "--log", "{tmp}/m.ckpt"], "{tmp}/m.ckpt",
                 id="train-log-is-out"),
    pytest.param(["train", "--data", "{data}", "--out", "{tmp}/m.ckpt",
                  "--log", "{data}"], "{data}", id="train-log-is-data"),
    pytest.param(["train", "--data", "{data}", "--config", "{config}",
                  "--out", "{config}"], "{config}", id="train-out-is-config"),
    pytest.param(["train", "--data", "{data}", "--config", "{config}",
                  "--out", "{tmp}/m.ckpt", "--log", "{config}"], "{config}",
                 id="train-log-is-config"),
    pytest.param(["train", "--data", "{data}", "--out", "{hard_link}"],
                 "{hard_link}", id="train-out-is-a-hard-link-to-data"),
    pytest.param(["train", "--data", "{data}", "--out", "{symlink}"],
                 "{symlink}", id="train-out-is-a-symlink-to-data"),
    pytest.param(["eval", "--model", "{model}", "--data", "{data}",
                  "--trace", "{model}"], "{model}", id="eval-trace-is-model"),
    pytest.param(["eval", "--model", "{model}", "--data", "{data}",
                  "--trace", "{data}"], "{data}", id="eval-trace-is-data"),
    pytest.param(["profile", "--model", "{model}", "--data", "{data}",
                  "--json", "{model}"], "{model}", id="profile-json-is-model"),
    pytest.param(["profile", "--model", "{model}", "--data", "{data}",
                  "--json", "{data}"], "{data}", id="profile-json-is-data"),
    pytest.param(["kf", "--data", "{data}", "--out", "{data}"], "{data}",
                 id="kf-out-is-data"),
])
def test_output_naming_an_input_or_output_exits_2(trained, dataset, tmp_path,
                                                  capsys, args, clash):
    """An output that names an input, or an output named before it, also
    through a link, exits 2 naming it before any work: nothing is printed
    and every file is left as it was."""
    fill = {"data": tmp_path / "frames.bin", "model": tmp_path / "in.ckpt",
            "config": tmp_path / "cfg.json", "tmp": tmp_path,
            "hard_link": tmp_path / "hard.bin",
            "symlink": tmp_path / "sym.bin"}
    fill["data"].write_bytes(dataset.read_bytes())
    fill["model"].write_bytes(trained[0].read_bytes())
    fill["config"].write_text(json.dumps({"epochs": 1}))
    os.link(fill["data"], fill["hard_link"])
    os.symlink(fill["data"], fill["symlink"])
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([a.format(**fill) for a in args]) == 2
    out, err = capsys.readouterr()
    assert f"cannot write output {clash.format(**fill)!r}" in err
    assert out == ""
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("args", [
    ["train", "--data", "{data}", "--out", "{out}", "--grad-clip", "1"],
    ["train", "--data", "{data}", "--out", "{out}", "--overlap", "0"],
    ["train", "--data", "{data}", "--out", "{out}", "--split-ratio", "0.9"],
    *([command, "--model", "{model}", "--data", "{data}", "--split-ratio",
       "0.9"] for command in ("eval", "stream", "profile")),
    ["profile", "--model", "{model}", "--data", "{data}", "--ann-mac", "1"],
    ["kf", "--data", "{data}", "--out", "{out}", "--split-ratio", "0.9"],
], ids=lambda a: f"{a[0]}{a[-2]}")
def test_retired_flags_exit_1(trained, dataset, tmp_path, capsys, args):
    """Gradient clipping, window overlap, the split ratio and the dense
    reference's size are fixed, not settings: naming one is a usage
    error, and nothing is written."""
    out = tmp_path / "out"
    fill = {"data": dataset, "model": trained[0], "out": out}
    assert main([a.format(**fill) for a in args]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_kf_refuses_model_with_out(dataset, tmp_path, capsys):
    """``--out`` saves a fitted model, and ``--model`` skips fitting: the
    two together are a usage error, not a silently unwritten file."""
    ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    new = tmp_path / "new.ckpt"
    assert main(["kf", "--data", str(dataset), "--model", str(ckpt),
                 "--out", str(new)]) == 1
    out, err = capsys.readouterr()
    assert "not allowed with argument" in err and not out
    assert not new.exists()


def test_exit_codes(dataset, tmp_path, capsys):
    # usage errors -> 1
    assert main(["bogus"]) == 1
    assert main(["synth", "--frames", "10"]) == 1          # missing --out
    capsys.readouterr()
    # data errors -> 2
    assert main(["eval", "--model", str(tmp_path / "no.ckpt"),
                 "--data", str(dataset)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("ch1,vel1,vel2\n1,2\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(bad), "--out", str(ckpt)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_config_exits_2(dataset, tmp_path, capsys, where):
    cfg = tmp_path / "cfg.json"
    if where == "directory":
        cfg.mkdir()
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "cannot read config file" in err and str(cfg) in err and not out
    assert not ckpt.exists()


def test_short_files_exit_2(dataset, tmp_path, capsys):
    # shorter than the fixed header that follows the magic
    frames = tmp_path / "short.bin"
    frames.write_bytes(container.MAGIC + b"\x01\x00")
    assert main(["train", "--data", str(frames),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "truncated" in capsys.readouterr().err
    model = tmp_path / "short.ckpt"
    model.write_bytes(b"SNNC\x01")
    assert main(["eval", "--model", str(model), "--data", str(dataset)]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("named, edit", [
    pytest.param("frame_ms", lambda m, a: m.pop("frame_ms"), id="frame_ms"),
    pytest.param("provenance", lambda m, a: m.pop("provenance"),
                 id="provenance"),
    # the channel and frame counts are the shapes of the arrays
    pytest.param("features", lambda m, a: a.update(
        features=a["features"].ravel()), id="channel_count"),
    pytest.param("velocities", lambda m, a: a.update(
        velocities=a["velocities"][1:]), id="sample_count"),
    pytest.param("features", lambda m, a: a.pop("features"),
                 id="no-features"),
])
def test_frame_header_missing_key_exits_2(dataset, tmp_path, capsys, named,
                                          edit):
    """A frames file missing a metadata key or an array, or with arrays
    whose shapes disagree, exits 2 naming the file and what is at fault."""
    bad = tmp_path / "nokey.bin"
    bad.write_bytes(dataset.read_bytes())
    meta, arrays = container.read(bad, "frames")
    edit(meta, arrays)
    container.write(bad, "frames", meta, list(arrays.items()))
    assert main(["kf", "--data", str(bad),
                 "--out", str(tmp_path / "kf.ckpt")]) == 2
    err = capsys.readouterr().err
    assert named in err and str(bad) in err


@pytest.mark.parametrize("command, flag, given, expected", [
    ("eval", "--model", "frames", "an snn checkpoint"),
    ("kf", "--model", "snn", "a kf checkpoint"),
    ("eval", "--data", "snn", "a frames file"),
    ("kf", "--data", "kf", "a frames file"),
    ("eval", "--data", "SNNF", None),       # the older frames layout
    ("kf", "--data", "SNNF", None),
])
def test_wrong_kind_of_file_exits_2(trained, dataset, tmp_path, capsys,
                                    command, flag, given, expected):
    """A file of another kind than the flag wants is refused by name: the
    kind expected and the kind found, or the retired frames layout."""
    kf_ckpt = tmp_path / "kf.ckpt"
    assert main(["kf", "--data", str(dataset), "--out", str(kf_ckpt)]) == 0
    old = tmp_path / "old.bin"
    old.write_bytes(b"SNNF\x01\x00\x00\x00\x02\x00\x00\x00{}")
    files = {"frames": dataset, "snn": trained[0], "kf": kf_ckpt,
             "SNNF": old}
    args = {"--data": dataset, flag: files[given]}
    if command == "eval":
        args.setdefault("--model", trained[0])
    capsys.readouterr()
    assert main([command, *(str(x) for kv in args.items() for x in kv)]) == 2
    out, err = capsys.readouterr()
    found = (f"expected {expected}, found {given!r}" if expected else
             "an SNNF frame file, a layout no longer read; re-run synth or "
             "load the CSV")
    assert not out and err == f"data error: {files[given]}: {found}\n"


def test_one_frame_validation_exits_2(tmp_path, capsys):
    """Training whose validation part is one frame has no correlation to
    record: it exits 2 before the first epoch and writes nothing."""
    data, ckpt = tmp_path / "five.bin", tmp_path / "m.ckpt"
    assert main(["synth", "--frames", "5", "--channels", "4",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--log", str(tmp_path / "train.log"),
                 "--window", "3", "--discard", "1"]) == 2
    out, err = capsys.readouterr()
    assert "two frames, got 1" in err and not out
    assert not ckpt.exists() and not (tmp_path / "train.log").exists()


def test_kf_model_exactly_singular_update_exits_3(tmp_path, capsys):
    """A one-channel kf checkpoint whose first ``I + P⁻M`` is exactly
    singular cannot be inverted at all: exit 3 with an infinite
    condition estimate."""
    data, ckpt = tmp_path / "one.bin", tmp_path / "kf.ckpt"
    assert main(["synth", "--frames", "100", "--channels", "1",
                 "--out", str(data)]) == 0
    model = KfModel(A=np.zeros((3, 3)), W=np.diag([-1.0, 0.0, 0.0]),
                    C=np.array([[1.0, 0.0, 0.0]]), Q=np.array([[1.0]]))
    save_kf(ckpt, model, Standardizer(feat_mean=np.zeros(1),
                                      feat_std=np.ones(1),
                                      vel_mean=np.zeros(2),
                                      vel_std=np.ones(2)))
    capsys.readouterr()
    assert main(["kf", "--data", str(data), "--model", str(ckpt)]) == 3
    out, err = capsys.readouterr()
    assert "condition estimate inf" in err and not out


def test_flat_decode_scores_nan(trained, dataset, tmp_path, capsys):
    """A decoder whose normalizers pass no current (every gamma and beta
    is 0) decodes a constant: eval and stream score it r = nan, as
    training's validation does, and exit 0."""
    bad = tmp_path / "flat.ckpt"
    meta, arrays = container.read(trained[0], "snn")
    for name, a in arrays.items():
        if name.endswith((".gamma", ".beta")):
            a[:] = 0.0
    container.write(bad, "snn", meta, list(arrays.items()))
    for command in ("eval", "stream"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 0
        out, err = capsys.readouterr()
        assert "r1=nan r2=nan r_mean=nan" in out.splitlines() and not err


def _flat_vel1(path, frames):
    """Write ``frames`` to ``path`` with the last 60 ``vel1`` values set
    to 0.25: a 300-frame file's validation part then never changes."""
    vels = frames.velocities.copy()
    vels[-60:, 0] = 0.25
    save_frames(FrameSet(frames.features, vels, frames.frame_ms), path)


def test_constant_validation_velocity_exits_2(tmp_path, capsys):
    """A validation part whose vel1 never changes has no correlation for
    that output: train exits 2 before the first epoch, naming the file,
    the split and the column as eval does, and writes nothing."""
    data, ckpt = tmp_path / "flat.bin", tmp_path / "m.ckpt"
    _flat_vel1(data, synth_generate(300, channels=8, seed=3))
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--epochs", "1"]) == 2
    out, err = capsys.readouterr()
    assert (f"{data}: the val split: velocity column 1 is constant" in err
            and not out)
    assert not ckpt.exists()


def test_flat_validation_r_stored_as_null(dataset, tmp_path, capsys,
                                          monkeypatch):
    """A validation decode too flat for a correlation logs nan and is
    stored as null: the checkpoint header stays strict JSON."""
    monkeypatch.setattr("snndecode.train._validation_r",
                        lambda *args: (float("nan"), 0.5))
    ckpt = tmp_path / "flat.ckpt"
    assert main(["train", "--data", str(dataset), "--out", str(ckpt),
                 "--epochs", "1"]) == 0
    assert "val_r1=nan" in capsys.readouterr().out
    assert b"NaN" not in ckpt.read_bytes()
    assert load_snn(ckpt)[3]["final_val_r"] == [None, 0.5]


_SHORT = "standardizing needs at least two training frames, got 1"
_EMPTY = "split of 1 frames at ratio 0.8 leaves the train split empty"


@pytest.mark.parametrize("command, frames, expected", [
    pytest.param("train", 2, f"the train split: {_SHORT}", id="train"),
    pytest.param("kf", 2, f"the train split: {_SHORT}", id="kf"),
    pytest.param("train", 12, "the train split: need at least 10 frames to "
                 "cut one window, got 9", id="train-no-window"),
    pytest.param("eval", 1, _EMPTY, id="eval-one-frame"),
    pytest.param("kf", 1, _EMPTY, id="kf-one-frame"),
])
def test_one_frame_training_part_exits_2(one_frame_split, tmp_path, command,
                                         frames, expected):
    """A training part too short to split off, to standardize (one frame)
    or to cut into one window exits 2 naming the data file, the part and
    the count, with no numpy warning printed first."""
    _, models = one_frame_split
    data = tmp_path / "short.bin"
    assert main(["synth", "--frames", str(frames), "--channels", "4",
                 "--out", str(data)]) == 0
    out = ["--model", str(models["snn"])] if command == "eval" else [
        "--out", str(tmp_path / "m.ckpt")]
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "snndecode", command,
         "--data", str(data), *out], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == f"data error: {data}: {expected}\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_malformed_checkpoint_exits_2(trained, dataset, tmp_path, capsys):
    ckpt, _ = trained
    bad = tmp_path / "nospec.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    meta, arrays = container.read(bad, "snn")
    del meta["spec"]["threshold"]
    container.write(bad, "snn", meta, list(arrays.items()))
    for command in ("eval", "stream"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 2
        assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("bn_eps", 1e-3),
                                        ("normalize_output", False)])
def test_other_normalizer_checkpoint_exits_2(trained, dataset, tmp_path,
                                             capsys, key, value):
    """A spec that sets a normalizer constant, from before it was one, to
    another value would decode with the wrong normalizer: it exits 2
    naming the key."""
    ckpt, _ = trained
    bad = tmp_path / "other.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    meta, arrays = container.read(bad, "snn")
    meta["spec"][key] = value
    container.write(bad, "snn", meta, list(arrays.items()))
    assert main(["eval", "--model", str(bad), "--data", str(dataset)]) == 2
    out, err = capsys.readouterr()
    assert key in err and not out


def test_flipped_dtype_bit_exits_2(trained, dataset, tmp_path, capsys):
    """One flipped bit turns a dtype string "<f4" into ",f4"."""
    ckpt, _ = trained
    bad = tmp_path / "flipped.ckpt"
    bad.write_bytes(ckpt.read_bytes().replace(b'"<f4"', b'",f4"', 1))
    assert main(["eval", "--model", str(bad), "--data", str(dataset)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_checkpoint_exits_3(trained, dataset, tmp_path, capsys):
    """Finite weights whose first product overflows are a numeric failure
    naming the layer, not a decode from silent layers."""
    ckpt, _ = trained
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    meta, arrays = container.read(bad, "snn")
    arrays["layer0.weight"][:] = 3e38
    container.write(bad, "snn", meta, list(arrays.items()))
    for command in ("eval", "stream", "profile"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 3
        assert "layer 0" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("layer1.run_var", -1.0),
                                         ("layer0.run_var", np.nan),
                                         ("layer2.weight", np.inf),
                                         ("layer3.tau", 1.5)])
def test_poisoned_checkpoint_exits_2(trained, dataset, tmp_path, capsys,
                                     name, value):
    """Array values the decoder cannot use end in exit 2 naming the file
    and the array, not in a decode with NaN figures."""
    ckpt, _ = trained
    bad = tmp_path / "poisoned.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    meta, arrays = container.read(bad, "snn")
    arrays[name].flat[0] = value
    container.write(bad, "snn", meta, list(arrays.items()))
    for command in ("eval", "stream", "profile"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 2
        err = capsys.readouterr().err
        assert name in err and str(bad) in err


def _retyped_checkpoint(ckpt, bad, retype):
    """Copy ``ckpt`` to ``bad`` with every layer array passed through
    ``retype(name, array)``; the standardizer is left as it was."""
    meta, arrays = container.read(ckpt, "snn")
    container.write(bad, "snn", meta, [
        (name, retype(name, a) if name.startswith("layer") else a)
        for name, a in arrays.items()])
    return bad


@pytest.mark.parametrize("retype, first", [
    pytest.param(lambda name, a: a.astype(np.float16), "layer0.weight",
                 id="float16"),
    pytest.param(lambda name, a: a.astype(np.float64)
                 if name == "layer1.weight" else a, "layer1.weight",
                 id="one-float64-weight"),
])
def test_checkpoint_not_of_one_dtype_exits_2(trained, dataset, tmp_path,
                                             capsys, retype, first):
    """Layer arrays in half precision, or in two dtypes, are refused at
    load by every command, naming the file and the first array at fault:
    a half-precision decode breaks stream ≡ eval."""
    bad = _retyped_checkpoint(trained[0], tmp_path / "retyped.ckpt", retype)
    for command in ("eval", "stream", "profile"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 2
        out, err = capsys.readouterr()
        assert f"{bad}: {first} is " in err and not out


def test_float64_checkpoint_streams_bit_identical(trained, dataset, tmp_path,
                                                  capsys):
    """A float64 decoder, with the float32 standardizer ``train`` fitted,
    streams in its own dtype, bit for bit equal to ``eval``."""
    wide = _retyped_checkpoint(trained[0], tmp_path / "f64.ckpt",
                               lambda name, a: a.astype(np.float64))
    params, _, std, _ = load_snn(wide)
    assert params.dtype == np.float64 and std.feat_std.dtype == np.float32
    assert main(["eval", "--model", str(wide), "--data", str(dataset)]) == 0
    eval_out = capsys.readouterr().out
    assert main(["stream", "--model", str(wide), "--data", str(dataset)]) == 0
    stream_out = capsys.readouterr().out
    assert "bit-identical to eval over 80 frames" in stream_out
    # the same rows, so the same figures
    assert stream_out.splitlines()[:-1] == eval_out.splitlines()


@pytest.fixture(scope="module")
def one_frame_split(tmp_path_factory):
    """A 5-frame file, whose validation part is one frame, and a model
    for its four channels."""
    d = tmp_path_factory.mktemp("one-frame")
    five, forty = d / "five.bin", d / "forty.bin"
    models = {"snn": d / "m.ckpt", "kf": d / "kf.ckpt"}
    for argv in (["synth", "--frames", "5", "--channels", "4",
                  "--out", five],
                 ["synth", "--frames", "40", "--channels", "4",
                  "--out", forty],
                 ["train", "--data", forty, "--out", models["snn"],
                  "--epochs", "1", "--batch-size", "8"],
                 ["kf", "--data", forty, "--out", models["kf"]]):
        assert main([str(a) for a in argv]) == 0
    return five, models


@pytest.mark.parametrize("command, model", [
    ("eval", "snn"), ("stream", "snn"), ("kf", None), ("kf", "kf")])
def test_one_frame_split_exits_2(one_frame_split, capsys, monkeypatch,
                                 command, model):
    """A split of one frame has no correlation: exit 2 naming the data
    file and the split, before any decode or fit."""
    five, models = one_frame_split
    for name in ("decode_sequence", "kf_fit", "kf_run"):
        monkeypatch.setattr(cli, name, None)
    capsys.readouterr()
    argv = [command, "--data", str(five)]
    if model:
        argv += ["--model", str(models[model])]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == (f"data error: {five}: the val split: scoring needs at "
                   f"least two frames, got 1\n")
    assert not out


def test_one_frame_split_profiles(one_frame_split, capsys):
    """``profile`` reports no correlation, so one frame is enough."""
    five, models = one_frame_split
    capsys.readouterr()
    assert main(["profile", "--model", str(models["snn"]),
                 "--data", str(five)]) == 0
    assert "spike rates over 1 frames" in capsys.readouterr().out


@pytest.fixture(scope="module")
def flat_split(tmp_path_factory):
    """A 300-frame, 8-channel file whose validation ``vel1`` never
    changes, and models for its channels fit on the unflattened file."""
    d = tmp_path_factory.mktemp("flat")
    frames = synth_generate(300, channels=8, seed=3)
    good, flat = d / "good.bin", d / "flat.bin"
    save_frames(frames, good)
    _flat_vel1(flat, frames)
    models = {"snn": d / "m.ckpt", "kf": d / "kf.ckpt"}
    for argv in (["train", "--data", good, "--out", models["snn"],
                  "--epochs", "1", "--batch-size", "32"],
                 ["kf", "--data", good, "--out", models["kf"]]):
        assert main([str(a) for a in argv]) == 0
    return flat, models


@pytest.mark.parametrize("command, model", [
    ("eval", "snn"), ("stream", "snn"), ("kf", None), ("kf", "kf")])
def test_flat_split_exits_2(flat_split, tmp_path, capsys, monkeypatch,
                            command, model):
    """A split whose vel1 never changes has no correlation for it: exit 2
    naming the data file, the split and the column, before any decode or
    fit, and ``kf --out`` writes nothing."""
    flat, models = flat_split
    for name in ("decode_sequence", "kf_fit", "kf_run"):
        monkeypatch.setattr(cli, name, None)
    capsys.readouterr()
    kf_out = tmp_path / "kf.ckpt"
    argv = [command, "--data", str(flat)]
    argv += ["--model", str(models[model])] if model else [
        "--out", str(kf_out)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == (f"data error: {flat}: the val split: velocity column 1 "
                   f"is constant, so its correlation is undefined\n")
    assert not out and not kf_out.exists()


def test_flat_split_profiles(flat_split, capsys):
    """``profile`` scores nothing, so a constant velocity is no refusal."""
    flat, models = flat_split
    capsys.readouterr()
    assert main(["profile", "--model", str(models["snn"]),
                 "--data", str(flat)]) == 0
    assert "spike rates over 60 frames" in capsys.readouterr().out


def test_failed_write_exits_2(dataset, tmp_path, capsys, monkeypatch):
    """An output that fails while it is written (a full disk) exits 2
    naming the failure, not with a traceback."""
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.ckpt, "save_kf", full)
    assert main(["kf", "--data", str(dataset),
                 "--out", str(tmp_path / "kf.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write output: ")
    assert "No space left on device" in err


def test_profile_runs_one_inference_pass(trained, dataset, capsys,
                                         monkeypatch):
    """``profile`` needs only the spike counts: one unfolded pass."""
    from snndecode import profiler, train
    calls = []
    for module in (train, profiler):
        real = module.forward_unfolded

        def counted(*args, real=real, name=module.__name__, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "forward_unfolded", counted)
    assert main(["profile", "--model", str(trained[0]),
                 "--data", str(dataset)]) == 0
    assert calls == ["snndecode.profiler"]


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "snndecode", "synth", "--frames", "30",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
    proc = subprocess.run([sys.executable, "-m", "snndecode", "nope"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_readme_names_only_real_flags():
    """Every ``--flag`` the README names (pip's aside) is an option of some
    subcommand, and every ``snndecode`` line of its shell blocks parses."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = cli._build_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in commands.values() for action in sub._actions
               for opt in action.option_strings}
    named = set(re.findall(r"--[a-z][a-z-]*", readme))
    assert named - options == {"--no-build-isolation"}
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("snndecode ")]
    assert lines
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
