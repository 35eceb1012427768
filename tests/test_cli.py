import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from snndecode import cli
from snndecode.checkpoint import _read_container, _write_container, load_snn
from snndecode.cli import main


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
    ckpt, _ = trained
    report = tmp_path / "cost.json"
    assert main(["profile", "--model", str(ckpt), "--data", str(dataset),
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "spike rates" in out
    assert "Total ops" in out
    doc = json.loads(report.read_text())
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


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_synth_rejects_bad_frame_ms(tmp_path, capsys, value):
    out = tmp_path / "d.bin"
    assert main(["synth", "--frames", "20", "--out", str(out),
                 "--frame-ms", value]) == 2
    assert "frame_ms" in capsys.readouterr().err
    assert not out.exists()


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


def test_short_files_exit_2(dataset, tmp_path, capsys):
    # shorter than the fixed header that follows the magic
    frames = tmp_path / "short.bin"
    frames.write_bytes(b"SNNF\x01\x00")
    assert main(["train", "--data", str(frames),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    model = tmp_path / "short.ckpt"
    model.write_bytes(b"SNNC\x01")
    assert main(["eval", "--model", str(model), "--data", str(dataset)]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["channel_count", "sample_count",
                                 "frame_ms", "provenance"])
def test_frame_header_missing_key_exits_2(dataset, tmp_path, capsys, key):
    raw = dataset.read_bytes()
    _, blob_len = struct.unpack_from("<II", raw, 4)
    meta = json.loads(raw[12:12 + blob_len])
    del meta[key]
    blob = json.dumps(meta).encode()
    bad = tmp_path / "nokey.bin"
    bad.write_bytes(raw[:4] + struct.pack("<II", 1, len(blob)) + blob
                    + raw[12 + blob_len:])
    assert main(["kf", "--data", str(bad),
                 "--out", str(tmp_path / "kf.ckpt")]) == 2
    assert key in capsys.readouterr().err


def test_malformed_checkpoint_exits_2(trained, dataset, tmp_path, capsys):
    ckpt, _ = trained
    bad = tmp_path / "nospec.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    kind, meta, arrays = _read_container(bad)
    del meta["spec"]["bn_eps"]
    _write_container(bad, kind, meta, list(arrays.items()))
    for command in ("eval", "stream"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 2
        assert "bn_eps" in capsys.readouterr().err


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
    kind, meta, arrays = _read_container(bad)
    arrays["layer0.weight"][:] = 3e38
    _write_container(bad, kind, meta, list(arrays.items()))
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
    kind, meta, arrays = _read_container(bad)
    arrays[name].flat[0] = value
    _write_container(bad, kind, meta, list(arrays.items()))
    for command in ("eval", "stream", "profile"):
        assert main([command, "--model", str(bad),
                     "--data", str(dataset)]) == 2
        err = capsys.readouterr().err
        assert name in err and str(bad) in err


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
