"""CLI property: whatever the flags and files, ``main`` ends in its exit code.

Each example runs one subcommand in-process.  Flag values come from
boundary values (0, -1, NaN, infinities, empty strings, a huge seed);
paths are valid files, files of the wrong kind, channel count or length,
missing files, directories, empty strings, or truncated and bit-flipped
copies of valid files; output paths also lie in missing directories or
end in a separator; a ``train --config`` file gives one
``TrainConfig`` field a wrong type.  Every size that allocates or loops
(frames, channels, batch size, window, epochs) stays small.

Exit 3 is how a run reports an overflow numpy has warned about, so the
property ignores numpy's RuntimeWarning and checks the exit code instead.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import container
from snndecode.cli import _COMMANDS, main
from snndecode.train import TrainConfig

BOUNDARY = ("0", "-1", "nan", "inf", "-inf", "")
PREFIX = {2: "data error: ", 3: "numeric failure: "}
REQUIRED = {"synth": ("--frames", "--out"), "train": ("--data", "--out"),
            "kf": ("--data",)}
WRONG_TYPES = (None, True, "0.5", "x", [], {}, [0.1, 0.2, 0.3], 1.5, -1,
               float("nan"), 1e308)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-properties")
    made = {"data": d / "frames.bin", "narrow": d / "narrow.csv",
            "short": d / "short.bin", "snn": d / "m.ckpt",
            "kf": d / "kf.ckpt"}
    for argv in (
            ["synth", "--frames", "40", "--channels", "4", "--seed", "1",
             "--out", made["data"]],
            ["synth", "--frames", "40", "--channels", "3", "--format", "csv",
             "--out", made["narrow"]],
            ["synth", "--frames", "3", "--channels", "4", "--out",
             made["short"]],
            ["train", "--data", made["data"], "--out", made["snn"],
             "--epochs", "1", "--batch-size", "8"],
            ["kf", "--data", made["data"], "--out", made["kf"]]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0
    return made


def _input(draw, tmp, files, kind, others):
    """A path for an input flag: a valid file of ``kind`` (a third of the
    time), a valid file of one of the ``others`` kinds, a missing file, a
    directory, an empty string, or a truncated or bit-flipped copy of a
    valid file."""
    how = draw(st.sampled_from(("valid", "truncated", "flipped", "other",
                                "missing", "dir", "empty", "valid", "valid")))
    source = files[draw(st.sampled_from((kind, *others)))]
    if how == "valid":
        return str(files[kind])
    if how == "other":
        return str(files[draw(st.sampled_from(others))])
    if how == "missing":
        return str(tmp / "no_such_file")
    if how == "dir":
        return str(tmp)
    if how == "empty":
        return ""
    blob = bytearray(source.read_bytes())
    if how == "truncated":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    else:
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                 min_size=1, max_size=3)):
            blob[bit // 8] ^= 1 << (bit % 8)
    path = tmp / f"{how}-{source.name}"
    path.write_bytes(bytes(blob))
    return str(path)


def _output(draw, tmp, fresh):
    """A path for an output flag: a fresh file (noted in ``fresh``), one
    in a missing directory, a directory, a name ending in a separator, or
    an empty string."""
    how = draw(st.sampled_from(("fresh", "missing_dir", "dir", "slash",
                                "empty", "fresh")))
    if how == "fresh":
        path = tmp / f"out{len(fresh)}"
        fresh.append(path)
        return str(path)
    return {"missing_dir": str(tmp / "no_such_dir" / "out"),
            "dir": str(tmp), "slash": str(tmp / "new") + "/",
            "empty": ""}[how]


def _config(draw, tmp):
    """A ``--config`` file: one TrainConfig field of a wrong type, an
    unknown key, or text that is not JSON."""
    path = tmp / "config.json"
    how = draw(st.sampled_from(("wrong_type", "unknown_key", "not_json")))
    if how == "wrong_type":
        field = draw(st.sampled_from(tuple(TrainConfig.__dataclass_fields__)))
        body = json.dumps({field: draw(st.sampled_from(WRONG_TYPES))})
    elif how == "unknown_key":
        body = json.dumps({"grad_clip": None})
    else:
        body = '{"epochs": '
    path.write_text(body)
    return str(path)


def _argv(draw, tmp, files, fresh):
    """A subcommand and a drawn subset of its flags.  Each flag maps to a
    function that draws its value; ``None`` is a flag without one."""

    def pick(*options):
        return lambda: draw(st.sampled_from(options))

    def boundary(*usable):
        """Half the time a usable value, else a boundary value."""
        either = st.sampled_from(usable) | st.sampled_from(BOUNDARY)
        return lambda: draw(either)

    command = draw(st.sampled_from(tuple(_COMMANDS)))
    data = lambda: _input(draw, tmp, files, "data", ("narrow", "short"))
    out = lambda: _output(draw, tmp, fresh)
    seed = boundary("1", str(2 ** 70))
    if command == "synth":
        table = {"--frames": boundary("1", "40"), "--out": out,
                 "--channels": boundary("1", "4"), "--seed": seed,
                 "--noise-std": boundary("0.3", "1e308"),
                 "--smoothness": boundary("10", "1", "1e17"),
                 "--frame-ms": boundary("50"),
                 "--format": pick("binary", "csv", "")}
    elif command == "train":
        table = {"--data": data, "--out": out, "--log": out,
                 "--config": lambda: _config(draw, tmp),
                 "--threshold": boundary("0.4", "1e30"),
                 "--lr": boundary("2e-3", "1e30"),
                 "--weight-decay": boundary("0.01", "1e30"),
                 "--batch-size": boundary("1", "8"),
                 "--window": boundary("3", "40"),
                 "--discard": boundary("1", "9"), "--seed": seed,
                 "--reset-mode": pick("subtract", "zero", "", "warp"),
                 "--fixed-tau": lambda: None,
                 "--dropout": boundary("0.2", "1")}
    elif command == "kf":
        table = {"--data": data,
                 "--model": lambda: _input(draw, tmp, files, "kf", ("snn",)),
                 "--out": out}
    else:
        table = {"--model": lambda: _input(draw, tmp, files, "snn", ("kf",)),
                 "--data": data,
                 "--split": pick("val", "train", "all", "")}
        if command == "eval":
            table["--trace"] = out
        if command == "profile":
            table["--json"] = out
    argv = [command]
    required = REQUIRED.get(command, ("--model", "--data"))
    for flag, value in table.items():
        # a required flag is left out one time in ten, another flag two
        # times in three
        if draw(st.integers(0, 9)) < (9 if flag in required else 3):
            value = value()
            argv += [flag] if value is None else [flag, value]
    if command == "train":          # one epoch at most, whatever the config
        argv += ["--epochs", draw(st.sampled_from(("0", "1", "-1", "")))]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_every_failure_ends_in_its_exit_code(files, data):
    """The return code is 0-3 and no exception escapes ``main``; exits 2
    and 3 print their prefix; a failed command prints no result and
    leaves no output file behind."""
    with tempfile.TemporaryDirectory() as name:
        tmp, fresh = Path(name), []
        argv = _argv(data.draw, tmp, files, fresh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        if code in PREFIX:
            assert err.getvalue().startswith(PREFIX[code]), argv
        if code != 0:
            assert out.getvalue() == "", argv
            assert not any(path.exists() for path in fresh), argv


FLOATS = (np.float16, np.float32, np.float64)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_any_dtype_mix_exits_2_or_streams_as_eval(files, data):
    """Each checkpoint array retyped to float16, float32 or float64 (half
    the time one dtype for every layer array): ``eval`` and ``stream``
    exit 2 naming a layer array, or exit 0 with every streamed row equal
    to eval's bit for bit.  Neither exits 3, and the standardizer's dtype
    never matters."""
    meta, arrays = container.read(files["snn"], "snn")
    shared = data.draw(st.sampled_from(FLOATS) | st.none(), label="shared")
    retyped = []
    for name, a in arrays.items():
        dtype = shared if name.startswith("layer") else None
        if dtype is None:
            dtype = data.draw(st.sampled_from(FLOATS), label=name)
        retyped.append((name, a.astype(dtype)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "retyped.ckpt"
        container.write(path, "snn", meta, retyped)
        args = ["--model", str(path), "--data", str(files["data"])]
        eval_code, eval_out, eval_err = _run(["eval", *args])
        code, out, err = _run(["stream", *args])
    layer_dtypes = {a.dtype for name, a in retyped
                    if name.startswith("layer")}
    usable = (len(layer_dtypes) == 1
              and layer_dtypes <= {np.dtype(np.float32), np.dtype(np.float64)})
    assert (code, eval_code) == ((0, 0) if usable else (2, 2)), err
    if usable:
        assert "bit-identical to eval" in out
        assert out.splitlines()[:-1] == eval_out.splitlines()
    else:
        assert err == eval_err
        assert re.match(rf"data error: {re.escape(str(path))}: "
                        rf"layer\d\.\w+ is float", err), err
