"""Loader properties: any byte string either loads or raises DataError
naming the file, and saving what was loaded gives back the same bytes.

Corrupt inputs are truncations and 1-3 bit flips of a valid SNN
checkpoint, a valid Kalman checkpoint, a binary frames file (the three
kinds of the one container) and a CSV frames file.  Half of the flips
land in the file's header, where a flip changes what the loader parses
rather than only a payload value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from snndecode.checkpoint import load_kf, load_snn, save_kf, save_snn
from snndecode.data import load_frames, save_frames, synth_generate
from snndecode.errors import DataError
from snndecode.kalman import kf_fit

from test_checkpoint import toy_model, toy_standardizer


def _snn(path):
    params, spec = toy_model()
    save_snn(path, params, spec, toy_standardizer(), extra={"epochs": 3})


def _kf(path):
    rng = np.random.default_rng(1)
    model = kf_fit(rng.normal(size=(60, 5)), rng.normal(size=(60, 2)))
    save_kf(path, model, toy_standardizer(), extra={"data": "fit"})


def _frames(fmt):
    def write(path):
        save_frames(synth_generate(12, channels=4, seed=2), path, fmt=fmt)
    return write


def _reload_snn(src, dst):
    params, spec, std, extra = load_snn(src)
    save_snn(dst, params, spec, std, extra=extra)


def _reload_kf(src, dst):
    model, std, extra = load_kf(src)
    save_kf(dst, model, std, extra=extra)


def _reload_frames(fmt):
    def reload(src, dst):
        save_frames(load_frames(src), dst, fmt=fmt)
    return reload


def _header_len(kind, blob):
    """Bytes up to the end of the part a loader parses as metadata."""
    if kind in ("snn", "kf", "binary"):       # the container's three kinds
        return 10 + int.from_bytes(blob[6:10], "little")
    return blob.index(b"\n", blob.index(b"\n") + 1) + 1      # csv: 2 lines


# kind -> (write a valid file, load it, load it and save it again)
FORMATS = {
    "snn": (_snn, load_snn, _reload_snn),
    "kf": (_kf, load_kf, _reload_kf),
    "binary": (_frames("binary"), load_frames, _reload_frames("binary")),
    "csv": (_frames("csv"), load_frames, _reload_frames("csv")),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> the bytes of a valid file of that kind."""
    root = tmp_path_factory.mktemp("valid")
    blobs = {}
    for kind, (write, _, _) in FORMATS.items():
        write(root / kind)
        blobs[kind] = (root / kind).read_bytes()
    return blobs


@pytest.fixture(scope="module")
def corrupt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt") / "file"


def _loads_or_names_file(load, path):
    """``load(path)`` returns, or raises :class:`DataError` whose message
    names ``path``."""
    try:
        load(path)
    except DataError as exc:
        assert str(path) in str(exc), exc


@st.composite
def corruptions(draw, blob, head):
    """A truncation, or 1-3 bit flips anywhere or in the header."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    where = st.one_of(st.integers(0, 8 * head - 1),
                      st.integers(0, 8 * len(blob) - 1))
    for bit in draw(st.lists(where, min_size=1, max_size=3)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(FORMATS))
def test_corrupt_file_loads_or_raises_data_error(valid, corrupt_path, kind):
    blob = valid[kind]
    load = FORMATS[kind][1]

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=corruptions(blob, _header_len(kind, blob)))
    def check(data):
        corrupt_path.write_bytes(data)
        _loads_or_names_file(load, corrupt_path)

    check()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(FORMATS))
def test_every_header_bit_flip_loads_or_raises_data_error(valid, corrupt_path,
                                                          kind):
    """Each single bit flip in the header, exhaustively: random flips
    rarely hit the few bits whose flip changes how a file parses."""
    blob = valid[kind]
    load = FORMATS[kind][1]
    for bit in range(8 * _header_len(kind, blob)):
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        corrupt_path.write_bytes(bytes(data))
        _loads_or_names_file(load, corrupt_path)


@pytest.mark.parametrize("kind", list(FORMATS))
def test_save_of_load_is_byte_identical(valid, tmp_path, kind):
    src, dst = tmp_path / "src", tmp_path / "dst"
    src.write_bytes(valid[kind])
    FORMATS[kind][2](src, dst)
    assert dst.read_bytes() == valid[kind]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rows=arrays(np.float32, st.tuples(st.integers(1, 8), st.just(3)),
                   elements=st.floats(width=32, allow_nan=False,
                                      allow_infinity=False)),
       frame_ms=st.floats(0.5, 200.0, width=32))
@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_frames_round_trip_any_values(tmp_path_factory, fmt, rows, frame_ms):
    """Any finite float32 values and frame duration survive a load and a
    save unchanged, in both formats."""
    path = tmp_path_factory.mktemp("rt") / "frames"
    frames = synth_generate(len(rows), channels=1, frame_ms=frame_ms)
    frames.features[:] = rows[:, :1]
    frames.velocities[:] = rows[:, 1:]
    save_frames(frames, path, fmt=fmt)
    first = path.read_bytes()
    loaded = load_frames(path)
    np.testing.assert_array_equal(loaded.features, frames.features)
    np.testing.assert_array_equal(loaded.velocities, frames.velocities)
    save_frames(loaded, path, fmt=fmt)
    assert path.read_bytes() == first
