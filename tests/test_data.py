import json
import struct

import numpy as np
import pytest

from snndecode.data import (
    FrameSet,
    Standardizer,
    load_frames,
    save_frames,
    split_train_val,
    synth_generate,
)
from snndecode.errors import DataError


def small_frameset(n=3, channels=4, seed=0):
    rng = np.random.default_rng(seed)
    from snndecode.data import _make_frameset
    return _make_frameset(rng.normal(size=(n, channels)),
                          rng.normal(size=(n, 2)), 50.0, "external")


# ---------------------------------------------------------------- file io

def test_csv_round_trip_exact(tmp_path):
    frames = small_frameset()
    path = tmp_path / "d.csv"
    save_frames(frames, path, fmt="csv")
    back = load_frames(path)
    assert np.array_equal(back.features, frames.features)
    assert np.array_equal(back.velocities, frames.velocities)
    assert back.meta.frame_ms == 50.0
    assert back.meta.sample_count == 3


def test_csv_known_values(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "ch1,ch2,vel1,vel2\n"
        "1.5,2,0.25,-1\n"
        "0,3.5,1,2\n"
        "4,5,6,7\n"
    )
    frames = load_frames(path)
    assert frames.features.shape == (3, 2)
    assert frames.features[0, 0] == np.float32(1.5)
    assert frames.velocities[1, 1] == np.float32(2.0)
    assert frames.velocities[2, 0] == np.float32(6.0)


def test_binary_round_trip(tmp_path):
    frames = small_frameset(n=7, channels=5, seed=2)
    path = tmp_path / "d.bin"
    save_frames(frames, path, fmt="binary")
    back = load_frames(path)
    assert np.array_equal(back.features, frames.features)
    assert np.array_equal(back.velocities, frames.velocities)
    assert back.meta.channel_count == 5
    assert back.meta.provenance == "external"


def test_save_is_deterministic(tmp_path):
    frames = small_frameset(seed=5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_frames(frames, a)
    save_frames(frames, b)
    assert a.read_bytes() == b.read_bytes()


def test_wrong_column_count_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "ch1,ch2,vel1,vel2\n"
        "1,2,3,4\n"
        "1,2,3\n"          # 3 columns instead of 4
    )
    with pytest.raises(DataError, match="line 3"):
        load_frames(path)


def test_unparseable_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch1,vel1,vel2\n1,2,3\n1,x,3\n")
    with pytest.raises(DataError, match="line 3"):
        load_frames(path)


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch1,vel1,vel2\n1,2,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_frames(path)


def test_missing_file():
    with pytest.raises(DataError):
        load_frames("/nonexistent/frames.bin")


@pytest.mark.parametrize("header", [
    {"channel_count": 0, "sample_count": 1, "frame_ms": 50.0,
     "provenance": "external"},
    {"channel_count": 1, "sample_count": -1, "frame_ms": 50.0,
     "provenance": "external"},
    {"channel_count": "many", "sample_count": 1, "frame_ms": 50.0,
     "provenance": "external"},
    [1, 2],
    {"channel_count": float("inf"), "sample_count": 1, "frame_ms": 50.0,
     "provenance": "external"},
])
def test_bad_binary_header_rejected(tmp_path, header):
    blob = json.dumps(header).encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(b"SNNF" + struct.pack("<II", 1, len(blob)) + blob
                     + bytes(8))
    with pytest.raises(DataError, match="frame header"):
        load_frames(path)


def test_unparseable_frame_ms_names_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# frames v1 frame_ms=fast\nch1,vel1,vel2\n1,2,3\n")
    with pytest.raises(DataError, match="bad.csv line 1"):
        load_frames(path)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("value", [-5.0, 0.0, np.nan, np.inf])
def test_bad_frame_ms_names_file(tmp_path, fmt, value):
    frames = small_frameset()
    frames.meta.frame_ms = value
    path = tmp_path / "bad.frames"
    save_frames(frames, path, fmt=fmt)
    with pytest.raises(DataError, match="bad.frames"):
        load_frames(path)


@pytest.mark.parametrize("frame_ms", [1.36328125, 0.1])
def test_csv_keeps_frame_ms_exact(tmp_path, frame_ms):
    """A CSV round trip keeps the float64 frame duration, so the reloaded
    set saves to the same binary bytes as the original."""
    frames = small_frameset()
    frames.meta.frame_ms = frame_ms
    csv, direct, via_csv = (tmp_path / n for n in ("f.csv", "a.bin", "b.bin"))
    save_frames(frames, csv, fmt="csv")
    back = load_frames(csv)
    assert back.meta.frame_ms == frame_ms
    save_frames(frames, direct)
    save_frames(back, via_csv)
    assert via_csv.read_bytes() == direct.read_bytes()


def test_undecodable_text_names_file(tmp_path):
    """Bytes that are not text are a data error naming the file, also when
    a flipped bit in a binary file's magic makes it sniff as CSV."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"ch1,vel1,vel2\n1,\xff,3\n")
    with pytest.raises(DataError, match="bad.csv"):
        load_frames(path)
    flipped = tmp_path / "flipped.frames"
    save_frames(small_frameset(), flipped, fmt="binary")
    raw = bytearray(flipped.read_bytes())
    raw[0] ^= 0x01
    flipped.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="flipped.frames"):
        load_frames(flipped)


def test_format_sniffing(tmp_path):
    frames = small_frameset()
    for fmt, name in (("csv", "x.data"), ("binary", "y.data")):
        p = tmp_path / name
        save_frames(frames, p, fmt=fmt)
        assert np.array_equal(load_frames(p).features, frames.features)


# ------------------------------------------------------------------ split

def test_split_10_frames():
    frames = small_frameset(n=10)
    train, val = split_train_val(frames)
    assert train.meta.sample_count == 8
    assert val.meta.sample_count == 2


def test_split_16340_frames():
    from snndecode.data import _make_frameset
    n = 16340
    frames = _make_frameset(np.zeros((n, 1)), np.zeros((n, 2)), 50.0,
                            "external")
    train, val = split_train_val(frames)
    assert train.meta.sample_count == 13072     # floor(0.8 * 16340)
    assert val.meta.sample_count == 3268


def test_split_is_chronological_partition():
    frames = small_frameset(n=20, seed=3)
    train, val = split_train_val(frames)
    joined = np.vstack([train.features, val.features])
    assert np.array_equal(joined, frames.features)
    joined_v = np.vstack([train.velocities, val.velocities])
    assert np.array_equal(joined_v, frames.velocities)


def test_split_rejects_empty_side():
    frames = small_frameset(n=1)
    with pytest.raises(DataError):
        split_train_val(frames)


# ----------------------------------------------------------- standardizer

def test_standardized_train_has_zero_mean_unit_std():
    frames = small_frameset(n=400, channels=6, seed=4)
    std = Standardizer.fit(frames)
    feats = std.apply_features(frames.features)
    assert np.abs(feats.mean(axis=0)).max() < 1e-6
    assert np.abs(feats.std(axis=0, ddof=1) - 1).max() < 1e-6
    vels = std.apply_velocities(frames.velocities)
    assert np.abs(vels.mean(axis=0)).max() < 1e-6
    assert np.abs(vels.std(axis=0, ddof=1) - 1).max() < 1e-6


def test_invert_apply_identity():
    frames = small_frameset(n=50, seed=6)
    std = Standardizer.fit(frames)
    v = std.invert_velocity(std.apply_velocities(frames.velocities))
    assert np.abs(v - frames.velocities).max() < 1e-6


def test_validation_uses_training_statistics():
    # the validation half is shifted, so standardizing it with training
    # statistics must leave a visibly nonzero mean
    from snndecode.data import _make_frameset
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(100, 3)).astype(np.float32)
    feats[50:] += 5.0
    frames = _make_frameset(feats, rng.normal(size=(100, 2)), 50.0,
                            "external")
    train, val = split_train_val(frames, ratio=0.5)
    std = Standardizer.fit(train)
    val_feats = std.apply_features(val.features)
    assert np.abs(val_feats.mean(axis=0)).min() > 1.0


def test_degenerate_channel_flagged():
    from snndecode.data import _make_frameset
    feats = np.ones((10, 2), dtype=np.float32)
    feats[:, 1] = np.arange(10)
    frames = _make_frameset(feats, np.random.default_rng(0).normal(
        size=(10, 2)), 50.0, "external")
    std = Standardizer.fit(frames)
    assert std.degenerate_channels == (0,)
    assert std.feat_std[0] == 1.0
    out = std.apply_features(frames.features)
    assert np.isfinite(out).all()


# -------------------------------------------------------------- generator

def test_synth_same_seed_identical():
    a = synth_generate(200, seed=11)
    b = synth_generate(200, seed=11)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.velocities, b.velocities)
    c = synth_generate(200, seed=12)
    assert not np.array_equal(a.features, c.features)


def test_synth_duration():
    frames = synth_generate(12000, seed=0)
    assert frames.meta.duration_s == 600.0
    assert frames.meta.channel_count == 96
    assert frames.meta.provenance == "synthetic"


def test_synth_noiseless_linearly_decodable():
    # with no noise, a least-squares readout on the training split must
    # essentially recover the latent velocities on the held-out split
    frames = synth_generate(4000, seed=3, noise_std=0.0)
    train, val = split_train_val(frames)
    X = np.column_stack([train.features,
                         np.ones(train.meta.sample_count)])
    W, *_ = np.linalg.lstsq(X.astype(np.float64),
                            train.velocities.astype(np.float64),
                            rcond=None)
    Xv = np.column_stack([val.features, np.ones(val.meta.sample_count)])
    pred = Xv @ W
    from snndecode.metrics import pearson
    for d in range(2):
        assert pearson(pred[:, d], val.velocities[:, d]) > 0.99


def test_synth_all_finite_and_nonnegative_before_noise():
    frames = synth_generate(500, seed=9, noise_std=0.0)
    assert np.isfinite(frames.features).all()
    # softplus outputs are strictly positive without additive noise
    assert (frames.features > 0).all()
