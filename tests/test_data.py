import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndecode import container
from snndecode.data import (
    ARTIFACT_MULT,
    ARTIFACT_PROB,
    JITTER_MULT,
    FrameSet,
    Standardizer,
    load_frames,
    save_frames,
    split_train_val,
    synth_generate,
)
from snndecode.errors import DataError

from test_checkpoint import rewritten


def small_frameset(n=3, channels=4, seed=0):
    rng = np.random.default_rng(seed)
    return FrameSet(rng.normal(size=(n, channels)), rng.normal(size=(n, 2)),
                    50.0, "external")


# -------------------------------------------------------------- frame set

def _arrays(n=4, channels=3):
    rng = np.random.default_rng(1)
    return rng.normal(size=(n, channels)), rng.normal(size=(n, 2))


def test_frameset_holds_contiguous_float32():
    feats, vels = _arrays()
    frames = FrameSet(feats[:, ::-1], vels, 25.0)
    assert frames.features.dtype == frames.velocities.dtype == np.float32
    assert frames.features.flags.c_contiguous
    assert np.array_equal(frames.features, feats[:, ::-1].astype(np.float32))
    assert (len(frames), frames.channel_count) == (4, 3)
    assert frames.duration_s == 0.1
    assert frames.provenance == "external"


def _poisoned(value, name="features"):
    feats, vels = _arrays()
    arrays = {"features": feats, "velocities": vels}
    arrays[name][2, 1] = value
    return arrays["features"], arrays["velocities"], 50.0


@pytest.mark.parametrize("args, named", [
    pytest.param(_poisoned(np.nan), "features", id="nan-feature"),
    pytest.param(_poisoned(np.inf, "velocities"), "velocities",
                 id="inf-velocity"),
    pytest.param(_poisoned(1e39), "features", id="beyond-float32"),
    pytest.param((_arrays()[0], _arrays(n=5)[1], 50.0), "velocities",
                 id="mismatched-lengths"),
    pytest.param((np.zeros((4, 0)), _arrays()[1], 50.0), "channel_count",
                 id="zero-channels"),
    pytest.param((np.zeros(4), _arrays()[1], 50.0), "features",
                 id="one-dimensional-features"),
    pytest.param((_arrays()[0], np.zeros((4, 3)), 50.0), "velocities",
                 id="three-velocities"),
    pytest.param((*_arrays(), 0.0), "frame_ms=0.0", id="zero-frame_ms"),
    pytest.param((*_arrays(), -5.0), "frame_ms=-5.0", id="negative-frame_ms"),
    pytest.param((*_arrays(), np.nan), "frame_ms=nan", id="nan-frame_ms"),
    pytest.param((*_arrays(), np.inf), "frame_ms=inf", id="inf-frame_ms"),
])
def test_unusable_frameset_refused(args, named):
    """A hand-built set meets the same rule as a loaded one: ValueError
    naming the array or the value, and no numpy warning first."""
    with pytest.raises(ValueError, match=re.escape(named)):
        FrameSet(*args)


# ---------------------------------------------------------------- file io

def test_csv_round_trip_exact(tmp_path):
    frames = small_frameset()
    path = tmp_path / "d.csv"
    save_frames(frames, path, fmt="csv")
    back = load_frames(path)
    assert np.array_equal(back.features, frames.features)
    assert np.array_equal(back.velocities, frames.velocities)
    assert back.frame_ms == 50.0
    assert len(back) == 3


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
    assert back.channel_count == 5
    assert back.provenance == "external"


def test_save_refuses_unknown_format(tmp_path):
    path = tmp_path / "d.npz"
    with pytest.raises(ValueError, match="unknown format 'npz'"):
        save_frames(small_frameset(), path, fmt="npz")
    assert not path.exists()


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


@pytest.mark.parametrize("text, named", [
    pytest.param("ch1,vel1,vel2\n", "no data rows", id="header-only"),
    pytest.param("# frames v1\nch1,vel1,vel2\n\n\n", "no data rows",
                 id="blank-rows-only"),
])
def test_csv_without_rows_names_file(tmp_path, text, named):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"empty.csv: {named}"):
        load_frames(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("ch1,vel1,vel2\n1,2,3\n\n4,5,6\n\n")
    frames = load_frames(path)
    assert np.array_equal(frames.features, [[1.0], [4.0]])
    assert np.array_equal(frames.velocities, [[2.0, 3.0], [5.0, 6.0]])


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch1,vel1,vel2\n1,2,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_frames(path)


def test_cell_beyond_float32_rejected_without_warning(tmp_path):
    """A cell that overflows float32 is refused as non-finite; the cast
    prints no numpy warning first (the suite makes one an error)."""
    path = tmp_path / "big.csv"
    path.write_text("ch1,vel1,vel2\n1e39,1,2\n3,4,5\n")
    with pytest.raises(DataError, match="non-finite"):
        load_frames(path)


def test_missing_file():
    with pytest.raises(DataError):
        load_frames("/nonexistent/frames.bin")


def _one_frame(**arrays):
    """The arrays of a valid one-frame, three-channel set, some replaced."""
    return {"features": np.zeros((1, 3), np.float32),
            "velocities": np.zeros((1, 2), np.float32), **arrays}


_META = {"frame_ms": 50.0, "provenance": "external"}


@pytest.mark.parametrize("header", [
    # (meta, arrays, what the refusal names)
    (_META, _one_frame(features=np.zeros((1, 0), np.float32)),
     "channel_count"),
    (_META, _one_frame(velocities=np.zeros((1, 3), np.float32)),
     "velocities"),
    (_META, _one_frame(features=np.zeros((1, 3), np.int32)), "features"),
    ([1, 2], _one_frame(), "corrupt metadata"),
    (_META, _one_frame(features=np.full((1, 3), np.inf, np.float32)),
     "features"),
    (_META, _one_frame(velocities=np.zeros((1, 2))), "velocities"),
    ({"frame_ms": "fast", "provenance": "x"}, _one_frame(), "fast"),
])
def test_bad_binary_header_rejected(tmp_path, header):
    meta, arrays, named = header
    path = tmp_path / "bad.bin"
    container.write(path, "frames", meta, list(arrays.items()))
    with pytest.raises(DataError, match=named) as err:
        load_frames(path)
    assert str(path) in str(err.value)


def test_frames_container_layout(tmp_path):
    """A binary frames file is the container's ``frames`` kind: the two
    float32 arrays, and only the duration and provenance as metadata."""
    frames = small_frameset(n=7, channels=5, seed=2)
    path = tmp_path / "d.bin"
    save_frames(frames, path)
    meta, arrays = container.read(path, "frames")
    assert meta == {"frame_ms": 50.0, "provenance": "external"}
    assert [(name, a.dtype, a.shape) for name, a in arrays.items()] == [
        ("features", np.float32, (7, 5)), ("velocities", np.float32, (7, 2))]


def test_unparseable_frame_ms_names_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# frames v1 frame_ms=fast\nch1,vel1,vel2\n1,2,3\n")
    with pytest.raises(DataError, match="bad.csv line 1"):
        load_frames(path)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("value", [-5.0, 0.0, np.nan, np.inf])
def test_bad_frame_ms_names_file(tmp_path, fmt, value):
    """A frame set cannot hold such a duration, so the bad file is another
    writer's: a good file with its CSV comment line or its container
    metadata edited."""
    path = tmp_path / "bad.frames"
    save_frames(small_frameset(), path, fmt=fmt)
    if fmt == "csv":
        path.write_text(re.sub(r"frame_ms=\S+", f"frame_ms={value}",
                               path.read_text(), count=1))
    else:
        if not np.isfinite(value):
            # the container's header is strict JSON, so the writer refuses
            # a NaN or an infinity; another writer could leave one there
            with pytest.raises(ValueError):
                container.write(path, "frames", {"frame_ms": value}, [])
        rewritten(path, lambda meta, arrays: meta.update(frame_ms=value),
                  "frames")
    with pytest.raises(DataError, match="bad.frames"):
        load_frames(path)


@pytest.mark.parametrize("frame_ms", [1.36328125, 0.1])
def test_csv_keeps_frame_ms_exact(tmp_path, frame_ms):
    """A CSV round trip keeps the float64 frame duration, so the reloaded
    set saves to the same binary bytes as the original."""
    frames = dataclasses.replace(small_frameset(), frame_ms=frame_ms)
    csv, direct, via_csv = (tmp_path / n for n in ("f.csv", "a.bin", "b.bin"))
    save_frames(frames, csv, fmt="csv")
    back = load_frames(csv)
    assert back.frame_ms == frame_ms
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
    assert len(train) == 8
    assert len(val) == 2


def test_split_16340_frames():
    n = 16340
    frames = FrameSet(np.zeros((n, 1)), np.zeros((n, 2)), 50.0, "external")
    train, val = split_train_val(frames)
    assert len(train) == 13072     # floor(0.8 * 16340)
    assert len(val) == 3268


def test_split_is_chronological_partition():
    frames = small_frameset(n=20, seed=3)
    train, val = split_train_val(frames)
    joined = np.vstack([train.features, val.features])
    assert np.array_equal(joined, frames.features)
    joined_v = np.vstack([train.velocities, val.velocities])
    assert np.array_equal(joined_v, frames.velocities)


def test_split_rejects_empty_side():
    """An empty part is a refusal of a value, not of a file: a
    ``ValueError`` naming the part, which names no file, so no
    :class:`DataError`."""
    frames = small_frameset(n=1)
    with pytest.raises(ValueError) as err:
        split_train_val(frames)
    assert str(err.value) == ("split of 1 frames at ratio 0.8 leaves the "
                              "train split empty")
    assert not isinstance(err.value, DataError)


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, np.nan])
def test_split_ratio_must_lie_inside_unit_interval(ratio):
    with pytest.raises(ValueError, match="strictly inside"):
        split_train_val(small_frameset(n=10), ratio)


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
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(100, 3)).astype(np.float32)
    feats[50:] += 5.0
    frames = FrameSet(feats, rng.normal(size=(100, 2)), 50.0, "external")
    train, val = split_train_val(frames, ratio=0.5)
    std = Standardizer.fit(train)
    val_feats = std.apply_features(val.features)
    assert np.abs(val_feats.mean(axis=0)).min() > 1.0


def test_degenerate_channel_keeps_unit_scale():
    feats = np.ones((10, 2), dtype=np.float32)
    feats[:, 1] = np.arange(10)
    frames = FrameSet(feats, np.random.default_rng(0).normal(size=(10, 2)),
                      50.0, "external")
    std = Standardizer.fit(frames)
    assert std.feat_std[0] == 1.0
    out = std.apply_features(frames.features)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("method, width", [
    ("apply_features", 6), ("apply_velocities", 2), ("invert_velocity", 2)])
@pytest.mark.parametrize("shape", [(5, 1), (5, 3), (5, 7), (7,), ()])
def test_standardizer_refuses_another_width(method, width, shape):
    """A last axis of another width than the standardizer's is refused,
    naming both widths; a one-column array would broadcast silently."""
    std = Standardizer.fit(small_frameset(n=20, channels=6, seed=8))
    apply = getattr(std, method)
    assert apply(np.zeros((5, width))).shape == (5, width)
    with pytest.raises(ValueError, match=rf"^shape {re.escape(str(shape))} "
                                         rf"is not {width} wide$"):
        apply(np.zeros(shape))


def _scales(**arrays):
    """The arrays of a valid three-channel standardizer, some replaced."""
    return {"feat_mean": np.zeros(3, np.float32),
            "feat_std": np.ones(3, np.float32),
            "vel_mean": np.zeros(2), "vel_std": np.ones(2), **arrays}


@pytest.mark.parametrize("arrays, named", [
    pytest.param(_scales(feat_std=np.array([1.0, 0.0, 2.0])), "feat_std",
                 id="zero-scale"),
    pytest.param(_scales(vel_std=np.array([1.0, -0.5])), "vel_std",
                 id="negative-scale"),
    pytest.param(_scales(feat_std=np.array([1.0, np.nan, 2.0])), "feat_std",
                 id="nan-scale"),
    pytest.param(_scales(vel_mean=np.array([np.inf, 0.0])), "vel_mean",
                 id="infinite-mean"),
    pytest.param(_scales(feat_std=np.ones(4)), "feat_mean",
                 id="scale-longer-than-mean"),
    pytest.param(_scales(vel_mean=np.zeros(3)), "vel_mean",
                 id="mean-longer-than-scale"),
    pytest.param(_scales(vel_std=np.ones(2, np.int32)), "vel_std",
                 id="integer-scale"),
    pytest.param(_scales(feat_mean=np.zeros((1, 3))), "feat_mean",
                 id="two-dimensional-mean"),
    pytest.param(_scales(feat_mean=[0.0, 0.0, 0.0]), "feat_mean",
                 id="list-mean"),
])
def test_unusable_standardizer_refused(arrays, named):
    """A hand-built standardizer meets the loaded one's rule: ValueError
    whose message starts with the array's name, before any division."""
    with pytest.raises(ValueError, match=f"^{named}"):
        Standardizer(**arrays)


@pytest.mark.parametrize("value, field", [
    pytest.param(small_frameset(), "frame_ms", id="FrameSet"),
    pytest.param(Standardizer(**_scales()), "feat_std", id="Standardizer"),
])
def test_value_types_are_frozen(value, field):
    """No field escapes its type's rule by being reassigned later."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, -1.0)


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
    assert frames.duration_s == 600.0
    assert frames.channel_count == 96
    assert frames.provenance == "synthetic"


def test_synth_noiseless_linearly_decodable():
    # with no noise, a least-squares readout on the training split must
    # essentially recover the latent velocities on the held-out split
    frames = synth_generate(4000, seed=3, noise_std=0.0)
    train, val = split_train_val(frames)
    X = np.column_stack([train.features,
                         np.ones(len(train))])
    W, *_ = np.linalg.lstsq(X.astype(np.float64),
                            train.velocities.astype(np.float64),
                            rcond=None)
    Xv = np.column_stack([val.features, np.ones(len(val))])
    pred = Xv @ W
    from snndecode.metrics import pearson
    for d in range(2):
        assert pearson(pred[:, d], val.velocities[:, d]) > 0.99


def test_synth_all_finite_and_nonnegative_before_noise():
    frames = synth_generate(500, seed=9, noise_std=0.0)
    assert np.isfinite(frames.features).all()
    # softplus outputs are strictly positive without additive noise
    assert (frames.features > 0).all()


def _synth_reference(n_frames, channels, seed, noise_std, smoothness):
    """The generator's arithmetic written plainly: the velocity walk as a
    loop over frames and every tuning step out of place, with the same
    draws in the same order.  ``(features, velocities)`` as float32 and
    float64, or ``None`` where the features overflow float32."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(channels, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    gains = rng.uniform(0.5, 2.0, size=channels)
    baselines = rng.uniform(-1.0, 1.0, size=channels)
    rho = 1.0 - 1.0 / smoothness
    drive = np.sqrt(1.0 - rho * rho)
    innovations = rng.normal(size=(n_frames, 2))
    velocities = np.empty((n_frames, 2))
    v = innovations[0]
    velocities[0] = v
    for t in range(1, n_frames):
        v = rho * v + drive * innovations[t]
        velocities[t] = v
    with np.errstate(over="ignore", invalid="ignore"):
        jitter = JITTER_MULT * noise_std * rng.normal(size=(n_frames, 2))
        hit = rng.random(size=(n_frames, 1)) < ARTIFACT_PROB
        jitter += (ARTIFACT_MULT * noise_std * hit
                   * rng.normal(size=(n_frames, 2)))
        encoded = (velocities + jitter) @ directions.T
        features = np.logaddexp(0.0, baselines + gains * encoded)
        if noise_std > 0:
            clean = np.logaddexp(
                0.0, baselines + gains * (velocities @ directions.T))
            scale = noise_std * clean.std(axis=0)
            features = features + rng.normal(size=features.shape) * scale
        features = features.astype(np.float32)
    if not np.isfinite(features).all():
        return None
    return features, velocities


@settings(max_examples=200, deadline=None)
@given(n_frames=st.integers(1, 64),
       channels=st.sampled_from([1, 2, 3, 7, 96]),
       seed=st.integers(0, 2**32 - 1),
       noise_std=st.sampled_from([0.0, 1e300])
       | st.floats(1e-6, 5.0) | st.floats(1e36, 1e300),
       smoothness=st.sampled_from([np.nextafter(1.0, 2.0), 1e6])
       | st.floats(1.0, 1e6, exclude_min=True))
def test_synth_keeps_the_reference_bits(n_frames, channels, seed, noise_std,
                                        smoothness):
    """The generator gives byte for byte the plain loop's features and
    velocities, or, where those overflow float32, the refusal that names
    ``noise_std``."""
    want = _synth_reference(n_frames, channels, seed, noise_std, smoothness)
    if want is None:
        with pytest.raises(ValueError) as err:
            synth_generate(n_frames, channels, seed, noise_std, smoothness)
        assert str(err.value) == (f"noise_std={noise_std!r} is so large "
                                  f"that the features overflow float32")
        return
    got = synth_generate(n_frames, channels, seed, noise_std, smoothness)
    assert got.features.tobytes() == want[0].tobytes()
    assert got.velocities.tobytes() == want[1].astype(np.float32).tobytes()


def test_synth_holds_few_session_sized_arrays():
    """Building a 12,000-frame session keeps fewer than four (frames,
    channels) float64 arrays alive at once: the tuning curve, the clean
    signal and the noise are written in place."""
    n_frames, channels = 12_000, 96
    synth_generate(10, channels)        # anything loaded on first use
    tracemalloc.start()
    try:
        synth_generate(n_frames, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_frames * channels * 8


@pytest.mark.parametrize("n", [0, 1])
def test_standardizer_needs_two_frames(n):
    """Fewer than two frames have no sample deviation: refused before any
    arithmetic, so no numpy warning comes first, with a ``ValueError``
    that names no file, so no :class:`DataError`."""
    with pytest.raises(ValueError) as err:
        Standardizer.fit(small_frameset(n=n))
    assert str(err.value) == (f"standardizing needs at least two training "
                              f"frames, got {n}")
    assert not isinstance(err.value, DataError)
