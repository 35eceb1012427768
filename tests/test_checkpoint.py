import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from snndecode import container
from snndecode.checkpoint import (STD_ARRAYS, load_kf, load_snn, save_kf,
                                  save_snn)
from snndecode.data import Standardizer
from snndecode.errors import DataError
from snndecode.kalman import KF_ARRAYS, kf_fit
from snndecode.network import LAYER_ARRAYS, NetworkSpec, init_params


def toy_standardizer(channels=5):
    return Standardizer(
        feat_mean=np.arange(channels, dtype=np.float32),
        feat_std=np.full(channels, 2.0, dtype=np.float32),
        vel_mean=np.array([0.1, -0.2], dtype=np.float32),
        vel_std=np.array([1.5, 0.5], dtype=np.float32),
    )


def toy_model(seed=0):
    spec = NetworkSpec(layer_widths=(5, 7, 7, 7, 2), window_len=4,
                       reset_mode="zero", dropout_p=0.15)
    params = init_params(spec, np.random.default_rng(seed))
    return params, spec


def test_snn_round_trip_lossless(tmp_path):
    params, spec = toy_model()
    std = toy_standardizer()
    path = tmp_path / "m.ckpt"
    save_snn(path, params, spec, std, extra={"note": "x", "epochs": 7})
    loaded, spec2, std2, extra = load_snn(path)
    assert spec2 == spec
    assert extra == {"note": "x", "epochs": 7}
    for a, b in zip(loaded.layers, params.layers):
        assert np.array_equal(a.weight, b.weight)
        assert a.weight.dtype == b.weight.dtype
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.norm.gamma, b.norm.gamma)
        assert np.array_equal(a.norm.beta, b.norm.beta)
        assert np.array_equal(a.norm.run_mean, b.norm.run_mean)
        assert np.array_equal(a.norm.run_var, b.norm.run_var)
    for name in ("feat_mean", "feat_std", "vel_mean", "vel_std"):
        assert np.array_equal(getattr(std2, name), getattr(std, name))


def test_snn_array_names_and_order(tmp_path):
    """A checkpoint names each layer's arrays in one fixed order, then the
    standardizer's; the order is part of the byte layout."""
    params, spec = toy_model()
    path = tmp_path / "m.ckpt"
    save_snn(path, params, spec, toy_standardizer())
    _, arrays = container.read(path, "snn")
    per_layer = ("weight", "tau", "gamma", "beta", "run_mean", "run_var")
    assert list(arrays) == (
        [f"layer{l}.{name}" for l in range(4) for name in per_layer]
        + ["std.feat_mean", "std.feat_std", "std.vel_mean", "std.vel_std"])


def test_snn_bytes_deterministic(tmp_path):
    params, spec = toy_model(seed=4)
    std = toy_standardizer()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_snn(a, params, spec, std)
    save_snn(b, params, spec, std)
    assert a.read_bytes() == b.read_bytes()


def test_unusable_set_not_written(tmp_path):
    """A parameter set load_snn would refuse is refused by save_snn before
    the file is opened."""
    params, spec = toy_model()
    params.layers[0].tau[0] = 2.0
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="layer0.tau has a decay factor"):
        save_snn(path, params, spec, toy_standardizer())
    assert not path.exists()


def test_big_endian_array_written_little_endian(tmp_path):
    """The container stores every array little-endian: a big-endian array
    gives the same bytes as its little-endian twin."""
    little = np.arange(12, dtype="<f4").reshape(3, 4) / 7
    paths = tmp_path / "le.bin", tmp_path / "be.bin"
    for path, arr in zip(paths, (little, little.astype(">f4"))):
        container.write(path, "frames", {"x": 1}, [("a", arr)])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _, arrays = container.read(paths[1], "frames")
    assert arrays["a"].dtype.str == "<f4"
    assert np.array_equal(arrays["a"], little)


@pytest.mark.parametrize("kind", ["snn", "kf"])
def test_older_checkpoint_with_unread_key_loads(tmp_path, kind):
    """Checkpoints of either kind once carried a list of zero-variance
    channels; a file that still has it loads as if it had not."""
    path, older = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    load = save_either(path, kind)
    save_either(older, kind)
    rewritten(older, lambda m, a: m.update(degenerate_channels=[3]), kind)
    assert "degenerate_channels" not in container.read(path, kind)[0]
    (*_, old_std, old_extra), (*_, new_std, new_extra) = load(older), load(path)
    assert old_extra == new_extra
    for name in ("feat_mean", "feat_std", "vel_mean", "vel_std"):
        assert np.array_equal(getattr(old_std, name), getattr(new_std, name))


def test_kf_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = kf_fit(rng.normal(size=(100, 5)), rng.normal(size=(100, 2)))
    std = toy_standardizer()
    path = tmp_path / "k.ckpt"
    save_kf(path, model, std)
    loaded, std2, _ = load_kf(path)
    for name in ("A", "W", "C", "Q"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.ridge == model.ridge
    assert np.array_equal(std2.vel_std, std.vel_std)


def test_kind_tagging_and_mismatch(tmp_path):
    params, spec = toy_model()
    std = toy_standardizer()
    snn_path = tmp_path / "m.ckpt"
    save_snn(snn_path, params, spec, std)
    with pytest.raises(DataError, match="expected a kf checkpoint"):
        load_kf(snn_path)
    rng = np.random.default_rng(1)
    kf_path = tmp_path / "k.ckpt"
    save_kf(kf_path, kf_fit(rng.normal(size=(50, 5)),
                            rng.normal(size=(50, 2))), std)
    with pytest.raises(DataError, match="expected an snn checkpoint"):
        load_snn(kf_path)


def test_rejects_garbage_and_truncation(tmp_path):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError, match="magic"):
        load_snn(bad)

    params, spec = toy_model()
    good = tmp_path / "m.ckpt"
    save_snn(good, params, spec, toy_standardizer())
    blob = good.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(DataError, match="truncated"):
        load_snn(cut)


def rewritten(path, edit, kind="snn"):
    """Re-save the container of ``kind`` at ``path`` after
    ``edit(meta, arrays)``.  The metadata is encoded as lax JSON, so a
    NaN that an edit puts there stays, as another writer could leave it;
    the package's own writer refuses one."""
    meta, arrays = container.read(path, kind)
    edit(meta, arrays)
    container.write(path, kind, {}, list(arrays.items()))
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[6:10], "little")
    header = dict(json.loads(raw[10:10 + hlen]), meta=meta)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:6] + len(blob).to_bytes(4, "little") + blob
                     + raw[10 + hlen:])


@pytest.mark.parametrize("header", [
    b'{"kind": "snn"}',
    b'{"arrays": 5, "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", "zz", [1]]], "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", "<f4"]], "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", ",f4", [1]]], "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", "<f4", [1' + b'0' * 30 + b']]], "kind": "snn", '
    b'"meta": {}}',
    # the rest edit the header and arrays of a valid checkpoint
    pytest.param(lambda m, a: m.pop("spec"), id="no-spec"),
    pytest.param(lambda m, a: m.update(spec=5), id="spec-not-a-dict"),
    pytest.param(lambda m, a: m["spec"].pop("threshold"), id="no-threshold"),
    pytest.param(lambda m, a: m["spec"].update(bn_eps=1e-3),
                 id="retired-bn_eps"),
    pytest.param(lambda m, a: m["spec"].update(normalize_output=False),
                 id="retired-normalize_output"),
    pytest.param(lambda m, a: m["spec"].update(threshold=-1.0),
                 id="bad-threshold"),
    pytest.param(lambda m, a: m["spec"].update(threshold=float("nan")),
                 id="nan-threshold"),
    pytest.param(lambda m, a: m["spec"].update(threshold=True),
                 id="bool-threshold"),
    pytest.param(lambda m, a: m["spec"].update(layer_widths=[5, 7.9, 7, 7, 2]),
                 id="fractional-width"),
    pytest.param(lambda m, a: m.pop("extra"), id="no-extra"),
    pytest.param(lambda m, a: a.update({"layer0.tau": a["layer0.tau"][:5]}),
                 id="short-tau"),
    pytest.param(lambda m, a: a.update({"layer1.weight":
                                        a["layer1.weight"][:, :6]}),
                 id="narrow-weight"),
    pytest.param(lambda m, a: a.update({"std.vel_std": a["std.feat_std"]}),
                 id="wide-velocity-scale"),
    pytest.param(lambda m, a: a.update({name: a[name][:-1] for name in (
        "std.feat_mean", "std.feat_std")}), id="narrow-feature-scaling"),
    pytest.param(lambda m, a: a["layer1.weight"].__setitem__((2, 3), np.inf),
                 id="inf-weight"),
    pytest.param(lambda m, a: a["layer0.run_var"].__setitem__(0, np.nan),
                 id="nan-run_var"),
    pytest.param(lambda m, a: a["layer2.run_var"].__setitem__(4, -1.0),
                 id="negative-run_var"),
    pytest.param(lambda m, a: a["layer3.tau"].__setitem__(1, 1.5),
                 id="tau-above-one"),
    pytest.param(lambda m, a: a["layer0.tau"].__setitem__(0, -0.25),
                 id="negative-tau"),
    pytest.param(lambda m, a: a["std.feat_mean"].__setitem__(0, np.nan),
                 id="nan-feature-mean"),
    pytest.param(lambda m, a: a.update({"layer0.beta":
                                        a["layer0.beta"].astype(np.int32)}),
                 id="integer-beta"),
    pytest.param(lambda m, a: a.update({name: v.astype(np.float16)
                                        for name, v in a.items()
                                        if name.startswith("layer")}),
                 id="float16-layers"),
    pytest.param(lambda m, a: a.update(
        {"layer1.weight": a["layer1.weight"].astype(np.float64)}),
                 id="one-float64-weight"),
])
def test_rejects_malformed_header(tmp_path, header):
    bad = tmp_path / "bad.ckpt"
    if callable(header):
        params, spec = toy_model()
        save_snn(bad, params, spec, toy_standardizer())
        rewritten(bad, header)
    else:
        bad.write_bytes(b"SNNC" + struct.pack("<HI", 1, len(header))
                        + header + bytes(8))
    with pytest.raises(DataError):
        load_snn(bad)


def test_loads_spec_with_retired_field(tmp_path):
    """A checkpoint written while the spec still had
    ``dropout_before_output`` loads; the field is ignored.  So do the
    normalizer settings that are now constants, at the constants' values."""
    params, spec = toy_model()
    path = tmp_path / "old.ckpt"
    save_snn(path, params, spec, toy_standardizer())
    rewritten(path, lambda m, a: m["spec"].update(
        dropout_before_output=True, normalize_output=True, bn_eps=1e-5))
    loaded, spec2, _, _ = load_snn(path)
    assert spec2 == spec
    for a, b in zip(loaded.layers, params.layers):
        assert np.array_equal(a.weight, b.weight)


@pytest.mark.parametrize("name", ["kf.A", "kf.W", "kf.C", "kf.Q"])
def test_kf_rejects_misshaped_array(tmp_path, name):
    """A 6-channel filter with one array cut by a row and a column (kf.Q
    to 5x5) fails at load time, naming the array."""
    rng = np.random.default_rng(1)
    path = tmp_path / "k.ckpt"
    save_kf(path, kf_fit(rng.normal(size=(50, 6)), rng.normal(size=(50, 2))),
            toy_standardizer(channels=6))
    rewritten(path, lambda m, a: a.update({name: a[name][:-1, :-1]}), "kf")
    with pytest.raises(DataError, match=name):
        load_kf(path)


@pytest.mark.parametrize("ridge", [-1.0, "0.0", None, [0.0], True],
                         ids=["negative", "string", "null", "list", "bool"])
def test_kf_rejects_unusable_ridge(tmp_path, ridge):
    path = tmp_path / "k.ckpt"
    save_either(path, "kf")
    rewritten(path, lambda m, a: m.update(ridge=ridge), "kf")
    with pytest.raises(DataError, match="ridge"):
        load_kf(path)


def test_readme_binary_kinds_table():
    """The README's table of binary kinds names exactly the arrays the
    writers store: the layer and standardizer arrays for ``snn``, the
    filter and standardizer arrays for ``kf``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = dict(re.findall(r"^\s*\| `(\w+)` \| (.*?) \|", readme, re.M))
    named = {kind: re.findall(r"`[\w<>]*\.(\w+)`", rows[kind])
             for kind in ("snn", "kf")}
    assert named["snn"] == [*LAYER_ARRAYS, *STD_ARRAYS]
    assert named["kf"] == [*KF_ARRAYS, *STD_ARRAYS]


def save_either(path, kind):
    """A valid checkpoint of ``kind`` over five channels and two outputs."""
    if kind == "snn":
        params, spec = toy_model()
        save_snn(path, params, spec, toy_standardizer())
        return load_snn
    rng = np.random.default_rng(1)
    save_kf(path, kf_fit(rng.normal(size=(50, 5)), rng.normal(size=(50, 2))),
            toy_standardizer())
    return load_kf


@pytest.mark.parametrize("kind", ["snn", "kf"])
@pytest.mark.parametrize("name, edit", [
    ("std.vel_std", lambda a: -a),
    ("std.feat_std", lambda a: np.where(np.arange(a.size) == 2, 0.0, a)),
    ("std.feat_std", lambda a: np.where(np.arange(a.size) == 2, np.nan, a)),
    ("std.vel_mean", lambda a: np.zeros(5, dtype=a.dtype)),
    ("std.feat_mean", lambda a: a[:4]),
    ("std.vel_std", lambda a: a.astype(np.int32)),
], ids=["negative-vel_std", "zero-feat_std", "nan-feat_std",
        "five-long-vel_mean", "short-feat_mean", "integer-vel_std"])
def test_rejects_unusable_standardizer(tmp_path, kind, name, edit):
    """Both kinds of checkpoint refuse a standardizer array that is
    misshaped for the model, not floating-point, not finite, or a scale
    that is not positive, naming the file and the array."""
    path = tmp_path / f"{kind}.ckpt"
    load = save_either(path, kind)
    rewritten(path, lambda meta, arrays: arrays.update(
        {name: edit(arrays[name])}), kind)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(path) in str(err.value) and name in str(err.value)


@pytest.mark.parametrize("key", ["ridge", "extra"])
def test_kf_rejects_missing_meta(tmp_path, key):
    rng = np.random.default_rng(1)
    path = tmp_path / "k.ckpt"
    save_kf(path, kf_fit(rng.normal(size=(50, 5)), rng.normal(size=(50, 2))),
            toy_standardizer())
    rewritten(path, lambda m, a: m.pop(key), "kf")
    with pytest.raises(DataError, match=key):
        load_kf(path)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_snn("/nonexistent/m.ckpt")
