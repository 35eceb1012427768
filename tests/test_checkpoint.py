import struct

import numpy as np
import pytest

from snndecode.checkpoint import (
    _read_container,
    _write_container,
    load_kf,
    load_snn,
    save_kf,
    save_snn,
)
from snndecode.data import Standardizer
from snndecode.errors import DataError
from snndecode.kalman import kf_fit
from snndecode.network import NetworkSpec, init_params


def toy_standardizer(channels=5):
    return Standardizer(
        feat_mean=np.arange(channels, dtype=np.float32),
        feat_std=np.full(channels, 2.0, dtype=np.float32),
        vel_mean=np.array([0.1, -0.2], dtype=np.float32),
        vel_std=np.array([1.5, 0.5], dtype=np.float32),
        degenerate_channels=(3,),
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
    assert np.array_equal(std2.feat_mean, std.feat_mean)
    assert std2.degenerate_channels == (3,)


def test_snn_bytes_deterministic(tmp_path):
    params, spec = toy_model(seed=4)
    std = toy_standardizer()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_snn(a, params, spec, std)
    save_snn(b, params, spec, std)
    assert a.read_bytes() == b.read_bytes()


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


def rewritten(path, edit):
    """Re-save the checkpoint at ``path`` after ``edit(meta, arrays)``."""
    kind, meta, arrays = _read_container(path)
    edit(meta, arrays)
    _write_container(path, kind, meta, list(arrays.items()))


@pytest.mark.parametrize("header", [
    b'{"kind": "snn"}',
    b'{"arrays": 5, "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", "zz", [1]]], "kind": "snn", "meta": {}}',
    b'{"arrays": [["w", "<f4"]], "kind": "snn", "meta": {}}',
    # the rest edit the header and arrays of a valid checkpoint
    pytest.param(lambda m, a: m.pop("spec"), id="no-spec"),
    pytest.param(lambda m, a: m.update(spec=5), id="spec-not-a-dict"),
    pytest.param(lambda m, a: m["spec"].pop("bn_eps"), id="no-bn_eps"),
    pytest.param(lambda m, a: m["spec"].update(threshold=-1.0),
                 id="bad-threshold"),
    pytest.param(lambda m, a: m.pop("degenerate_channels"),
                 id="no-degenerate_channels"),
    pytest.param(lambda m, a: m.pop("extra"), id="no-extra"),
    pytest.param(lambda m, a: a.update({"layer0.tau": a["layer0.tau"][:5]}),
                 id="short-tau"),
    pytest.param(lambda m, a: a.update({"layer1.weight":
                                        a["layer1.weight"][:, :6]}),
                 id="narrow-weight"),
    pytest.param(lambda m, a: a.update({"std.vel_std": a["std.feat_std"]}),
                 id="wide-velocity-scale"),
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
    ``dropout_before_output`` loads; the field is ignored."""
    params, spec = toy_model()
    path = tmp_path / "old.ckpt"
    save_snn(path, params, spec, toy_standardizer())
    rewritten(path, lambda m, a: m["spec"].update(dropout_before_output=True))
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
    rewritten(path, lambda m, a: a.update({name: a[name][:-1, :-1]}))
    with pytest.raises(DataError, match=name):
        load_kf(path)


@pytest.mark.parametrize("key", ["ridge", "degenerate_channels", "extra"])
def test_kf_rejects_missing_meta(tmp_path, key):
    rng = np.random.default_rng(1)
    path = tmp_path / "k.ckpt"
    save_kf(path, kf_fit(rng.normal(size=(50, 5)), rng.normal(size=(50, 2))),
            toy_standardizer())
    rewritten(path, lambda m, a: m.pop(key))
    with pytest.raises(DataError, match=key):
        load_kf(path)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_snn("/nonexistent/m.ckpt")
