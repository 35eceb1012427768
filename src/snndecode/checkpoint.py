"""Versioned binary container for trained models.

Layout (all little-endian)::

    bytes 0..3   magic  b"SNNC"
    bytes 4..5   format version, uint16 (currently 1)
    bytes 6..9   header length in bytes, uint32
    header       UTF-8 JSON, keys sorted: {"kind", "meta", "arrays"}
                 where "arrays" is an ordered list of
                 [name, dtype_str, shape_list] entries
    payload      raw array bytes, C order, concatenated in manifest order

Everything after the magic is a pure function of the saved content —
no timestamps, hostnames, or dict-iteration nondeterminism — so saving
the same model twice produces byte-identical files.  Two kinds share
the container: ``"snn"`` (network parameters + architecture +
standardizer) and ``"kf"`` (Kalman model + standardizer).
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .data import Standardizer
from .errors import DataError
from .kalman import KfModel
from .network import LAYER_ARRAYS, LayerParams, NetworkParams, NetworkSpec

MAGIC = b"SNNC"
VERSION = 1

KIND_SNN = "snn"
KIND_KF = "kf"

_HEAD = struct.Struct("<HI")        # version, header byte length

# The standardizer's arrays, in checkpoint order, each stored as
# ``std.<name>``.  The ``feat_`` pair spans the model's input channels and
# the ``vel_`` pair its outputs; the two ``_std`` scales divide, so they
# must be positive.
STD_ARRAYS = ("feat_mean", "feat_std", "vel_mean", "vel_std")


def _write_container(path, kind: str, meta: dict, arrays) -> None:
    """``arrays`` is an ordered list of (name, ndarray) pairs."""
    manifest = []
    blobs = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        manifest.append([name, arr.dtype.str, list(arr.shape)])
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"arrays": manifest, "kind": kind, "meta": meta},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _read_container(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")
    if len(raw) < 4 + _HEAD.size:
        raise DataError(f"{path}: truncated checkpoint (fixed header)")
    version, hlen = _HEAD.unpack_from(raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[10:10 + hlen].decode("utf-8"))
        kind, meta, manifest = header["kind"], header["meta"], header["arrays"]
        arrays = {}
        offset = 10 + hlen
        for name, dtype_str, shape in manifest:
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            end = offset + count * dtype.itemsize
            if end > len(raw):
                raise DataError(
                    f"{path}: truncated checkpoint (array {name!r})")
            arrays[name] = np.frombuffer(
                raw[offset:end], dtype=dtype).reshape(shape).copy()
            offset = end
    except (ValueError, KeyError, TypeError, SyntaxError,
            OverflowError) as exc:
        # np.dtype raises SyntaxError on some strings; huge shapes overflow
        raise DataError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return kind, meta, arrays


def _std_shapes(channels: int, outputs: int) -> dict:
    """Standardizer array name -> the shape a model of that many input
    channels and outputs needs."""
    return {f"std.{name}": (channels if name.startswith("feat") else outputs,)
            for name in STD_ARRAYS}


def save_snn(path, params: NetworkParams, spec: NetworkSpec,
             standardizer: Standardizer, extra: dict | None = None) -> None:
    """Write a trained spiking decoder plus its input/output scaling."""
    meta = {
        "spec": dataclasses.asdict(spec),
        "degenerate_channels": list(standardizer.degenerate_channels),
        "extra": extra or {},
    }
    arrays = [(f"layer{l}.{name}", a)
              for l, layer in enumerate(params.layers)
              for name, a in layer.arrays().items()]
    arrays += [(f"std.{name}", getattr(standardizer, name))
               for name in STD_ARRAYS]
    _write_container(path, KIND_SNN, meta, arrays)


def _snn_shapes(spec: NetworkSpec) -> dict:
    """Array name -> the shape the topology needs."""
    widths = spec.layer_widths
    shapes = {}
    for l in range(spec.n_layers):
        for name in LAYER_ARRAYS:
            shapes[f"layer{l}.{name}"] = (
                (widths[l + 1], widths[l]) if name == "weight"
                else (widths[l + 1],))
    shapes.update(_std_shapes(spec.input_width, spec.output_width))
    return shapes


def _check_arrays(path, arrays: dict, shapes: dict) -> None:
    """Each array ``shapes`` names must be present, of that shape, and hold
    floating-point values the decoders can use."""
    for name, shape in shapes.items():
        arr = arrays.get(name)
        if arr is None:
            raise DataError(f"{path}: checkpoint missing array {name!r}")
        if arr.shape != shape:
            raise DataError(f"{path}: array {name!r} has shape {arr.shape}, "
                            f"expected {shape}")
        if arr.dtype.kind != "f" or not np.isfinite(arr).all():
            raise DataError(f"{path}: array {name!r} holds non-finite or "
                            f"non-float ({arr.dtype}) values")
        if name.endswith(".tau") and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DataError(f"{path}: array {name!r} has decay factors "
                            f"outside [0, 1]")
        if name.endswith(".run_var") and arr.min() < 0.0:
            raise DataError(f"{path}: array {name!r} has a negative variance")
        if name.endswith("_std") and arr.min() <= 0.0:
            raise DataError(f"{path}: array {name!r} has a scale that is "
                            f"not positive")


def load_snn(path):
    """Read back (params, spec, standardizer, extra) saved by save_snn.

    A header without the topology, standardizer or extra fields, a
    topology that does not validate or that sets a :class:`NetworkSpec`
    constant to another value, a missing or misshaped array, a
    non-finite array value, a decay factor outside [0, 1], a negative
    running variance and a standardizer scale that is not positive all
    raise :class:`DataError`.
    """
    kind, meta, arrays = _read_container(path)
    if kind != KIND_SNN:
        raise DataError(f"{path}: expected an snn checkpoint, found {kind!r}")
    try:
        sd = meta["spec"]
        for name in ("normalize_output", "bn_eps"):
            # constants now; older checkpoints store them as settings
            if name in sd and sd[name] != getattr(NetworkSpec, name):
                raise DataError(f"{path}: checkpoint spec {name}="
                                f"{sd[name]!r} is not supported; every "
                                f"decoder uses {getattr(NetworkSpec, name)!r}")
        spec = NetworkSpec(**{f.name: sd[f.name]
                              for f in dataclasses.fields(NetworkSpec)})
        degenerate = tuple(meta["degenerate_channels"])
        extra = meta["extra"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint metadata missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    _check_arrays(path, arrays, _snn_shapes(spec))
    layers = [
        LayerParams.from_arrays(
            {name: arrays[f"layer{l}.{name}"] for name in LAYER_ARRAYS})
        for l in range(spec.n_layers)
    ]
    std = Standardizer(**{name: arrays[f"std.{name}"] for name in STD_ARRAYS},
                       degenerate_channels=degenerate)
    return NetworkParams(layers=layers), spec, std, extra


def save_kf(path, model: KfModel, standardizer: Standardizer,
            extra: dict | None = None) -> None:
    """Write a fitted Kalman baseline in the same container family."""
    meta = {
        "degenerate_channels": list(standardizer.degenerate_channels),
        "ridge": model.ridge,
        "extra": extra or {},
    }
    arrays = [
        ("kf.A", model.A),
        ("kf.W", model.W),
        ("kf.C", model.C),
        ("kf.Q", model.Q),
    ]
    arrays += [(f"std.{name}", getattr(standardizer, name))
               for name in STD_ARRAYS]
    _write_container(path, KIND_KF, meta, arrays)


def load_kf(path):
    """Read back (model, standardizer, extra) saved by save_kf.

    Missing metadata or arrays, arrays that do not fit the three-component
    state, its two velocities and one channel count or hold non-finite
    values, and a standardizer scale that is not positive raise
    :class:`DataError`.
    """
    kind, meta, arrays = _read_container(path)
    if kind != KIND_KF:
        raise DataError(f"{path}: expected a kf checkpoint, found {kind!r}")
    try:
        ridge = meta["ridge"]
        degenerate = tuple(meta["degenerate_channels"])
        extra = meta["extra"]
        observation = arrays["kf.C"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint missing {exc}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    c = len(observation) if observation.ndim else 0     # model's channels
    _check_arrays(path, arrays, {"kf.A": (3, 3), "kf.W": (3, 3),
                                 "kf.C": (c, 3), "kf.Q": (c, c),
                                 **_std_shapes(c, 2)})
    model = KfModel(A=arrays["kf.A"], W=arrays["kf.W"], C=observation,
                    Q=arrays["kf.Q"], ridge=ridge)
    std = Standardizer(**{name: arrays[f"std.{name}"] for name in STD_ARRAYS},
                       degenerate_channels=degenerate)
    return model, std, extra
