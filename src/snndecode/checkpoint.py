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
from .network import LayerParams, NetworkParams, NetworkSpec, NormParams

MAGIC = b"SNNC"
VERSION = 1

KIND_SNN = "snn"
KIND_KF = "kf"

_HEAD = struct.Struct("<HI")        # version, header byte length


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
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
    arrays = {}
    offset = 10 + hlen
    try:
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
    except (ValueError, TypeError) as exc:
        raise DataError(
            f"{path}: corrupt checkpoint array table: {exc!r}") from exc
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return kind, meta, arrays


def _standardizer_arrays(std: Standardizer):
    return [
        ("std.feat_mean", std.feat_mean),
        ("std.feat_std", std.feat_std),
        ("std.vel_mean", std.vel_mean),
        ("std.vel_std", std.vel_std),
    ]


def _standardizer_from(arrays, degenerate_channels) -> Standardizer:
    return Standardizer(
        feat_mean=arrays["std.feat_mean"],
        feat_std=arrays["std.feat_std"],
        vel_mean=arrays["std.vel_mean"],
        vel_std=arrays["std.vel_std"],
        degenerate_channels=degenerate_channels,
    )


def save_snn(path, params: NetworkParams, spec: NetworkSpec,
             standardizer: Standardizer, extra: dict | None = None) -> None:
    """Write a trained spiking decoder plus its input/output scaling."""
    meta = {
        "spec": dataclasses.asdict(spec),
        "degenerate_channels": list(standardizer.degenerate_channels),
        "extra": extra or {},
    }
    arrays = []
    for l, layer in enumerate(params.layers):
        arrays.append((f"layer{l}.weight", layer.weight))
        arrays.append((f"layer{l}.tau", layer.tau))
        arrays.append((f"layer{l}.gamma", layer.norm.gamma))
        arrays.append((f"layer{l}.beta", layer.norm.beta))
        arrays.append((f"layer{l}.run_mean", layer.norm.run_mean))
        arrays.append((f"layer{l}.run_var", layer.norm.run_var))
    arrays.extend(_standardizer_arrays(standardizer))
    _write_container(path, KIND_SNN, meta, arrays)


def _snn_shapes(spec: NetworkSpec) -> dict:
    """Array name -> the shape the topology needs."""
    widths = spec.layer_widths
    shapes = {}
    for l in range(spec.n_layers):
        shapes[f"layer{l}.weight"] = (widths[l + 1], widths[l])
        for name in ("tau", "gamma", "beta", "run_mean", "run_var"):
            shapes[f"layer{l}.{name}"] = (widths[l + 1],)
    for name in ("feat_mean", "feat_std"):
        shapes[f"std.{name}"] = (spec.input_width,)
    for name in ("vel_mean", "vel_std"):
        shapes[f"std.{name}"] = (spec.output_width,)
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


def load_snn(path):
    """Read back (params, spec, standardizer, extra) saved by save_snn.

    A header without the topology, standardizer or extra fields, a
    topology that does not validate, a missing or misshaped array, a
    non-finite array value, a decay factor outside [0, 1] and a negative
    running variance all raise :class:`DataError`.
    """
    kind, meta, arrays = _read_container(path)
    if kind != KIND_SNN:
        raise DataError(f"{path}: expected an snn checkpoint, found {kind!r}")
    try:
        sd = meta["spec"]
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
        LayerParams(
            weight=arrays[f"layer{l}.weight"],
            tau=arrays[f"layer{l}.tau"],
            norm=NormParams(
                gamma=arrays[f"layer{l}.gamma"],
                beta=arrays[f"layer{l}.beta"],
                run_mean=arrays[f"layer{l}.run_mean"],
                run_var=arrays[f"layer{l}.run_var"],
            ),
        )
        for l in range(spec.n_layers)
    ]
    std = _standardizer_from(arrays, degenerate)
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
    arrays.extend(_standardizer_arrays(standardizer))
    _write_container(path, KIND_KF, meta, arrays)


def load_kf(path):
    """Read back (model, standardizer, extra) saved by save_kf.

    Missing metadata or arrays, and filter matrices that do not fit the
    three-component state and the standardizer's channel count or hold
    non-finite values, raise :class:`DataError`.
    """
    kind, meta, arrays = _read_container(path)
    if kind != KIND_KF:
        raise DataError(f"{path}: expected a kf checkpoint, found {kind!r}")
    try:
        model = KfModel(A=arrays["kf.A"], W=arrays["kf.W"],
                        C=arrays["kf.C"], Q=arrays["kf.Q"],
                        ridge=meta["ridge"])
        std = _standardizer_from(arrays, tuple(meta["degenerate_channels"]))
        extra = meta["extra"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint missing {exc}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    c = std.feat_mean.size
    _check_arrays(path, arrays, {"kf.A": (3, 3), "kf.W": (3, 3),
                                 "kf.C": (c, 3), "kf.Q": (c, c)})
    return model, std, extra
