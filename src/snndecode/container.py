"""The one versioned binary container behind every binary file.

Layout (all little-endian)::

    bytes 0..3   magic  b"SNNC"
    bytes 4..5   format version, uint16 (currently 1)
    bytes 6..9   header length in bytes, uint32
    header       UTF-8 JSON, keys sorted: {"kind", "meta", "arrays"}
                 where "arrays" is an ordered list of
                 [name, dtype_str, shape_list] entries
    payload      raw array bytes, C order, concatenated in manifest order

Saving the same content twice gives the same bytes; the header is strict
JSON (no NaN).  Three kinds share the layout: ``"frames"``
(:mod:`snndecode.data`), ``"snn"`` and ``"kf"`` (:mod:`snndecode.checkpoint`).
The container knows only this format: it checks no array's shape, dtype
or values.  What a kind's arrays must be is the rule of the type each
loader builds from them, and :func:`~snndecode.errors.refused` is how
every loader turns that type's refusal into a :class:`DataError` naming
the file.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SNNC"
VERSION = 1

_HEAD = struct.Struct("<HI")        # version, header byte length

# Each kind, as a loader's refusal of a file of another kind names it
FRAMES, SNN, KF = "frames", "snn", "kf"
KINDS = {FRAMES: "a frames file", SNN: "an snn checkpoint",
         KF: "a kf checkpoint"}


def write(path, kind: str, meta: dict, arrays) -> None:
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
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def read(path, kind: str):
    """``(meta, arrays)`` of the container of ``kind`` at ``path``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return parse(path, raw, kind)


def parse(path, raw: bytes, kind: str):
    """``(meta, arrays)`` of the bytes ``raw`` read from ``path``, which
    must hold a container of ``kind``; ``arrays`` keeps manifest order."""
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a container file (bad magic)")
    if len(raw) < 4 + _HEAD.size:
        raise DataError(f"{path}: truncated container (fixed header)")
    version, hlen = _HEAD.unpack_from(raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    try:
        header = json.loads(raw[10:10 + hlen].decode("utf-8"))
        found, meta = header["kind"], header["meta"]
        manifest = header["arrays"]
        if found != kind:
            raise DataError(f"{path}: expected {KINDS[kind]}, "
                            f"found {found!r}")
        arrays = {}
        offset = 10 + hlen
        for name, dtype_str, shape in manifest:
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            end = offset + count * dtype.itemsize
            if end > len(raw):
                raise DataError(
                    f"{path}: truncated container (array {name!r})")
            arrays[name] = np.frombuffer(
                raw[offset:end], dtype=dtype).reshape(shape).copy()
            offset = end
    except (ValueError, KeyError, TypeError, SyntaxError,
            OverflowError) as exc:
        # np.dtype raises SyntaxError on some strings; huge shapes overflow
        raise DataError(f"{path}: corrupt container header: {exc!r}") from exc
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes after container payload")
    return meta, arrays
