"""Trained models on disk, as two kinds of :mod:`snndecode.container`:
``"snn"`` (network parameters, architecture and standardizer) and
``"kf"`` (Kalman model and standardizer).

The container checks only its format: a loaded parameter set meets
``network._check_params``, and the standardizer's rules sit here.  Each
loader reads only the metadata keys it names, so a key an older writer
added is ignored.
"""

from __future__ import annotations

import dataclasses

from . import container
from .data import Standardizer
from .errors import DataError
from .kalman import KfModel
from .network import (LAYER_ARRAYS, LayerParams, NetworkParams, NetworkSpec,
                      _check_params)

# The standardizer's arrays, in checkpoint order, each stored as
# ``std.<name>``.  The ``feat_`` pair spans the model's input channels and
# the ``vel_`` pair its outputs; the two ``_std`` scales divide, so they
# must be positive.
STD_ARRAYS = ("feat_mean", "feat_std", "vel_mean", "vel_std")


def _load_standardizer(path, arrays: dict, channels: int,
                       outputs: int) -> Standardizer:
    """The standardizer in ``arrays`` of a model of that many input
    channels and outputs; an unusable array raises :class:`DataError`."""
    container.check_arrays(path, arrays, {
        f"std.{name}": (channels if name.startswith("feat") else outputs,)
        for name in STD_ARRAYS})
    for name in ("std.feat_std", "std.vel_std"):
        if (arrays[name] <= 0.0).any():
            raise DataError(f"{path}: array {name!r} has a scale that is "
                            f"not positive")
    return Standardizer(**{name: arrays[f"std.{name}"] for name in STD_ARRAYS})


def save_snn(path, params: NetworkParams, spec: NetworkSpec,
             standardizer: Standardizer, extra: dict | None = None) -> None:
    """Write a trained spiking decoder plus its input/output scaling."""
    meta = {"spec": dataclasses.asdict(spec), "extra": extra or {}}
    arrays = [(f"layer{l}.{name}", a)
              for l, layer in enumerate(params.layers)
              for name, a in layer.arrays().items()]
    arrays += [(f"std.{name}", getattr(standardizer, name))
               for name in STD_ARRAYS]
    container.write(path, container.SNN, meta, arrays)


def load_snn(path):
    """Read back (params, spec, standardizer, extra) saved by save_snn.

    A header without the topology or extra fields, a topology that does
    not validate or that sets a :class:`NetworkSpec` constant to another
    value, a missing layer array, a parameter set the decoder cannot run
    (``network._check_params``: shapes, one dtype, finite values, decay
    factors in [0, 1], running variances of at least 0) and an unusable
    standardizer raise :class:`DataError` naming the file and the array.
    The standardizer's dtype is its own: the features are float32 before
    the decoder sees them.
    """
    meta, arrays = container.read(path, container.SNN)
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
        extra = meta["extra"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint metadata missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    try:
        params = NetworkParams([
            LayerParams.from_arrays(
                {name: arrays[f"layer{l}.{name}"] for name in LAYER_ARRAYS})
            for l in range(spec.n_layers)])
        _check_params(params, spec)
    except KeyError as exc:
        raise DataError(f"{path}: missing array {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    std = _load_standardizer(path, arrays, spec.input_width,
                             spec.output_width)
    return params, spec, std, extra


def save_kf(path, model: KfModel, standardizer: Standardizer,
            extra: dict | None = None) -> None:
    """Write a fitted Kalman baseline plus its input/output scaling."""
    meta = {"ridge": model.ridge, "extra": extra or {}}
    arrays = [
        ("kf.A", model.A),
        ("kf.W", model.W),
        ("kf.C", model.C),
        ("kf.Q", model.Q),
    ]
    arrays += [(f"std.{name}", getattr(standardizer, name))
               for name in STD_ARRAYS]
    container.write(path, container.KF, meta, arrays)


def load_kf(path):
    """Read back (model, standardizer, extra) saved by save_kf.

    Missing metadata or arrays, arrays that do not fit the three-component
    state, its two velocities and one channel count or hold non-finite
    values, and a standardizer scale that is not positive raise
    :class:`DataError`.
    """
    meta, arrays = container.read(path, container.KF)
    try:
        ridge = meta["ridge"]
        extra = meta["extra"]
        observation = arrays["kf.C"]
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint missing {exc}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from exc
    c = len(observation) if observation.ndim else 0     # model's channels
    container.check_arrays(path, arrays, {"kf.A": (3, 3), "kf.W": (3, 3),
                                          "kf.C": (c, 3), "kf.Q": (c, c)})
    model = KfModel(A=arrays["kf.A"], W=arrays["kf.W"], C=observation,
                    Q=arrays["kf.Q"], ridge=ridge)
    std = _load_standardizer(path, arrays, c, 2)
    return model, std, extra
