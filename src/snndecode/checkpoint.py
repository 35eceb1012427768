"""Trained models on disk, as two kinds of :mod:`snndecode.container`:
``"snn"`` (network parameters, architecture and standardizer) and
``"kf"`` (Kalman model and standardizer).

The container checks only its format.  What the arrays must be is each
type's rule: a loaded parameter set meets ``network._check_params``, and
a :class:`Standardizer` or :class:`KfModel` is built, so its constructor
checks it.  The loaders add only what ties the parts together (the
standardizer spans the model's channels and outputs); every refusal
becomes a :class:`DataError` naming the file and the array as stored,
through :func:`~snndecode.errors.refused`.  Each loader reads only the
metadata keys it names, so a key an older writer added is ignored.
"""

from __future__ import annotations

import dataclasses

from . import container
from .data import Standardizer
from .errors import DataError, refused
from .kalman import KF_ARRAYS, KfModel
from .network import (LAYER_ARRAYS, LayerParams, NetworkParams, NetworkSpec,
                      _check_params)

# The standardizer's arrays, in checkpoint order, each stored as
# ``std.<name>``.  The ``feat_`` pair spans the model's input channels and
# the ``vel_`` pair its outputs.
STD_ARRAYS = ("feat_mean", "feat_std", "vel_mean", "vel_std")


def _load_standardizer(path, arrays: dict, channels: int,
                       outputs: int) -> Standardizer:
    """The standardizer in ``arrays`` of a model of that many input
    channels and outputs; an unusable array raises :class:`DataError`."""
    with refused(path, "std."):
        std = Standardizer(**{name: arrays[f"std.{name}"]
                              for name in STD_ARRAYS})
    for name, width in (("feat_mean", channels), ("vel_mean", outputs)):
        if len(getattr(std, name)) != width:
            raise DataError(f"{path}: std.{name} and its scale do not have "
                            f"the model's {width} columns")
    return std


def save_snn(path, params: NetworkParams, spec: NetworkSpec,
             standardizer: Standardizer, extra: dict | None = None) -> None:
    """Write a trained spiking decoder plus its input/output scaling.

    A parameter set :func:`load_snn` would refuse (``_check_params``)
    raises ``ValueError`` before the file is opened.
    """
    _check_params(params, spec)
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
    with refused(path, "corrupt checkpoint metadata: "):
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
    with refused(path):
        params = NetworkParams([
            LayerParams(*(arrays[f"layer{l}.{name}"] for name in LAYER_ARRAYS))
            for l in range(spec.n_layers)])
        _check_params(params, spec)
    std = _load_standardizer(path, arrays, spec.input_width,
                             spec.output_width)
    return params, spec, std, extra


def save_kf(path, model: KfModel, standardizer: Standardizer,
            extra: dict | None = None) -> None:
    """Write a fitted Kalman baseline plus its input/output scaling."""
    meta = {"ridge": model.ridge, "extra": extra or {}}
    arrays = [(f"kf.{name}", getattr(model, name)) for name in KF_ARRAYS]
    arrays += [(f"std.{name}", getattr(standardizer, name))
               for name in STD_ARRAYS]
    container.write(path, container.KF, meta, arrays)


def load_kf(path):
    """Read back (model, standardizer, extra) saved by save_kf.

    Missing metadata or arrays, a model that :class:`KfModel` refuses
    (shapes for one channel count, float64, finite values, a
    non-negative ridge) and a standardizer that :class:`Standardizer`
    refuses or that does not span the model's channels and two outputs
    raise :class:`DataError` naming the file and the array.
    """
    meta, arrays = container.read(path, container.KF)
    with refused(path, "kf."):
        model = KfModel(**{name: arrays[f"kf.{name}"] for name in KF_ARRAYS},
                        ridge=meta["ridge"])
        extra = meta["extra"]
    std = _load_standardizer(path, arrays, len(model.C), 2)
    return model, std, extra
