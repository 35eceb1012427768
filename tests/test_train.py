import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from snndecode.errors import NumericError
from snndecode.network import NetworkSpec, init_params
from snndecode.train import (
    TrainConfig,
    TrainingLog,
    decode_sequence,
    decoder_spec,
    fit,
    make_windows,
)


def toy_data(n, channels=3, outputs=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, channels)).astype(np.float32)
    vels = rng.normal(size=(n, outputs)).astype(np.float32)
    return feats, vels


def toy_config(**kw):
    kw.setdefault("window_len", 5)
    kw.setdefault("warmup_discard", 1)
    kw.setdefault("batch_size", 8)
    kw.setdefault("epochs", 2)
    return TrainConfig(**kw)


def toy_spec(config, channels=3, outputs=2):
    return NetworkSpec(layer_widths=(channels, 6, 6, 6, outputs),
                       window_len=config.window_len,
                       reset_mode=config.reset_mode,
                       dropout_p=config.dropout_p)


# ---------------------------------------------------------------- windows

def test_window_count_exact_cover():
    feats, vels = toy_data(10)
    ds = make_windows(feats, vels, 10)
    assert len(ds) == 1


def test_window_count_full_overlap():
    feats, vels = toy_data(16340, channels=1)
    ds = make_windows(feats, vels, 10)
    assert len(ds) == 16331        # N - T + 1


def test_window_disjoint():
    feats, vels = toy_data(20)
    ds = make_windows(feats, vels, 10, overlap=0)
    assert len(ds) == 2
    x, _ = ds.gather(np.arange(2))
    assert np.array_equal(x[0], feats[:10])
    assert np.array_equal(x[1], feats[10:])


def test_window_contents_are_consecutive():
    feats, vels = toy_data(12)
    ds = make_windows(feats, vels, 5)
    x, y = ds.gather(np.array([3]))
    assert np.array_equal(x[0], feats[3:8])
    assert np.array_equal(y[0], vels[3:8])


def test_too_few_frames():
    feats, vels = toy_data(4)
    with pytest.raises(ValueError):
        make_windows(feats, vels, 10)


# -------------------------------------------------------------------- fit

def test_zero_epochs_returns_initial_params():
    feats, vels = toy_data(40)
    config = toy_config(epochs=0, seed=3)
    spec = toy_spec(config)
    params = init_params(spec, np.random.default_rng(config.seed))
    ds = make_windows(feats, vels, config.window_len)
    trained, log = fit(ds, config, spec=spec, params=params)
    for a, b in zip(trained.layers, params.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.tau, b.tau)
    assert log.records == []


def test_same_seed_bitwise_identical_logs():
    feats, vels = toy_data(60, seed=2)
    logs = []
    for _ in range(2):
        config = toy_config(seed=11, epochs=3)
        ds = make_windows(feats, vels, config.window_len)
        _, log = fit(ds, config, val_features=feats, val_velocities=vels)
        logs.append(log.canonical())
    assert logs[0] == logs[1]


def test_different_seed_differs():
    feats, vels = toy_data(60, seed=2)
    outs = []
    for seed in (1, 2):
        config = toy_config(seed=seed)
        ds = make_windows(feats, vels, config.window_len)
        params, _ = fit(ds, config)
        outs.append(params.layers[0].weight)
    assert not np.array_equal(outs[0], outs[1])


def test_training_reduces_loss():
    feats, vels = toy_data(300, seed=4)
    config = toy_config(epochs=8, seed=0)
    ds = make_windows(feats, vels, config.window_len)
    _, log = fit(ds, config)
    losses = [r.train_loss for r in log.records]
    assert losses[-1] < losses[0]


def test_tau_stays_clamped_through_training():
    feats, vels = toy_data(80, seed=5)
    config = toy_config(epochs=4, learning_rate=0.3)   # aggressive steps
    ds = make_windows(feats, vels, config.window_len)
    params, _ = fit(ds, config)
    for layer in params.layers:
        assert layer.tau.min() >= 0.0
        assert layer.tau.max() <= 1.0


def test_fixed_tau_untouched():
    feats, vels = toy_data(80, seed=6)
    config = toy_config(epochs=3, trainable_tau=False, tau_init=0.5)
    ds = make_windows(feats, vels, config.window_len)
    params, _ = fit(ds, config)
    for layer in params.layers:
        assert np.all(layer.tau == np.float32(0.5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    feats, vels = toy_data(200, seed=7)
    config = toy_config(epochs=10, learning_rate=1e12)  # guaranteed blow-up
    ds = make_windows(feats, vels, config.window_len)
    with pytest.raises(NumericError, match="non-finite"):
        fit(ds, config)


def test_log_echoes_config():
    feats, vels = toy_data(40, seed=8)
    config = toy_config(epochs=1, seed=9)
    ds = make_windows(feats, vels, config.window_len)
    _, log = fit(ds, config)
    assert log.config["seed"] == 9
    assert log.config["learning_rate"] == config.learning_rate
    text = log.canonical()
    assert text.startswith("# config ")
    assert '"seed": 9' in text


def test_decoder_spec_takes_run_settings_from_config():
    config = toy_config(reset_mode="zero", dropout_p=0.3)
    spec = decoder_spec(config, 7, 3)
    default = NetworkSpec()
    assert spec.layer_widths == (7, *default.layer_widths[1:-1], 3)
    assert spec.window_len == 5
    assert spec.reset_mode == "zero"
    assert spec.dropout_p == 0.3
    assert spec.threshold == default.threshold
    assert decoder_spec(config, 7, 3, threshold=0.6).threshold == 0.6


@pytest.mark.parametrize("name, value", [("window_len", 6),
                                         ("reset_mode", "zero"),
                                         ("dropout_p", 0.5)])
def test_fit_refuses_spec_disagreeing_with_config(name, value):
    """A spec whose run settings differ from the config would train one
    decoder and log another."""
    feats, vels = toy_data(40)
    config = toy_config(epochs=1)
    spec = dataclasses.replace(toy_spec(config), **{name: value})
    ds = make_windows(feats, vels, config.window_len)
    with pytest.raises(ValueError) as err:
        fit(ds, config, spec=spec)
    message = str(err.value)
    assert name in message
    assert repr(value) in message
    assert repr(getattr(config, name)) in message


def test_log_header_records_trained_spec():
    feats, vels = toy_data(40, seed=8)
    config = toy_config(epochs=1, reset_mode="zero", dropout_p=0.0)
    spec = dataclasses.replace(toy_spec(config), threshold=0.7,
                               bn_momentum=0.3)
    ds = make_windows(feats, vels, config.window_len)
    _, log = fit(ds, config, spec=spec)
    header = json.loads(log.canonical().splitlines()[0][len("# config "):])
    assert header["spec"] == json.loads(json.dumps(dataclasses.asdict(spec)))
    assert header["spec"]["threshold"] == 0.7
    assert "spec_widths" not in header


@pytest.mark.parametrize("clip", [1e-12, None])
def test_grad_clip_bounds_the_update(clip):
    """Clipped to a global norm of 1e-12, the gradient moves no weight
    further than AdamW's epsilon allows, so only the decoupled decay is
    left; unclipped, training moves the weights."""
    feats, vels = toy_data(60, seed=12)
    config = toy_config(epochs=2, grad_clip=clip)
    spec = toy_spec(config)
    init = init_params(spec, np.random.default_rng(config.seed),
                       tau_init=config.tau_init)
    ds = make_windows(feats, vels, config.window_len)
    trained, _ = fit(ds, config, spec=spec, params=init.copy())
    steps = -(-len(ds) // config.batch_size) * config.epochs
    decay = (1.0 - config.learning_rate * config.weight_decay) ** steps
    gap = max(float(np.abs(a.weight - decay * np.float64(b.weight)).max())
              for a, b in zip(trained.layers, init.layers))
    if clip is None:
        assert gap > 1e-3
    else:
        assert gap < 1e-5


def test_log_one_record_per_epoch():
    feats, vels = toy_data(60, seed=9)
    config = toy_config(epochs=5)
    ds = make_windows(feats, vels, config.window_len)
    _, log = fit(ds, config, val_features=feats, val_velocities=vels)
    assert len(log.records) == 5
    assert [r.epoch for r in log.records] == list(range(5))


def test_decode_sequence_shapes():
    feats, vels = toy_data(50, seed=10)
    config = toy_config(epochs=1)
    spec = toy_spec(config)
    params = init_params(spec, np.random.default_rng(0))
    preds = decode_sequence(params, spec, feats)
    assert preds.shape == (50, 2)
    assert np.isfinite(preds).all()


# ------------------------------------------------------ thread determinism

# A 600-channel input layer puts a reduction depth of 600 into the
# training-mode forward product and 600 columns into the layer-0 weight
# gradient; 199 windows at batch size 128 leave a last batch of 71
# windows, i.e. a 710-row reduction in every weight gradient.  Unblocked
# BLAS products of those depths round differently at 1 and 4 threads.
THREAD_JOB = textwrap.dedent("""\
    import hashlib
    import numpy as np
    from snndecode.network import NetworkSpec
    from snndecode.train import TrainConfig, fit, make_windows

    rng = np.random.default_rng(0)
    feats = rng.normal(size=(208, 600)).astype(np.float32)
    vels = rng.normal(size=(208, 2)).astype(np.float32)
    config = TrainConfig(epochs=2, batch_size=128, window_len=10, seed=4)
    spec = NetworkSpec(layer_widths=(600, 64, 64, 2), window_len=10)
    ds = make_windows(feats, vels, config.window_len)
    params, log = fit(ds, config, spec=spec,
                      val_features=feats[:40], val_velocities=vels[:40])
    digest = hashlib.sha256(log.canonical().encode())
    for layer in params.layers:
        for arr in (layer.weight, layer.tau, layer.norm.gamma,
                    layer.norm.beta, layer.norm.run_mean,
                    layer.norm.run_var):
            digest.update(arr.tobytes())
    print(digest.hexdigest())
""")


def test_training_bits_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(threads):
        env = dict(os.environ,
                   OMP_NUM_THREADS=str(threads),
                   OPENBLAS_NUM_THREADS=str(threads),
                   MKL_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", THREAD_JOB], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        return proc.stdout.strip()

    assert run(1) == run(4), "trained model differs across BLAS threads"
