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
from snndecode.metrics import pearson
from snndecode.network import NetworkSpec, init_params
from snndecode.train import (
    TrainConfig,
    TrainingLog,
    WindowDataset,
    _validation_r,
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


@pytest.mark.parametrize("arrays, match", [
    pytest.param(lambda f, v: (f[:, 0], v), "expected", id="1-d-features"),
    pytest.param(lambda f, v: (f, v[None]), "expected", id="3-d-velocities"),
    pytest.param(lambda f, v: (f, v[:-1]), "20 feature frames vs 19",
                 id="short-velocities"),
])
def test_misshaped_frames_refused(arrays, match):
    with pytest.raises(ValueError, match=match):
        make_windows(*arrays(*toy_data(20)), 5)


@pytest.mark.parametrize("name", ["features", "velocities"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_frames_refused(name, bad):
    """Bad input is named where it enters, not reported as a diverged
    training run at its first batch."""
    arrays = dict(zip(("features", "velocities"), toy_data(20)))
    arrays[name][6, 1] = bad
    with pytest.raises(ValueError, match=f"{name} contain non-finite"):
        make_windows(arrays["features"], arrays["velocities"], 5)


# -------------------------------------------------------------------- fit

def test_zero_epochs_returns_initial_params():
    """Training starts from ``init_params`` drawn from the run's seed."""
    feats, vels = toy_data(40)
    config = toy_config(epochs=0, seed=3, tau_init=(0.4, 0.6))
    spec = toy_spec(config)
    params = init_params(spec, np.random.default_rng(config.seed),
                         tau_init=config.tau_init)
    ds = make_windows(feats, vels, config.window_len)
    trained, log = fit(ds, config, spec=spec)
    for a, b in zip(trained.layers, params.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.tau, b.tau)
    assert log.records == []


@pytest.mark.parametrize("n", [0, 1])
def test_validation_needs_two_frames(n, monkeypatch):
    """One validation frame has no correlation; refused before training."""
    feats, vels = toy_data(60, seed=2)
    config = toy_config(seed=11, epochs=3)
    ds = make_windows(feats, vels, config.window_len)
    monkeypatch.setattr("snndecode.train.forward_unfolded", None)
    with pytest.raises(ValueError, match=f"two frames, got {n}"):
        fit(ds, config, val_features=feats[:n], val_velocities=vels[:n])


def test_same_seed_bitwise_identical_logs():
    feats, vels = toy_data(60, seed=2)
    logs = []
    for _ in range(2):
        config = toy_config(seed=11, epochs=3)
        ds = make_windows(feats, vels, config.window_len)
        _, log = fit(ds, config, val_features=feats, val_velocities=vels)
        logs.append(log.canonical())
    assert logs[0] == logs[1]


def test_fit_with_validation_returns_writable_params():
    """Per-epoch validation folds the parameters afresh: the arrays fit
    returns are not frozen, and its last validation r is the r of a later
    decode of them."""
    feats, vels = toy_data(60, seed=2)
    config = toy_config(seed=11, epochs=2)
    spec = toy_spec(config)
    ds = make_windows(feats, vels, config.window_len)
    params, log = fit(ds, config, spec=spec, val_features=feats,
                      val_velocities=vels)
    assert params.folded is None
    for layer in params.layers:
        for arr in layer.arrays().values():
            assert arr.flags.writeable
    preds = decode_sequence(params, spec, feats)
    r = [pearson(preds[:, d], vels[:, d]) for d in range(2)]
    assert tuple(r) == log.records[-1].val_r


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_validation_refused_before_training(bad, monkeypatch):
    """Validation features are checked once, before the first epoch."""
    feats, vels = toy_data(60, seed=2)
    config = toy_config(seed=11, epochs=3)
    ds = make_windows(feats, vels, config.window_len)
    poisoned = feats.copy()
    poisoned[7, 1] = bad
    monkeypatch.setattr("snndecode.train.forward_unfolded", None)
    with pytest.raises(ValueError, match="non-finite"):
        fit(ds, config, val_features=poisoned, val_velocities=vels)


@pytest.mark.parametrize("val_arrays, match", [
    pytest.param(lambda f, v: (f, v[:-1]), "shaped", id="short-velocities"),
    pytest.param(lambda f, v: (f, v[:, :1]), "shaped", id="one-column"),
    pytest.param(lambda f, v: (f, None), "both", id="no-velocities"),
    pytest.param(lambda f, v: (None, v), "both", id="no-features"),
    pytest.param(lambda f, v: (f, np.where(v == v[3, 0], np.nan, v)),
                 "non-finite", id="nan-velocity"),
    pytest.param(lambda f, v: (f, np.column_stack([v[:, 0], 0.0 * v[:, 1]])),
                 "column 2 is constant", id="constant-velocity"),
])
def test_unscorable_validation_refused_before_training(val_arrays, match,
                                                        monkeypatch):
    """Validation arrays that cannot give one correlation per output are
    refused before the first epoch, not logged as NaN or raised later."""
    feats, vels = toy_data(200, channels=6, seed=2)
    config = toy_config(seed=11, epochs=2)
    ds = make_windows(feats[:160], vels[:160], config.window_len)
    val_features, val_velocities = val_arrays(feats[160:], vels[160:])
    monkeypatch.setattr("snndecode.train.forward_unfolded", None)
    with pytest.raises(ValueError, match=match):
        fit(ds, config, val_features=val_features,
            val_velocities=val_velocities)


def test_flat_prediction_scores_nan():
    """A readout whose affine step is all zero decodes constant rows; the
    validation score of such a decode is NaN, not an error mid-training."""
    feats, vels = toy_data(30, seed=4)
    config = toy_config()
    spec = toy_spec(config)
    params = init_params(spec, np.random.default_rng(0))
    readout = params.layers[-1].norm
    readout.gamma[:] = 0.0
    readout.beta[:] = 0.0
    r = _validation_r(params, spec, feats[None], vels)
    assert len(r) == 2 and np.isnan(r).all()


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
    config = toy_config(epochs=3, trainable_tau=False,
                        tau_init=(0.5, 0.5))
    ds = make_windows(feats, vels, config.window_len)
    params, _ = fit(ds, config)
    for layer in params.layers:
        assert np.all(layer.tau == np.float32(0.5))


def test_nonfinite_loss_aborts_with_diagnostic(monkeypatch):
    """A loss that is not finite ends training at that batch, naming it."""
    feats, vels = toy_data(40)
    config = toy_config()
    monkeypatch.setattr("snndecode.train.window_loss",
                        lambda *args: float("nan"))
    with pytest.raises(NumericError, match="loss at epoch 0, batch 0"):
        fit(make_windows(feats, vels, config.window_len), config)


@pytest.mark.parametrize("frames, window_len, match", [
    pytest.param(4, 5, "empty window dataset", id="no-window"),
    pytest.param(20, 6, "span 6 frames, topology wants 5",
                 id="other-window-length"),
])
def test_fit_refuses_unusable_dataset(frames, window_len, match):
    """A hand-built dataset with no whole window, or with windows of
    another length than the decoder's, is refused before training."""
    feats, vels = toy_data(frames)
    with pytest.raises(ValueError, match=match):
        fit(WindowDataset(feats, vels, window_len), toy_config())


@pytest.mark.parametrize("name, value", [("window_len", 2.5),
                                         ("window_len", 0),
                                         ("reset_mode", "hard"),
                                         ("dropout_p", 1.0),
                                         ("dropout_p", True)])
def test_config_run_settings_follow_spec_rule(name, value):
    """The settings a run shares with its decoder have one rule, the
    spec's: the config refuses them with the spec's own message."""
    with pytest.raises(ValueError) as spec_err:
        NetworkSpec(**{name: value})
    with pytest.raises(ValueError) as config_err:
        TrainConfig(**{name: value, "warmup_discard": 0})
    assert str(config_err.value) == str(spec_err.value)


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
    spec = dataclasses.replace(toy_spec(config), threshold=0.7)
    ds = make_windows(feats, vels, config.window_len)
    _, log = fit(ds, config, spec=spec)
    header = json.loads(log.canonical().splitlines()[0][len("# config "):])
    assert header["spec"] == json.loads(json.dumps(dataclasses.asdict(spec)))
    assert header["spec"]["threshold"] == 0.7
    assert "spec_widths" not in header


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
