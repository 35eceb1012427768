import numpy as np
import pytest

from snndecode.metrics import (MetricReport, check_targets, evaluate, mse,
                               pearson)


def test_identical_sequences():
    assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0


def test_negated_sequence():
    a = np.array([0.3, -1.0, 2.0, 0.7])
    assert pearson(a, -a) == -1.0


def test_hand_computed_value():
    assert abs(pearson([1, 2, 3], [1, 2, 3.5]) - 0.9934) < 1e-4


def test_zero_variance_is_an_error():
    with pytest.raises(ValueError, match="zero-variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


@pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
def test_constant_whose_mean_rounds_off_it_is_an_error(value):
    """The mean of three 0.1s is not 0.1, so the deviations are not all
    zero; a constant input is still refused, not scored 0."""
    with pytest.raises(ValueError, match="zero-variance"):
        pearson([value] * 3, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="zero-variance"):
        pearson([1.0, 2.0, 3.0], [value] * 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_input_is_an_error(bad):
    """A NaN used to pass the variance check and clamp to r = -1."""
    with pytest.raises(ValueError, match="non-finite"):
        pearson([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        pearson([1.0, 2.0, 3.0], [1.0, bad, 2.0])


def test_length_mismatch_and_short_input():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])


def test_affine_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=50)
    b = 2.5 * a + 1.0 + rng.normal(size=50) * 0.1
    assert abs(pearson(a, b) - pearson(3 * a - 4, 0.5 * b + 2)) < 1e-12


def test_mse():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 2.0]) == 2.5
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(np.zeros((3, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("targets, match", [
    pytest.param(np.zeros((0, 2)), "two frames, got 0", id="no-frames"),
    pytest.param(np.ones((1, 2)), "two frames, got 1", id="one-frame"),
    pytest.param([[0.0, 1.0], [np.nan, 2.0]], "non-finite", id="nan"),
    pytest.param([[0.0, 1.0], [1.0, -np.inf]], "non-finite", id="inf"),
    pytest.param([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], "column 2 is constant",
                 id="constant-column"),
])
def test_check_targets_refuses_unscorable(targets, match):
    """Targets with no correlation per output are refused, naming what
    is at fault; scorable ones pass."""
    with pytest.raises(ValueError, match=match):
        check_targets(targets)
    check_targets([[0.0, 1.0], [1.0, 0.0]])


def test_evaluate_report():
    rng = np.random.default_rng(1)
    targets = rng.normal(size=(100, 2))
    preds = targets + rng.normal(size=(100, 2)) * 0.05
    report = evaluate(preds, targets)
    assert isinstance(report, MetricReport)
    assert len(report.r_per_dim) == 2
    assert all(-1.0 <= r <= 1.0 for r in report.r_per_dim)
    assert report.r_mean == pytest.approx(np.mean(report.r_per_dim))
    assert report.frames == 100
    text = "\n".join(report.lines())
    assert "r_mean=" in text and "mse=" in text


def test_evaluate_shape_check():
    with pytest.raises(ValueError):
        evaluate(np.zeros((5, 2)), np.zeros((6, 2)))


def test_evaluate_scores_a_constant_prediction_as_nan():
    """A decode whose output column never changes has no correlation: it
    scores NaN, as does ``r_mean``, and the other column still scores."""
    targets = np.array([[0.0, 1.0], [1.0, 0.5], [3.0, 2.0], [2.0, -1.0]])
    preds = np.column_stack([np.full(4, 0.1), targets[:, 1] * 2.0 + 1.0])
    report = evaluate(preds, targets)
    assert np.isnan(report.r_per_dim[0])
    assert report.r_per_dim[1] == pytest.approx(1.0)
    assert np.isnan(report.r_mean)
    assert report.mse == pytest.approx(np.mean((preds - targets) ** 2))
    assert report.lines()[1] == "r1=nan r2=1.0000 r_mean=nan"


@pytest.mark.parametrize("targets, match", [
    pytest.param(np.ones((1, 2)), "two frames, got 1", id="one-frame"),
    pytest.param([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], "column 2 is constant",
                 id="constant-column"),
])
def test_evaluate_refuses_unscorable_targets(targets, match):
    """``evaluate`` applies ``check_targets``: targets with no correlation
    are refused with its message, whatever the predictions."""
    targets = np.asarray(targets)
    preds = np.arange(targets.size, dtype=float).reshape(targets.shape)
    with pytest.raises(ValueError, match=match):
        evaluate(preds, targets)
