import numpy as np
import pytest

from snndecode.metrics import MetricReport, evaluate, mse, pearson


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
