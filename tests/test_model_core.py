import numpy as np
import pytest
from hypothesis import given, strategies as st

from ultmax.model import ExerciseRegime, ModelError, RegimeModel, classify, validate

FIG_Q = [[-2.5, 2.5], [2.0, -2.0]]


def test_figure_parameters_validate():
    m = validate(RegimeModel(mu=[0.15, 0.05], sigma=[0.5, 0.3], Q=FIG_Q, T=0.5))
    assert m.m == 2
    assert m.jump_rates().tolist() == [2.5, 2.0]


def test_single_regime_validates():
    m = validate(RegimeModel(mu=[0.05], sigma=[0.3], Q=[[0.0]], T=1.0))
    assert m.m == 1


def test_bad_generator_row_sum():
    with pytest.raises(ModelError, match=r"^row 0 of Q sums to -5\.000e-01, expected 0$"):
        validate(RegimeModel(mu=[0.1, 0.1], sigma=[0.3, 0.3], Q=[[-1.0, 0.5], [2.0, -2.0]], T=1.0))


def test_negative_off_diagonal_rate():
    with pytest.raises(ModelError, match=r"^negative off-diagonal rate Q\[0,1\] = -0\.5$"):
        validate(RegimeModel(mu=[0.1, 0.1], sigma=[0.3, 0.3], Q=[[0.5, -0.5], [1.0, -1.0]], T=1.0))


def test_nonpositive_volatility():
    with pytest.raises(ModelError, match=r"^sigma\[0\] = 0\.0 is not positive$"):
        validate(RegimeModel(mu=[0.1], sigma=[0.0], Q=[[0.0]], T=1.0))


def test_nonpositive_horizon():
    with pytest.raises(ModelError, match=r"^horizon must be positive, got 0\.0$"):
        validate(RegimeModel(mu=[0.1], sigma=[0.3], Q=[[0.0]], T=0.0))


def test_shape_mismatch_is_rejected():
    with pytest.raises(ModelError, match=r"^sigma must have length 2, got \(1,\)$"):
        validate(RegimeModel(mu=[0.1, 0.2], sigma=[0.3], Q=FIG_Q, T=1.0))
    with pytest.raises(ModelError, match=r"^Q must be \(2, 2\), got \(1, 1\)$"):
        validate(RegimeModel(mu=[0.1, 0.2], sigma=[0.3, 0.3], Q=[[0.0]], T=1.0))


def test_nonfinite_entries_rejected():
    with pytest.raises(ModelError, match=r"^mu contains non-finite entries$"):
        validate(RegimeModel(mu=[np.nan, 0.1], sigma=[0.3, 0.3], Q=FIG_Q, T=1.0))


# Each bad model above, built with the constructor alone: a RegimeModel is valid once built.
BAD_MODELS = {
    "row_sum": (([0.1, 0.1], [0.3, 0.3], [[-1.0, 0.5], [2.0, -2.0]], 1.0),
                r"^row 0 of Q sums to -5\.000e-01, expected 0$"),
    "off_diagonal": (([0.1, 0.1], [0.3, 0.3], [[0.5, -0.5], [1.0, -1.0]], 1.0),
                     r"^negative off-diagonal rate Q\[0,1\] = -0\.5$"),
    "volatility": (([0.1], [0.0], [[0.0]], 1.0), r"^sigma\[0\] = 0\.0 is not positive$"),
    "horizon": (([0.1], [0.3], [[0.0]], 0.0), r"^horizon must be positive, got 0\.0$"),
    "sigma_length": (([0.1, 0.2], [0.3], FIG_Q, 1.0), r"^sigma must have length 2, got \(1,\)$"),
    "q_shape": (([0.1, 0.2], [0.3, 0.3], [[0.0]], 1.0), r"^Q must be \(2, 2\), got \(1, 1\)$"),
    "non_finite": (([np.nan, 0.1], [0.3, 0.3], FIG_Q, 1.0), r"^mu contains non-finite entries$"),
}


@pytest.mark.parametrize("params,message", BAD_MODELS.values(), ids=BAD_MODELS)
def test_building_a_bad_model_raises(params, message):
    with pytest.raises(ModelError, match=message):
        RegimeModel(*params)


def test_validate_is_idempotent():
    m = validate(RegimeModel(mu=[0.15, 0.05], sigma=[0.5, 0.3], Q=FIG_Q, T=0.5))
    assert validate(m) is m


@pytest.mark.parametrize(
    "mu,sigma,expected",
    [
        ([-0.05, -0.1], [0.3, 0.5], ExerciseRegime.IMMEDIATE_EXERCISE),
        ([0.3, 0.5], [0.5, 0.7], ExerciseRegime.EXERCISE_AT_MATURITY),  # sigma^2 = (.25, .49)
        ([0.15, 0.05], [0.5, 0.3], ExerciseRegime.GENERAL),
        ([0.0, -0.1], [0.3, 0.5], ExerciseRegime.IMMEDIATE_EXERCISE),  # mu = 0 counts
        ([0.09, 0.25], [0.3, 0.5], ExerciseRegime.EXERCISE_AT_MATURITY),  # mu = sigma^2 counts
    ],
)
def test_classification_families(mu, sigma, expected):
    m = validate(RegimeModel(mu=mu, sigma=sigma, Q=FIG_Q, T=0.5))
    assert classify(m) is expected


@given(
    mu=st.lists(st.floats(-0.5, 0.8, allow_nan=False), min_size=2, max_size=5),
    sig=st.data(),
)
def test_classification_is_label_invariant(mu, sig):
    n = len(mu)
    sigma = sig.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    rate = 1.0
    Q = np.full((n, n), rate / (n - 1))
    np.fill_diagonal(Q, -rate)
    m = validate(RegimeModel(mu=mu, sigma=sigma, Q=Q, T=1.0))
    perm = sig.draw(st.permutations(range(n)))
    mp = validate(RegimeModel(mu=np.array(mu)[list(perm)], sigma=np.array(sigma)[list(perm)], Q=Q, T=1.0))
    assert classify(m) is classify(mp)
