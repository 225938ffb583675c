import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import stationary_distribution

from ultmax.markov import derive_rng, transition_matrix
from ultmax.paths import _step_jumps, embedded_jump_cdf

FIG_Q = np.array([[-2.5, 2.5], [2.0, -2.0]])


def sample_step_jumps(Q, states, remaining, rng):
    """(holding, next_state, jumped) over one interval from the path engine's jump proposal."""
    Q = np.asarray(Q, dtype=float)
    holding, jumped, idx, targets = _step_jumps(-np.diag(Q), embedded_jump_cdf(Q), states, remaining, rng)
    next_state = states.copy()
    next_state[idx] = targets
    return holding, next_state, jumped


@dataclass(frozen=True)
class ChainPath:
    """One sampled trajectory of the regime chain on [t0, T].

    ``jump_times`` is strictly increasing; ``states[k]`` is the regime after
    the k-th jump, so consecutive entries differ and the regime on
    [jump_times[k], jump_times[k+1]) is states[k].
    """

    initial_state: int
    jump_times: np.ndarray
    states: np.ndarray

    def state_at(self, t: float) -> int:
        """Regime in force at time t (right-continuous)."""
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if k == 0 else int(self.states[k - 1])


def sample_chain(Q: np.ndarray, t0: float, T: float, j0: int, seed) -> ChainPath:
    """Exact trajectory of the chain on [t0, T] started in regime j0.

    Holding times are exponential with rate -q_jj drawn by inverse CDF on a
    uniform, the next state proportional to off-diagonal row entries.  A zero
    row (absorbing state) produces no further jumps.  Deterministic given seed.
    """
    if t0 > T:
        raise ValueError("t0 must not exceed T")
    Q = np.asarray(Q, dtype=float)
    rng = derive_rng(seed)
    jump_times = []
    states = []
    t = float(t0)
    j = int(j0)
    while True:
        rate = -Q[j, j]
        if rate <= 0.0:
            break
        # Inverse-CDF exponential keeps the draw reproducible across platforms.
        t = t - np.log1p(-rng.random()) / rate
        if t >= T:
            break
        probs = np.maximum(Q[j], 0.0)
        probs[j] = 0.0
        cdf = np.cumsum(probs / probs.sum())
        j = int(np.searchsorted(cdf, rng.random(), side="right"))
        jump_times.append(t)
        states.append(j)
    return ChainPath(int(j0), np.asarray(jump_times, dtype=float), np.asarray(states, dtype=np.int64))


def taylor_expm(Q, dt, terms=20):
    """Plain truncated series oracle: sum (Q dt)^k / k! up to `terms`."""
    A = Q * dt
    P = np.eye(Q.shape[0])
    term = np.eye(Q.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        P = P + term
    # Remainder bound: ||A||^(n+1)/(n+1)! * e^||A||, sub-multiplicative norm.
    a = np.linalg.norm(A, ord=np.inf)
    rem = a ** (terms + 1) / math.factorial(terms + 1) * np.exp(a)
    return P, rem


def test_zero_generator_gives_identity():
    P = transition_matrix(np.array([[0.0]]), 0.1)
    assert np.array_equal(P, np.eye(1))


def test_dt_zero_gives_identity():
    P = transition_matrix(FIG_Q, 0.0)
    assert np.array_equal(P, np.eye(2))


def test_long_horizon_rows_reach_stationary_distribution():
    # pi solves pi Q = 0, pi . 1 = 1: by hand, pi = (4/9, 5/9) for FIG_Q.
    P = transition_matrix(FIG_Q, 100.0)
    pi_hand = np.array([4.0 / 9.0, 5.0 / 9.0])
    assert np.allclose(P, np.vstack([pi_hand, pi_hand]), atol=1e-10)
    assert np.allclose(stationary_distribution(FIG_Q), pi_hand, atol=1e-12)


@pytest.mark.parametrize("dt", [np.inf, np.nan, -1.0])
def test_a_time_step_that_is_negative_or_not_finite_is_refused(dt):
    # inf ended in a RecursionError and nan returned a matrix of nan.
    with pytest.raises(ValueError, match="dt must be nonnegative and finite"):
        transition_matrix(FIG_Q, dt)


@pytest.mark.parametrize("rate, dt", [(1.0, 300.0), (1.0, 718.0), (1.0, 744.0), (1.0, 1e8), (1e10, 1e300)])
def test_a_leading_weight_past_the_normal_range_is_halved_away(rate, dt):
    # Symmetric two-state chain: exp(Q dt) has rows (1 + e^{-2a}, 1 - e^{-2a}) / 2, a = rate * dt.  Where e^{-a}
    # was subnormal (708 < a < 745) the series read 0.4966 at a = 744 and did not end at a = 718; halving down
    # from rate * dt = inf ran past the recursion limit.
    Q = rate * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(transition_matrix(Q, dt), 0.5, rtol=0.0, atol=1e-12)


def test_small_step_matches_series_oracle():
    dt = 0.005
    P = transition_matrix(FIG_Q, dt)
    P_ref, rem = taylor_expm(FIG_Q, dt)
    assert rem < 1e-16
    assert np.allclose(P, P_ref, atol=1e-13)
    # First order: P is I + Q dt up to (Q dt)^2 / 2 scale.
    assert np.allclose(P, np.eye(2) + FIG_Q * dt, atol=(2.5 * dt) ** 2)


def test_rows_sum_to_one_exactly():
    for dt in (1e-4, 0.01, 1.0, 10.0):
        P = transition_matrix(FIG_Q, dt)
        assert np.all(P >= 0.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(
    rates=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=4),
    dt1=st.floats(0.01, 2.0),
    dt2=st.floats(0.01, 2.0),
)
def test_semigroup_property(rates, dt1, dt2):
    n = len(rates)
    Q = np.zeros((n, n))
    for i, r in enumerate(rates):
        Q[i] = r / (n - 1)
        Q[i, i] = -r
    P12 = transition_matrix(Q, dt1 + dt2)
    P1 = transition_matrix(Q, dt1)
    P2 = transition_matrix(Q, dt2)
    assert np.max(np.abs(P12 - P1 @ P2)) < 1e-10


def test_zero_rates_sample_no_jumps():
    cp = sample_chain(np.array([[0.0]]), 0.0, 5.0, 0, seed=7)
    assert cp.jump_times.size == 0
    assert cp.state_at(3.0) == 0


def test_sample_chain_is_deterministic_and_alternates():
    a = sample_chain(FIG_Q, 0.0, 3.0, 0, seed=42)
    b = sample_chain(FIG_Q, 0.0, 3.0, 0, seed=42)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.states, b.states)
    assert np.all(np.diff(a.jump_times) > 0)
    full = np.concatenate([[a.initial_state], a.states])
    assert np.all(np.diff(full) != 0)  # two states: every jump switches


@pytest.fixture(scope="module")
def first_uniforms():
    """The first draw of ``sample_chain`` for each seed 0 .. 99 999."""
    return np.array([derive_rng(i).random() for i in range(100_000)])


@pytest.mark.slow
@pytest.mark.parametrize("j0,rate", [(0, 2.5), (1, 2.0)])
def test_mean_first_sojourn(first_uniforms, j0, rate):
    # Seed i's first sojourn is its first uniform turned into an exponential
    # by inverse CDF, censored at the horizon; the first 1 000 are checked
    # against sample_chain itself.  Horizon long enough that censoring bias
    # (e^-4rate / rate) is far below the Monte Carlo standard error.
    n = first_uniforms.size
    vals = np.minimum(-np.log1p(-first_uniforms) / rate, 4.0)
    for i in range(1000):
        cp = sample_chain(FIG_Q, 0.0, 4.0, j0, seed=i)
        assert vals[i] == (cp.jump_times[0] if cp.jump_times.size else 4.0)
    se = vals.std() / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / rate) <= 3.0 * se


def test_occupation_frequency_approaches_stationary():
    # Terminal state over many independent chains; exp(Q*6) rows are within
    # 1e-11 of pi, so the binomial CI is the only error source.
    n = 4000
    hits = 0
    for i in range(n):
        cp = sample_chain(FIG_Q, 0.0, 6.0, i % 2, seed=10_000 + i)
        hits += cp.state_at(6.0) == 0
    p = hits / n
    pi0 = 4.0 / 9.0
    se = np.sqrt(pi0 * (1 - pi0) / n)
    assert abs(p - pi0) <= 3.5 * se


def test_step_jump_proposals_respect_rates():
    rng = np.random.default_rng(3)
    states = np.zeros(50_000, dtype=np.int64)
    holding, nxt, jumped = sample_step_jumps(FIG_Q, states, np.full(states.shape, 0.1), rng)
    # P(jump within 0.1) = 1 - exp(-0.25)
    p_hat = jumped.mean()
    p = 1 - np.exp(-0.25)
    assert abs(p_hat - p) < 3.5 * np.sqrt(p * (1 - p) / states.size)
    assert np.all(nxt[jumped] == 1)  # two-state chain must switch
    assert np.all(nxt[~jumped] == 0)


def test_absorbing_state_never_jumps():
    Q = np.array([[0.0, 0.0], [2.0, -2.0]])
    rng = np.random.default_rng(4)
    states = np.zeros(100, dtype=np.int64)
    holding, nxt, jumped = sample_step_jumps(Q, states, np.full(100, 1.0), rng)
    assert not jumped.any()
    assert np.all(np.isinf(holding))
