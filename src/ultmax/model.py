"""Problem instances: regime-switching GBM parameters and their sanity checks.

A model is a finite set of regimes, each with a drift and a volatility,
switched by a continuous-time Markov chain with generator matrix Q, over
a finite horizon T.  A :class:`RegimeModel` is valid once built: its
constructor runs :func:`validate`, the check of the invariants every solver
and simulator assumes, which refuses a model with one error type, ModelError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegimeModel",
    "ExerciseRegime",
    "ModelError",
    "NotApplicable",
    "validate",
    "classify",
]

# Generator rows are user-entered decimals; exact zero row sums are too
# strict, machine noise is far below this.
ROW_SUM_TOL = 1e-12

# The largest volatility whose square is a finite double, and the largest log
# scale whose exponential is: |mu| T and sigma^2 T must not exceed the latter.
SIGMA_MAX = float(np.sqrt(np.finfo(float).max))
LOG_SCALE_MAX = float(np.log(np.finfo(float).max))


class ModelError(ValueError):
    """A model that fails :func:`validate`; the message names the entry at fault."""


class NotApplicable(RuntimeError):
    """A check whose drift-sign precondition does not hold for this model."""


class ExerciseRegime(enum.Enum):
    """Structural classification of the optimal stopping set.

    IMMEDIATE_EXERCISE: stopping at once is optimal everywhere (all drifts <= 0).
    EXERCISE_AT_MATURITY: waiting until the horizon is optimal (mu >= sigma^2
    in every regime).  GENERAL: a nontrivial time-dependent boundary.
    """

    IMMEDIATE_EXERCISE = "immediate_exercise"
    EXERCISE_AT_MATURITY = "exercise_at_maturity"
    GENERAL = "general"


@dataclass(frozen=True)
class RegimeModel:
    """Regime-switching geometric Brownian motion over a finite horizon.

    Attributes
    ----------
    mu : per-regime drift (1/time)
    sigma : per-regime volatility (1/sqrt(time)), strictly positive
    Q : (m, m) generator matrix of the regime chain (1/time)
    T : horizon (time), strictly positive
    """

    mu: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    T: float

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "sigma", np.atleast_1d(np.asarray(self.sigma, dtype=float)))
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "T", float(self.T))
        validate(self)

    @property
    def m(self) -> int:
        """Number of regimes."""
        return self.mu.shape[0]

    def jump_rates(self) -> np.ndarray:
        """Exit rate -q_jj of each regime."""
        return -np.diag(self.Q)


def validate(model: RegimeModel) -> RegimeModel:
    """Check all structural invariants and return the model unchanged.

    Raises ModelError, whose message names the entry at fault, on the first
    invariant that fails.
    """
    m = model.m
    if m < 1:
        raise ModelError("need at least one regime")
    if model.mu.ndim != 1:
        raise ModelError(f"mu must be a flat list, got shape {model.mu.shape}")
    if model.sigma.shape != (m,):
        raise ModelError(f"sigma must have length {m}, got {model.sigma.shape}")
    if model.Q.shape != (m, m):
        raise ModelError(f"Q must be ({m}, {m}), got {model.Q.shape}")
    for arr, name in ((model.mu, "mu"), (model.sigma, "sigma"), (model.Q, "Q")):
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"{name} contains non-finite entries")
    if np.any(model.sigma > SIGMA_MAX):
        bad = int(np.argmax(model.sigma > SIGMA_MAX))
        raise ModelError(f"sigma[{bad}] = {model.sigma[bad]} is too large: its square overflows")
    if not np.isfinite(model.T) or model.T <= 0.0:
        raise ModelError(f"horizon must be positive, got {model.T}")
    for name, scale in (("|mu[{}]|", np.abs(model.mu)), ("sigma[{}]^2", model.sigma**2)):
        if np.any(scale > LOG_SCALE_MAX / model.T):  # the product itself may overflow
            bad = int(np.argmax(scale > LOG_SCALE_MAX / model.T))
            raise ModelError(f"{name.format(bad)} * horizon = {scale[bad]:g} * {model.T:g} exceeds "
                             f"{LOG_SCALE_MAX:.6g}: its exponential overflows")
    if np.any(model.sigma <= 0.0):
        bad = int(np.argmax(model.sigma <= 0.0))
        raise ModelError(f"sigma[{bad}] = {model.sigma[bad]} is not positive")

    off_diag = model.Q - np.diag(np.diag(model.Q))
    if np.any(off_diag < 0.0):
        i, j = np.unravel_index(int(np.argmin(off_diag)), model.Q.shape)
        raise ModelError(f"negative off-diagonal rate Q[{i},{j}] = {model.Q[i, j]}")
    if np.any(np.diag(model.Q) > 0.0):  # the row sum may pass ROW_SUM_TOL, but -q_jj is a negative rate
        j = int(np.argmax(np.diag(model.Q) > 0.0))
        raise ModelError(f"positive diagonal rate Q[{j},{j}] = {model.Q[j, j]}")
    row_sums = model.Q.sum(axis=1)
    if np.any(np.abs(row_sums) > ROW_SUM_TOL):
        bad = int(np.argmax(np.abs(row_sums)))
        raise ModelError(f"row {bad} of Q sums to {row_sums[bad]:.3e}, expected 0")
    return model


def classify(model: RegimeModel) -> ExerciseRegime:
    """Classify the stopping structure from drift/volatility comparisons.

    Non-strict inequalities on both sides: mu(j) = 0 counts as immediate
    exercise, mu(j) = sigma(j)^2 as exercise at maturity.  The two cases
    cannot overlap because sigma > 0.
    """
    if np.all(model.mu <= 0.0):
        return ExerciseRegime.IMMEDIATE_EXERCISE
    if np.all(model.mu >= model.sigma**2):
        return ExerciseRegime.EXERCISE_AT_MATURITY
    return ExerciseRegime.GENERAL
