"""Problem instances: regime-switching GBM parameters and their sanity checks.

A model is a finite set of regimes, each with a drift and a volatility,
switched by a continuous-time Markov chain with generator matrix Q, over
a finite horizon T.  Everything downstream (lattice solvers, simulators)
assumes the invariants enforced by :func:`validate`.
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
    "NonPositiveVolatility",
    "BadGeneratorRow",
    "NonPositiveHorizon",
    "validate",
    "classify",
]

# Generator rows are user-entered decimals; exact zero row sums are too
# strict, machine noise is far below this.
ROW_SUM_TOL = 1e-12

# The largest volatility whose square is a finite double.
SIGMA_MAX = float(np.sqrt(np.finfo(float).max))


class ModelError(ValueError):
    """Base class for model validation failures."""


class NotApplicable(RuntimeError):
    """A check whose drift-sign precondition does not hold for this model."""


class NonPositiveVolatility(ModelError):
    pass


class BadGeneratorRow(ModelError):
    pass


class NonPositiveHorizon(ModelError):
    pass


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

    @property
    def m(self) -> int:
        """Number of regimes."""
        return self.mu.shape[0]

    def jump_rates(self) -> np.ndarray:
        """Exit rate -q_jj of each regime."""
        return -np.diag(self.Q)


# A validated model is just a RegimeModel that passed `validate`; Python has
# no cheap branded types, so the alias documents intent at call sites.
ValidatedModel = RegimeModel


def validate(model: RegimeModel) -> ValidatedModel:
    """Check all structural invariants and return the model unchanged.

    Raises
    ------
    NonPositiveVolatility, BadGeneratorRow, NonPositiveHorizon
        on the corresponding violations; plain ValueError on shape mismatch,
        a non-finite entry or a sigma whose square overflows.
    """
    m = model.m
    if m < 1:
        raise ValueError("need at least one regime")
    if model.sigma.shape != (m,):
        raise ValueError(f"sigma must have length {m}, got {model.sigma.shape}")
    if model.Q.shape != (m, m):
        raise ValueError(f"Q must be ({m}, {m}), got {model.Q.shape}")
    for arr, name in ((model.mu, "mu"), (model.sigma, "sigma"), (model.Q, "Q")):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    if np.any(model.sigma > SIGMA_MAX):
        bad = int(np.argmax(model.sigma > SIGMA_MAX))
        raise ValueError(f"sigma[{bad}] = {model.sigma[bad]} is too large: its square overflows")
    if not np.isfinite(model.T) or model.T <= 0.0:
        raise NonPositiveHorizon(f"horizon must be positive, got {model.T}")
    if np.any(model.sigma <= 0.0):
        bad = int(np.argmax(model.sigma <= 0.0))
        raise NonPositiveVolatility(f"sigma[{bad}] = {model.sigma[bad]} is not positive")

    off_diag = model.Q - np.diag(np.diag(model.Q))
    if np.any(off_diag < 0.0):
        i, j = np.unravel_index(int(np.argmin(off_diag)), model.Q.shape)
        raise BadGeneratorRow(f"negative off-diagonal rate Q[{i},{j}] = {model.Q[i, j]}")
    row_sums = model.Q.sum(axis=1)
    if np.any(np.abs(row_sums) > ROW_SUM_TOL):
        bad = int(np.argmax(np.abs(row_sums)))
        raise BadGeneratorRow(f"row {bad} of Q sums to {row_sums[bad]:.3e}, expected 0")
    return model


def classify(model: ValidatedModel) -> ExerciseRegime:
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
