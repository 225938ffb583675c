"""Discretization scaffold: log-space spatial nodes, time nodes, surfaces.

The spatial variable is z = log x on [0, z_max], so x = 1 sits at the first
node and the PDE coefficients become constant per regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LOG_SCALE_MAX, RegimeModel

__all__ = ["Grid", "Surface", "default_z_max", "truncation_tail_bound"]

DEFAULT_N_X = 400
DEFAULT_N_T = 200


def default_z_max(model: RegimeModel) -> float:
    """Domain truncation for the log-ratio grid.

    Four standard deviations of the most volatile regime over the horizon,
    plus the worst-case log-drift if positive, plus log 2 headroom.  Under
    the single-regime reflection bound this keeps the probability that the
    running maximum ever leaves the grid below about 1e-4.
    """
    sig_max = float(np.max(model.sigma))
    drift = float(np.max(model.mu - 0.5 * model.sigma**2))
    return 4.0 * sig_max * np.sqrt(model.T) + max(0.0, drift) * model.T + np.log(2.0)


def _erfcx(z: float) -> float:
    """exp(z^2) erfc(z) for z > 26 from six terms of its asymptotic series (relative error below 2e-15)."""
    u, term, total = 0.5 / (z * z), 1.0, 1.0  # z * z may overflow: u is then 0
    for n in range(1, 6):
        term *= -(2 * n - 1) * u
        total += term
    return total / (z * math.sqrt(math.pi))


def truncation_tail_bound(model: RegimeModel, z_max: float) -> float:
    """Reflection-principle bound on P(sup log-path ratio > z_max), per regime.

    Treats each regime as if frozen for the whole horizon and reports the
    worst case; a diagnostic for whether a sentinel boundary could be a
    truncation artifact rather than maturity-only exercise.  The bound is
    the running maximum's law Phi(-w) + exp(A) Phi(-B), with Phi(-v) =
    erfc(v / sqrt 2) / 2.  As A - B^2 / 2 = -w^2 / 2 <= 0, exp(A) is at most
    e^676 for z = B / sqrt 2 <= 26; beyond, the reflected term is formed as
    exp(-w^2 / 2) erfcx(z) / 2, since A and z^2 may be inf, or so close that
    their difference is rounding noise.  A nan bound raises ValueError
    rather than being dropped from the maximum.
    """
    worst = 0.0
    for j in range(model.m):
        nu = model.mu[j] - 0.5 * model.sigma[j] ** 2
        s = model.sigma[j] * np.sqrt(model.T)
        with np.errstate(all="ignore"):  # a tiny sigma makes A inf (or nan) and B, w inf
            big_a, big_b = 2.0 * nu * z_max / model.sigma[j] ** 2, (z_max + nu * model.T) / s
            w = float((z_max - nu * model.T) / s)
        z = float(big_b) * math.sqrt(0.5)
        if z <= 26.0:  # A <= z^2 but for rounding, which a subnormal sigma^2 makes large
            reflected = math.exp(min(big_a, z * z)) * math.erfc(z)
        else:
            reflected = math.exp(-0.5 * w * w) * _erfcx(z)
        bound = 0.5 * (math.erfc(w * math.sqrt(0.5)) + reflected)
        if math.isnan(bound):
            raise ValueError(f"regime {j + 1}: truncation tail bound is nan")
        worst = max(worst, bound)
    return worst


@dataclass(frozen=True)
class Grid:
    """Uniform nodes in z = log x on [0, z_max] and in t on [0, T]."""

    z: np.ndarray
    t: np.ndarray
    m: int

    @classmethod
    def for_model(
        cls,
        model: RegimeModel,
        n_x: int = DEFAULT_N_X,
        n_t: int = DEFAULT_N_T,
        z_max: float | None = None,
    ) -> "Grid":
        if n_x < 3:
            raise ValueError("need at least 3 spatial nodes")
        if n_t < 1:
            raise ValueError("need at least 1 time step")
        zm = default_z_max(model) if z_max is None else float(z_max)
        if not 0.0 < zm < np.inf:
            raise ValueError(f"z_max must be positive and finite, got {zm}")
        if zm > LOG_SCALE_MAX:
            raise ValueError(f"z_max = {zm:g} is too large: exp(z_max) overflows")
        if (zm / (n_x - 1)) ** 2 < np.finfo(float).tiny:
            raise ValueError(f"z_max = {zm:g} is too small: the grid spacing squared underflows")
        if model.T / n_t < np.finfo(float).tiny:
            raise ValueError(f"horizon = {model.T:g} over n_t = {n_t} steps is too small: the time step underflows")
        if zm / (n_x - 1) >= 2.0:  # the far edge's ghost factor is 1 / (1 - dz / 2)
            raise ValueError(f"z_max = {zm:g} over n_x - 1 = {n_x - 1} steps: the spacing must be below 2")
        return cls(np.linspace(0.0, zm, n_x), np.linspace(0.0, model.T, n_t + 1), model.m)

    @property
    def n_x(self) -> int:
        return self.z.shape[0]

    @property
    def n_t(self) -> int:
        """Number of time steps (one less than the number of time nodes)."""
        return self.t.shape[0] - 1

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def t_slack(self) -> float:
        """How far below a time node a time still reads as that node: a billionth of the step, for rounding."""
        return 1e-9 * self.dt

    @property
    def x(self) -> np.ndarray:
        return np.exp(self.z)

    @property
    def z_max(self) -> float:
        return float(self.z[-1])

    def t_index(self, t: float) -> int:
        """Index of the nearest time node."""
        k = int(round(t / self.dt))
        return min(max(k, 0), self.n_t)


@dataclass
class Surface:
    """Scalar field over (time node, z node, regime)."""

    values: np.ndarray  # (n_t + 1, n_x, m)
    info: dict = field(default_factory=dict)
