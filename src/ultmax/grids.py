"""Discretization scaffold: log-space spatial nodes, time nodes, surfaces.

The spatial variable is z = log x on [0, z_max], so x = 1 sits at the first
node and the PDE coefficients become constant per regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ValidatedModel

__all__ = ["Grid", "Surface", "default_z_max", "truncation_tail_bound"]

DEFAULT_N_X = 400
DEFAULT_N_T = 200


def default_z_max(model: ValidatedModel) -> float:
    """Domain truncation for the log-ratio grid.

    Four standard deviations of the most volatile regime over the horizon,
    plus the worst-case log-drift if positive, plus log 2 headroom.  Under
    the single-regime reflection bound this keeps the probability that the
    running maximum ever leaves the grid below about 1e-4.
    """
    sig_max = float(np.max(model.sigma))
    drift = float(np.max(model.mu - 0.5 * model.sigma**2))
    return 4.0 * sig_max * np.sqrt(model.T) + max(0.0, drift) * model.T + np.log(2.0)


# Cephes' erf and erfc rational approximations, as SciPy's ndtr evaluates them.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _polevl(x: float, coef, monic: bool = False) -> float:
    """Horner's rule; ``monic`` prepends a leading coefficient of 1 (cephes p1evl)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _half_erfc(z: float, exponent: float) -> float:
    """exp(exponent + z^2) * erfc(z) / 2 for z >= 1 (erfc(z) / 2 at -z^2), by cephes' approximations."""
    p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
    return 0.5 * (math.exp(exponent) * _polevl(z, p) / _polevl(z, q, True))


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr`` (cephes).

    Only the branches of cephes' erf and erfc that ndtr reaches are kept:
    erf below 1 in magnitude, and erfc of the magnitude from 1 on.
    """
    x = float(a) * math.sqrt(0.5)
    z = abs(x)
    if z < 1.0:
        s = x * x
        return 0.5 + 0.5 * (x * _polevl(s, _ERF_T) / _polevl(s, _ERF_U, True))
    y = 0.0 if z * z > _MAXLOG else _half_erfc(z, -z * z)
    return 1.0 - y if x > 0 else y


def truncation_tail_bound(model: ValidatedModel, z_max: float) -> float:
    """Reflection-principle bound on P(sup log-path ratio > z_max), per regime.

    Treats each regime as if frozen for the whole horizon and reports the
    worst case; a diagnostic for whether a sentinel boundary could be a
    truncation artifact rather than maturity-only exercise.  The reflected
    term exp(A) * Phi(-B) is formed as one exponential where exp(A) would
    overflow or Phi(-B) underflow to 0; A - B^2 / 2 <= 0, so that one cannot.
    A nan bound raises ValueError rather than being dropped from the maximum.
    """
    worst = 0.0
    for j in range(model.m):
        nu = model.mu[j] - 0.5 * model.sigma[j] ** 2
        s = model.sigma[j] * np.sqrt(model.T)
        a = z_max
        with np.errstate(all="ignore"):  # a tiny sigma makes A inf (or nan) and B, w inf
            big_a, big_b = 2.0 * nu * a / model.sigma[j] ** 2, (a + nu * model.T) / s
            w = float((a - nu * model.T) / s)
        z = float(big_b) * math.sqrt(0.5)  # Phi(-B) = erfc(z) / 2
        if big_a >= _MAXLOG or (z > 0.0 and z * z > _MAXLOG):
            # Here z > 26, so the term is below exp(A - z^2) / (2 z sqrt(pi)), and
            # A - z^2 = -w^2 / 2, formed from w: A and z^2 may be inf, or so close
            # that their difference is rounding noise.  The term is 0 once that
            # exponential is, and where z is so large that erfc's ratio
            # overflows to nan (the true term is then below 1e-61).
            reflected = _half_erfc(z, -0.5 * w * w)
            reflected = 0.0 if math.isnan(reflected) else reflected
        else:
            reflected = np.exp(big_a) * _ndtr(-big_b)
        bound = float(_ndtr(-w) + reflected)
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
        model: ValidatedModel,
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
