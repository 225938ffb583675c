"""Shared one-step backward kernel for the coupled parabolic systems.

Both lattice solvers march u_t + L u + Q-coupling = 0 backward in time on the
log grid, L u = D u_zz + a u_z + r u with D = sigma^2 / 2 per regime; they
differ only in a and r.  One ``Stencil`` holds L on a grid, edge rows
included: the implicit step factors its rows of I - dt L, and the generator
image applies it.  Each step applies the regime-coupling semigroup exp(Q dt)
exactly (uniformization), then an implicit Euler step of L, so every solve is
tridiagonal.

Each regime's matrix is constant, so it is factored once, in Python, by LAPACK
dgtsv's own elimination, row interchanges included (they depend on the matrix
alone).  A step hands those factors to LAPACK dgttrs, whose forward and back
substitution are dgtsv's, in the OpenBLAS that numpy's wheel already loads,
through ``ctypes``; where that library or its symbol is missing, a Python
replay of the same substitution, in the same operation order, takes its place.
Both give every solution bit-identical to dgtsv's.

A step refuses a grid whose time step is too coarse for it (``GridTooCoarse``):
the split coupling needs max |q_jj| dt <= 1/2, each implicit row, which sums
to 1 - dt r, needs dt r < 1 for every reaction r, and the far edge's diagonal
1 - dt ((D + a) g / dz + r) must be positive too.

Boundary rows are built by ghost-node elimination: a reflecting edge
(u_z = 0) at z = 0, and zero curvature in the price variable at z_max
(x^2 f_xx = u_zz - u_z = 0, ghost factor g = 1 / (1 - dz / 2)), matching the
linear-in-x far field of both surfaces; that row is one-sided, downwind where
D + a > 0.  Zero curvature in z itself would contradict the far field
u ~ e^z and drags the top of the grid down by O(1).
"""

from __future__ import annotations

import ctypes
import math
from functools import cache
from pathlib import Path

import numpy as np

from .grids import Grid
from .model import RegimeModel
from .markov import transition_matrix

__all__ = ["BackwardStepper", "GridTooCoarse", "Stencil", "Tridiagonal", "COUPLING_DT_LIMIT", "REACTION_DT_LIMIT"]

# Splitting accuracy guard on the regime-coupling magnitude per step.
COUPLING_DT_LIMIT = 0.5
# dt * r must stay below this for every reaction r: each implicit row sums to 1 - dt * r.
REACTION_DT_LIMIT = 1.0

# LAPACK dgttrs with 64-bit integers, as numpy's wheel bundles it in its OpenBLAS.
_DGTTRS = "scipy_dgttrs_64_"


class GridTooCoarse(ValueError):
    """Raised when the time step is too large for the stepper.

    That is when max |q_jj| * dt exceeds ``COUPLING_DT_LIMIT`` (the split-step
    coupling), when dt * r reaches ``REACTION_DT_LIMIT`` for a reaction r
    (the implicit row's sum 1 - dt * r is then no longer positive, and the
    step no longer keeps a positive solution positive), or when the far
    edge's dt * ((D + a) * g / dz + r) reaches it too (that row's diagonal is
    then no longer positive).  The path engine raises it too, when a step's
    regime jumps outrun its round limit.
    """


def _find_dgttrs(libs: Path):
    """``dgttrs`` from an ILP64 OpenBLAS in the directory ``libs``, or None where none there exports it."""
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            routine = getattr(ctypes.CDLL(str(path)), _DGTTRS)
        except (OSError, AttributeError):
            continue
        # trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, then the hidden length of trans.
        routine.argtypes = [ctypes.c_char_p, *[ctypes.c_void_p] * 10, ctypes.c_size_t]
        routine.restype = None
        return routine
    return None


@cache
def _dgttrs():
    """numpy's own ``dgttrs``, looked up on first use, or None."""
    return _find_dgttrs(Path(np.__file__).resolve().parent.parent / "numpy.libs")


class Tridiagonal:
    """A constant tridiagonal matrix, factored once by dgtsv's elimination.

    ``lo``, ``d`` and ``up`` are its sub-, main and super-diagonal (n - 1, n
    and n - 1 entries).  Raises ``np.linalg.LinAlgError`` for a zero pivot
    ("singular matrix") and for an entry or elimination result that is not
    finite.  ``solve`` runs LAPACK dgttrs on the factors, or a Python replay
    of it where numpy bundles no ``dgttrs``; both give dgtsv's bits.
    """

    def __init__(self, lo, d, up):
        # Python floats: the same IEEE operations as numpy's scalars, several times faster.
        lo, d, up = (np.array(a, dtype=float).tolist() for a in (lo, d, up))
        n = len(d)
        fact, swap = [0.0] * (n - 1), [False] * (n - 1)
        fill = [0.0] * n  # the second superdiagonal that interchanges create
        for i in range(n - 1):
            if abs(d[i]) >= abs(lo[i]):
                if d[i] == 0.0:
                    raise np.linalg.LinAlgError("singular matrix")
                fact[i] = lo[i] / d[i]
                d[i + 1] = d[i + 1] - fact[i] * up[i]
            else:  # interchange rows i and i + 1
                swap[i] = True
                fact[i] = d[i] / lo[i]
                d[i], d[i + 1], up[i] = lo[i], up[i] - fact[i] * d[i + 1], d[i + 1]
                if i + 2 < n:
                    fill[i], up[i + 1] = up[i + 1], -fact[i] * up[i + 1]
        if d[-1] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        if not all(map(math.isfinite, [*fact, *d, *up, *fill])):
            raise np.linalg.LinAlgError("not finite after elimination (the coefficients overflow)")
        self.n = n
        routine = _dgttrs()
        if routine is None:
            self._dgttrs = None
            self._forward = fact, swap
            # Rows n - 1 .. 0, the last two padded with zero superdiagonal terms:
            # subtracting 0.0 * 0.0 = +0.0 leaves every float as it was, -0.0 too.
            self._backward = d[::-1], [0.0, *up[::-1]], fill[::-1]
            return
        # dgttrs's 1-based pivots: row i + 1 was swapped with row i + 2 or with itself.
        ipiv = np.arange(1, n + 1, dtype=np.int64)
        ipiv[:-1] += swap
        self._factors = *map(np.array, (fact, d, up, fill)), ipiv  # what the pointers below point into
        order = ctypes.byref(ctypes.c_int64(n))
        self._column = ctypes.c_double * n
        self._dgttrs = (routine, (b"N", order, ctypes.byref(ctypes.c_int64(1)),
                                  *(ctypes.c_void_p(a.ctypes.data) for a in self._factors)), order)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Overwrite ``b``, a writable contiguous float64 right-hand side of n entries, with the solution; return it."""
        if b.shape != (self.n,) or b.dtype != np.float64 or not (b.flags.c_contiguous and b.flags.writeable):
            raise ValueError(f"the right-hand side must be a writable contiguous float64 array of {self.n} entries")
        if self._dgttrs is None:
            b[:] = self._replay(b.tolist())
            return b
        routine, head, order = self._dgttrs
        info = ctypes.c_int64()
        routine(*head, self._column.from_buffer(b), order, ctypes.byref(info), 1)
        if info.value:
            raise np.linalg.LinAlgError(f"{_DGTTRS} returned info = {info.value}")
        return b

    def _replay(self, rhs: list) -> list:
        """dgttrs's forward and back substitution in Python floats, in its operation order."""
        x, out = rhs[0], []
        for f, swapped, y in zip(*self._forward, rhs[1:]):
            if swapped:
                out.append(y)
                x = x - f * y
            else:
                out.append(x)
                x = y - f * x
        out.append(x)
        x1 = x2 = 0.0
        sol = []
        for c, d, u, w in zip(reversed(out), *self._backward):
            x1, x2 = (c - u * x1 - w * x2) / d, x1
            sol.append(x1)
        sol.reverse()
        return sol


class Stencil:
    """L on one grid, per regime: diffusion D = sigma^2 / 2, ``advection`` a, ``reaction`` r, ghost factor ``g_edge``
    and the far edge's ``edge_rate`` (D + a) g_edge / dz + r."""

    def __init__(self, model: RegimeModel, grid: Grid, advection, reaction):
        self.grid = grid
        self.diffusion = 0.5 * model.sigma**2
        self.advection = np.asarray(advection, dtype=float)
        self.reaction = np.asarray(reaction, dtype=float)
        # z_max: ghost chosen so u_zz = u_z (zero curvature in x); both
        # collapse to g_edge * (u_{N-1} - u_{N-2}) / dz.
        self.g_edge = 1.0 / (1.0 - 0.5 * grid.dz)
        # That row's diagonal in I - dt L is 1 - dt * edge_rate.
        self.edge_rate = (self.diffusion + self.advection) * self.g_edge / grid.dz + self.reaction

    def implicit_rows(self, j: int, dt: float):
        """Sub-, main and super-diagonal of I - dt L in regime j (n - 1, n and n - 1 entries)."""
        # A numpy float, so that a huge dz squares to inf (refused by Tridiagonal)
        # where a Python float's ** raises OverflowError; both call the same pow.
        dz, n = np.float64(self.grid.dz), self.grid.n_x
        D, a, r = self.diffusion[j], self.advection[j], self.reaction[j]
        lo = np.full(n, -dt * (D / dz**2 - a / (2 * dz)))
        di = np.full(n, 1.0 + dt * (2 * D / dz**2 - r))
        up = np.full(n, -dt * (D / dz**2 + a / (2 * dz)))
        # z = 0: ghost reflection u_{-1} = u_1 kills the advection term.
        up[0] = -dt * (2 * D / dz**2)
        lo[-1] = dt * (D + a) * self.g_edge / dz
        di[-1] = 1.0 - dt * self.edge_rate[j]
        return lo[1:], di, up[:-1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L applied to each regime's column of the (n_x, m) slice ``values``; no time or Q terms."""
        dz = self.grid.dz
        out = np.empty_like(values)
        for j, (D, a, r) in enumerate(zip(self.diffusion, self.advection, self.reaction)):
            u, res = values[:, j], out[:, j]
            res[1:-1] = (D * (u[2:] - 2 * u[1:-1] + u[:-2]) / dz**2 + a * (u[2:] - u[:-2]) / (2 * dz)
                         + r * u[1:-1])
            res[0] = D * (2 * u[1] - 2 * u[0]) / dz**2 + r * u[0]
            res[-1] = (D + a) * self.g_edge * (u[-1] - u[-2]) / dz + r * u[-1]
        return out


class BackwardStepper:
    """Backward Euler stepper of one stencil: implicit per regime, split regime coupling."""

    def __init__(self, model: RegimeModel, stencil: Stencil):
        dt = stencil.grid.dt
        coupling = float(np.max(model.jump_rates())) * dt
        if coupling > COUPLING_DT_LIMIT:
            raise GridTooCoarse(
                f"max |q_jj| * dt = {coupling:.3g} exceeds {COUPLING_DT_LIMIT}; refine the time grid"
            )
        j = int(np.argmax(stencil.reaction))
        reacting = float(stencil.reaction[j]) * dt
        if reacting >= REACTION_DT_LIMIT:
            raise GridTooCoarse(
                f"regime {j + 1}: dt * reaction = {reacting:.3g} is not below {REACTION_DT_LIMIT}, so the "
                "implicit rows' sum 1 - dt * reaction is not positive; refine the time grid"
            )
        edge = dt * stencil.edge_rate
        j = int(np.argmax(edge))
        if edge[j] >= REACTION_DT_LIMIT:
            raise GridTooCoarse(
                f"regime {j + 1}: at the far edge dt * ((D + a) * g / dz + reaction) = {edge[j]:.3g} is not below "
                f"{REACTION_DT_LIMIT}, so that row's diagonal is not positive; refine the time grid"
            )
        self.coupling = transition_matrix(model.Q, dt)
        self._solvers = []
        for j in range(model.m):
            try:
                self._solvers.append(Tridiagonal(*stencil.implicit_rows(j, dt)))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"regime {j + 1}: lattice matrix: {exc}") from None

    def step(self, values: np.ndarray) -> np.ndarray:
        """Map the (n_x, m) slice at t_{k+1} to the slice at t_k."""
        columns = (values @ self.coupling.T).T.copy()  # one contiguous right-hand side per regime
        for solver, column in zip(self._solvers, columns):
            solver.solve(column)
        return columns.T
