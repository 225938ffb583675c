"""The library runs without SciPy: its tridiagonal solve matches SciPy bit for
bit, and its truncation tail bound matches SciPy and mpmath to rounding.

SciPy is a test dependency only: here it is the oracle for the lattice's
tridiagonal solve (``scipy.linalg.solve_banded``, LAPACK dgtsv), which fixes
every lattice bit.  ``Tridiagonal`` factors each matrix by dgtsv's
elimination in Python and solves by LAPACK dgttrs in the OpenBLAS that
numpy's wheel bundles, or, where numpy bundles none, by a Python replay of
dgttrs.  Each solve test runs on both paths: the ``python_replay`` fixture
forces the replay by patching the cached dgttrs lookup, and
``test_numpy_wheel_exports_dgttrs`` fails if the lookup finds nothing here,
so the default path is dgttrs.

The tail bound is computed with the standard library's ``math.erfc`` and
written only to the run manifest, so it is held to a relative accuracy, not
to SciPy's bits: its oracles are ``scipy.special.log_ndtr`` and ``ndtr`` at
pinned models, and 60-digit mpmath at those models and at random ones on
both sides of its branch.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.special import log_ndtr, ndtr

import ultmax
from ultmax import stepping
from ultmax.grids import Grid, default_z_max, truncation_tail_bound
from ultmax.model import RegimeModel, validate
from ultmax.stepping import BackwardStepper, Stencil, Tridiagonal


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def banded(upper, diag, lower):
    """``solve_banded``'s (1, 1) layout from the three diagonals."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def test_random_systems_match_solve_banded():
    rng = np.random.default_rng(20261018)
    for trial in range(400):
        n = int(rng.integers(2, 80))
        ab = rng.normal(size=(3, n))
        if trial % 2:  # diagonally dominant, as the lattice's are
            ab[1] += 3.0 * np.sign(ab[1])
        rhs = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        expected = solve_banded((1, 1), ab, rhs)
        assert same_bits(Tridiagonal(ab[2, :-1], ab[1], ab[0, 1:]).solve(rhs.copy()), expected), (trial, n)


def test_random_systems_match_solve_banded_on_the_python_replay(python_replay):
    test_random_systems_match_solve_banded()


INTERCHANGES = pytest.mark.parametrize(
    "upper, diag, lower",
    [
        ([1.0, -2.0, 0.5], [0.1, 3.0, 0.2, 1.5], [4.0, 0.3, 2.5]),  # interchange at rows 0 and 2
        ([1.0, 1.0, 1.0], [0.0, 2.0, 5.0, 1.0], [3.0, 1.0, 6.0]),  # zero leading pivot, then the last row
        ([2.0, 7.0], [1.0, 1e-3, 2.0], [1e-9, 5.0]),  # interchange at the last row only
    ],
    ids=["rows_0_and_2", "zero_diagonal", "last_row"],
)


@INTERCHANGES
def test_row_interchanges_match_solve_banded(upper, diag, lower):
    # dgtsv swaps rows i and i+1 when |d_i| < |l_i| at that point of the
    # elimination; each matrix here is built to take that branch.
    ab = banded(upper, diag, lower)
    for rhs in ([1.0, -2.0, 3.0, 0.25][: len(diag)], [0.0, -0.0, 1e-300, -7.0][: len(diag)]):
        got = Tridiagonal(lower, diag, upper).solve(np.array(rhs))
        assert same_bits(got, solve_banded((1, 1), ab, rhs))


@INTERCHANGES
def test_row_interchanges_match_solve_banded_on_the_python_replay(upper, diag, lower, python_replay):
    test_row_interchanges_match_solve_banded(upper, diag, lower)


def test_solve_refuses_a_right_hand_side_it_cannot_overwrite():
    # dgttrs writes n doubles where the array's data starts: anything else is refused first.
    solver = Tridiagonal([1.0], [4.0, 4.0], [1.0])
    for rhs in (np.ones(3), np.ones(2, dtype=np.float32), np.ones(4)[::2], np.ones((2, 1))):
        with pytest.raises(ValueError, match="writable contiguous float64 array of 2 entries"):
            solver.solve(rhs)


def test_numpy_wheel_exports_dgttrs():
    # Without it every lattice runs on the Python replay: the same bits, each solve about 10x slower.
    routine = stepping._dgttrs()
    assert routine is not None and routine.__name__ == "scipy_dgttrs_64_"
    assert Tridiagonal([1.0], [4.0, 4.0], [1.0])._dgttrs[0] is routine


def test_dgttrs_lookup_finds_nothing_without_raising(tmp_path):
    import _ctypes

    assert stepping._find_dgttrs(tmp_path) is None  # no library
    assert stepping._find_dgttrs(tmp_path / "missing") is None  # no directory
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")  # OSError
    assert stepping._find_dgttrs(tmp_path) is None
    # A shared library, but not OpenBLAS: AttributeError.
    (tmp_path / "libscipy_openblas64_-1.so").write_bytes(Path(_ctypes.__file__).read_bytes())
    assert stepping._find_dgttrs(tmp_path) is None


@pytest.mark.parametrize(
    "upper, diag, lower",
    [([1.0, 1.0], [0.0, 2.0, 1.0], [0.0, 3.0]), ([1.0], [1.0, 1.0], [1.0])],
    ids=["zero_first_column", "zero_last_pivot"],
)
def test_zero_pivot_raises_like_solve_banded(upper, diag, lower):
    ab = banded(upper, diag, lower)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((1, 1), ab, np.ones(len(diag)))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        Tridiagonal(lower, diag, upper)


@pytest.mark.parametrize(
    "upper, diag, lower",
    [([1.0, 1.0], [4.0, np.inf, 4.0], [1.0, 1.0]), ([1.0, 1.0], [4.0, 4.0, 4.0], [1.0, np.nan]),
     ([1.5e308], [1.0, -1.5e308], [1.0])],  # the last: -1.5e308 - 1 * 1.5e308
    ids=["inf_entry", "nan_entry", "overflowing_elimination"],
)
def test_non_finite_matrix_raises(upper, diag, lower):
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        Tridiagonal(lower, diag, upper)


def random_model(rng, m):
    rates = rng.uniform(0.0, 4.0, size=(m, m))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return validate(RegimeModel(
        mu=rng.uniform(-0.4, 0.6, m).tolist(), sigma=rng.uniform(0.05, 1.2, m).tolist(),
        Q=rates.tolist(), T=float(rng.uniform(0.1, 2.0)),
    ))


def test_stepper_matches_solve_banded_on_random_models(monkeypatch):
    """Each step equals solve_banded on the matrices the stepper factored."""
    matrices = []

    class Recording(Tridiagonal):
        def __init__(self, lo, d, up):
            matrices.append(banded(up, d, lo))
            super().__init__(lo, d, up)

    monkeypatch.setattr(stepping, "Tridiagonal", Recording)
    rng = np.random.default_rng(8)
    shapes = [(5, 3), (12, 6), (60, 30), (120, 60), (400, 200), (1000, 800)]
    for trial in range(16):
        m = trial % 4 + 1
        model = random_model(rng, m)
        n_x, n_t = shapes[trial % len(shapes)]
        z_max = float(rng.uniform(0.5, 4.0)) if trial % 3 else None
        advection = rng.uniform(-1.0, 1.0, m)
        reaction = rng.uniform(-0.5, 0.5, m) if trial % 2 else np.zeros(m)
        # n_t past the coupling rule and the rows' rule: a diagonal of I - dt L that reads 1 - c at dt = 1 stays
        # positive while dt * c < 1 (dz does not depend on n_t; reactions of at most 0.5 keep the sums positive).
        unit = Stencil(model, Grid.for_model(model, n_x=n_x, n_t=1, z_max=z_max), advection, reaction)
        c = max(1.0 - float(unit.implicit_rows(j, 1.0)[1].min()) for j in range(m))
        n_t = max(n_t, math.ceil(2.0 * float(np.max(model.jump_rates())) * model.T) + 1, math.ceil(c * model.T) + 1)
        grid = Grid.for_model(model, n_x=n_x, n_t=n_t, z_max=z_max)
        matrices.clear()
        stepper = BackwardStepper(model, Stencil(model, grid, advection, reaction))
        assert len(matrices) == m
        values = np.exp(grid.z)[:, None] * rng.uniform(0.5, 1.5, (1, m))
        for _ in range(3):
            coupled = values @ stepper.coupling.T
            expected = np.column_stack([solve_banded((1, 1), ab, coupled[:, j]) for j, ab in enumerate(matrices)])
            values = stepper.step(values)
            assert same_bits(values, expected), (trial, m, n_x, n_t)


def test_stepper_matches_solve_banded_on_random_models_on_the_python_replay(monkeypatch, python_replay):
    test_stepper_matches_solve_banded_on_random_models(monkeypatch)


GUARD = """
import json, runpy, sys
sys.argv = ["ultmax", "--help"]
try:
    runpy.run_module("ultmax.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
from ultmax import cli
rc = cli.main(["solve", "--config", {cfg!r}, "--out", {out!r}])
print(json.dumps([rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def test_cli_imports_no_scipy(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        "model: {mu: [0.15, 0.05], sigma: [0.5, 0.3], q: [[-2.5, 2.5], [2.0, -2.0]], horizon: 0.5}\n"
        "grid: {n_x: 12, n_t: 6}\nmc: {seed: 1}\n"
    )
    script = GUARD.format(cfg=str(cfg), out=str(tmp_path / "out"))
    src = str(Path(ultmax.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "usage: ultmax" in proc.stdout
    rc, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert scipy_modules == []
    assert (tmp_path / "out" / "value_surface.csv").is_file()


def mpmath_tail_bound(mu, sigma, a, T=1.0):
    """The bound in 60-digit arithmetic, from the exact binary values of a, sigma, T and nu.

    nu is the double the library forms, ``mu - 0.5 * sigma**2``: with a within
    3e-10 of nu, rounding nu alone moves the bound by 1.5e-10 relative.
    """
    with mpmath.workdps(60):
        nu, sigma, a, T = map(mpmath.mpf, (mu - 0.5 * sigma**2, sigma, a, T))
        s = sigma * mpmath.sqrt(T)
        phi_neg = lambda v: mpmath.erfc(v / mpmath.sqrt(2)) / 2  # noqa: E731
        return float(phi_neg((a - nu * T) / s) + mpmath.exp(2 * nu * a / sigma**2) * phi_neg((a + nu * T) / s))


@pytest.mark.parametrize(
    "mu, sigma, z_max, known",
    [
        (1.0, 0.05, 1.0, None), (0.887, 0.05, 1.0, None), (0.5, 0.04, None, None), (0.15, 0.5, 1.2, None),
        (0.1, 1e-70, 0.05, None), (0.1, 1e-160, 0.05, 1.0), (0.1, 1e-70, 0.1, 0.5),
        (0.5, 1e-12, 0.50000000003, mpmath_tail_bound(0.5, 1e-12, 0.50000000003)),
        (0.5, 1e-11, 0.5000000003, mpmath_tail_bound(0.5, 1e-11, 0.5000000003)),
    ],
    ids=[
        "exp_overflows", "ndtr_underflows", "default_z_max", "direct", "erfc_ratio_nan", "sigma_squared_underflows",
        "z_max_at_drift", "a_minus_z_squared_overflows", "a_minus_z_squared_is_noise",
    ],
)
def test_truncation_tail_bound_matches_log_ndtr(mu, sigma, z_max, known):
    # P(sup of drifted Brownian log-path > a) = Phi(-(a - nu T) / s) + exp(A) Phi(-B),
    # A = 2 nu a / sigma^2, B = (a + nu T) / s; the oracle adds A to log Phi(-B).
    # Where the oracle cancels (inf - inf, or two terms near 1e138) the bound
    # is ``known``: a path that surely drifts past a = 0.05 < nu T gives 1,
    # and at a = nu T the direct term is 1/2 and the reflected one below 1e-70.
    # With a tiny sigma and a 30 sigma above nu T, A and B^2 / 2 are near 5e23
    # and agree to 450, so the bound, about 4.9e-198, comes from mpmath.
    model = validate(RegimeModel(mu=[mu], sigma=[sigma], Q=[[0.0]], T=1.0))
    a = default_z_max(model) if z_max is None else z_max
    nu, s = mu - 0.5 * sigma**2, sigma
    expected = known if known is not None else (
        ndtr(-(a - nu) / s) + math.exp(2.0 * nu * a / sigma**2 + log_ndtr(-(a + nu) / s)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = truncation_tail_bound(model, a)
    assert got == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("z_range", [(0.0, 26.0), (26.0, 52.0)], ids=["erfc", "erfcx_series"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncation_tail_bound_matches_mpmath_on_random_models(z_range, data):
    # The model is placed by z = B / sqrt 2, which picks the reflected term's
    # branch, and by w in [-5, 37], so that neither term is negligible and the
    # bound stays a normal double: the reflected term over the direct one is
    # about w / B.  Both branches measure below 5e-13 relative to the bound.
    sigma, T = data.draw(st.floats(0.01, 1.5)), data.draw(st.floats(0.05, 2.0))
    big_b, w = math.sqrt(2.0) * data.draw(st.floats(*z_range)), data.draw(st.floats(-5.0, 37.0))
    assume(big_b + w > 0.0)
    s = sigma * math.sqrt(T)
    a, mu = 0.5 * (big_b + w) * s, 0.5 * (big_b - w) * s / T + 0.5 * sigma**2
    model = validate(RegimeModel(mu=[mu], sigma=[sigma], Q=[[0.0]], T=T))
    assert truncation_tail_bound(model, a) == pytest.approx(mpmath_tail_bound(mu, sigma, a, T), rel=2e-12, abs=0.0)


def test_truncation_tail_bound_with_a_subnormal_sigma_squared():
    # sigma^2 = 1.2e-323 rounds to 1e-323, so A = 2 nu a / sigma^2 reads 792
    # where exactly it is z^2 = 639 at a = nu T: exp(A) must not overflow.
    sigma, T, a = 3.5e-162, 2.3e13, 3e-154
    mu = a / T + 0.5 * sigma**2
    model = validate(RegimeModel(mu=[mu], sigma=[sigma], Q=[[0.0]], T=T))
    assert truncation_tail_bound(model, a) == pytest.approx(mpmath_tail_bound(mu, sigma, a, T), rel=1e-12, abs=0.0)
