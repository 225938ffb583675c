import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ultmax import pinned
from ultmax.gain import dG_dx, g_monte_carlo, g_pde, h_level, lg
from ultmax.grids import Grid, default_z_max, truncation_tail_bound
from ultmax.model import RegimeModel, validate
from ultmax.paths import reduce_terminal
from ultmax.stepping import GridTooCoarse

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
SINGLE = validate(pinned.make_model(pinned.SINGLE_MODEL))


@pytest.fixture(scope="module")
def fig_grid():
    return Grid.for_model(FIG)


@pytest.fixture(scope="module")
def fig_gain(fig_grid):
    return g_pde(FIG, fig_grid)


def test_gain_at_horizon_needs_no_paths():
    assert g_monte_carlo(FIG, FIG.T, 1.7, 0, 0, seed=1) == (1.7, 0.0)


def test_gain_estimate_dominates_level():
    est, se = g_monte_carlo(FIG, 0.1, 2.0, 1, 20_000, seed=2)
    assert est >= 2.0 - 3.0 * se


def test_golden_gain_reproduces_exactly():
    est, se = g_monte_carlo(FIG, 0.0, 1.0, 0, 1_000_000, seed=pinned.GOLDEN_SEED)
    gold, gold_se = pinned.GOLDEN_GAIN_FIGURE
    assert est == pytest.approx(gold, abs=5e-7)
    assert se == pytest.approx(gold_se, abs=5e-7)


def test_terminal_slice_is_the_level(fig_grid, fig_gain):
    assert np.array_equal(fig_gain.values[-1], np.tile(fig_grid.x[:, None], (1, 2)))


def test_gain_surface_invariants(fig_grid, fig_gain):
    v = fig_gain.values
    assert np.all(np.isfinite(v))
    assert np.all(v >= 1.0 - 1e-12)
    # >= the level, up to far-field scheme noise
    assert np.min(v - fig_grid.x[:, None]) > -1e-5
    assert np.all(np.diff(v, axis=1) >= -1e-10)


def test_driftless_far_field_flattens():
    m = validate(RegimeModel(mu=[0.0], sigma=[0.3], Q=[[0.0]], T=1.0))
    grid = Grid.for_model(m)
    surf = g_pde(m, grid)
    ratio = surf.values[0, -1, 0] / grid.x[-1]
    assert abs(ratio - 1.0) < 0.01
    assert np.min(surf.values - grid.x[:, None]) > -1e-5


def test_pde_matches_monte_carlo_at_probes(fig_grid, fig_gain):
    for i, (t, x, j) in enumerate(pinned.probe_points(FIG)):
        k = fig_grid.t_index(t)
        pde_val = np.interp(np.log(x), fig_grid.z, fig_gain.values[k, :, j])
        mc_val, se = g_monte_carlo(FIG, t, x, j, 200_000, seed=1000 + i)
        tol = 3.0 * se + pinned.C_PDE_MC * (fig_grid.dz**2 + fig_grid.dt)
        assert abs(pde_val - mc_val) <= tol, (t, x, j, pde_val, mc_val, se)


def test_default_truncation_is_generous():
    assert truncation_tail_bound(FIG, default_z_max(FIG)) < 1e-4


def test_derivative_boundary_values(fig_grid, fig_gain):
    d = dG_dx(fig_gain, fig_grid)
    assert np.array_equal(d.values[:, 0], np.zeros((fig_grid.n_t + 1, 2)))
    assert np.allclose(d.values[-1, 1:], 1.0, atol=1e-9)
    assert np.all(d.values >= 0.0) and np.all(d.values <= 1.0)
    assert d.info["clamp_fraction"] < 0.01


@pytest.mark.slow
def test_derivative_is_the_exceedance_cdf():
    # dG/dx(t, x) = P(future max ratio < x); empirical CDF from one million
    # paths as the independent oracle, at (t=0, x=1.5) in the single regime.
    grid = Grid.for_model(SINGLE)
    surf = g_pde(SINGLE, grid)
    d = dG_dx(surf, grid)
    pde_val = np.interp(np.log(1.5), grid.z, d.values[0, :, 0])

    target = np.log(1.5)
    counts = np.zeros(2)
    for block in reduce_terminal(
        SINGLE, 0.0, 0, 1_000_000, 25, 909, True,
        lambda st_, yl, ml: np.array([(ml < target).sum(), ml.shape[0]]),
    ):
        counts += block
    p_hat = counts[0] / counts[1]
    se = np.sqrt(p_hat * (1 - p_hat) / counts[1])
    tol = 3.0 * se + pinned.C_PDE_MC * (grid.dz**2 + grid.dt)
    assert abs(pde_val - p_hat) <= tol


def test_generator_image_terminal_and_signs(fig_grid, fig_gain):
    d = dG_dx(fig_gain, fig_grid)
    image = lg(fig_gain, d, FIG, fig_grid)
    assert np.allclose(image.values[-1, :, 0], -0.15 * fig_grid.x)
    assert np.allclose(image.values[-1, :, 1], -0.05 * fig_grid.x)


def test_generator_image_positive_for_nonpositive_drift():
    m = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))
    grid = Grid.for_model(m)
    surf = g_pde(m, grid)
    image = lg(surf, dG_dx(surf, grid), m, grid)
    assert np.all(image.values[:-1] > 0.0)


def test_generator_image_negative_when_drift_dominates():
    m = validate(RegimeModel(mu=[0.09 + 0.01], sigma=[0.3], Q=[[0.0]], T=0.5))
    grid = Grid.for_model(m)
    surf = g_pde(m, grid)
    image = lg(surf, dG_dx(surf, grid), m, grid)
    assert np.all(image.values[:-1] < 0.0)


def test_generator_image_nondecreasing_in_time(fig_grid, fig_gain):
    # Positive drifts: the image rises toward the horizon (interior slices;
    # the terminal slice carries its own closed-form convention).
    d = dG_dx(fig_gain, fig_grid)
    image = lg(fig_gain, d, FIG, fig_grid).values
    decreases = image[:-2] - image[1:-1]
    assert decreases.max() <= pinned.EPS_SIGN_DEFAULT


def test_sign_level_families(fig_grid, fig_gain):
    d = dG_dx(fig_gain, fig_grid)
    image = lg(fig_gain, d, FIG, fig_grid)
    h0 = h_level(image, fig_grid, 0, pinned.EPS_SIGN_DEFAULT)
    h1 = h_level(image, fig_grid, 1, pinned.EPS_SIGN_DEFAULT)
    # positive drifts: finite level before the horizon, sentinel at it
    assert np.all(np.isfinite(h0[:-1])) and np.all(np.isfinite(h1[:-1]))
    assert np.isinf(h0[-1]) and np.isinf(h1[-1])

    m_neg = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))
    grid = Grid.for_model(m_neg)
    surf = g_pde(m_neg, grid)
    img = lg(surf, dG_dx(surf, grid), m_neg, grid)
    for j in range(2):
        h = h_level(img, grid, j, pinned.EPS_SIGN_DEFAULT)
        assert np.all(h[:-1] == 1.0)

    m_mat = validate(pinned.make_model(pinned.AT_MATURITY_MODEL))
    grid = Grid.for_model(m_mat)
    surf = g_pde(m_mat, grid)
    img = lg(surf, dG_dx(surf, grid), m_mat, grid)
    for j in range(2):
        h = h_level(img, grid, j, pinned.EPS_SIGN_DEFAULT)
        assert np.all(np.isinf(h[:-1]))


def test_coupling_stability_guard():
    grid = Grid.for_model(FIG, n_x=50, n_t=2)  # dt = 0.25, max |q| dt = 0.625
    with pytest.raises(GridTooCoarse):
        g_pde(FIG, grid)


def running_max_moment(nu, sigma, tau, x):
    """E max(x, e^M) = x + integral over y > log x of e^y P(M > y), M the running maximum over [0, tau]
    of a Brownian motion with drift nu and volatility sigma.

    The reflection principle gives
    P(M > y) = 1 - Phi((y - nu tau) / (sigma sqrt tau)) + e^(2 nu y / sigma^2) Phi((-y - nu tau) / (sigma sqrt tau)).
    """
    s = sigma * np.sqrt(tau)

    def tail(y):
        return norm.sf((y - nu * tau) / s) + np.exp(2.0 * nu * y / sigma**2) * norm.cdf((-y - nu * tau) / s)

    lo = np.log(x)
    return x + quad(lambda y: np.exp(y) * tail(y), lo, lo + 40.0 * s, epsabs=1e-12, epsrel=1e-12)[0]


def closed_form_gain(model, t, x):
    """The single-regime gain: M is the log running maximum of the asset on [t, T], drift mu - sigma^2 / 2."""
    mu, sigma = float(model.mu[0]), float(model.sigma[0])
    return running_max_moment(mu - 0.5 * sigma**2, sigma, model.T - t, x)


def test_lattice_gain_matches_the_closed_form_at_probes():
    # The one check of the gain lattice that uses neither the lattice nor Monte Carlo:
    # first order in the grid, 2.0e-4 off at the default 400 x 200 and half that at 799 x 400.
    probes = pinned.probe_points(SINGLE)
    exact = np.array([closed_form_gain(SINGLE, t, x) for t, x, _ in probes])
    errors = []
    for n_x, n_t in [(400, 200), (799, 400)]:
        grid = Grid.for_model(SINGLE, n_x=n_x, n_t=n_t)
        values = g_pde(SINGLE, grid).values
        lattice = np.array([np.interp(np.log(x), grid.z, values[grid.t_index(t), :, j]) for t, x, j in probes])
        errors.append(np.abs(lattice - exact))
    assert errors[0].max() <= pinned.TOL_SCHEME
    assert errors[0].max() / errors[1].max() >= pinned.RICHARDSON_MIN_FACTOR


def test_golden_terminal_ratio_matches_the_closed_form():
    # J(0, 1) = E max over s <= T of Y_s / Y_T.  Read backward from T, log Y_s - log Y_T is a
    # Brownian motion with drift sigma^2 / 2 - mu, so J is the running-maximum moment at x = 1.
    mu, sigma = float(SINGLE.mu[0]), float(SINGLE.sigma[0])
    exact = running_max_moment(0.5 * sigma**2 - mu, sigma, SINGLE.T, 1.0)
    assert exact == pytest.approx(1.28922446, abs=1e-8)
    gold, gold_se = pinned.GOLDEN_J_SINGLE  # 1.55 standard errors above the closed form
    assert abs(gold - exact) <= 3.0 * gold_se
