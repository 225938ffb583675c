"""Bitwise tripwire for the Monte Carlo layer at small seeded sizes.

Most estimates below run 70 000 paths: one full 65 536-path block plus a
partial one, so the per-(block, step) random streams, the block partition and
the order in which block results are summed all feed the pinned values; one
case runs 18 blocks, so the order of a long block sum is pinned too.  The
values are exact (``==``): a changed stream, partition or reduction order
shows up here in the quick tier instead of only in the million-path goldens.
"""

import hashlib

import numpy as np
import pytest

from conftest import simulate_paths

from ultmax import pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import g_monte_carlo, g_pde
from ultmax.grids import Grid
from ultmax.model import RegimeModel, validate
from ultmax.paths import BLOCK_SIZE
from ultmax.strategy import Policy, compare_policies
from ultmax.value import solve_value
from ultmax.volterra import estimate_J, estimate_K, volterra_residual

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
N_PATHS = 70_000


@pytest.fixture(scope="module")
def coarse():
    grid = Grid.for_model(FIG, n_x=120, n_t=60)
    S = solve_value(FIG, grid, g_pde(FIG, grid))
    return S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


def test_simulated_paths_are_pinned():
    assert BLOCK_SIZE < N_PATHS < 2 * BLOCK_SIZE
    bundle = simulate_paths(FIG, 0.0, 0, N_PATHS, 10, seed=2030, bridge_max=True)
    assert float(bundle.y[-1, -1]) == 0.9138456050008382
    assert float(bundle.ymax[BLOCK_SIZE, -1]) == 1.1817028829479819
    assert int(bundle.states[-1, -1]) == 0


def test_policy_comparison_is_pinned(coarse):
    _, boundary = coarse
    pols = [
        Policy.from_boundary(boundary),
        Policy.immediate(),
        Policy.at_maturity(),
        Policy.fixed_threshold([1.05, 1.05]),
    ]
    ests, pairs = compare_policies(FIG, pols, 0, N_PATHS, 20, seed=2024)
    assert [(e.policy.name(), e.mean, e.std_error, e.n_paths) for e in ests] == [
        ("boundary", 1.2898365132915313, 0.0006011754105506785, N_PATHS),
        ("at_maturity", 1.3006026898862968, 0.0010545331690826718, N_PATHS),
        ("threshold(1.05,1.05)", 1.305977936764079, 0.0009623243650647451, N_PATHS),
        ("immediate", 1.3136017597096261, 0.0010900379278125725, N_PATHS),
    ]
    assert [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs] == [
        ("boundary", "immediate", -0.023765246418095007, 0.0012346540337987125),
        ("boundary", "at_maturity", -0.010766176594765631, 0.0011880622755363571),
        ("boundary", "threshold(1.05,1.05)", -0.0161414234725476, 0.001092645118703726),
        ("immediate", "at_maturity", 0.012999069823329375, 0.0017262317883820844),
        ("immediate", "threshold(1.05,1.05)", 0.007623822945547407, 0.0005729619390071954),
        ("at_maturity", "threshold(1.05,1.05)", -0.005375246877781966, 0.0016263371318836308),
    ]
    est = compare_policies(FIG, [pols[0]], 1, N_PATHS, 20, seed=2025)[0][0]
    assert (est.mean, est.std_error) == (1.230970638340504, 0.0005098832077169333)


def test_terminal_estimators_are_pinned(coarse):
    S, boundary = coarse
    assert g_monte_carlo(FIG, 0.0, 1.5, 1, N_PATHS, seed=2027) == (1.524854191607581, 0.00038459094800755134)
    assert estimate_J(FIG, 0.25, 1.2, 0, N_PATHS, seed=2028) == (1.2851720678032197, 0.0009037701629023478)
    level = float(boundary.b_smoothed[0, 0])
    assert level == 1.3804740398214832
    assert estimate_K(FIG, S, boundary, 0.0, 0.25, level, 0, N_PATHS, seed=2029) == (
        0.060034488770275535,
        0.00025997555295844516,
    )


def test_volterra_row_is_pinned(coarse):
    S, boundary = coarse
    rep = volterra_residual(FIG, S, boundary, N_PATHS, 8, seed=2026, report_every=60)
    assert np.array_equal(rep.t, [0.0, 0.0, 0.5, 0.5]) and np.array_equal(rep.regime, [0, 1, 0, 1])
    assert (rep.J[0], rep.J_se[0]) == (1.4881706523513343, 0.0015608760630750952)
    assert (rep.K_integral[0], rep.K_se[0]) == (0.028142462569157298, 8.695746481875201e-05)


def test_many_block_reductions_are_pinned():
    n = 17 * BLOCK_SIZE + 5
    assert g_monte_carlo(FIG, 0.0, 1.2, 0, n, seed=7, n_steps=1) == (1.3598582647262563, 0.00023854897802548768)
    assert estimate_J(FIG, 0.0, 1.0, 1, n, seed=8, n_steps=1) == (1.2377230869574305, 0.00020568624239013675)
    pols = [Policy.immediate(), Policy.at_maturity(), Policy.fixed_threshold([1.1, 1.2])]
    ests, pairs = compare_policies(FIG, pols, 0, n, 2, seed=9)
    assert [(e.policy.name(), e.mean, e.std_error) for e in ests] == [
        ("threshold(1.1,1.2)", 1.2929569398440712, 0.00018956977451054592),
        ("at_maturity", 1.300204977812956, 0.0002631156671924172),
        ("immediate", 1.3136107698889274, 0.0002724264874830429),
    ]
    assert [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs] == [
        ("immediate", "at_maturity", 0.013405792075971564, 0.000430916105002303),
        ("immediate", "threshold(1.1,1.2)", 0.020653830044856613, 0.00035855161409307666),
        ("at_maturity", "threshold(1.1,1.2)", 0.007248037968885047, 0.00023016012210437845),
    ]


# Three regimes: regime 1 absorbs (a zero row of Q) and regime 2 leaves at rate
# 40, so many steps need two or more jump rounds, and e / 0 holding times occur.
M3_ABSORBING = validate(
    RegimeModel(
        mu=(0.1, 0.05, 0.2),
        sigma=(0.3, 0.4, 0.25),
        Q=((-3.0, 1.0, 2.0), (0.0, 0.0, 0.0), (30.0, 10.0, -40.0)),
        T=0.5,
    )
)
# The figure model's drifts and volatilities with Q = 0: no regime ever jumps.
NO_JUMPS = validate(RegimeModel(mu=(0.15, 0.05), sigma=(0.5, 0.3), Q=((0.0, 0.0), (0.0, 0.0)), T=0.5))

# name: (model, start regime, bridge max, threshold levels,
#        sha256 of the simulated states, y and ymax, y[-1, -1], ymax[BLOCK_SIZE, -1], states[-1, -1],
#        compare_policies estimates (best first), paired differences)
ENGINE_BRANCHES = {
    "m3_absorbing": (
        M3_ABSORBING, 2, True, (1.05, 1.1, 1.02),
        "203857bb33458177938f92629f30f5c2f286150de50f6618df048d1bb391881a",
        1.10158037834415, 1.153334537030916, 0,
        [
            ("boundary", 1.2095954254841053, 0.0006258909372722436),
            ("at_maturity", 1.2212657866637437, 0.0007576780568440253),
            ("threshold(1.05,1.1,1.02)", 1.2289340583684143, 0.0006477623960212044),
            ("immediate", 1.2381786091771259, 0.0007569255661981787),
        ],
        [
            ("boundary", "immediate", -0.02858318369302042, 0.0007830373149791359),
            ("boundary", "at_maturity", -0.011670361179638293, 0.0009257713889501821),
            ("boundary", "threshold(1.05,1.1,1.02)", -0.019338632884308954, 0.0007343817379069137),
            ("immediate", "at_maturity", 0.016912822513382123, 0.0012242443186528335),
            ("immediate", "threshold(1.05,1.1,1.02)", 0.009244550808711461, 0.0004622290140249861),
            ("at_maturity", "threshold(1.05,1.1,1.02)", -0.00766827170467066, 0.0011364652209735946),
        ],
    ),
    "no_jumps": (
        NO_JUMPS, 0, True, (1.05, 1.05),
        "a5060d93aa1486ed3ad76691484d77c3c8de1a7913ec9911e80048ffe9a9c578",
        0.7254188094921575, 1.2452140238941403, 0,
        [
            ("boundary", 1.3342567576835187, 0.0006381026501909814),
            ("at_maturity", 1.3479331761055533, 0.0012015136974458842),
            ("threshold(1.05,1.05)", 1.3607099641848002, 0.0011398453590763925),
            ("immediate", 1.3688603998211903, 0.0012698238543185345),
        ],
        [
            ("boundary", "immediate", -0.03460364213767169, 0.0014927157182932458),
            ("boundary", "at_maturity", -0.013676418422034485, 0.001336873795359357),
            ("boundary", "threshold(1.05,1.05)", -0.02645320650128158, 0.001360926037999578),
            ("immediate", "at_maturity", 0.020927223715637207, 0.0020153064142395226),
            ("immediate", "threshold(1.05,1.05)", 0.008150435636390117, 0.0006107701922586483),
            ("at_maturity", "threshold(1.05,1.05)", -0.012776788079247092, 0.0019189212787552089),
        ],
    ),
    "bridge_off": (
        M3_ABSORBING, 2, False, (1.05, 1.1, 1.02),
        "420f5ae45915ead7e038de098acffecead474d2425ba1d911a97458264530629",
        1.1204573154251556, 1.067651429451625, 1,
        [
            ("boundary", 1.1764821891275679, 0.0005985563557028775),
            ("at_maturity", 1.187097490989071, 0.0007320973204987056),
            ("threshold(1.05,1.1,1.02)", 1.1904244647241473, 0.0005624002535811369),
            ("immediate", 1.2036634880567147, 0.0007314119190420422),
        ],
        [
            ("boundary", "immediate", -0.027181298929147106, 0.000782931502972122),
            ("boundary", "at_maturity", -0.010615301861503184, 0.0008830186829922436),
            ("boundary", "threshold(1.05,1.1,1.02)", -0.01394227559657971, 0.0007144105985198545),
            ("immediate", "at_maturity", 0.016565997067643924, 0.001192713369332703),
            ("immediate", "threshold(1.05,1.1,1.02)", 0.013239023332567396, 0.0006039650846043415),
            ("at_maturity", "threshold(1.05,1.1,1.02)", -0.003326973735076528, 0.0010383120340214508),
        ],
    ),
}


@pytest.mark.parametrize("case", list(ENGINE_BRANCHES))
def test_engine_branches_are_pinned(case):
    model, j0, bridge, levels, digest, y_last, ymax_block1, state_last, estimates, paired = ENGINE_BRANCHES[case]
    bundle = simulate_paths(model, 0.0, j0, N_PATHS, 10, seed=2031, bridge_max=bridge)
    assert hashlib.sha256(bundle.states.tobytes() + bundle.y.tobytes() + bundle.ymax.tobytes()).hexdigest() == digest
    assert float(bundle.y[-1, -1]) == y_last
    assert float(bundle.ymax[BLOCK_SIZE, -1]) == ymax_block1
    assert int(bundle.states[-1, -1]) == state_last

    grid = Grid.for_model(model, n_x=120, n_t=60)
    boundary = extract_boundary(solve_value(model, grid, g_pde(model, grid)), pinned.TOL_ABS_DEFAULT)
    pols = [Policy.from_boundary(boundary), Policy.immediate(), Policy.at_maturity(), Policy.fixed_threshold(levels)]
    ests, pairs = compare_policies(model, pols, j0, N_PATHS, 20, seed=2032, bridge_max=bridge)
    assert [(e.policy.name(), e.mean, e.std_error) for e in ests] == estimates
    assert [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs] == paired
