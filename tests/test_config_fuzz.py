"""Config fuzzing: configs drawn from ``cli.CONFIG_KEYS`` run through every subcommand.

Each key is absent, valid, or a value from ``MENU`` (nan, +-inf, 0, its
minimum - 1, 1e300, 1e-300, the least subnormal 5e-324, text, a bool, a
mapping or a nested list).  A model list has 1-3 regimes, and when its key is
drawn from the menu, it is a menu value or each entry is valid or from the
menu in turn.  At most three
keys per config take a menu value and at most two are absent, and often none
is, so many configs get past the checks and into the numerics.  Size keys are
capped (``n_x`` <= 12, ``n_t`` <= 6, ``n_paths`` <= 200, ``n_steps`` <= 4,
``n_quad`` <= 4): a large size is costly, not a fault.  When the volatilities
and the horizon are both valid, half the configs make one volatility large,
sigma^2 * T from 650 to 709 (the model refuses it above 709.78, the log of the
largest double), with a ``z_max`` of at most 2 so that the grid spacing stays
below 2: the squares of such a model's largest ratios overflow.  Every run
must exit 0, 2, 3 or 4, with no exception and no RuntimeWarning; the explicit
example is a horizon whose time step underflows to 0.
"""

import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import example, given, settings, strategies as st

from ultmax import cli

MENU = [math.nan, math.inf, -math.inf, 0, 1e300, 1e-300, 5e-324, "text", True, {"a": 1}, [[1.0]]]

POLICIES = ["boundary", "immediate", "at_maturity"]


def _menu(key):
    minimum = cli.CONFIG_KEYS[key][2]
    return st.sampled_from(MENU + ([minimum - 1] if minimum is not None else []))


def _valid(key, m):
    """A value of ``key`` that passes its own check, for a model of m regimes (not a model list)."""
    return {
        "model.horizon": st.floats(0.05, 2.0),
        "grid.n_x": st.integers(3, 12),
        "grid.n_t": st.integers(1, 6),
        "grid.z_max": st.floats(0.05, 6.0),
        "mc.n_paths": st.integers(1, 200),
        "mc.n_steps": st.integers(1, 4),
        "mc.seed": st.integers(0, 2**32),
        "mc.bridge_max": st.booleans(),
        "tolerances.tol_abs": st.floats(0.0, 0.1),
        "tolerances.eps_sign": st.floats(0.0, 0.1),
        "eval.start_regime": st.integers(1, m),
        "eval.policies": st.lists(
            st.sampled_from(POLICIES) | st.lists(st.floats(1.0, 3.0), min_size=m, max_size=m).map(
                lambda levels: {"threshold": levels}), min_size=1, max_size=4),
        "volterra.n_quad": st.integers(1, 4),
        "volterra.report_every": st.integers(1, 6),
        "outputs": st.just("out"),
    }[key]


@st.composite
def _model_list(draw, key, m, bad):
    """mu, sigma (m entries) or q (m x m, a generator unless ``bad``), entries from the menu if ``bad``."""
    if key == "model.q":
        rates = [[draw(st.floats(0.0, 4.0)) if i != j else 0.0 for j in range(m)] for i in range(m)]
        rows = [[-sum(row) if i == j else r for j, r in enumerate(row)] for i, row in enumerate(rates)]
    else:
        low, high = (-1.0, 1.0) if key == "model.mu" else (0.05, 1.5)
        rows = [draw(st.floats(low, high)) for _ in range(m)]
    if not bad:
        return rows
    entry = st.sampled_from(MENU) | st.floats(-1.0, 1.0)

    def spoil(row):
        return [spoil(e) if isinstance(e, list) else draw(st.just(e) | entry) for e in row]

    return spoil(rows)


@st.composite
def configs(draw):
    keys = list(cli.CONFIG_KEYS)
    m = draw(st.integers(1, 3))
    bad = draw(st.just(set()) | st.sets(st.sampled_from(keys), max_size=3))
    absent = draw(st.just(set()) | st.sets(st.sampled_from(keys), max_size=2)) - bad
    cfg = {}
    for key in keys:
        if key in absent:
            continue
        if key in ("model.mu", "model.sigma", "model.q"):
            value = draw(_menu(key) | _model_list(key, m, True)) if key in bad else draw(_model_list(key, m, False))
        else:
            value = draw(_menu(key) if key in bad else _valid(key, m))
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
    if not {"model.sigma", "model.horizon"} & (bad | absent) and draw(st.booleans()):
        model = cfg["model"]
        model["sigma"][draw(st.integers(0, m - 1))] = math.sqrt(draw(st.floats(650.0, 709.0)) / model["horizon"])
        if "grid.z_max" not in bad:
            cfg.setdefault("grid", {})["z_max"] = draw(st.floats(0.05, 2.0))
    return cfg


@settings(max_examples=400, deadline=None)
@given(cfg=configs())
@example(cfg={"model": {"mu": [0.15, 0.05], "sigma": [0.5, 0.3], "q": [[-2.5, 2.5], [2.0, -2.0]], "horizon": 5e-324},
              "grid": {"n_x": 12, "n_t": 6}, "mc": {"n_paths": 20, "n_steps": 4, "seed": 1}, "outputs": "out"})
def test_every_subcommand_exits_with_a_known_code_and_no_warning(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "fuzz.yaml"
        path.write_text(yaml.safe_dump(cfg))
        for sub in cli.COMMANDS:
            rc = cli.main([sub, "--config", str(path), "--out", str(Path(tmp) / sub), "--threads", "1"])
            assert rc in (0, 2, 3, 4), (sub, rc)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
