"""Output checks for each CLI operation of the benchmark.

Every check tests a property the method must have, or compares against a
different method (the pinned Monte Carlo gain, or a lattice that shares no
code with the path engine); none compares against a stored copy of earlier
output.  Each check records its failure messages on an ``Outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ultmax import pinned

# A fault in the program that fails one operation on every run, whatever the
# seed.  Its failures are counted in `failed` but do not make a run incorrect.
KNOWN_FAULT = "tolerance_settings"

# Relative slack for values read back from 12-significant-digit CSVs.
CSV_REL = 1e-10


@dataclass
class Outcome:
    """Failure messages of one operation's checks."""

    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)

    def need(self, ok, message: str) -> None:
        if not bool(ok):
            self.failures.append(message)

    def need_known(self, ok, message: str) -> None:
        if not bool(ok):
            self.known.append(f"{message} (known fault in {KNOWN_FAULT} in src/ultmax/cli.py)")

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.known)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows, split at commas outside parentheses.

    Policy names such as ``threshold(1.05,1.05)`` are written unquoted, so a
    plain CSV reader would split them.
    """
    header, *rows = [_fields(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return header, rows


def _fields(line: str) -> list[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            out.append(line[start:i])
            start = i + 1
    out.append(line[start:])
    return out


def numeric(path: Path) -> dict[str, np.ndarray]:
    """Columns of an all-numeric CSV by header name."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    names = header.split(",")
    data = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float).reshape(-1, len(names))
    return {name: data[:, c] for c, name in enumerate(names)}


def read_manifest(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines() if "=" in line)


def grid_steps(t: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(dz, dt) of the lattice, recovered from the distinct t and x values."""
    ts, xs = np.unique(t), np.unique(x)
    return float(np.log(xs[1]) - np.log(xs[0])), float(ts[1] - ts[0])


def check_value_surface(out: Outcome, path: Path, n_x: int, n_t: int, m: int) -> np.ndarray:
    """value_surface.csv: shape, F <= 0, V = G = x at T, G >= x, gain vs Monte Carlo.

    Returns F as an (n_t + 1, n_x, m) array.
    """
    s = numeric(path)
    n = (n_t + 1) * n_x * m
    out.need(s["V"].size == n, f"{path.name}: {s['V'].size} rows, expected {n}")
    if s["V"].size != n:
        return np.zeros((n_t + 1, n_x, m))
    out.need(all(np.isfinite(s[c]).all() for c in ("t", "x", "V", "G", "F")), f"{path.name}: non-finite value")
    out.need((s["F"] <= 0.0).all(), f"{path.name}: F > 0 at {int((s['F'] > 0).sum())} nodes")
    x, g, v = s["x"], s["G"], s["V"]
    last = s["t"] == s["t"].max()
    tol = CSV_REL * x[last]
    out.need((np.abs(v[last] - x[last]) <= tol).all() and (np.abs(g[last] - x[last]) <= tol).all(),
             f"{path.name}: V = G = x fails on the terminal slice")
    out.need((g >= x - pinned.TOL_SCHEME).all(), f"{path.name}: G < x - TOL_SCHEME at {int((g < x - pinned.TOL_SCHEME).sum())} nodes")
    dz, dt = grid_steps(s["t"], x)
    at = (s["t"] == 0.0) & (x == 1.0) & (s["j"] == 1.0)
    golden, se = pinned.GOLDEN_GAIN_FIGURE
    gap = abs(float(g[at][0]) - golden) if at.sum() == 1 else np.inf
    bound = 3.0 * se + pinned.C_PDE_MC * (dz**2 + dt)
    out.need(gap <= bound, f"{path.name}: |G(0,1,1) - Monte Carlo gain| = {gap:.3g} > {bound:.3g}")
    return s["F"].reshape(n_t + 1, n_x, m)


def check_solve_extras(out: Outcome, run_dir: Path, n_x: int, n_t: int, m: int) -> None:
    """lg_surface.csv and h_level.csv: shape; h may be +inf (no sign change on the grid)."""
    lg_values = numeric(run_dir / "lg_surface.csv")["value"]
    out.need(lg_values.size == (n_t + 1) * n_x * m, f"lg_surface.csv: {lg_values.size} rows")
    out.need(np.isfinite(lg_values).all(), "lg_surface.csv: non-finite value")
    h = numeric(run_dir / "h_level.csv")["h"]
    out.need(h.size == (n_t + 1) * m, f"h_level.csv: {h.size} rows")
    out.need((np.isfinite(h) | (h == np.inf)).all() and (h >= 1.0).all(), "h_level.csv: level NaN, -inf or below 1")


def check_boundary(out: Outcome, path: Path, n_t: int, m: int, dz: float) -> np.ndarray:
    """boundary.csv, recomputed from the levels: anchor at T, monotone, ordering.

    Returns b_raw as an (n_t + 1, m) array.
    """
    b = numeric(path)
    n = (n_t + 1) * m
    out.need(b["b_raw"].size == n, f"{path.name}: {b['b_raw'].size} rows, expected {n}")
    if b["b_raw"].size != n:
        return np.full((n_t + 1, m), np.nan)
    raw = b["b_raw"].reshape(n_t + 1, m)
    logb = np.log(b["b_smoothed"].reshape(n_t + 1, m))
    out.need(np.array_equal(b["is_sentinel"].reshape(n_t + 1, m) == 1, ~np.isfinite(raw)),
             f"{path.name}: is_sentinel disagrees with b_raw")
    out.need(np.isfinite(logb).all() and (logb >= 0.0).all(), f"{path.name}: boundary level missing or below 1")
    out.need((np.abs(logb[-1]) <= dz).all(), f"{path.name}: b(T, j) more than one cell from 1")
    rise = np.diff(logb, axis=0)
    out.need((rise <= dz).all(), f"{path.name}: boundary rises by more than one cell at {int((rise > dz).sum())} steps")
    if m == 2:
        out.need((logb[:, 1] <= logb[:, 0] + dz).all(), f"{path.name}: b(t,2) > b(t,1) + dz")
    return raw


def boundary_from_f(f: np.ndarray, z: np.ndarray, tol_abs: float) -> np.ndarray:
    """Lowest level whose whole upper set has F >= -tol_abs, per (time, regime).

    Interpolates the crossing of -tol_abs inside the cell below the first
    stopping node; +inf where even the top node is continuation.
    """
    n_t1, _, m = f.shape
    out = np.full((n_t1, m), np.inf)
    dz = z[1] - z[0]
    for k in range(n_t1):
        for j in range(m):
            stop = f[k, :, j] >= -tol_abs
            if not stop[-1]:
                continue
            cont = np.flatnonzero(~stop)
            if cont.size == 0:
                out[k, j] = 1.0
                continue
            i = int(cont.max()) + 1
            lo, hi = f[k, i - 1, j], f[k, i, j]
            out[k, j] = np.exp(z[i - 1] + (-tol_abs - lo) / (hi - lo) * dz)
    return out


def check_zero_tolerance(out: Outcome, run_dir: Path, b_zero: np.ndarray, f_default: np.ndarray,
                         n_x: int, dz: float) -> None:
    """Exact detection never stops below the default tolerance, and the manifest says it ran."""
    z = np.arange(n_x) * dz
    b_default = boundary_from_f(f_default, z, pinned.TOL_ABS_DEFAULT)
    below = b_zero < b_default * (1.0 - CSV_REL)
    out.need(not below.any(), f"zero-tolerance boundary below the default-tolerance one at {int(below.sum())} nodes")
    man = read_manifest(run_dir / "run_manifest.txt")
    for key in ("tol_abs", "eps_sign"):
        out.need_known(float(man.get(key, "nan")) == 0.0,
                       f"configured {key}: 0 but run_manifest.txt says {key}={man.get(key)}")


def check_eval(out: Outcome, run_dir: Path, n_policies: int, n_paths: int, lattice, j0: int) -> None:
    """eval.csv / eval_pairs.csv against each other and against the lattice."""
    _, rows = read_table(run_dir / "eval.csv")
    est = {r[0]: (float(r[2]), float(r[3]), int(r[4])) for r in rows}
    out.need(len(est) == n_policies, f"eval.csv: {len(est)} policies, expected {n_policies}")
    out.need(all(n == n_paths for _, _, n in est.values()), f"eval.csv: a policy did not report {n_paths} paths")
    if "boundary" not in est or "immediate" not in est:
        out.need(False, "eval.csv: boundary or immediate policy missing")
        return
    best = min(est, key=lambda name: est[name][0])
    out.need(best == "boundary", f"eval.csv: lowest mean is {best}, not boundary")
    _, pairs = read_table(run_dir / "eval_pairs.csv")
    n_beaten = 0
    for a, b, diff, se in pairs:
        if "boundary" in (a, b):
            d = float(diff) if a == "boundary" else -float(diff)
            n_beaten += d < -3.0 * float(se)
    out.need(n_beaten == len(est) - 1, f"eval_pairs.csv: boundary beats {n_beaten} of {len(est) - 1} policies by > 3 paired SE")
    g0, v0, dz, dt = lattice
    mean, se, _ = est["immediate"]
    bound = 3.0 * se + pinned.C_PDE_MC * (dz**2 + dt)
    out.need(abs(mean - g0) <= bound, f"immediate regret {mean:.6f} vs lattice G(0,1,{j0}) {g0:.6f}: gap > {bound:.3g}")
    mean, se, _ = est["boundary"]
    out.need(mean >= v0 - 3.0 * se - pinned.TOL_SCHEME, f"boundary regret {mean:.6f} below lattice V(0,1,{j0}) {v0:.6f}")


def check_volterra(out: Outcome, run_dir: Path, n_rows: int, dz: float) -> None:
    """volterra.csv: residual size, terminal rows, J >= 1, positive SEs."""
    s = numeric(run_dir / "volterra.csv")
    out.need(s["t"].size == n_rows, f"volterra.csv: {s['t'].size} rows, expected {n_rows}")
    if s["t"].size == 0:
        return
    out.need(all(np.isfinite(col).all() for col in s.values()), "volterra.csv: non-finite value")
    med = float(np.median(np.abs(s["relative_residual"])))
    out.need(med <= 0.05, f"volterra.csv: median |relative residual| {med:.4f} > 0.05")
    last = s["t"] == s["t"].max()
    out.need(last.any() and (s["lhs"][last] == s["J"][last]).all() and (s["K_integral"][last] == 0.0).all()
             and (s["J_se"][last] == 0.0).all() and (s["K_se"][last] == 0.0).all(),
             "volterra.csv: terminal rows need lhs = J, K = 0 and zero SE")
    out.need((np.abs(np.log(s["J"][last])) <= dz).all(), "volterra.csv: terminal level more than one cell from 1")
    out.need((s["J"] >= 1.0).all(), "volterra.csv: J < 1")
    out.need((s["J_se"][~last] > 0.0).all() and (s["K_se"][~last] > 0.0).all(), "volterra.csv: zero SE before T")
