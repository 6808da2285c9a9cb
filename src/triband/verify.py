"""Self-verification suite: solver-vs-oracle cross-checks plus invariants.

Run through `triband verify`; every check returns (name, ok, detail) and the
CLI exits nonzero if any check fails.  Solver and oracle are compared outside
comparison_domain, and the detail names that window.  The random suite draws
strengths uniformly from [-5, 5] and widths from [0.2, 3] (units of m and 1/m)
with a fixed seed, so results are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import boundstates, oracle, pointlimits
from .boundstates import (
    N_GRID,
    VA_WINDOW,
    boundary_values,
    connection_matrix,
    current,
    discontinuities,
    eigenfunction,
    find_bound_states,
)
from .model import REDUCE_RTOL, Geometry, PoleAtVa, PotentialConfig
from .oracle import N_STEPS
from .pointlimits import SqueezeLaw
from .spectra import PencilSpec

# random_configs: strengths drawn from [-RANDOM_STRENGTH, RANDOM_STRENGTH];
# crosscheck_config: largest solver-oracle level difference that agrees
RANDOM_STRENGTH = 5.0
AGREEMENT_ATOL = 1e-8
# check_unit_determinant: random draws and the bound on the scaled |det - 1|
DETERMINANT_SEED = 42
DETERMINANT_SAMPLES = 10000
DETERMINANT_TOL = 1e-12
# bounds of the wave-function checks on the solved examples
PARITY_TOL = 1e-10
CURRENT_TOL = 1e-12
JUMP_TOL = 1e-9
OUTER_JUMP_TOL = 1e-10


def random_configs(seed: int, cases: int):
    """The seeded random (config, geometry) suite used by the cross-checks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        v = rng.uniform(-RANDOM_STRENGTH, RANDOM_STRENGTH, size=3)
        l = rng.uniform(0.2, 3.0)
        out.append((PotentialConfig(v[0], v[1], v[2]), Geometry.centered(l)))
    return out


def comparison_domain(cfg, geom):
    """The window of the gap, [(lo, hi)] or [], where solver and oracle are not compared.

    Off the plane v2 = va, k^2 ~ F/(E - va) with F = (va - v1)(va - v2)(va - v3),
    so levels crowd at va (or, for va just outside the gap, at the nearer gap
    edge) closer than N_STEPS RK4 steps or N_GRID scan points resolve.  The
    window around va is sized for that resolution and clipped to the gap.
    """
    f_va = abs((cfg.va - cfg.v1) * (cfg.va - cfg.v2) * (cfg.va - cfg.v3))
    if cfg.on_plane_a(REDUCE_RTOL) or f_va == 0:
        return []
    # RK4 phase accuracy: keep |k| h below ~0.2
    k_cap = 0.2 * N_STEPS / geom.l
    d_rk4 = f_va / k_cap**2
    # grid resolvability: consecutive-root spacing ~ 4 pi d^{3/2} / (l sqrt(F))
    de = 2.0 / N_GRID
    d_grid = (4.0 * de * geom.l * np.sqrt(f_va) / np.pi) ** (2.0 / 3.0)
    w = float(2.0 * max(d_rk4, d_grid, VA_WINDOW))
    lo, hi = max(cfg.va - w, -1.0), min(cfg.va + w, 1.0)
    return [(lo, hi)] if lo < hi else []


def crosscheck_config(cfg, geom):
    """Compare solver and oracle level lists outside comparison_domain.

    Returns (ok, n_solver, n_oracle, max_abs_diff).
    """
    return _crosscheck(cfg, geom, comparison_domain(cfg, geom))


def _crosscheck(cfg, geom, excl):
    sol = find_bound_states(cfg, geom, extra_exclusions=excl)
    e_solver = np.array([s.energy for s in sol])
    e_oracle = np.array(oracle.oracle_bound_states(cfg, geom, extra_exclusions=excl))
    if e_solver.size != e_oracle.size:
        return False, e_solver.size, e_oracle.size, np.inf
    if e_solver.size == 0:
        return True, 0, 0, 0.0
    diff = float(np.max(np.abs(e_solver - e_oracle)))
    return diff < AGREEMENT_ATOL, e_solver.size, e_oracle.size, diff


def check_oracle_agreement(seed=42, cases=20):
    worst, n_windowed, widest = 0.0, 0, (-1.0,)  # widest (width, case, lo, hi)
    for i, (cfg, geom) in enumerate(random_configs(seed, cases)):
        excl = comparison_domain(cfg, geom)
        ok, ns, no, diff = _crosscheck(cfg, geom, excl)
        if not ok:
            case = f"case {i} (V = {cfg.v11:.6g}, {cfg.v22:.6g}, {cfg.v33:.6g}, l = {geom.l:.6g})"
            window = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in excl) or "none"
            detail = f"mismatch at {case}: counts {ns}/{no}, diff {diff:g}"
            return False, f"{detail}, excluded windows: {window}"
        worst = max(worst, diff)
        for lo, hi in excl:
            n_windowed += 1
            widest = max(widest, (hi - lo, i, lo, hi))
    detail = f"{cases} configurations agree, worst |dE| = {worst:.3g}; "
    detail += f"{n_windowed} compared outside a window"
    if n_windowed:
        detail += ", widest ({2:.6g}, {3:.6g}) at case {1}".format(*widest)
    return True, detail


def check_unit_determinant():
    rng = np.random.default_rng(DETERMINANT_SEED)
    worst = 0.0
    n = 0
    while n < DETERMINANT_SAMPLES:
        v = rng.uniform(-5, 5, size=3)
        l = rng.uniform(0.05, 4.0)
        e = rng.uniform(-0.999, 0.999)
        cfg = PotentialConfig(v[0], v[1], v[2])
        try:
            with np.errstate(over="ignore"):  # a cosh overflow is skipped below
                lam = connection_matrix(cfg, Geometry.centered(l), e)
        except PoleAtVa:
            continue
        if not np.isfinite(lam.det):
            continue
        # det - 1 cancels two O(cosh^2) terms in the evanescent region, so the
        # error must be measured against their size
        scale = max(1.0, lam.l11 * lam.l11, abs(lam.l12 * lam.l21))
        worst = max(worst, abs(lam.det - 1.0) / scale)
        n += 1
    return (
        worst < DETERMINANT_TOL,
        f"max |det - 1| (scaled) = {worst:.3g} over {DETERMINANT_SAMPLES} samples",
    )


def _solved_examples():
    """A few configurations with known nonempty spectra for function checks."""
    cases = [
        (PotentialConfig(3.0, 3.0, 3.0), Geometry.centered(0.5)),
        (PotentialConfig(0.0, 10.0, 0.0), Geometry.centered(2.0)),
        (PotentialConfig(-2.0, 1.5, 1.0), Geometry.centered(1.5)),
        (PotentialConfig(1.0, -2.0, -4.0), Geometry(0.3, 1.8)),
    ]
    out = []
    for cfg, geom in cases:
        sols = [
            s
            for s in find_bound_states(cfg, geom)
            if abs(s.energy - cfg.va) > 0.05 and abs(s.energy) > 0.05
        ]
        for s in sols[:3]:
            out.append((cfg, geom, s))
    return out


def check_parity_symmetry():
    worst = 0.0
    for cfg, geom, sol in _solved_examples():
        # grid exactly antisymmetric about the midpoint: index i mirrors n-1-i
        u = np.linspace(geom.l / 240.0, 1.5 * geom.l, 120)
        t = np.concatenate([-u[::-1], [0.0], u])
        wf = eigenfunction(sol, cfg, geom, geom.a + t, normalize="psi2_max")
        # psi2 even for "+" and odd for "-"; psi1 and psi3 the other way round
        sign = 1.0 if sol.parity == "+" else -1.0
        for psi, mirror_sign in ((wf.psi1, -sign), (wf.psi2, sign), (wf.psi3, -sign)):
            worst = max(worst, float(np.max(np.abs(psi - mirror_sign * psi[::-1]))))
    return worst < PARITY_TOL, f"max parity asymmetry = {worst:.3g}"


def check_current():
    worst = 0.0
    for cfg, geom, sol in _solved_examples():
        x = np.linspace(geom.x1 - geom.l, geom.x2 + geom.l, 101)
        wf = eigenfunction(sol, cfg, geom, x)
        worst = max(worst, float(np.max(np.abs(current(wf.psi1, wf.psi2, wf.psi3)))))
        bv = boundary_values(sol, cfg, geom)
        for side in ("x1", "x2"):
            worst = max(worst, abs(current(*bv[side + "-"]) - current(*bv[side + "+"])))
    return worst < CURRENT_TOL, f"max |j| = {worst:.3g}"


def check_discontinuities():
    worst = 0.0
    for cfg, geom, sol in _solved_examples():
        try:
            d1, d2 = discontinuities(sol, cfg, geom)
        except boundstates.MuPole:
            continue
        bv = boundary_values(sol, cfg, geom)
        for j in (0, 2):  # psi1 and psi3 jump identically
            worst = max(worst, abs((bv["x1-"][j] - bv["x1+"][j]) - d1))
            worst = max(worst, abs((bv["x2-"][j] - bv["x2+"][j]) - d2))
    return worst < JUMP_TOL, f"max |closed-form jump - sampled jump| = {worst:.3g}"


def check_outer_continuity():
    """v11 = v33 = 0 makes psi1 and psi3 continuous at both edges."""
    worst = 0.0
    for v22, l in ((10.0, 2.0), (-6.0, 1.3)):
        cfg = PotentialConfig(0.0, v22, 0.0)
        geom = Geometry.centered(l)
        isolated = [s for s in find_bound_states(cfg, geom) if abs(s.energy) > 0.1]
        for sol in isolated[:4]:
            bv = boundary_values(sol, cfg, geom)
            for j in (0, 2):
                worst = max(worst, abs(bv["x1-"][j] - bv["x1+"][j]))
                worst = max(worst, abs(bv["x2-"][j] - bv["x2+"][j]))
    return worst < OUTER_JUMP_TOL, f"max outer-component jump = {worst:.3g}"


def check_type_three_squeeze():
    """The pure-v11 potential keeps no level away from the thresholds as l -> 0."""
    pencil = PencilSpec("P1", 1.0, 0.0, 0.0)
    law = SqueezeLaw("delta", 2.0)
    if pointlimits.limit_energy(pencil, law, n=0, parity="+") is not None:
        return False, "limit energy unexpectedly exists"
    margins = []
    for l in (1e-2, 1e-3):
        cfg = pencil.config(law.v_of_l(l))
        sols = find_bound_states(cfg, Geometry.centered(l))
        margins.append(max((1.0 - abs(s.energy) for s in sols), default=0.0))
    ok = margins[1] < max(margins[0], 1e-8) and margins[1] < 1e-4
    return ok, f"threshold margins {margins[0]:.3g} -> {margins[1]:.3g}"


def checks(seed=42, cases=20):
    """Every verification check as (name, zero-argument callable), in run order."""
    return [
        ("unit_determinant", check_unit_determinant),
        ("parity_symmetry", check_parity_symmetry),
        ("zero_current", check_current),
        ("discontinuity_closed_form", check_discontinuities),
        ("outer_continuity_v11_v33_zero", check_outer_continuity),
        ("type_three_squeeze_empty", check_type_three_squeeze),
        ("oracle_agreement", lambda: check_oracle_agreement(seed=seed, cases=cases)),
    ]


def run_check(fn):
    """(ok, detail) of one check; a crash is a failure, not an abort."""
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return bool(ok), detail


def run_all(seed=42, cases=20):
    """Run every verification check; returns list of (name, ok, detail)."""
    return [(name, *run_check(fn)) for name, fn in checks(seed, cases)]
