"""Independent bound-state verification by direct ODE integration.

Eliminating psi1 and psi3 through the algebraic constraint
(E - v1) psi1 = -(E - v3) psi3 leaves the exact first-order pair

    u' = sqrt(2) (E - v2) v,
    v' = -sqrt(2) (E - v1)(E - v3) u / (2E - v1 - v3),

for u = psi1 - psi3 and v = psi2.  The three-component system itself is not
canonical (the derivative matrix is singular), which is why the reduction, not
the raw system, is integrated.  The rectangle is reflection symmetric about
its midpoint a, so a bound state is even or odd about it.  The state launched
along the left decaying ray (u, v) ~ (2E/kappa, sqrt(2)) at x1 and carried to
a therefore arrives with u(a) = 0 (psi2 even, the E+ family) or v(a) = 0
(psi2 odd, the E- family).  These two normalized midpoint values are the
parity mismatches; the oracle scans each for sign changes on its own.

Integration is fixed-step RK4, deliberately ignorant of the closed-form
trigonometry used by the main solver.  The interior coefficients are constant,
so every step applies the same 2x2 matrix and the n_steps-step iterate is
formed by binary powering of that matrix (`_rk4`): the same iterate as
stepping, in O(log n_steps) array operations per energy batch, with no
trigonometry, matrix exponential or eigen-decomposition.  Fixed steps are
adequate as long as |k| h stays small; callers probing large wave numbers
should raise n_steps, and the work grows only as log n_steps.  The module only
integrates and scans; verify.comparison_domain decides where it is compared.
"""

from __future__ import annotations

import numpy as np

from . import rootfind
from .boundstates import N_GRID, scan_segments
from .model import Geometry, PotentialConfig, kappa

ORACLE_XTOL = 1e-10  # bisection tolerance
N_STEPS = 2000  # RK4 steps of the solver-versus-oracle comparison


def _rk4(cfg: PotentialConfig, e: np.ndarray, u, v, span: float, n_steps: int):
    """n_steps fixed RK4 steps of u' = cu v, v' = cv u over `span`, up to a
    positive factor (which cannot move a zero of any mismatch).

    With M = h [[0, cu], [cv, 0]] one step is S = I + M + M^2/2 + M^3/6 + M^4/24,
    and M^2 = c I with c = h^2 cu cv, so S = p I + q M exactly.  Products of
    such matrices stay of that form, (p1, q1)(p2, q2) = (p1 p2 + c q1 q2,
    p1 q2 + q1 p2), so S^n_steps = P I + Q M follows by binary powering in
    O(log n_steps) array operations.  Every factor is divided by
    |p| + |q| sqrt|c|, positive because S and its powers are never singular,
    which keeps the evanescent growth finite.
    """
    cu = np.sqrt(2.0) * (e - cfg.v2)
    denom = 2.0 * e - cfg.v1 - cfg.v3
    cv = -np.sqrt(2.0) * (e - cfg.v1) * (e - cfg.v3) / denom
    h = span / n_steps
    c = h * h * cu * cv
    root_c = np.sqrt(np.abs(c))

    def scaled(p, q):
        s = np.abs(p) + np.abs(q) * root_c
        return p / s, q / s

    bp, bq = scaled(1.0 + c / 2.0 + c * c / 24.0, 1.0 + c / 6.0)
    pp, pq = np.ones_like(c), np.zeros_like(c)
    n = n_steps
    while n:
        if n & 1:
            pp, pq = scaled(pp * bp + c * pq * bq, pp * bq + pq * bp)
        bp, bq = scaled(bp * bp + c * bq * bq, 2.0 * bp * bq)
        n >>= 1
    return pp * u + pq * h * cu * v, pp * v + pq * h * cv * u


def _left_ray(cfg: PotentialConfig, e: np.ndarray):
    kap = kappa(e)
    u = 2.0 * e / kap
    v = np.full_like(np.asarray(e, dtype=float), np.sqrt(2.0))
    norm = np.hypot(u, v)
    return u / norm, v / norm


def _parity_mismatches(cfg: PotentialConfig, geom: Geometry, e: np.ndarray, n_steps: int):
    """Normalized midpoint parity mismatches (u(a), v(a)) from the left
    decaying ray.

    Tracking the two families separately keeps their zeros simple even when
    an even/odd doublet is exponentially split, which a single full-interval
    mismatch cannot resolve on any fixed grid.
    """
    e = np.asarray(e, dtype=float)
    u, v = _left_ray(cfg, e)
    u, v = _rk4(cfg, e, u, v, 0.5 * geom.l, max(1, n_steps // 2))
    norm = np.hypot(u, v)
    return u / norm, v / norm


def oracle_bound_states(
    cfg: PotentialConfig,
    geom: Geometry,
    *,
    n_steps: int = N_STEPS,
    extra_exclusions=(),
) -> list[float]:
    """Grid-scan the midpoint parity mismatches u(a) and v(a) over the gap
    and bisect every sign change of each, on the solver's N_GRID points.

    Each parity is scanned on its own, so an exponentially split even/odd
    doublet is one simple zero in each family.  Exclusion windows around
    E = 0 and the constraint pole at E = va mirror the main solver's so both
    enumerate the same domain.
    """
    grids = rootfind.segment_grids(scan_segments(cfg, extra_exclusions), N_GRID)
    if not grids:
        return []

    def both(x):  # the u(a) and v(a) mismatches
        return _parity_mismatches(cfg, geom, np.asarray(x, dtype=float), n_steps)

    xs = np.concatenate(grids)
    lengths = [g.size for g in grids]
    brackets = [rootfind.sign_change_brackets(xs, fs, lengths) for fs in both(xs)]
    refined = rootfind.refine_brackets(
        both, brackets[0] + brackets[1], xtol=ORACLE_XTOL, families=[len(b) for b in brackets]
    )
    return sorted(float(r) for roots, _ in refined for r in roots)
