"""Independent bound-state verification by direct ODE integration.

Eliminating psi1 and psi3 through the algebraic constraint
(E - v1) psi1 = -(E - v3) psi3 leaves the exact first-order pair

    u' = sqrt(2) (E - v2) v,
    v' = -sqrt(2) (E - v1)(E - v3) u / (2E - v1 - v3),

for u = psi1 - psi3 and v = psi2.  The three-component system itself is not
canonical (the derivative matrix is singular), which is why the reduction, not
the raw system, is integrated.  A bound state decays on both sides, so the
state launched along the left decaying ray (u, v) ~ (2E/kappa, sqrt(2)) at x1
must arrive at x2 parallel to the right ray (2E/kappa, -sqrt(2)); the signed
cross product of the arrival state with that ray is the shooting mismatch.

Integration is fixed-step RK4, deliberately ignorant of the closed-form
trigonometry used by the main solver.  The interior coefficients are constant,
so every step applies the same 2x2 matrix and the n_steps-step iterate is
formed by binary powering of that matrix (`_rk4`): the same iterate as
stepping, in O(log n_steps) array operations per energy batch, with no
trigonometry, matrix exponential or eigen-decomposition.  Fixed steps are
adequate as long as |k| h stays small; callers probing large wave numbers
should raise n_steps, and the work grows only as log n_steps.
"""

from __future__ import annotations

import numpy as np

from . import rootfind
from .boundstates import VA_WINDOW, scan_segments
from .model import REDUCE_RTOL, Geometry, PotentialConfig, SPole, kappa

ORACLE_XTOL = 1e-10  # bisection tolerance relative to m


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
    kap = kappa(e, cfg.m)
    u = 2.0 * e / kap
    v = np.full_like(np.asarray(e, dtype=float), np.sqrt(2.0))
    norm = np.hypot(u, v)
    return u / norm, v / norm


def _mismatch_batch(cfg: PotentialConfig, geom: Geometry, e: np.ndarray, n_steps: int):
    """Full-interval shooting mismatch on an array of energies."""
    e = np.asarray(e, dtype=float)
    u, v = _left_ray(cfg, e)
    u, v = _rk4(cfg, e, u, v, geom.l, n_steps)
    kap = kappa(e, cfg.m)
    ru, rv = 2.0 * e / kap, -np.sqrt(2.0)
    return (u * rv - v * ru) / np.hypot(u, v) / np.hypot(ru, rv)


def _parity_mismatch_batch(cfg: PotentialConfig, geom: Geometry, e: np.ndarray, n_steps: int):
    """Midpoint parity mismatches (u(a), v(a)) from the left decaying ray.

    The rectangle is reflection symmetric about its midpoint a, so every
    bound state has u = psi1 - psi3 odd and psi2 even (u(a) = 0) or the other
    way around (v(a) = 0).  Tracking the two families separately keeps their
    zeros simple even when an even/odd doublet is exponentially split, which
    the product mismatch cannot resolve on any fixed grid.
    """
    e = np.asarray(e, dtype=float)
    u, v = _left_ray(cfg, e)
    u, v = _rk4(cfg, e, u, v, 0.5 * geom.l, max(1, n_steps // 2))
    norm = np.hypot(u, v)
    return u / norm, v / norm


def shoot(cfg: PotentialConfig, geom: Geometry, e: float, n_steps: int = 2000) -> float:
    """Shooting mismatch at one energy; zero marks a bound state."""
    m = cfg.m
    if not 0 < abs(e) < m:
        raise ValueError(f"E = {e} not inside the open gap minus 0")
    if abs(2.0 * e - cfg.v1 - cfg.v3) < 1e-12 * cfg.scale():
        raise SPole("constraint split singular: 2E = v1 + v3")
    return float(_mismatch_batch(cfg, geom, np.asarray([e]), n_steps)[0])


def oracle_bound_states(
    cfg: PotentialConfig,
    geom: Geometry,
    n_grid: int = 4000,
    n_steps: int = 2000,
    extra_exclusions=(),
) -> list[float]:
    """Grid-scan shooting mismatches over the gap and bisect every sign change.

    The scan runs on the two midpoint parity mismatches rather than the
    full-interval product, so exponentially split even/odd doublets are still
    two simple zeros.  Exclusion windows around E = 0 and the constraint pole
    at E = va mirror the main solver's so both enumerate the same domain.
    """
    m = cfg.m
    grids = rootfind.segment_grids(scan_segments(cfg, extra_exclusions), n_grid)
    if not grids:
        return []

    def both(x):  # the u(a) and v(a) mismatches
        return _parity_mismatch_batch(cfg, geom, np.asarray(x, dtype=float), n_steps)

    xs = np.concatenate(grids)
    lengths = [g.size for g in grids]
    brackets = [rootfind.sign_change_brackets(xs, fs, lengths) for fs in both(xs)]
    refined = rootfind.refine_brackets(
        both, brackets[0] + brackets[1], xtol=ORACLE_XTOL * m, families=[len(b) for b in brackets]
    )
    out = []
    # deduplicated per parity: an exponentially split doublet can sit closer
    # than the dedup tolerance
    for roots, fr in refined:
        roots, _ = rootfind.dedup_sorted(roots, fr, tol=5.0 * ORACLE_XTOL * m)
        out.extend(float(r) for r in roots)
    return sorted(out)


def resolvable_va_window(
    cfg: PotentialConfig, geom: Geometry, n_steps: int = 2000, n_grid: int = 4000
) -> float:
    """Half-width around va inside which neither solver resolves levels.

    When va lies in the gap (off the plane v2 = va), k^2 ~ F(va)/(E - va)
    diverges and genuine levels accumulate at va without bound.  Fixed-step
    RK4 loses phase accuracy once |k| h grows, and any finite grid stops
    separating the accumulating roots, so count comparisons are meaningful
    only outside a configuration-dependent window.  Returns 0.0 when there is
    no in-gap accumulation point.
    """
    m = cfg.m
    if cfg.on_plane_a(REDUCE_RTOL) or not abs(cfg.va) < m:
        return 0.0
    f_va = abs((cfg.va - cfg.v1) * (cfg.va - cfg.v2) * (cfg.va - cfg.v3))
    if f_va == 0:
        return 0.0
    # RK4 phase accuracy: keep |k| h below ~0.2
    k_cap = 0.2 * n_steps / geom.l
    d_rk4 = f_va / k_cap**2
    # grid resolvability: consecutive-root spacing ~ 4 pi d^{3/2} / (l sqrt(F))
    de = 2.0 * m / n_grid
    d_grid = (4.0 * de * geom.l * np.sqrt(f_va) / np.pi) ** (2.0 / 3.0)
    return float(2.0 * max(d_rk4, d_grid, VA_WINDOW * m))
