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
stepping, in O(log n_steps) array operations per energy batch.  The step is
divided once by its spectral radius, a positive scale that moves no zero, so
every power keeps a norm between fixed bounds and nothing overflows or
underflows at any n_steps; the powering itself divides by nothing.  The
radius comes from the step's own coefficients, so the oracle still uses no
trigonometry, matrix exponential or eigen-decomposition.  Fixed steps are
adequate as long as |k| h stays small; callers probing large wave numbers
should raise n_steps, and the work grows only as log n_steps.  The module only
integrates and scans; verify.comparison_domain decides where it is compared.
"""

from __future__ import annotations

import numpy as np

from . import rootfind
from .boundstates import N_GRID, scan_segments
from .model import SQRT2, Geometry, PotentialConfig, kappa

ORACLE_XTOL = 1e-10  # bisection tolerance
N_STEPS = 2000  # RK4 steps of the solver-versus-oracle comparison


def _rk4(cfg: PotentialConfig, e: np.ndarray, u, v, span: float, n_steps: int):
    """n_steps fixed RK4 steps of u' = cu v, v' = cv u over `span`, up to a
    positive factor (which cannot move a zero of any mismatch).

    With M = h [[0, cu], [cv, 0]] one step is S = I + M + M^2/2 + M^3/6 + M^4/24,
    and M^2 = c I with c = h^2 cu cv, so S = p I + q M exactly.  Products of
    such matrices stay of that form, (p1, q1)(p2, q2) = (p1 p2 + c q1 q2,
    p1 q2 + q1 p2), so S^n_steps = P I + Q M follows by binary powering in
    O(log n_steps) array operations.

    The one-step pair is divided once by the spectral radius rho of S.
    Where c >= 0 both eigenvalues p +- q sqrt(c) are positive (the degree-4
    Taylor polynomial of exp has no real zero), so rho = p + q sqrt(c), and
    the powers of S / rho have eigenvalues 1 and r^n with 0 < r <= 1, so
    |P| + |Q| sqrt(c) = 1.  Where c < 0 the eigenvalues are a conjugate pair
    of modulus rho = hypot(p, q sqrt(-c)) (hypot, because p^2 overflows
    first), so P and Q sqrt(-c) are the cosine and sine of one angle and
    1 <= |P| + |Q| sqrt(-c) <= sqrt(2).  Every power stays within those
    bounds whatever n_steps, so the loop divides by nothing and cannot
    overflow or underflow.  A smaller normalizer, such as |p| + |q| sqrt|c|
    applied once, would leave the oscillatory powers decaying geometrically
    until they underflow at large n_steps.  rho is a positive scale computed
    from p, q and c, and the iterate is still the product of n_steps RK4
    steps: no trigonometry, matrix exponential or eigen-decomposition.
    """
    cu = SQRT2 * (e - cfg.v2)
    denom = 2.0 * e - cfg.v1 - cfg.v3
    cv = -SQRT2 * (e - cfg.v1) * (e - cfg.v3) / denom
    h = span / n_steps
    c = h * h * cu * cv
    p, q = 1.0 + c / 2.0 + c * c / 24.0, 1.0 + c / 6.0
    root_c = np.sqrt(np.abs(c))
    rho = np.where(c >= 0.0, p + q * root_c, np.hypot(p, q * root_c))
    bp, bq = p / rho, q / rho
    pp = None
    n = n_steps
    while True:
        if n & 1:
            pp, pq = (bp, bq) if pp is None else (pp * bp + c * pq * bq, pp * bq + pq * bp)
        n >>= 1
        if not n:
            break
        bp, bq = bp * bp + c * bq * bq, 2.0 * bp * bq
    return pp * u + pq * h * cu * v, pp * v + pq * h * cv * u


def _left_ray(e: np.ndarray):
    """(u, v) along the left decaying ray, up to a positive factor."""
    return 2.0 * e / kappa(e), np.full_like(e, SQRT2)


def _parity_mismatches(cfg: PotentialConfig, geom: Geometry, e: np.ndarray, n_steps: int):
    """Normalized midpoint parity mismatches (u(a), v(a)) from the left
    decaying ray.

    Tracking the two families separately keeps their zeros simple even when
    an even/odd doublet is exponentially split, which a single full-interval
    mismatch cannot resolve on any fixed grid.
    """
    e = np.asarray(e, dtype=float)
    u, v = _left_ray(e)
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
    The brackets and their end mismatches go from the scan to
    rootfind.refine_brackets as one record, so no end is integrated twice.

    Each parity is scanned on its own, so an exponentially split even/odd
    doublet is one simple zero in each family.  Exclusion windows around
    E = 0 and the constraint pole at E = va mirror the main solver's so both
    enumerate the same domain.
    """
    segments = scan_segments(cfg, extra_exclusions)
    if not segments:
        return []

    def both(x):  # the u(a) and v(a) mismatches
        return _parity_mismatches(cfg, geom, np.asarray(x, dtype=float), n_steps)

    xs, lengths = rootfind.segment_grids(segments, N_GRID)
    brackets, f_ends = zip(*(rootfind.sign_change_brackets(xs, fs, lengths) for fs in both(xs)))
    refined = rootfind.refine_brackets(
        both,
        np.concatenate(brackets),
        xtol=ORACLE_XTOL,
        families=[len(b) for b in brackets],
        f_ends=np.concatenate(f_ends, axis=1),
    )
    return sorted(float(r) for roots, _ in refined for r in roots)
