"""Bound states of the rectangular three-component potential.

Inside the rectangle the wave function reduces to the pair u = psi1 - psi3,
v = psi2 (the third component is fixed by an algebraic constraint), and the
2x2 connection matrix linking (u, v) at the two edges is

    Lambda = [[c(k2, l),            sqrt(2)(E - v2) s(k2, l)],
              [-W(E) s(k2, l)/sqrt(2),          c(k2, l)    ]],

with W = (E - v1)(E - v3)/(E - va) = k^2/(E - v2) and the continued (s, c)
kernels, so the same expression covers real and imaginary wave numbers and
det Lambda = c^2 + k^2 s^2 = 1 exactly.

Bound-state energies split into two families: E+ states, where psi2 is even
about the midpoint, solve kappa (1 - v2/E) s(k2, l/2) + c(k2, l/2) = 0, and
E- states (psi2 odd) solve kappa (1 - v2/E) c(k2, l/2) - k^2 s(k2, l/2) = 0.
The solver scans pole-free rescalings of these residuals: multiplying by E
removes the 1/E factor, dividing the minus residual by (E - v2) removes a
structural zero it inherits from k^2 (which always vanishes at E = v2 off the
plane v2 = va), and dividing by cosh in the imaginary-k region bounds the
magnitude without moving any zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import rootfind
from .model import (
    SQRT2,
    K2_OF_PLANE,
    POLE_RTOL,
    W_OF_PLANE,
    GapEdge,
    Geometry,
    MuPole,
    OutOfDomainSolution,
    PoleAtVa,
    PotentialConfig,
    ZeroEnergyPole,
    dispersion,
    k_squared,
    kappa,
    plane_of,
    rho,
    sc_bounded,
    sc_kernels,
)

# Scan-window half-widths around the residual poles at E = 0 and E = va, and
# the margin kept from the gap edges +-1 where kappa -> 0.
ZERO_WINDOW = 1e-7
VA_WINDOW = 1e-7
EDGE_MARGIN = 1e-9
# Bisection convergence for bound-state energies, and the default number of
# scan points over the gap.
ROOT_XTOL = 1e-12
N_GRID = 4000


@dataclass(frozen=True)
class ConnectionMatrix:
    """2x2 real matrix linking (psi1 - psi3, psi2) at the two edges."""

    l11: float
    l12: float
    l21: float
    l22: float

    @property
    def det(self) -> float:
        return self.l11 * self.l22 - self.l12 * self.l21


@dataclass(frozen=True)
class Levels:
    """Bound-state levels as 1-D arrays of one length, sorted by configuration,
    then energy: energy, parity ("+": psi2 even about the midpoint, "-": odd),
    kappa, rho, k2, the residual at the root, and config, the index of the
    level's configuration (its V index in a sweep, 0 in a single solve).
    levels[i] is one level, with numpy scalar fields (float64 is a float, str_
    a str), as eigenfunction takes it; a slice or boolean mask gives a sub-record.
    """

    energy: np.ndarray
    parity: np.ndarray
    kappa: np.ndarray
    rho: np.ndarray
    k2: np.ndarray
    residual: np.ndarray
    config: np.ndarray

    def __len__(self):
        return self.energy.size

    def __getitem__(self, key):
        return Levels(*(getattr(self, f.name)[key] for f in fields(Levels)))

    def __eq__(self, other):
        # every field equal as a whole array (a generated __eq__ would compare
        # tuples of arrays, which numpy refuses a truth value)
        if not isinstance(other, Levels):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(Levels)
        )


@dataclass(frozen=True)
class WaveFunction:
    """(psi1, psi2, psi3) sampled on the grid x: 1-D float arrays of one length."""

    x: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray


def connection_matrix(cfg: PotentialConfig, geom: Geometry, e: float) -> ConnectionMatrix:
    """Connection matrix of the rectangle at energy E (any real E off the pole)."""
    plane, k2_of, w_of = dispersion(cfg)
    # W has its pole at va off the plane v2 = va; on it the guard sits at v2
    pole = cfg.va if plane == "generic" else cfg.v2
    tol = POLE_RTOL * max(1.0, abs(pole))
    if abs(e - pole) < tol:
        raise PoleAtVa(f"connection matrix singular at E = {pole}")
    k2 = k2_of(e)
    s, c = sc_kernels(k2, geom.l)
    w = w_of(e)
    return ConnectionMatrix(
        l11=float(c),
        l12=float(SQRT2 * (e - cfg.v2) * s),
        l21=float(-w * s / SQRT2),
        l22=float(c),
    )


def general_bound_condition(lam: ConnectionMatrix, e: float) -> float:
    """Left side of l11 + l22 + (kappa/sqrt(2)E) l12 + (sqrt(2)E/kappa) l21.

    A zero crossing marks a bound state for any interior profile described by
    the connection matrix, not just the rectangle.
    """
    if abs(e) >= 1.0:
        raise GapEdge(f"E = {e} outside the open gap")
    kap = kappa(e)
    if kap < 1e-12:
        raise GapEdge("kappa below tolerance at the gap edge")
    if abs(e) < 1e-12:
        raise ZeroEnergyPole("general bound condition has a 1/E term")
    return float(lam.l11 + lam.l22 + kap / (SQRT2 * e) * lam.l12 + SQRT2 * e / kap * lam.l21)


def split_residuals(cfg: PotentialConfig, geom: Geometry, e: float):
    """The two split residuals (r_plus, r_minus) at energy E.

    r_plus = kappa (1 - v2/E) s(k2, l/2) + c(k2, l/2)
    r_minus = kappa (1 - v2/E) c(k2, l/2) - k2 s(k2, l/2)

    Zeros of r_plus are the E+ levels, zeros of r_minus the E- levels (plus a
    structural zero of r_minus at E = v2 whenever k^2 vanishes there).
    """
    if abs(e) < 1e-12:
        raise ZeroEnergyPole("split residuals carry a 1/E factor")
    k2 = k_squared(cfg, e)  # raises PoleAtVa off the plane
    s2, c2 = sc_kernels(k2, 0.5 * geom.l)
    kap = kappa(e)
    fac = kap * (1.0 - cfg.v2 / e)
    return float(fac * s2 + c2), float(fac * c2 - k2 * s2)


def _form(cfg: PotentialConfig):
    """The scan residual form of cfg: (plane, v2 = 0), six forms in all."""
    return plane_of(cfg), bool(abs(cfg.v2) <= 1e-14 * cfg.scale())


def _residuals(e, half, v1, v2, v3, va, plane, v2_zero):
    """(plus, minus) scan residuals of one form; strengths scalar or per E."""
    k2 = K2_OF_PLANE[plane](e, v1, v2, v3, va)
    kap = kappa(e)
    # (s, c) = (s2, c2) where k2 >= 0; where k2 < 0 both are divided by
    # c2 = cosh >= 1, so (s, c) = (tanh ratio, 1).  sc_bounded runs every
    # branch on every E with no mask, and none can warn: cosh never runs
    s, c = sc_bounded(k2, half)
    # plus family: E * r_plus, or r_plus itself when v2 == 0
    fac = kap if v2_zero else kap * (e - v2)
    lead = 1.0 if v2_zero else e
    rp = fac * s + lead * c
    # minus family: E * r_minus on plane A, where k^2 keeps no zero at v2;
    # elsewhere E * r_minus/(E - v2) = kap c - E W s, or r_minus itself off
    # the planes when v2 == 0
    if plane == "A":
        rm = kap * (e - v2) * c - e * k2 * s
    elif plane == "generic" and v2_zero:
        rm = kap * c - k2 * s
    else:
        rm = kap * c - e * W_OF_PLANE[plane](e, v1, v2, v3, va) * s
    return rp, rm


class _ScanResiduals:
    """Pole-free, overflow-safe scan residuals of configurations of one form.

    both(E) returns (plus, minus): plus has the zeros of the E+ family, minus
    those of the E- family.  Both are smooth on the gap minus the va pole
    (off-plane) and bounded in the imaginary-k region.  The configurations
    share l and the residual form (_form: plane and v2 = 0), so every call
    is one unmasked evaluation of that form.  at(i) holds the strengths of
    configuration i; at(idx) with an index array holds one configuration per
    abscissa, so one call scores E values of many configurations, each with
    the floats its own call returns.
    """

    def __init__(self, half: float, v, form):
        self.half, self.v, self.form = half, v, form
        # the call's arguments, built once: v holds rows v1, v2, v3, va with
        # one column per configuration (or per abscissa)
        self.args = (half, *v, *form)

    @classmethod
    def of(cls, cfgs, geom: Geometry):
        forms = {_form(cfg) for cfg in cfgs}
        if len(forms) != 1:
            raise ValueError(f"configurations of one block must share one form, got {forms}")
        v = np.array([(cfg.v1, cfg.v2, cfg.v3, cfg.va) for cfg in cfgs]).T
        return cls(0.5 * geom.l, v, forms.pop())

    def at(self, idx):
        return _ScanResiduals(self.half, self.v[:, idx], self.form)

    def both(self, e):
        return _residuals(np.asarray(e, dtype=float), *self.args)

    def k2(self, e):
        return K2_OF_PLANE[self.form[0]](np.asarray(e, dtype=float), *self.v)


def scan_segments(cfg: PotentialConfig, extra_exclusions=()):
    """The gap minus the guard windows and extra_exclusions, as (lo, hi) segments.

    The guard windows surround the residual poles at E = 0 and E = va (when
    va is in the gap); the gap edges +-1 are kept EDGE_MARGIN away.
    """
    lo, hi = -1.0 + EDGE_MARGIN, 1.0 - EDGE_MARGIN
    windows = [(-ZERO_WINDOW, ZERO_WINDOW)]
    if abs(cfg.va) < 1.0:
        windows.append((cfg.va - VA_WINDOW, cfg.va + VA_WINDOW))
    windows.extend(extra_exclusions)
    return rootfind.subtract_windows(lo, hi, windows)


def _scan_brackets(both, segments, n_grid):
    """Sign-change brackets of both parities in two residual calls.

    The first call scans the segment grids.  The second covers every
    sign-change cell split into 4 equal parts (5 points), which separates
    close root pairs, and log-spaced ladders at both ends of every segment,
    which recover roots crowding the window and gap edges (three decades
    below the cell size).  Returns one (brackets, f_ends) record per parity,
    as rootfind.sign_change_brackets returns it from the second call: the
    end residuals are the ones refine_brackets takes.
    """
    if not segments:
        return [(np.empty((0, 2)), np.empty((2, 0)))] * 2
    x, lengths = rootfind.segment_grids(segments, n_grid)
    # one ladder row per segment edge, lower edge first: the rungs inside the
    # segment and the grid point next to the edge, ascending; a rung outside
    # is NaN, which sorts last and is then dropped
    seg = np.array(segments)
    slo, shi = np.repeat(seg, 2, axis=0).T[..., None]
    edge, inward = seg.ravel(), np.tile([1.0, -1.0], len(seg))
    h = np.repeat((seg[:, 1] - seg[:, 0]) / (lengths - 1), 2)
    lad = rootfind.edge_ladder(edge, inward, h)
    lad = np.where((lad > slo) & (lad < shi), lad, np.nan)
    lad = np.sort(np.column_stack([lad, edge + inward * h]), axis=1)
    rungs = ~np.isnan(lad)
    ladder_x, ladder_lengths = lad[rungs], rungs.sum(axis=1)
    cells = [rootfind.sign_change_brackets(x, f, lengths)[0] for f in both(x)]
    subs = [np.linspace(c[:, 0], c[:, 1], 5, axis=-1).ravel() for c in cells]
    # layout: the "+" cells, the "-" cells, then the ladders both parities scan
    n_subs = subs[0].size + subs[1].size
    start = 0
    out = []
    for sub, f in zip(subs, both(np.concatenate(subs + [ladder_x]))):
        fs = np.concatenate([f[start : start + sub.size], f[n_subs:]])
        start += sub.size
        rows = np.concatenate([np.full(sub.size // 5, 5), ladder_lengths])
        out.append(rootfind.sign_change_brackets(np.concatenate([sub, ladder_x]), fs, rows))
    return out


# Configurations (V points of a sweep) whose brackets go through one
# refine_brackets pass.  Refining a few hundred brackets or more costs about
# 30 residual calls, one per bisection level (rootfind.POINTS_PER_CALL); one
# fig6 V point gives those calls ~300 abscissas at most, so numpy's per-call
# overhead dominates, while a block of 16 gives them ~4.5k.  On the 120 V points of the benchmark's fig6 sweep (2-core VM,
# numpy 2.4) the refine-stage residual took 0.53 s a V point at a time, and
# 0.136, 0.109, 0.114 and 0.155 s in blocks of 8, 16, 32 and 120; one call
# allocates at most 0.5 MiB in a block of 16 and 2.7 MiB in one of 120.  The
# scans stay per configuration: they already hold ~4,000 points per call.
BLOCK_SIZE = 16


def _solve_block(cfgs, geom: Geometry, n_grid: int, extra_exclusions=(), first: int = 0):
    """The Levels of the configurations cfgs, numbered from first, refined in one pass.

    Every configuration is scanned on its own; the brackets of all
    (configuration, parity) families are then refined together, each family
    with its own bisection count, so each configuration gets the floats of a
    solve on its own.
    """
    res = _ScanResiduals.of(cfgs, geom)
    scans = [
        scan
        for i, cfg in enumerate(cfgs)
        for scan in _scan_brackets(res.at(i).both, scan_segments(cfg, extra_exclusions), n_grid)
    ]
    brackets, f_ends = zip(*scans)
    sizes = [len(b) for b in brackets]
    # family 2 i holds the "+" brackets of configuration i, family 2 i + 1 the "-"
    family = np.arange(2 * len(cfgs))
    refined = rootfind.refine_brackets(
        res.at(np.repeat(family // 2, sizes)).both,
        np.concatenate(brackets),
        xtol=ROOT_XTOL,
        families=sizes,
        pick=np.repeat(family % 2, sizes),
        f_ends=np.concatenate(f_ends, axis=1),
    )
    kept = [rootfind.dedup_sorted(r, fr, tol=5.0 * ROOT_XTOL) for r, fr in refined]
    family = np.repeat(family, [r.size for r, _ in kept])
    roots, fr = (np.concatenate(c) for c in zip(*kept))
    # by configuration, then energy: a stable sort, so "+" comes first on a
    # tie; then the roots inside the gap margins
    order = np.lexsort((roots, family // 2))
    lo, hi = -1.0 + EDGE_MARGIN, 1.0 - EDGE_MARGIN
    order = order[(lo < roots[order]) & (roots[order] < hi)]
    e, (config, p) = roots[order], np.divmod(family[order], 2)
    parity, k2 = np.array(["+", "-"])[p], res.at(config).k2(e)
    return Levels(e, parity, kappa(e), rho(e), k2, np.abs(fr[order]), config + first)


def find_bound_states(
    cfg: PotentialConfig,
    geom: Geometry,
    n_grid: int = N_GRID,
    extra_exclusions=(),
) -> Levels:
    """All bound-state levels in the gap as one Levels record, sorted by energy.

    Scans the gap minus guard windows around E = 0, E = va and the edges,
    brackets sign changes of the two family residuals on an adaptively refined
    grid, converges each bracket by bisection plus secant polish to
    |dE| < 1e-12, deduplicates and tags each root with its parity.  Both
    parities share every residual call, so a solve costs a bounded number of
    calls whatever the number of levels: two scans, then about 5 to 29
    refinement calls, the fewer the fewer brackets (rootfind.POINTS_PER_CALL).
    extra_exclusions is a list of (lo, hi) intervals left out of the scan
    (used by cross-validation harnesses to equalize domains).

    The one-configuration case of the block solver behind
    find_bound_states_many, so both return the same floats; config is all 0.
    levels[i] is level i, and levels[levels.parity == "+"] the E+ sub-record.
    """
    return _solve_block([cfg], geom, n_grid, extra_exclusions)


def find_bound_states_many(cfgs, geom: Geometry, n_grid: int = N_GRID) -> Levels:
    """The levels of each configuration (sharing geom) as one Levels record.

    Level i belongs to configuration cfgs[config[i]], and each configuration's
    levels are the floats find_bound_states returns for it, in its order.
    Configurations are solved BLOCK_SIZE at a time: each is scanned on its
    own, and the brackets of a block, one family per (configuration,
    parity), are refined in one pass.  A block holds one residual form
    (_form), so blocks are cut where the form changes: each run of
    consecutive configurations of one form is split into blocks of
    BLOCK_SIZE.  Along a pencil the form changes only at isolated strengths
    (V = 0 on the fig4 to fig9 pencils), which then make blocks of their own.
    """
    blocks, start = [], 0
    for _, run in itertools.groupby(cfgs, key=_form):
        run = list(run)
        for lo in range(0, len(run), BLOCK_SIZE):
            blocks.append(_solve_block(run[lo : lo + BLOCK_SIZE], geom, n_grid, first=start + lo))
        start += len(run)
    return Levels(*(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(Levels)))


# --- eigenfunctions ----------------------------------------------------------


def _check_solution(sol: Levels, cfg: PotentialConfig, geom: Geometry):
    if np.ndim(sol.energy) != 0:
        raise ValueError(f"expected one level, levels[i], not {np.size(sol.energy)} levels")
    if not abs(sol.energy) < 1.0:
        raise OutOfDomainSolution(f"E = {sol.energy} outside the gap")
    # accept by the Newton step |r / r'| in energy units: the residual is steep
    # near va, where a level's residual can reach 1e-3, while a foreign
    # solution misses by about a level spacing.  r' is a central difference
    # well inside the distance to the nearest pole (0, and va off the planes)
    # or gap edge
    e, res = sol.energy, _ScanResiduals.of([cfg], geom).at(0)
    singular = (0.0, -1.0, 1.0, cfg.va) if res.form[0] == "generic" else (0.0, -1.0, 1.0)
    h = 1e-3 * min(abs(e - p) for p in singular)
    r, lo, hi = res.both(np.array([e, e - h, e + h]))["+-".index(sol.parity)]
    # multiplied out, so a zero slope rejects and divides by nothing
    if not abs(r) * 2.0 * h <= 1e-9 * max(1.0, abs(e)) * abs(hi - lo):
        raise OutOfDomainSolution(
            f"solution does not satisfy this configuration (residual {abs(r):g}, "
            f"slope {hi - lo:g} over 2h = {2.0 * h:g})"
        )


def _interior_uv(sol, cfg, geom, x):
    """Interior (u, v) = (psi1 - psi3, psi2) with unit amplitude convention."""
    e, k2 = sol.energy, sol.k2
    xi = x - geom.a
    s, c = sc_kernels(k2, xi)
    if sol.parity == "+":
        u = 2.0 * (e - cfg.v2) * s
        v = SQRT2 * c
    else:
        u = 2.0 * (e - cfg.v2) * c
        v = -SQRT2 * k2 * s
    return u, v


def _split_u(u, e, cfg):
    """Resolve psi1, psi3 from u via the algebraic constraint."""
    denom = 2.0 * (e - cfg.va)
    if abs(denom) < 1e-12 * cfg.scale():
        raise PoleAtVa("constraint split singular at E = va")
    return (e - cfg.v3) * u / denom, -(e - cfg.v1) * u / denom


def _exterior_amplitude(sol, geom):
    """Amplitude d of both decaying rays (_exterior_ray), unit internal amplitude."""
    s2, c2 = sc_kernels(sol.k2, 0.5 * geom.l)
    return c2 if sol.parity == "+" else sol.k2 * s2


# Signs of (psi1, psi2, psi3) on the decaying ray beyond the left edge, and
# beyond the right edge for even-psi2 ("+") and odd-psi2 ("-") states.
_RAY_SIGNS = {"left": (1.0, 1.0, 1.0), "+": (-1.0, 1.0, -1.0), "-": (1.0, -1.0, 1.0)}


def _exterior_ray(parity, kap, rho, d, dist, right):
    """(psi1, psi2, psi3) of the decaying ray at distance dist >= 0 beyond an edge.

    The ray is d (1/rho, sqrt(2), rho) e^{-kappa dist} with the signs of
    _RAY_SIGNS.  Every bound-state wave function has these tails; the point
    interaction's eigenfunction is the case of both edges at x = 0, d = 1.
    """
    s1, s2, s3 = _RAY_SIGNS[parity if right else "left"]
    env = d * np.exp(-kap * dist)
    return s1 * (1.0 / rho * env), s2 * (SQRT2 * env), s3 * (rho * env)


def eigenfunction(
    sol: Levels,
    cfg: PotentialConfig,
    geom: Geometry,
    x_grid,
    normalize: str = "psi2_max",
) -> WaveFunction:
    """The bound-state wave function sampled on x_grid.

    Interior points use the trigonometric form about the midpoint (continued
    kernels for imaginary k), exterior points the decaying rays
    (_exterior_ray).  normalize is one of two conventions: 'psi2_max' (max
    |psi2| over the grid equals 1) or 'raw' (unit internal amplitude, the
    convention shared with boundary_values() and discontinuities()).
    """
    _check_solution(sol, cfg, geom)
    e = sol.energy
    x = np.array(x_grid, dtype=float)
    d = _exterior_amplitude(sol, geom)

    psi1 = np.empty_like(x)
    psi2 = np.empty_like(x)
    psi3 = np.empty_like(x)

    left = x < geom.x1
    right = x > geom.x2
    inside = ~(left | right)
    if np.any(inside):
        u, v = _interior_uv(sol, cfg, geom, x[inside])
        p1, p3 = _split_u(u, e, cfg)
        psi1[inside], psi2[inside], psi3[inside] = p1, v, p3
    for side, dist, is_right in ((left, geom.x1 - x, False), (right, x - geom.x2, True)):
        psi1[side], psi2[side], psi3[side] = _exterior_ray(
            sol.parity, sol.kappa, sol.rho, d, dist[side], is_right
        )

    if normalize == "psi2_max":
        peak = np.max(np.abs(psi2))
        scale = 1.0 / peak if peak > 0 else 1.0
    elif normalize == "raw":
        scale = 1.0
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    return WaveFunction(x, psi1 * scale, psi2 * scale, psi3 * scale)


def boundary_values(sol: Levels, cfg: PotentialConfig, geom: Geometry):
    """One-sided (psi1, psi2, psi3) limits at both edges, unit amplitude.

    Returns a dict with keys 'x1-', 'x1+', 'x2-', 'x2+'.
    """
    _check_solution(sol, cfg, geom)
    e = float(sol.energy)  # Python floats out, as from the other edge
    d = _exterior_amplitude(sol, geom)
    out = {}
    for key, is_right in (("x1-", False), ("x2+", True)):
        ray = _exterior_ray(sol.parity, sol.kappa, sol.rho, d, 0.0, is_right)
        out[key] = tuple(float(p) for p in ray)
    for key, xx in (("x1+", geom.x1), ("x2-", geom.x2)):
        u, v = _interior_uv(sol, cfg, geom, np.asarray(xx))
        p1, p3 = _split_u(float(u), e, cfg)
        out[key] = (p1, float(v), p3)
    return out


def discontinuities(sol: Levels, cfg: PotentialConfig, geom: Geometry):
    """Closed-form jumps of psi1 and psi3 at the edges, unit amplitude.

    Returns (delta_at_x1, delta_at_x2), each being psi_j(x-0) - psi_j(x+0)
    for j = 1, 3 (both components jump by the same amount).  The factor
    mu = 1 - E (v1 - v3)/(2E - v1 - v3) vanishes identically when
    v11 = v33 = 0, making psi1 and psi3 continuous in that case.
    """
    _check_solution(sol, cfg, geom)
    e = sol.energy
    denom = 2.0 * e - cfg.v1 - cfg.v3
    if abs(denom) < 1e-12 * cfg.scale():
        raise MuPole("mu singular at 2E = v1 + v3")
    # mu = 1 - E(v1 - v3)/(2E - v1 - v3), combined over the common denominator
    # so that the v11 = v33 = 0 case cancels exactly
    mu = (-(cfg.v11 + cfg.v33) - e * (cfg.v11 - cfg.v33)) / denom
    d = mu * _exterior_amplitude(sol, geom) / sol.kappa
    return float(d), float(d if sol.parity == "+" else -d)


def current(psi1, psi2, psi3):
    """Net current j = psi^dag S_y psi, elementwise over scalars or arrays, real
    or complex; identically 0 for the real-amplitude bound states in this gauge."""
    return -SQRT2 * np.imag(np.conj(psi2) * (psi1 - psi3))
