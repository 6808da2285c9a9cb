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

from dataclasses import dataclass

import numpy as np

from . import rootfind
from .model import (
    SQRT2,
    POLE_RTOL,
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
    sc_kernels,
    sc_ratio,
)

# Scan-window half-widths (in units of m) around the residual poles at E = 0
# and E = va, and the margin kept from the gap edges +-m where kappa -> 0.
ZERO_WINDOW = 1e-7
VA_WINDOW = 1e-7
EDGE_MARGIN = 1e-9
# Bisection convergence for bound-state energies, relative to m.
ROOT_XTOL = 1e-12


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

    def as_array(self) -> np.ndarray:
        return np.array([[self.l11, self.l12], [self.l21, self.l22]])


@dataclass(frozen=True)
class BoundStateSolution:
    """One bound-state level with its exterior decay data."""

    energy: float
    parity: str  # "+" (psi2 even about the midpoint) or "-" (psi2 odd)
    kappa: float
    rho: float
    k2: float
    residual: float


@dataclass(frozen=True)
class WaveFunctionSample:
    x: float
    psi1: float
    psi2: float
    psi3: float


def connection_matrix(cfg: PotentialConfig, geom: Geometry, e: float) -> ConnectionMatrix:
    """Connection matrix of the rectangle at energy E (any real E off the pole)."""
    plane, k2_of, w_of = dispersion(cfg)
    # W has its pole at va off the plane v2 = va; on it the guard sits at v2
    pole = cfg.va if plane == "generic" else cfg.v2
    tol = POLE_RTOL * max(cfg.m, abs(pole))
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


def general_bound_condition(lam: ConnectionMatrix, e: float, m: float = 1.0) -> float:
    """Left side of l11 + l22 + (kappa/sqrt(2)E) l12 + (sqrt(2)E/kappa) l21.

    A zero crossing marks a bound state for any interior profile described by
    the connection matrix, not just the rectangle.
    """
    if abs(e) >= m:
        raise GapEdge(f"E = {e} outside the open gap")
    kap = kappa(e, m)
    if kap < 1e-12 * m:
        raise GapEdge("kappa below tolerance at the gap edge")
    if abs(e) < 1e-12 * m:
        raise ZeroEnergyPole("general bound condition has a 1/E term")
    return float(lam.l11 + lam.l22 + kap / (SQRT2 * e) * lam.l12 + SQRT2 * e / kap * lam.l21)


def split_residuals(cfg: PotentialConfig, geom: Geometry, e: float):
    """The two split residuals (r_plus, r_minus) at energy E.

    r_plus = kappa (1 - v2/E) s(k2, l/2) + c(k2, l/2)
    r_minus = kappa (1 - v2/E) c(k2, l/2) - k2 s(k2, l/2)

    Zeros of r_plus are the E+ levels, zeros of r_minus the E- levels (plus a
    structural zero of r_minus at E = v2 whenever k^2 vanishes there).
    """
    m = cfg.m
    if abs(e) < 1e-12 * m:
        raise ZeroEnergyPole("split residuals carry a 1/E factor")
    k2 = k_squared(cfg, e)  # raises PoleAtVa off the plane
    s2, c2 = sc_kernels(k2, 0.5 * geom.l)
    kap = kappa(e, m)
    fac = kap * (1.0 - cfg.v2 / e)
    return float(fac * s2 + c2), float(fac * c2 - k2 * s2)


class _ScanResiduals:
    """Pole-free, overflow-safe scan residuals for one configuration.

    both(E) returns (plus, minus): plus has the zeros of the E+ family, minus
    those of the E- family.  Both are smooth on the gap minus the va pole
    (off-plane) and bounded in the imaginary-k region.
    """

    def __init__(self, cfg: PotentialConfig, geom: Geometry):
        self.v2, self.m = cfg.v2, cfg.m
        self.half = 0.5 * geom.l
        self.v2_zero = abs(self.v2) <= 1e-14 * cfg.scale()
        self.plane, self.k2, self.w = dispersion(cfg)

    def both(self, e):
        e = np.asarray(e, dtype=float)
        k2 = self.k2(e)
        kap = np.sqrt((self.m - e) * (self.m + e))
        # (s, c) = (s2, c2) where k2 >= 0; where k2 < 0 both are divided by
        # c2 = cosh >= 1, so (s, c) = (tanh ratio, 1).  Each kernel is
        # evaluated on its own points only: cosh overflows where the ratio is
        # used, and an overflow in a discarded branch would still warn.
        neg = k2 < 0
        s = np.empty_like(e)
        c = np.ones_like(e)
        s[neg] = sc_ratio(k2[neg], self.half)
        s[~neg], c[~neg] = sc_kernels(k2[~neg], self.half)
        # plus family: E * r_plus, or r_plus itself when v2 == 0
        fac = kap if self.v2_zero else kap * (e - self.v2)
        lead = 1.0 if self.v2_zero else e
        rp = fac * s + lead * c
        # minus family: E * r_minus on plane A, where k^2 keeps no zero at v2;
        # elsewhere E * r_minus/(E - v2) = kap c - E W s, or r_minus itself
        # off the planes when v2 == 0
        if self.plane == "A":
            rm = kap * (e - self.v2) * c - e * k2 * s
        elif self.plane == "generic" and self.v2_zero:
            rm = kap * c - k2 * s
        else:
            rm = kap * c - e * self.w(e) * s
        return rp, rm


_trapz = getattr(np, "trapezoid", None) or np.trapz


def scan_segments(cfg: PotentialConfig, extra_exclusions=()):
    """The gap minus the guard windows and extra_exclusions, as (lo, hi) segments.

    The guard windows surround the residual poles at E = 0 and E = va (when
    va is in the gap); the gap edges +-m are kept EDGE_MARGIN away.
    """
    m = cfg.m
    lo, hi = -m + EDGE_MARGIN * m, m - EDGE_MARGIN * m
    windows = [(-ZERO_WINDOW * m, ZERO_WINDOW * m)]
    if abs(cfg.va) < m:
        windows.append((cfg.va - VA_WINDOW * m, cfg.va + VA_WINDOW * m))
    windows.extend(extra_exclusions)
    return rootfind.subtract_windows(lo, hi, windows)


def _scan_brackets(both, segments, n_grid, refine=4):
    """Sign-change brackets of both parities in two residual calls.

    The first call scans the segment grids.  The second covers every
    sign-change cell split into `refine` equal parts, which separates close
    root pairs, and log-spaced ladders at both ends of every segment, which
    recover roots crowding the window and gap edges (three decades below the
    cell size).  Returns the sorted, duplicate-free brackets of each parity.
    """
    if not segments:
        return [[], []]
    grids = rootfind.segment_grids(segments, n_grid)
    ladders = []
    for (slo, shi), xs in zip(segments, grids):
        h = (shi - slo) / (xs.size - 1)
        for edge, inward in ((slo, +1.0), (shi, -1.0)):
            lad = rootfind.edge_ladder(edge, inward, h)
            lad = lad[(lad > slo) & (lad < shi)]
            ladders.append(np.sort(np.append(lad, edge + inward * h)))
    x = np.concatenate(grids)
    lengths = [xs.size for xs in grids]
    cells = [
        np.array(rootfind.sign_change_brackets(x, f, lengths)).reshape(-1, 2) for f in both(x)
    ]
    subs = [np.linspace(c[:, 0], c[:, 1], refine + 1, axis=-1).ravel() for c in cells]
    ladder_x = np.concatenate(ladders)
    ladder_lengths = [lad.size for lad in ladders]
    # layout: the "+" cells, the "-" cells, then the ladders both parities scan
    n_subs = subs[0].size + subs[1].size
    start = 0
    out = []
    for sub, f in zip(subs, both(np.concatenate(subs + [ladder_x]))):
        fs = np.concatenate([f[start : start + sub.size], f[n_subs:]])
        start += sub.size
        rows = [refine + 1] * (sub.size // (refine + 1)) + ladder_lengths
        found = rootfind.sign_change_brackets(np.concatenate([sub, ladder_x]), fs, rows)
        out.append(sorted(set(found)))
    return out


def find_bound_states(
    cfg: PotentialConfig,
    geom: Geometry,
    n_grid: int = 4000,
    extra_exclusions=(),
) -> list[BoundStateSolution]:
    """All bound-state levels in the gap, sorted by energy.

    Scans the gap minus guard windows around E = 0, E = va and the edges,
    brackets sign changes of the two family residuals on an adaptively refined
    grid, converges each bracket by bisection plus secant polish to
    |dE| < 1e-12 m, deduplicates and tags each root with its parity.  Both
    parities share every residual call, so a solve costs a fixed number of
    calls (about 35) whatever the number of levels.  extra_exclusions is a
    list of (lo, hi) intervals left out of the scan (used by cross-validation
    harnesses to equalize domains).
    """
    m = cfg.m
    res = _ScanResiduals(cfg, geom)
    lo, hi = -m + EDGE_MARGIN * m, m - EDGE_MARGIN * m
    brackets = _scan_brackets(res.both, scan_segments(cfg, extra_exclusions), n_grid)
    refined = rootfind.refine_brackets(
        res.both,
        brackets[0] + brackets[1],
        xtol=ROOT_XTOL * m,
        families=[len(b) for b in brackets],
    )
    out = []
    for parity, (roots, fr) in zip("+-", refined):
        roots, fr = rootfind.dedup_sorted(roots, fr, tol=5.0 * ROOT_XTOL * m)
        keep = (lo < roots) & (roots < hi)
        roots, fr = roots[keep], fr[keep]
        fields = (
            roots,
            kappa(roots, m),
            np.sqrt((m - roots) / (m + roots)),
            res.k2(roots),
            np.abs(fr),
        )
        out.extend(
            BoundStateSolution(r, parity, kap, rho, k2, f)
            for r, kap, rho, k2, f in zip(*(a.tolist() for a in fields))
        )
    out.sort(key=lambda s: s.energy)
    return out


# --- eigenfunctions ----------------------------------------------------------


def _check_solution(sol: BoundStateSolution, cfg: PotentialConfig, geom: Geometry):
    if not abs(sol.energy) < cfg.m:
        raise OutOfDomainSolution(f"E = {sol.energy} outside the gap")
    both = _ScanResiduals(cfg, geom).both(np.asarray([sol.energy]))
    r = float(np.abs(both["+-".index(sol.parity)][0]))
    # levels crowding the va accumulation point have huge residual slopes, so
    # the reinsertion threshold must stay loose; foreign solutions miss by O(1)
    if r > 1e-4 * cfg.scale():
        raise OutOfDomainSolution(
            f"solution does not satisfy this configuration (residual {r:g})"
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
    """Common amplitude of the two decaying tails, unit internal amplitude.

    The left tail is d (1/rho, sqrt(2), rho) e^{kappa(x-x1)}; the right tail
    is d (-1/rho, sqrt(2), -rho) e^{-kappa(x-x2)} for even-psi2 states and
    d (1/rho, -sqrt(2), rho) e^{-kappa(x-x2)} for odd-psi2 states.
    """
    s2, c2 = sc_kernels(sol.k2, 0.5 * geom.l)
    return c2 if sol.parity == "+" else sol.k2 * s2


def eigenfunction(
    sol: BoundStateSolution,
    cfg: PotentialConfig,
    geom: Geometry,
    x_grid,
    normalize: str = "psi2_max",
) -> list[WaveFunctionSample]:
    """Sample the bound-state wave function on x_grid.

    Interior points use the trigonometric form about the midpoint (continued
    kernels for imaginary k), exterior points the decaying rays with rate
    kappa.  normalize is 'psi2_max' (max |psi2| over the grid equals 1),
    'l2' (unit trapezoid norm of |psi|^2) or 'raw' (unit internal amplitude,
    the convention shared with discontinuities()).
    """
    _check_solution(sol, cfg, geom)
    e, m = sol.energy, cfg.m
    x = np.asarray(x_grid, dtype=float)
    rho = sol.rho
    rho_inv = 1.0 / rho
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
    if np.any(left):
        env = d * np.exp(sol.kappa * (x[left] - geom.x1))
        psi1[left] = rho_inv * env
        psi2[left] = SQRT2 * env
        psi3[left] = rho * env
    if np.any(right):
        env = d * np.exp(-sol.kappa * (x[right] - geom.x2))
        if sol.parity == "+":
            psi1[right] = -rho_inv * env
            psi2[right] = SQRT2 * env
            psi3[right] = -rho * env
        else:
            psi1[right] = rho_inv * env
            psi2[right] = -SQRT2 * env
            psi3[right] = rho * env

    if normalize == "psi2_max":
        peak = np.max(np.abs(psi2))
        scale = 1.0 / peak if peak > 0 else 1.0
    elif normalize == "l2":
        dens = psi1**2 + psi2**2 + psi3**2
        norm = _trapz(dens, x) if x.size > 1 else 1.0
        scale = 1.0 / np.sqrt(norm) if norm > 0 else 1.0
    elif normalize == "raw":
        scale = 1.0
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    return [
        WaveFunctionSample(float(xx), float(a * scale), float(b * scale), float(c * scale))
        for xx, a, b, c in zip(x, psi1, psi2, psi3)
    ]


def boundary_values(sol: BoundStateSolution, cfg: PotentialConfig, geom: Geometry):
    """One-sided (psi1, psi2, psi3) limits at both edges, unit amplitude.

    Returns a dict with keys 'x1-', 'x1+', 'x2-', 'x2+'.
    """
    _check_solution(sol, cfg, geom)
    e = sol.energy
    d = _exterior_amplitude(sol, geom)
    rho, rho_inv = sol.rho, 1.0 / sol.rho
    out = {}
    out["x1-"] = (d * rho_inv, d * SQRT2, d * rho)
    if sol.parity == "+":
        out["x2+"] = (-d * rho_inv, d * SQRT2, -d * rho)
    else:
        out["x2+"] = (d * rho_inv, -d * SQRT2, d * rho)
    for key, xx in (("x1+", geom.x1), ("x2-", geom.x2)):
        u, v = _interior_uv(sol, cfg, geom, np.asarray(xx))
        p1, p3 = _split_u(float(u), e, cfg)
        out[key] = (p1, float(v), p3)
    return out


def discontinuities(sol: BoundStateSolution, cfg: PotentialConfig, geom: Geometry):
    """Closed-form jumps of psi1 and psi3 at the edges, unit amplitude.

    Returns (delta_at_x1, delta_at_x2), each being psi_j(x-0) - psi_j(x+0)
    for j = 1, 3 (both components jump by the same amount).  The factor
    mu = m - E (v1 - v3)/(2E - v1 - v3) vanishes identically when
    v11 = v33 = 0, making psi1 and psi3 continuous in that case.
    """
    _check_solution(sol, cfg, geom)
    e, m = sol.energy, cfg.m
    denom = 2.0 * e - cfg.v1 - cfg.v3
    if abs(denom) < 1e-12 * cfg.scale():
        raise MuPole("mu singular at 2E = v1 + v3")
    # mu = m - E(v1 - v3)/(2E - v1 - v3), combined over the common denominator
    # so that the v11 = v33 = 0 case cancels exactly
    mu = (-m * (cfg.v11 + cfg.v33) - e * (cfg.v11 - cfg.v33)) / denom
    s2, c2 = sc_kernels(sol.k2, 0.5 * geom.l)
    if sol.parity == "+":
        d = mu * c2 / sol.kappa
        return float(d), float(d)
    d = mu * sol.k2 * s2 / sol.kappa
    return float(d), float(-d)


def current(sample: WaveFunctionSample) -> float:
    """Net current j = psi^dag S_y psi at one sample; identically 0 for the
    real-amplitude bound states in this gauge."""
    psi1 = complex(sample.psi1)
    psi2 = complex(sample.psi2)
    psi3 = complex(sample.psi3)
    return float(-SQRT2 * np.imag(np.conj(psi2) * (psi1 - psi3)))
