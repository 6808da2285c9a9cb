"""Strength sweeps along pencils and the four characteristic spectrum types.

A pencil fixes coefficients (alpha1, alpha2, alpha3) and a vertex, and scales
one strength parameter V.  Vertex P1 sits at the origin of the bare strengths
(V11, V22, V33) = (a1 V, a2 V, a3 V); vertex P2 at (-1, 0, 1), i.e. the
renormalized strengths scale, (v1, v2, v3) = (a1 V, a2 V, a3 V).

Large-|V| behavior sorts the pencils into four species:

    P: all a_j != 0 and a1 a3/(a1 + a3) > 0 -> two levels, asymptotically
       periodic in V with beta = 2 a1 a3/(a1 + a3);
    D: same but negative ratio -> two levels merging to sgn(V)/sqrt(1-beta);
    H: hydrogen-like 1/n^2 ladders (a1 = -a3 != 0 with a2 != 0, or
       a1 = a3 = 0 with a2 != 0 on P1);
    W: well-like n^2 ladders detaching from the thresholds (a2 = 0 with
       a1, a3 != 0 and a1 + a3 != 0, or a1 > 0, a2 != 0, a3 = 0 on P1).

one_point_energy is the one table of the closed-form one-point
(point-interaction) laws, keyed by species, squeezing rate and strength g;
one_point_parity is its label rule, which decides the rates each species
takes and whether its levels are labelled by parity or by index, and gives
each level's parity.  pointlimits.limit_energy reads the table for a pencil
and a SqueezeLaw, asymptotic_energy for a strength V and a width l.  The
laws are exact as l -> 0 at fixed g; at fixed l they carry an offset of
order l that does not shrink with V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rootfind
from .boundstates import N_GRID, Levels, find_bound_states_many
from .model import (
    Geometry,
    OutOfValidityWindow,
    PotentialConfig,
    TypeMismatch,
    UnsupportedCombination,
)

ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class PencilSpec:
    """One-parameter strength family through a fixed vertex."""

    vertex: str  # "P1" (bare strengths scale) or "P2" (renormalized scale)
    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        if self.vertex not in ("P1", "P2"):
            raise ValueError(f"vertex must be 'P1' or 'P2', got {self.vertex!r}")

    def config(self, v: float) -> PotentialConfig:
        """Strength triple at parameter value V."""
        if self.vertex == "P1":
            return PotentialConfig(self.alpha1 * v, self.alpha2 * v, self.alpha3 * v)
        return PotentialConfig.from_renormalized(self.alpha1 * v, self.alpha2 * v, self.alpha3 * v)

    @property
    def beta(self) -> float | None:
        a1, a3 = self.alpha1, self.alpha3
        if abs(a1 + a3) <= ALPHA_TOL:
            return None
        return 2.0 * a1 * a3 / (a1 + a3)


@dataclass(frozen=True)
class SpectrumType:
    tag: str  # "P", "D", "H1", "H2", "W1", "W2" or "unclassified"
    beta: float | None = None


@dataclass(frozen=True)
class Branch:
    """One continuously linked level: its parity and the indices of its
    levels in BranchedSpectrum.levels, in V order."""

    parity: str
    index: np.ndarray


@dataclass
class BranchedSpectrum:
    pencil: PencilSpec
    geom: Geometry
    v_grid: np.ndarray
    levels: Levels  # every level of the sweep; levels.config indexes v_grid
    branches: list  # list[Branch]
    events: list  # (V, "appear"|"disappear", parity)


def classify(pencil: PencilSpec) -> SpectrumType:
    """Spectrum species of a pencil from its coefficients."""
    a1, a2, a3 = pencil.alpha1, pencil.alpha2, pencil.alpha3
    z1, z2, z3 = (abs(a) <= ALPHA_TOL for a in (a1, a2, a3))
    if not z2 and not z1 and abs(a1 + a3) <= ALPHA_TOL:
        return SpectrumType("H1", None)
    if z1 and z3 and not z2 and pencil.vertex == "P1":
        return SpectrumType("H2", None)
    if z2 and not z1 and not z3 and abs(a1 + a3) > ALPHA_TOL:
        return SpectrumType("W1", pencil.beta)
    if z3 and a1 > ALPHA_TOL and not z2 and pencil.vertex == "P1":
        return SpectrumType("W2", None)
    if not (z1 or z2 or z3) and abs(a1 + a3) > ALPHA_TOL:
        ratio = a1 * a3 / (a1 + a3)
        if ratio > 0:
            return SpectrumType("P", pencil.beta)
        if ratio < 0:
            return SpectrumType("D", pencil.beta)
    return SpectrumType("unclassified", pencil.beta)


def sweep(
    pencil: PencilSpec,
    geom: Geometry,
    v_grid,
    n_grid: int = N_GRID,
) -> BranchedSpectrum:
    """Bound states at every V, linked into branches by continuity.

    The levels come from boundstates.find_bound_states_many, which solves
    the V points in blocks, each V with the floats find_bound_states returns
    for it.  They stay one Levels record, whose config field is the V
    index, and _link links them into branches of indices into it.
    """
    v_grid = np.asarray(sorted(v_grid), dtype=float)
    if v_grid.size == 0:
        raise ValueError("empty V grid")
    levels = find_bound_states_many([pencil.config(v) for v in v_grid], geom, n_grid=n_grid)
    branches, events = _link(v_grid, levels)
    return BranchedSpectrum(pencil, geom, v_grid, levels, branches, events)


def _link(v_grid, levels):
    """(branches, events) linking the Levels of a sweep over v_grid, V by V.

    Matches each active branch, in order, to the nearest untaken level of
    its parity, predicted by local slope, with maximum jump
    5 * dV * max(|slope|, 1); unmatched levels open new branches, in level
    order, and abandoned branches close (both recorded as events).  The
    energies sorted by (V, parity), in level order within each group, are
    one array; a taken level's entry becomes inf, and the nearest level is
    the argmin over its group, the first minimum: ties go to the lowest
    level index.
    """
    minus = levels.parity == "-"
    group = 2 * levels.config + minus  # group 2 i + p: V point i, parity p ("+" 0, "-" 1)
    order = np.argsort(group, kind="stable")
    edges = np.searchsorted(group[order], np.arange(2 * len(v_grid) + 1)).tolist()
    free = levels.energy[order]
    energy, v_of, p_of = levels.energy.tolist(), v_grid[levels.config].tolist(), minus.tolist()
    level_of, vs = order.tolist(), v_grid.tolist()
    branches, active, events = [], [], []  # a branch is the list of its level indices
    for i, v in enumerate(vs):
        dv = max((vs[min(i + 1, len(vs) - 1)] - vs[max(i - 1, 0)]) / 2.0, 1e-12)
        still_active = []
        for idx in active:
            last, p = idx[-1], p_of[idx[-1]]
            prev = idx[-2] if len(idx) >= 2 else last
            dv_br = v_of[last] - v_of[prev]
            slope = (energy[last] - energy[prev]) / dv_br if dv_br != 0 else 0.0
            pred = energy[last] + slope * (v - v_of[last])
            max_jump = 5.0 * dv * max(abs(slope), 1.0)
            a, b = edges[2 * i + p], edges[2 * i + p + 1]
            if a < b:
                d = np.abs(free[a:b] - pred)
                k = int(d.argmin())
                if d.item(k) < max_jump:
                    free[a + k] = np.inf
                    idx.append(level_of[a + k])
                    still_active.append(idx)
                    continue
            events.append((v, "disappear", "+-"[p]))
        a, b = edges[2 * i], edges[2 * i + 2]
        for j in np.sort(order[a:b][free[a:b] != np.inf]).tolist():
            branches.append([j])
            still_active.append(branches[-1])
            if i > 0:
                events.append((v, "appear", "+-"[p_of[j]]))
        active = still_active
    return [Branch("+-"[p_of[idx[0]]], np.array(idx)) for idx in branches], events


def one_point_parity(tag: str, family: str, n: int, parity: str | None) -> str:
    """The split-equation parity of a one-point level, once its label is checked.

    The label rule of the one table.  Types P and D are realized by the delta
    rate only and label their two levels by parity '+' or '-', with n = 0.
    The H1 ladder takes the two_thirds rate, from n = 1; the H2, W1 and W2
    ladders take the delta or inv_square rate.  A ladder level is labelled by
    n alone, and its parity follows from n.  Raises UnsupportedCombination
    for a (type, rate) pair the theory does not cover and TypeMismatch for a
    label of the wrong kind.
    """
    if tag in ("P", "D"):
        if family != "delta":
            raise UnsupportedCombination(f"type {tag} is realized by the delta rate only")
        if parity not in ("+", "-") or n != 0:
            raise TypeMismatch(f"type {tag} levels need parity '+' or '-' and n = 0")
        return parity
    if tag == "H1":
        if family != "two_thirds" or n < 1:
            raise UnsupportedCombination("type H1 takes the two_thirds rate, from n = 1")
    elif tag not in ("H2", "W1", "W2"):
        raise UnsupportedCombination(f"no squeezing limit tabulated for type {tag!r}")
    elif family not in ("delta", "inv_square"):
        raise UnsupportedCombination(f"type {tag} uses the delta or inv_square rates")
    if parity is not None:
        raise TypeMismatch(f"type {tag} levels are labelled by n and take no parity")
    if tag in ("H2", "W2"):
        return "+" if n % 2 == 0 else "-"
    return "+" if n % 2 == 1 else "-"


def one_point_energy(
    stype: SpectrumType,
    family: str,
    g: float,
    n: int = 0,
    parity: str | None = None,
    alpha: float = 1.0,
):
    """Closed-form level of the point interaction, or None when it holds none.

    The one table of the one-point laws: stype is the spectrum species,
    family the squeezing rate ("delta", "two_thirds" or "inv_square") and g
    its strength, alpha the pencil coefficient a1 (H1, W2).  The level is
    labelled as one_point_parity checks, which runs first: parity '+'/'-'
    for types P and D, the index n for the ladder types, where n = 0 always
    denotes the separate ground branch.  Raises OutOfValidityWindow when
    (g, n) falls outside a ladder's stated interval, TypeMismatch when stype
    lacks the beta or alpha its law needs, and whatever one_point_parity
    raises for the label.
    """
    tag = stype.tag
    beta = stype.beta
    one_point_parity(tag, family, n, parity)
    if tag in ("P", "D"):
        if beta is None or (beta <= 0 if tag == "P" else beta >= 0):
            raise TypeMismatch(f"type {tag} needs beta {'>' if tag == 'P' else '<'} 0")
        x = 0.5 * np.sqrt(abs(beta)) * g
        if tag == "P":
            # sin/cos forms of sgn(tan x) [1 + beta cot^2 x]^{-1/2} etc.,
            # finite through the tan/cot singularities
            s, c = np.sin(x), np.cos(x)
            if parity == "+":
                return float(np.sign(c) * s / np.sqrt(s * s + beta * c * c))
            return float(-np.sign(s) * c / np.sqrt(c * c + beta * s * s))
        th = np.tanh(abs(x))
        sgn = np.sign(g)
        if parity == "+":
            return float(sgn * th / np.sqrt(th * th - beta))
        return float(sgn / np.sqrt(1.0 - beta * th * th))
    if tag == "H1":
        if not 0 < abs(g) < (n * np.pi / abs(alpha)) ** (2.0 / 3.0):
            raise OutOfValidityWindow(
                f"two_thirds level n={n} needs 0 < |g| < (n pi/alpha)^(2/3)"
            )
        return float((alpha / (n * np.pi)) ** 2 * g**3)
    if tag == "W1" and beta is None:
        raise TypeMismatch("type W1 needs beta")
    if tag == "W2" and alpha <= 0:
        raise TypeMismatch("type W2 needs alpha = a1 > 0")
    # the ground branch: the same law for both rates (see pointlimits.limit_energy)
    if n == 0:
        if tag == "W1":
            return float(-np.sign(beta * g) / np.sqrt(1.0 + (beta * g) ** 2 / 4.0))
        # for W2 a real interior wave number in the limit requires g < 0; for
        # g > 0 the level is absorbed at the upper threshold
        return g / np.sqrt(4.0 + g * g) if tag == "H2" or g < 0 else None
    if family == "delta":
        return None
    if tag == "H2":
        q = n * n * np.pi * np.pi
        return float(q / (2.0 * g) * (np.sqrt(1.0 + 4.0 * g * g / q**2) - 1.0))
    if tag == "W1":
        if not abs(beta * g) > (n * np.pi) ** 2:
            raise OutOfValidityWindow(f"inv_square level n={n} needs |beta g| > (n pi)^2")
        return float(-(n * np.pi) ** 2 / (beta * g))
    if not g < -(n * np.pi) ** 2 / (2.0 * alpha):
        raise OutOfValidityWindow(f"inv_square level n={n} needs g < -(n pi)^2/(2 alpha)")
    return float(-(1.0 + (n * np.pi) ** 2 / (alpha * g)))


def asymptotic_energy(
    stype: SpectrumType,
    v: float,
    geom: Geometry,
    n: int | None = None,
    alpha: float = 1.0,
):
    """One-point level laws per spectrum species at strength V and width l.

    Returns a dict of predictions; which keys are present depends on the
    species.  P and D yield {'+': E+, '-': E-}; H2 and the W species yield
    {'n': E_n} for the requested index (n = 0 is the separate ground branch).
    alpha is the nonzero pencil coefficient for H1/W2 (a1 = -a3 resp. a1).
    The formulas assume the normalization alpha2 in {0, 1} used throughout.

    These are the point-interaction limits, not fixed-width asymptotics:
    one_point_energy at the strength g that V and l give, delta with
    g = V l for P, D and every n = 0 level, two_thirds with
    g = V l^(2/3) for the H1 ladder, inv_square with g = V l^2 for
    the other ladders.  The one law of its own is the W2 ground level at
    V > 0, 1/sqrt(1 + 2 alpha/V), which the point limit absorbs at the
    threshold.  They are exact as l -> 0 at fixed g.  At fixed l they carry
    an offset of order l: on the P pencil (1, 1, 1), for instance,
    k^2 = (E - V)^2 - 1, so the true phase is (V - E) l/2 where the law
    uses V l/2.  A law outside its validity window raises TypeMismatch.
    """
    l = geom.l
    try:
        if stype.tag in ("P", "D"):
            return {p: one_point_energy(stype, "delta", v * l, parity=p) for p in "+-"}
        if n is None:
            raise TypeMismatch(f"{stype.tag} asymptotics need a level index")
        if n == 0:
            family, g = "delta", v * l
        elif stype.tag == "H1":
            family, g = "two_thirds", v * (l * l) ** (1.0 / 3.0)
        else:
            family, g = "inv_square", v * l * l
        e = one_point_energy(stype, family, g, n=n, alpha=alpha)
    except (OutOfValidityWindow, UnsupportedCombination) as exc:
        raise TypeMismatch(str(exc)) from exc
    if e is None:  # the W2 ground level at V >= 0
        if v == 0:
            raise TypeMismatch("the W2 ground level 1/sqrt(1 + 2 alpha/V) needs V > 0")
        e = 1.0 / np.sqrt(1.0 + 2.0 * alpha / v)
    return {"n": float(e)}


def cutoff_values(
    stype: SpectrumType, geom: Geometry, n: int, alpha: float = 1.0
) -> list[float]:
    """Strengths V where the n-th level meets a threshold E = +-1.

    H1: roots of (V -+ 1)^2 (V +- 1) = (n pi / l)^2 on |V| >= 1, one
    bracket per side refined by rootfind.refine_brackets.  W1/W2: the stated
    detachment thresholds of the level ladders.  The W1 value
    (n pi/l)^2/|beta| is the one-point threshold; the exact detachment is where
    k^2(E = -1) = (n pi/l)^2, e.g. V ~ 13.28 against 14.21 for n = 3, l = 2.5
    on the pencil (1, 0, 1).
    """
    l = geom.l
    q = (n * np.pi / l) ** 2
    if stype.tag == "H1":
        # the level hits E = -1 when V <= -1: (V + 1)^2 (1 - V) = q,
        # and E = +1 when V >= 1: (V - 1)^2 (V + 1) = q
        cubics = (
            lambda v: (v + 1.0) ** 2 * (1.0 - v) - q,
            lambda v: (v - 1.0) ** 2 * (v + 1.0) - q,
        )
        brackets = np.array([[-1.0 - 10 * (q + 1.0), -1.0], [1.0, 1.0 + 10 * (q + 1.0)]])
        f_ends = np.array([f(b) for f, b in zip(cubics, brackets)]).T
        side = f_ends[0] * f_ends[1] <= 0
        refined = rootfind.refine_brackets(
            lambda v: [f(v) for f, s in zip(cubics, side) if s],
            brackets[side],
            xtol=1e-13,
            families=[1] * side.sum(),
            f_ends=f_ends[:, side],
        )
        return sorted(float(roots[0]) for roots, _ in refined)
    if stype.tag == "W1":
        if stype.beta is None or stype.beta == 0:
            raise TypeMismatch("W1 cutoffs need beta != 0")
        v = q / abs(stype.beta)
        return sorted([-v, v])
    if stype.tag == "W2":
        if alpha <= 0:
            raise TypeMismatch("W2 needs alpha > 0")
        return [-q / (2.0 * alpha)]
    raise TypeMismatch(f"no threshold law for spectrum type {stype.tag!r}")
