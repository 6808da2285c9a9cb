"""Strength sweeps along pencils and the four characteristic spectrum types.

A pencil fixes coefficients (alpha1, alpha2, alpha3) and a vertex, and scales
one strength parameter V.  Vertex P1 sits at the origin of the bare strengths
(V11, V22, V33) = (a1 V, a2 V, a3 V); vertex P2 at (-m, 0, m), i.e. the
renormalized strengths scale, (v1, v2, v3) = (a1 V, a2 V, a3 V).

Large-|V| behavior sorts the pencils into four species:

    P: all a_j != 0 and a1 a3/(a1 + a3) > 0 -> two levels, asymptotically
       periodic in V with beta = 2 a1 a3/(a1 + a3);
    D: same but negative ratio -> two levels merging to sgn(V) m/sqrt(1-beta);
    H: hydrogen-like 1/n^2 ladders (a1 = -a3 != 0 with a2 != 0, or
       a1 = a3 = 0 with a2 != 0 on P1);
    W: well-like n^2 ladders detaching from the thresholds (a2 = 0 with
       a1, a3 != 0 and a1 + a3 != 0, or a1 > 0, a2 != 0, a3 = 0 on P1).

The closed-form level laws of asymptotic_energy are the one-point
(point-interaction) approximation: for P and D they equal
pointlimits.limit_energy at the delta strength g = V l, for the W1 ladder at
the inv_square strength g = V l^2.  They are exact as l -> 0 at fixed g; at
fixed l they carry an offset of order m l that does not shrink with V.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .boundstates import BoundStateSolution, find_bound_states
from .model import Geometry, PotentialConfig, TypeMismatch

ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class PencilSpec:
    """One-parameter strength family through a fixed vertex."""

    vertex: str  # "P1" (bare strengths scale) or "P2" (renormalized scale)
    alpha1: float
    alpha2: float
    alpha3: float
    v_grid: tuple = ()

    def __post_init__(self):
        if self.vertex not in ("P1", "P2"):
            raise ValueError(f"vertex must be 'P1' or 'P2', got {self.vertex!r}")

    def config(self, v: float, m: float = 1.0) -> PotentialConfig:
        """Strength triple at parameter value V."""
        if self.vertex == "P1":
            return PotentialConfig(self.alpha1 * v, self.alpha2 * v, self.alpha3 * v, m)
        return PotentialConfig.from_renormalized(
            self.alpha1 * v, self.alpha2 * v, self.alpha3 * v, m
        )

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


@dataclass
class Branch:
    """One continuously linked level: parallel lists of V and solutions."""

    parity: str
    v_values: list = field(default_factory=list)
    states: list = field(default_factory=list)

    @property
    def v_start(self):
        return self.v_values[0]

    @property
    def v_end(self):
        return self.v_values[-1]

    def energies(self):
        return np.array([s.energy for s in self.states])


@dataclass
class BranchedSpectrum:
    pencil: PencilSpec
    geom: Geometry
    m: float
    v_grid: np.ndarray
    levels: list  # per V point, list[BoundStateSolution]
    branches: list  # list[Branch]
    events: list  # (V, "appear"|"disappear", parity)

    def counts(self) -> np.ndarray:
        return np.array([len(lv) for lv in self.levels])

    def states_at(self, v: float) -> list[BoundStateSolution]:
        i = int(np.argmin(np.abs(self.v_grid - v)))
        return self.levels[i]


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
    v_grid=None,
    m: float = 1.0,
    n_grid: int = 4000,
    workers: int = 1,
) -> BranchedSpectrum:
    """Bound states at every V, linked into branches by continuity.

    Linking matches each active branch, in order, to the nearest untaken state
    of the same parity, predicted by local slope, with maximum jump
    5 * dV * max(|slope|, 1) (ties go to the lowest state index); unmatched
    states open new branches and abandoned branches close (both recorded as
    events).  The nearest state is found by bisection in an energy-sorted
    list of the untaken states, so linking costs O(log n) per branch.
    workers has no effect; it is accepted so that existing callers keep
    working.
    """
    if v_grid is None:
        v_grid = pencil.v_grid
    v_grid = np.asarray(sorted(v_grid), dtype=float)
    if v_grid.size == 0:
        raise ValueError("empty V grid")
    levels = []
    for v in v_grid:
        cfg = pencil.config(v, m)
        levels.append(find_bound_states(cfg, geom, n_grid=n_grid, workers=workers))

    branches: list[Branch] = []
    active: list[Branch] = []
    events = []
    for i, v in enumerate(v_grid):
        dv = v_grid[min(i + 1, len(v_grid) - 1)] - v_grid[max(i - 1, 0)]
        dv = max(dv / 2.0, 1e-12)
        taken = [False] * len(levels[i])
        # untaken states per parity: energies and indices, sorted by (energy, index)
        free = {p: ([], []) for p in "+-"}
        for j, st in sorted(enumerate(levels[i]), key=lambda js: (js[1].energy, js[0])):
            free[st.parity][0].append(st.energy)
            free[st.parity][1].append(j)
        still_active = []
        for br in active:
            pred = br.states[-1].energy
            slope = 0.0
            if len(br.states) >= 2:
                dv_br = br.v_values[-1] - br.v_values[-2]
                if dv_br != 0:
                    slope = (br.states[-1].energy - br.states[-2].energy) / dv_br
            pred = pred + slope * (v - br.v_values[-1])
            max_jump = 5.0 * dv * max(abs(slope), 1.0)
            best = _take_nearest(*free[br.parity], pred, max_jump)
            if best >= 0:
                taken[best] = True
                br.v_values.append(float(v))
                br.states.append(levels[i][best])
                still_active.append(br)
            else:
                events.append((float(v), "disappear", br.parity))
        for j, st in enumerate(levels[i]):
            if not taken[j]:
                br = Branch(parity=st.parity, v_values=[float(v)], states=[st])
                branches.append(br)
                still_active.append(br)
                if i > 0:
                    events.append((float(v), "appear", st.parity))
        active = still_active
    return BranchedSpectrum(pencil, geom, m, v_grid, levels, branches, events)


def _take_nearest(energies, indices, pred, max_jump):
    """Remove the state minimising d = |energy - pred| among those with
    d < max_jump, the lowest index on a tie, from the parallel lists
    (sorted by energy) and return its index; -1 if there is none.

    Rounded subtraction is monotone, so d does not grow towards pred from
    either side: the minimum sits next to the insertion point of pred, and
    only runs of equal d next to it can tie.
    """
    k = bisect.bisect_right(energies, pred)
    sides = []  # (d, positions) of the nearest run on each side of pred
    for start, step, stop in ((k - 1, -1, -1), (k, 1, len(energies))):
        if start == stop:
            continue
        d = abs(energies[start] - pred)
        run = [start]
        nxt = start + step
        while nxt != stop and abs(energies[nxt] - pred) == d:
            run.append(nxt)
            nxt += step
        sides.append((d, run))
    if not sides:
        return -1
    d_min = min(d for d, _ in sides)
    if not d_min < max_jump:
        return -1
    pos = min((p for d, run in sides if d == d_min for p in run), key=indices.__getitem__)
    del energies[pos]
    return indices.pop(pos)


def asymptotic_energy(
    stype: SpectrumType,
    v: float,
    geom: Geometry,
    n: int | None = None,
    m: float = 1.0,
    alpha: float = 1.0,
):
    """One-point level laws per spectrum species.

    Returns a dict of predictions; which keys are present depends on the
    species.  P and D yield {'+': E+, '-': E-}; H2 and the W species yield
    {'n': E_n} for the requested index (n = 0 is the separate ground branch).
    alpha is the nonzero pencil coefficient for H1/W2 (a1 = -a3 resp. a1).
    The formulas assume the normalization alpha2 in {0, 1} used throughout.

    These are the point-interaction limits, not fixed-width asymptotics: P
    and D equal pointlimits.limit_energy with the delta law at g = V l, and
    the W1 ladder (n >= 1) equals it with the inv_square law at g = V l^2.
    They are exact as l -> 0 at fixed g.  At fixed l they carry an offset of
    order m l: on the P pencil (1, 1, 1), for instance, k^2 = (E - V)^2 - m^2,
    so the true phase is (V - E) l/2 where the law uses V l/2.
    """
    l = geom.l
    if stype.tag == "P":
        beta = stype.beta
        if beta is None or beta <= 0:
            raise TypeMismatch("P asymptotics need beta > 0")
        x = np.sqrt(beta) * v * l / 2.0
        sgn = np.sign(np.tan(x)) or 1.0
        e_plus = sgn * m / np.sqrt(1.0 + beta / np.tan(x) ** 2)
        e_minus = -sgn * m / np.sqrt(1.0 + beta * np.tan(x) ** 2)
        return {"+": float(e_plus), "-": float(e_minus)}
    if stype.tag == "D":
        beta = stype.beta
        if beta is None or beta >= 0:
            raise TypeMismatch("D asymptotics need beta < 0")
        x = np.sqrt(-beta) * abs(v) * l / 2.0
        sgn = np.sign(v)
        e_plus = sgn * m / np.sqrt(1.0 - beta / np.tanh(x) ** 2)
        e_minus = sgn * m / np.sqrt(1.0 - beta * np.tanh(x) ** 2)
        return {"+": float(e_plus), "-": float(e_minus)}
    if stype.tag == "H1":
        if n is None or n < 1:
            raise TypeMismatch("H1 asymptotics are the n >= 1 ladder")
        if not abs(v) < (n * np.pi / (abs(alpha) * l)) ** (2.0 / 3.0) * m ** (1.0 / 3.0):
            raise TypeMismatch("V outside the H1 ladder validity window")
        return {"n": float((alpha * l / (n * np.pi)) ** 2 * v**3)}
    if stype.tag == "H2":
        if n is None:
            raise TypeMismatch("H2 asymptotics need a level index")
        if n == 0:
            return {"n": float(np.sign(v) * m / np.sqrt(1.0 + (2.0 / (v * l)) ** 2))}
        q = (n * np.pi / l) ** 2
        return {"n": float(np.sign(v) * np.sqrt(q**2 / (4.0 * v**2) + m**2) - q / (2.0 * v))}
    if stype.tag == "W1":
        beta = stype.beta
        if beta is None:
            raise TypeMismatch("W1 asymptotics need beta")
        if n is None:
            raise TypeMismatch("W1 asymptotics need a level index")
        if n == 0:
            return {"n": float(-np.sign(beta * v) * m / np.sqrt(1.0 + (beta * v * l / 2.0) ** 2))}
        return {"n": float(-((n * np.pi / l) ** 2) / (beta * v))}
    if stype.tag == "W2":
        if n is None:
            raise TypeMismatch("W2 asymptotics need a level index")
        if alpha <= 0:
            raise TypeMismatch("W2 needs alpha = a1 > 0")
        if n == 0:
            if v < 0:
                return {"n": float(-m / np.sqrt(1.0 + 4.0 / (v * l) ** 2))}
            return {"n": float(m / np.sqrt(1.0 + 2.0 * alpha * m / v))}
        if not v < -((n * np.pi / l) ** 2) / (2.0 * alpha * m):
            raise TypeMismatch("V outside the W2 ladder validity window")
        return {"n": float(-(m + (n * np.pi / l) ** 2 / (alpha * v)))}
    raise TypeMismatch(f"no asymptotic form for spectrum type {stype.tag!r}")


def cutoff_values(
    stype: SpectrumType, geom: Geometry, n: int, m: float = 1.0, alpha: float = 1.0
) -> list[float]:
    """Strengths V where the n-th level meets a threshold E = +-m.

    H1: roots of (V -+ m)^2 (V +- m) = (n pi / l)^2 m on |V| >= m, found by
    bracketed bisection (one per side).  W1/W2: the stated detachment
    thresholds of the level ladders.  The W1 value (n pi/l)^2/(|beta| m) is
    the one-point threshold; the exact detachment is where
    k^2(E = -m) = (n pi/l)^2, e.g. V ~ 13.28 against 14.21 for n = 3, l = 2.5
    on the pencil (1, 0, 1).
    """
    l = geom.l
    q = (n * np.pi / l) ** 2
    if stype.tag == "H1":
        out = []
        # level hits E = +m when V >= m: (V - m)^2 (V + m) = q m
        def upper(v):
            return (v - m) ** 2 * (v + m) - q * m

        # level hits E = -m when V <= -m: (V + m)^2 (m - V) = q m
        def lower(v):
            return (v + m) ** 2 * (m - v) - q * m

        for fun, lo, hi in ((lower, -m - 10 * (q + m), -m), (upper, m, m + 10 * (q + m))):
            a, b = lo, hi
            fa, fb = fun(a), fun(b)
            if fa * fb > 0:
                continue
            for _ in range(200):
                c = 0.5 * (a + b)
                fc = fun(c)
                if fa * fc <= 0:
                    b, fb = c, fc
                else:
                    a, fa = c, fc
                if b - a < 1e-13 * max(m, abs(c)):
                    break
            out.append(0.5 * (a + b))
        return sorted(out)
    if stype.tag == "W1":
        if stype.beta is None or stype.beta == 0:
            raise TypeMismatch("W1 cutoffs need beta != 0")
        v = q / (abs(stype.beta) * m)
        return sorted([-v, v])
    if stype.tag == "W2":
        if alpha <= 0:
            raise TypeMismatch("W2 needs alpha > 0")
        return [-q / (2.0 * alpha * m)]
    raise TypeMismatch(f"no threshold law for spectrum type {stype.tag!r}")
