"""Point-interaction limits of the squeezed rectangular potential.

Three squeezing rates send the width l to zero with V(l) -> infinity:

    delta:       V = g / l
    two_thirds:  V = g / l^{2/3}
    inv_square:  V = g / l^2

Each supported (spectrum type, rate, level index) combination yields a finite
limit energy E_n and a limit connection matrix Lambda_n acting on the
two-sided boundary values of (psi1 - psi3, psi2) at x = +-0.  The matrices
come in three shapes: a rotation-like matrix for the P/D types (delta rate),
and (-1)^n times a lower- or upper-triangular unit matrix with off-diagonal
2 chi_n or 2/chi_n, where chi_n = -sqrt((1 - E_n^2)/2)/E_n.

The delta rate covers ground states only; excited H/W ladders require the
two_thirds (H1) or inv_square (H2, W1, W2) rates.  The pure first-component
potential (alpha2 = alpha3 = 0 on P1) keeps kl -> 0 with finite k in every
rate and therefore supports no bound state in the limit: limit_energy returns
None for it.  Every other limit energy is spectra.one_point_energy, the one
table of the closed-form laws, which spectra.asymptotic_energy reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundstates import (
    ConnectionMatrix,
    WaveFunction,
    _exterior_ray,
    find_bound_states,
)
from .model import (
    SQRT2,
    BranchLost,
    Geometry,
    OutOfValidityWindow,
    TypeMismatch,
    UnsupportedCombination,
    kappa,
    rho,
    sc_kernels,
)
from .spectra import PencilSpec, classify, one_point_energy, one_point_parity

FAMILIES = ("delta", "two_thirds", "inv_square")


@dataclass(frozen=True)
class SqueezeLaw:
    """Squeezing rate and dimensionless strength g."""

    family: str
    g: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.g == 0:
            raise ValueError("squeeze strength g must be nonzero")

    def v_of_l(self, l: float) -> float:
        if self.family == "delta":
            return self.g / l
        if self.family == "two_thirds":
            return self.g * (1.0 / l**2) ** (1.0 / 3.0)
        return self.g / (l * l)


@dataclass(frozen=True)
class PointInteraction:
    """Limit connection matrix with its bound-state energy."""

    lambda_n: ConnectionMatrix
    e_n: float
    n: int
    chi_n: float


def _is_type_three(pencil: PencilSpec) -> bool:
    z = lambda a: abs(a) <= 1e-12
    return (
        pencil.vertex == "P1"
        and not z(pencil.alpha1)
        and z(pencil.alpha2)
        and z(pencil.alpha3)
    )


def limit_energy(pencil: PencilSpec, law: SqueezeLaw, n: int = 0, parity: str | None = None):
    """Closed-form limit energy, or None when the limit holds no bound state.

    spectra.one_point_energy for the pencil's spectrum type and alpha1, which
    documents parity, n and the errors raised.

    Caveat: with the inv_square rate, n = 0 (H2 and W1) returns the delta
    ground law evaluated at the inv_square g.  That is not the limit of the
    finite-width ground level, which along V = g/l^2 follows the delta law at
    V l = g/l -> infinity: towards 0 for W1 and towards 1 for H2.
    """
    if _is_type_three(pencil):
        return None
    return one_point_energy(
        classify(pencil), law.family, law.g, n=n, parity=parity, alpha=pencil.alpha1
    )


def chi(e: float) -> float:
    return float(-np.sqrt((1.0 - e) * (1.0 + e) / 2.0) / e)


def limit_matrix(
    pencil: PencilSpec,
    law: SqueezeLaw,
    n: int = 0,
    e_n: float | None = None,
    parity: str | None = None,
) -> PointInteraction:
    """Limit connection matrix Lambda_n for a supported combination.

    Lambda_n is the l -> 0 limit of the finite-width connection matrix taken
    at the finite-width level E(l) of the squeeze path, that is of
    boundstates.connection_matrix(cfg(l), Geometry.centered(l), E(l)) with
    E(l) from convergence_study; it is not the limit at the fixed E_n.  Along
    l = 0.1, ..., 0.00625 every entry error against E(l)'s matrix at least
    halves when l does.  At the fixed E_n the delta-rate entries converge
    too, but the ladder entries (n >= 1) do not: there the finite-width
    matrix tends to +-I, its off-diagonal entries vary fast in E near E(l),
    and their error stays between 0.56 (H2 n = 1) and 6.5 (W2 n = 1).
    """
    stype = classify(pencil)
    tag = stype.tag
    if e_n is None:
        e_n = limit_energy(pencil, law, n=n, parity=parity)
    if e_n is None:
        raise UnsupportedCombination("no bound state (hence no matrix) in this limit")
    if tag in ("P", "D"):
        beta = stype.beta
        s, c = sc_kernels(beta, law.g)
        lam = ConnectionMatrix(float(c), float(-SQRT2 * s), float(beta * s / SQRT2), float(c))
        return PointInteraction(lam, float(e_n), 0, chi(e_n))
    x = chi(e_n)
    sign = -1.0 if n % 2 else 1.0
    if tag in ("H2", "W2"):
        lam = ConnectionMatrix(sign, sign * 2.0 / x, 0.0, sign)
    elif tag in ("H1", "W1"):
        lam = ConnectionMatrix(sign, 0.0, sign * 2.0 * x, sign)
    else:
        raise UnsupportedCombination(f"no limit matrix for type {tag!r}")
    return PointInteraction(lam, float(e_n), n, x)


@dataclass(frozen=True)
class ConvergenceRow:
    l: float
    v: float
    e_b: float
    error: float
    order: float | None


def convergence_study(
    pencil: PencilSpec,
    law: SqueezeLaw,
    n: int = 0,
    l_sequence=(),
    parity: str | None = None,
) -> list[ConvergenceRow]:
    """Finite-width energies against the limit value over a decreasing l list.

    For every l the solver runs at V = V(l); the state nearest the limit
    energy (with matching parity) within the capture radius continues the
    branch.  The radius is 0.2 times the distance to the nearest other limit
    level of the same family, or 0.1 when there is none.
    """
    e_limit = limit_energy(pencil, law, n=n, parity=parity)
    if e_limit is None:
        raise UnsupportedCombination("no limit level to converge to")
    tag = classify(pencil).tag
    want_parity = one_point_parity(tag, law.family, n, parity)
    gaps = []
    if tag not in ("P", "D"):  # ladder families: look at neighboring levels
        for other in (n - 1, n + 1):
            if other < 0:
                continue
            try:
                e_o = limit_energy(pencil, law, n=other)
            except (OutOfValidityWindow, UnsupportedCombination, TypeMismatch):
                continue
            if e_o is not None:
                gaps.append(abs(e_o - e_limit))
    capture_radius = 0.2 * min(gaps) if gaps else 0.1
    rows: list[ConvergenceRow] = []
    prev_err = None
    prev_l = None
    for l in l_sequence:
        v = law.v_of_l(l)
        cfg = pencil.config(v)
        geom = Geometry.centered(l)
        lv = find_bound_states(cfg, geom)
        e = lv.energy[(lv.parity == want_parity) & (np.abs(lv.energy - e_limit) <= capture_radius)]
        if e.size == 0:
            raise BranchLost(
                f"no {want_parity} state within {capture_radius:g} of {e_limit:g} at l={l:g}"
            )
        best = float(e[np.argmin(np.abs(e - e_limit))])  # the first on a tie, as min
        err = abs(best - e_limit)
        order = None
        if prev_err is not None and err > 0 and prev_err > 0 and prev_l is not None:
            order = float(np.log(prev_err / err) / np.log(prev_l / l))
        rows.append(ConvergenceRow(float(l), float(v), best, float(err), order))
        prev_err, prev_l = err, l
    return rows


def squeezed_eigenfunction(
    pencil: PencilSpec,
    law: SqueezeLaw,
    n: int = 0,
    x_grid=(),
    parity: str | None = None,
) -> WaveFunction:
    """Two-sided exponential eigenfunction of the point interaction.

    The zero-width limit of the rectangle's wave function: its decaying rays
    (boundstates._exterior_ray) with both edges at x = 0 and unit amplitude,
    so (1/rho, +-sqrt(2), +-rho) e^{-kappa |x|} on each side.
    """
    e = limit_energy(pencil, law, n=n, parity=parity)
    if e is None:
        raise UnsupportedCombination("no bound state in this limit")
    par = one_point_parity(classify(pencil).tag, law.family, n, parity)
    x = np.array(x_grid, dtype=float)
    right = x > 0
    psi = np.empty((3, x.size))
    for side, is_right in ((~right, False), (right, True)):
        psi[:, side] = _exterior_ray(par, kappa(e), rho(e), 1.0, np.abs(x[side]), is_right)
    return WaveFunction(x, *psi)
