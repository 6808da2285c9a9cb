"""Shared parameters and scalar kernels for the 1D pseudospin-one Hamiltonian.

The Hamiltonian is H = -i S_y d/dx + m S_z + diag(V11, V22, V33) acting on a
three-component wave function, with S_y, S_z the spin-one matrices.  The
matrices never enter the numerics: everything downstream (band structure,
bound states, strength sweeps, point-interaction limits) is expressed through
the renormalized strengths

    v1 = V11 + m,   v2 = V22,   v3 = V33 - m,   va = (v1 + v3) / 2

and the scalar kernels defined here: the dispersion k^2(E) with
W(E) = k^2/(E - v2), one expression each per flat-band plane (`dispersion`),
the exterior decay rate kappa and component ratio rho of the decaying ray,
and the trigonometric kernels s(w, t) = sin(sqrt(w) t)/sqrt(w),
c(w, t) = cos(sqrt(w) t), continued to w < 0 (imaginary wave number) via
sinh/cosh (`sc_kernels`), or as the bounded pair (s/c, 1) there, the scan's
one-pass form (`sc_bounded`).  Using (s, c) of the real variable w = k^2 keeps
every residual real-analytic in E, so no branch bookkeeping for imaginary k is needed.

Energies are in units of the mass gap m and lengths in 1/m, so m = 1 in every
module but triband.cli, whose --m rescales.  All functions are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance below which E is considered to sit on the k^2 pole at va.
POLE_RTOL = 1e-12
# Relative tolerance on the linear flat-band relations (plane membership
# as reported to users; absorbs float noise of symbolically built inputs).
PLANE_RTOL = 1e-9
# Stricter tolerance at which the numerics switch to the exact on-plane
# reductions; strengths further off the plane than this keep the generic
# formulas, whose answers differ from the reduced ones by the plane offset.
REDUCE_RTOL = 1e-12

SQRT2 = np.sqrt(2.0)


class DomainError(ValueError):
    """Base class for numerical-domain failures (CLI exit code 2)."""


class PoleAtVa(DomainError):
    """E coincides with the pole of k^2 at the average strength va."""


class ZeroEnergyPole(DomainError):
    """E = 0 hit where an expression carries a 1/E factor."""


class ZeroK(DomainError):
    """k = 0 hit where an expression carries a 1/k factor."""


class GapEdge(DomainError):
    """kappa below tolerance: E too close to the gap edges +-1."""


class DegenerateRoots(DomainError):
    """Cubic root verification failed (residual above tolerance)."""


class PlaneMismatch(DomainError):
    """Flat-band quantity requested off the corresponding plane."""


class OutOfDomainSolution(DomainError):
    """A bound-state solution does not belong to the given configuration."""


class MuPole(DomainError):
    """2E = v1 + v3 hit in the discontinuity factor mu."""


class TypeMismatch(DomainError):
    """Operation asked for a spectrum type it does not support."""


class OutOfValidityWindow(DomainError):
    """Closed-form limit evaluated outside its stated validity window."""


class UnsupportedCombination(DomainError):
    """(squeeze family, spectrum type, level index) not covered by the theory."""


class BranchLost(DomainError):
    """No finite-size state found within the capture radius of a limit level."""


@dataclass(frozen=True)
class PotentialConfig:
    """Bare strengths (V11, V22, V33) of the diagonal potential, in units of m.

    The renormalized strengths v1 = V11 + 1, v2 = V22, v3 = V33 - 1 and their
    average va are derived properties.
    """

    v11: float
    v22: float
    v33: float

    @property
    def v1(self) -> float:
        return self.v11 + 1.0

    @property
    def v2(self) -> float:
        return self.v22

    @property
    def v3(self) -> float:
        return self.v33 - 1.0

    @property
    def va(self) -> float:
        return 0.5 * (self.v1 + self.v3)

    @classmethod
    def from_renormalized(cls, v1: float, v2: float, v3: float):
        return cls(v11=v1 - 1.0, v22=v2, v33=v3 + 1.0)

    def scale(self) -> float:
        """Characteristic energy used for relative tolerances."""
        return max(1.0, abs(self.v1), abs(self.v2), abs(self.v3))

    def on_plane_a(self, rtol: float = PLANE_RTOL) -> bool:
        """V11 + V33 = 2 V22 within tolerance (equivalently v2 = va)."""
        return abs(self.v2 - self.va) <= rtol * self.scale()

    def on_plane_b(self, rtol: float = PLANE_RTOL) -> bool:
        """V33 - V11 = 2 within tolerance (equivalently v1 = v3)."""
        return abs(self.v1 - self.v3) <= rtol * self.scale()


@dataclass(frozen=True)
class Geometry:
    """Support [x1, x2] of the rectangular potential."""

    x1: float
    x2: float

    def __post_init__(self):
        if not self.x2 > self.x1:
            raise ValueError(f"need x1 < x2, got [{self.x1}, {self.x2}]")

    @property
    def l(self) -> float:
        return self.x2 - self.x1

    @property
    def a(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @classmethod
    def centered(cls, l: float) -> "Geometry":
        return cls(-0.5 * l, 0.5 * l)


def kappa(e):
    """Exterior decay rate sqrt(1 - E^2); elementwise."""
    return np.sqrt((1.0 - e) * (1.0 + e))


def rho(e):
    """Component ratio sqrt((1 - E)/(1 + E)) of the decaying exterior ray,
    which is proportional to (1/rho, sqrt(2), rho); elementwise."""
    return np.sqrt((1.0 - e) / (1.0 + e))


# --- trigonometric kernels ---------------------------------------------------

def _sc_series(u, t):
    """(s, c) through their series in u = w t^2, for |u| < 1e-6."""
    return t * (1.0 - u / 6.0 + u * u / 120.0), 1.0 - u / 2.0 + u * u / 24.0


def sc_kernels(w, t):
    """Return (s, c) with s = sin(sqrt(w) t)/sqrt(w), c = cos(sqrt(w) t).

    Continued to w < 0 as sinh/cosh of sqrt(-w) t; both are entire functions
    of w, evaluated through a series for |w| t^2 < 1e-6.  Elementwise in both
    arguments, each branch (trig, hyperbolic, series) on its own points only.
    """
    w, t = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(t, dtype=float))
    u = w * t * t
    s, c = np.empty_like(u), np.empty_like(u)
    small = np.abs(u) < 1e-6
    trig = ~small & (u >= 0)
    for pick, sin, cos in ((trig, np.sin, np.cos), (~small & ~trig, np.sinh, np.cosh)):
        q = np.sqrt(np.abs(w[pick]))
        z = q * t[pick]
        s[pick] = sin(z) / q
        c[pick] = cos(z)
    s[small], c[small] = _sc_series(u[small], t[small])
    if s.ndim == 0:
        return float(s), float(c)
    return s, c


def sc_bounded(w, t):
    """(s, c) where w >= 0 and (s/c, 1) = (tanh(sqrt(-w) t)/sqrt(-w), 1) where w < 0.

    One pass with no masks: tanh, sin and cos run on every point and np.where
    picks.  All three are bounded on finite input and q = 1 on the series
    points (|w| t^2 < 1e-6), so no discarded branch can warn.  Each element
    gets the floats of its own branch (sc_kernels, or tanh and its series).
    """
    u = w * t * t
    small, neg = np.abs(u) < 1e-6, w < 0
    q = np.where(small, 1.0, np.sqrt(np.abs(w)))
    z = q * t
    s = np.where(neg, np.tanh(z), np.sin(z)) / q
    c = np.where(neg, 1.0, np.cos(z))
    if small.any():
        series = np.where(neg, (t * (1.0 + u / 3.0), np.ones_like(u)), _sc_series(u, t))
        s, c = np.where(small, series, (s, c))
    return s, c


# --- scalar kernels ----------------------------------------------------------

# k^2 and W = k^2/(E - v2) per plane, elementwise in E and in the strengths
K2_OF_PLANE = {
    "generic": lambda e, v1, v2, v3, va: (e - v1) * (e - v2) * (e - v3) / (e - va),
    "A": lambda e, v1, v2, v3, va: (e - v1) * (e - v3),
    "AB": lambda e, v1, v2, v3, va: (e - v2) ** 2,
}
W_OF_PLANE = {
    "generic": lambda e, v1, v2, v3, va: (e - v1) * (e - v3) / (e - va),
    "A": lambda e, v1, v2, v3, va: (e - v1) * (e - v3) / (e - v2),
    "AB": lambda e, v1, v2, v3, va: e - v2,
}


def plane_of(cfg: PotentialConfig) -> str:
    """"generic", "A" (v2 = va) or "AB" (also v1 = v3), decided at REDUCE_RTOL."""
    if not cfg.on_plane_a(REDUCE_RTOL):
        return "generic"
    return "A" if not cfg.on_plane_b(REDUCE_RTOL) else "AB"


def dispersion(cfg: PotentialConfig):
    """(plane, k2, w): the reduction of cfg and its k^2(E) and W(E) = k^2/(E - v2).

    plane is plane_of(cfg); k2 and w are elementwise functions of E with one
    expression per plane (K2_OF_PLANE, W_OF_PLANE, which also take arrays of
    strengths):

        generic  k2 = (E - v1)(E - v2)(E - v3)/(E - va)   W = (E - v1)(E - v3)/(E - va)
        A        k2 = (E - v1)(E - v3)                    W = (E - v1)(E - v3)/(E - v2)
        AB       k2 = (E - v2)^2                          W = E - v2

    On the planes the pole of k^2 at va cancels against its zero at v2.
    Neither function guards its pole (va off the planes, v2 for W on plane
    A): k_squared and the connection matrix raise PoleAtVa there, and the
    bound-state scan keeps a window around va.
    """
    plane = plane_of(cfg)
    k2, w = K2_OF_PLANE[plane], W_OF_PLANE[plane]
    v = (cfg.v1, cfg.v2, cfg.v3, cfg.va)
    return plane, lambda e: k2(e, *v), lambda e: w(e, *v)


def k_squared(cfg: PotentialConfig, e):
    """Squared wave number (E - v1)(E - v2)(E - v3)/(E - va); elementwise.

    A negative value signals an imaginary wave number.  On the plane v2 = va
    the reduced polynomial forms of dispersion() are returned, valid for
    every E.  Off the plane, querying within POLE_RTOL of va raises PoleAtVa.
    """
    e = np.asarray(e, dtype=float)
    plane, k2, _ = dispersion(cfg)
    if plane == "generic":
        va = cfg.va
        tol = POLE_RTOL * max(1.0, abs(va))
        if np.any(np.abs(e - va) < tol):
            raise PoleAtVa(f"E within {tol} of the pole at va = {va}")
    out = k2(e)
    if out.ndim == 0:
        return float(out)
    return out
