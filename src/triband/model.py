"""Shared parameters and scalar kernels for the 1D pseudospin-one Hamiltonian.

The Hamiltonian is H = -i S_y d/dx + m S_z + diag(V11, V22, V33) acting on a
three-component wave function, with S_y, S_z the spin-one matrices.  The
matrices never enter the numerics: everything downstream (band structure,
bound states, strength sweeps, point-interaction limits) is expressed through
the renormalized strengths

    v1 = V11 + m,   v2 = V22,   v3 = V33 - m,   va = (v1 + v3) / 2

and the scalar kernels defined here: the dispersion k^2(E) with
W(E) = k^2/(E - v2), one expression each per flat-band plane (`dispersion`),
the exterior decay rate kappa, and the trigonometric kernels
s(w, t) = sin(sqrt(w) t)/sqrt(w), c(w, t) = cos(sqrt(w) t) which are
analytically continued to w < 0 (imaginary wave number) via sinh/cosh.  Using
(s, c) of the real variable w = k^2 keeps every residual real-analytic in E,
so no branch bookkeeping for imaginary k is needed anywhere.

Energies are in units of the mass gap m (m = 1.0 by default), lengths in 1/m.
All functions are pure and stateless.
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
    """kappa below tolerance: E too close to the gap edges +-m."""


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
    """Bare strengths (V11, V22, V33) of the diagonal potential plus the mass.

    The renormalized strengths v1, v2, v3 and their average va are derived
    properties; v1 - v11 = m and v33 - v3 = m hold exactly by construction.
    """

    v11: float
    v22: float
    v33: float
    m: float = 1.0

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")

    @property
    def v1(self) -> float:
        return self.v11 + self.m

    @property
    def v2(self) -> float:
        return self.v22

    @property
    def v3(self) -> float:
        return self.v33 - self.m

    @property
    def va(self) -> float:
        return 0.5 * (self.v1 + self.v3)

    @classmethod
    def from_renormalized(cls, v1: float, v2: float, v3: float, m: float = 1.0):
        return cls(v11=v1 - m, v22=v2, v33=v3 + m, m=m)

    def scale(self) -> float:
        """Characteristic energy used for relative tolerances."""
        return max(self.m, abs(self.v1), abs(self.v2), abs(self.v3))

    def on_plane_a(self, rtol: float = PLANE_RTOL) -> bool:
        """V11 + V33 = 2 V22 within tolerance (equivalently v2 = va)."""
        return abs(self.v2 - self.va) <= rtol * self.scale()

    def on_plane_b(self, rtol: float = PLANE_RTOL) -> bool:
        """V33 - V11 = 2m within tolerance (equivalently v1 = v3)."""
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


def kappa(e, m=1.0):
    """Exterior decay rate sqrt(m^2 - E^2); elementwise."""
    return np.sqrt((m - e) * (m + e))


# --- trigonometric kernels ---------------------------------------------------

def sc_kernels(w, t):
    """Return (s, c) with s = sin(sqrt(w) t)/sqrt(w), c = cos(sqrt(w) t).

    Continued to w < 0 as sinh/cosh of sqrt(-w) t; both are entire functions
    of w, evaluated through a series for |w| t^2 < 1e-6.  Elementwise in both
    arguments.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    u = w * t * t
    q = np.sqrt(np.abs(w))
    z = q * t
    with np.errstate(over="ignore", invalid="ignore"):
        s_pos = np.where(q > 0, np.sin(z) / np.where(q == 0, 1.0, q), t)
        c_pos = np.cos(z)
        s_neg = np.where(q > 0, np.sinh(z) / np.where(q == 0, 1.0, q), t)
        c_neg = np.cosh(z)
    s = np.where(u >= 0, s_pos, s_neg)
    c = np.where(u >= 0, c_pos, c_neg)
    small = np.abs(u) < 1e-6
    if np.any(small):
        s_ser = t * (1.0 - u / 6.0 + u * u / 120.0)
        c_ser = 1.0 - u / 2.0 + u * u / 24.0
        s = np.where(small, s_ser, s)
        c = np.where(small, c_ser, c)
    if s.ndim == 0:
        return float(s), float(c)
    return s, c


def sc_ratio(w, t):
    """Return s(w, t)/c(w, t) for w <= 0 without overflow (tanh form).

    Only meaningful where c does not vanish, i.e. for w <= 0 where
    c = cosh >= 1; used to normalize residuals in the imaginary-k region.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    q = np.sqrt(np.abs(w))
    z = q * t
    with np.errstate(invalid="ignore"):
        r = np.where(q > 0, np.tanh(z) / np.where(q == 0, 1.0, q), t)
    small = np.abs(w * t * t) < 1e-6
    if np.any(small):
        r = np.where(small, t * (1.0 + w * t * t / 3.0), r)
    if r.ndim == 0:
        return float(r)
    return r


# --- scalar kernels ----------------------------------------------------------

def dispersion(cfg: PotentialConfig):
    """(plane, k2, w): the reduction of cfg and its k^2(E) and W(E) = k^2/(E - v2).

    plane is "generic", "A" (v2 = va) or "AB" (also v1 = v3), decided once at
    REDUCE_RTOL; k2 and w are elementwise functions of E with one expression
    per plane:

        generic  k2 = (E - v1)(E - v2)(E - v3)/(E - va)   W = (E - v1)(E - v3)/(E - va)
        A        k2 = (E - v1)(E - v3)                    W = (E - v1)(E - v3)/(E - v2)
        AB       k2 = (E - v2)^2                          W = E - v2

    On the planes the pole of k^2 at va cancels against its zero at v2.
    Neither function guards its pole (va off the planes, v2 for W on plane
    A): k_squared and the connection matrix raise PoleAtVa there, and the
    bound-state scan keeps a window around va.
    """
    v1, v2, v3, va = cfg.v1, cfg.v2, cfg.v3, cfg.va
    if not cfg.on_plane_a(REDUCE_RTOL):
        return (
            "generic",
            lambda e: (e - v1) * (e - v2) * (e - v3) / (e - va),
            lambda e: (e - v1) * (e - v3) / (e - va),
        )
    if not cfg.on_plane_b(REDUCE_RTOL):
        return (
            "A",
            lambda e: (e - v1) * (e - v3),
            lambda e: (e - v1) * (e - v3) / (e - v2),
        )
    return "AB", lambda e: (e - v2) ** 2, lambda e: e - v2


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
        tol = POLE_RTOL * max(cfg.m, abs(va))
        if np.any(np.abs(e - va) < tol):
            raise PoleAtVa(f"E within {tol} of the pole at va = {va}")
    out = k2(e)
    if out.ndim == 0:
        return float(out)
    return out
