"""Three-band dispersion for constant potentials and flat-band classification.

For a constant diagonal potential the dispersion relation is the cubic
(E - v1)(E - v2)(E - v3) = (E - va) k^2.  For real k it always has three real
roots (the polynomial changes sign on both sides of min(v1, v3) and
max(v1, v3)), giving the lower, middle and upper bands.  A flat (k-independent)
middle band exists exactly when va coincides with one of the zeros v_j, which
in bare strengths means V11 + V33 = 2 V22 (plane A) or V33 - V11 = 2m
(plane B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    SQRT2,
    DegenerateRoots,
    DomainError,
    PlaneMismatch,
    PotentialConfig,
    ZeroK,
    PLANE_RTOL,
    REDUCE_RTOL,
)

# Acceptable relative residual of F(E) - G(E) k^2 after root polishing.
ROOT_RTOL = 1e-10


@dataclass(frozen=True)
class BandTriple:
    """The three band energies at one wave number, sorted ascending."""

    e_minus: float
    e_mid: float
    e_plus: float
    k: float
    flat_flag: bool = False


@dataclass(frozen=True)
class FlatBandClass:
    """Flat-band membership of a strength triple."""

    on_a: bool
    on_b: bool
    flat_energy: float | None


@dataclass(frozen=True)
class SigmaCoefficients:
    """Outer-component amplitudes of a band eigenvector.

    The eigenvector is col(-sigma1, 1, sigma3) exp(ikx) with purely imaginary
    sigma_j = i k / (sqrt(2)(E - v_j)); only the real factors are stored, so
    sigma_j = 1j * sigma<j>.  For the flat branch on plane B and on the
    intersection line the eigenvector is polarized in the outer components
    (psi2 = 0) and this parametrization degenerates; there sigma1 = sigma3 = 0
    is returned by convention.
    """

    sigma1: float
    sigma3: float
    branch: str
    energy: float


def _cubic_coeffs(cfg: PotentialConfig, k2: float):
    v1, v2, v3, va = cfg.v1, cfg.v2, cfg.v3, cfg.va
    return (
        1.0,
        -(v1 + v2 + v3),
        v1 * v2 + v1 * v3 + v2 * v3 - k2,
        -v1 * v2 * v3 + k2 * va,
    )


def dispersion_bands(cfg: PotentialConfig, k: float) -> BandTriple:
    """Solve the cubic dispersion at real k.

    On the flat-band planes the flat energy is an exact root for every k and
    the cubic reduces to an explicit quadratic for the dispersive pair, so
    those roots are evaluated in closed form (this also stays exact at the
    multiple-root points k = 0).  Generic configurations use companion-matrix
    eigenvalues (np.roots) polished with accepted-only Newton steps.
    """
    k2 = float(k) * float(k)
    if not np.isfinite(k2):  # Python floats overflow to inf without a warning
        raise DomainError(f"k^2 is not finite at k = {k}")
    # the exact reduction is keyed on the strict snap tolerance; membership as
    # reported by classify_flat stays at the looser PLANE_RTOL
    if cfg.on_plane_a(REDUCE_RTOL):
        e0, center, half = cfg.v2, cfg.v2, 0.5 * (cfg.v1 - cfg.v3)
    elif cfg.on_plane_b(REDUCE_RTOL):
        e0, center, half = cfg.v1, 0.5 * (cfg.v1 + cfg.v2), 0.5 * (cfg.v1 - cfg.v2)
    else:
        e0 = None
    if e0 is not None:
        r = np.sqrt(k2 + half * half)
        triple = sorted([center - r, float(e0), center + r])
        return BandTriple(triple[0], triple[1], triple[2], float(k), True)
    coeffs = _cubic_coeffs(cfg, k2)
    roots = np.roots(coeffs)
    scale = max(1.0, abs(coeffs[1]), abs(coeffs[2]), abs(coeffs[3]))
    # multiple roots split into conjugate pairs of size O(eps^(1/3)); genuine
    # complex roots cannot occur (the polynomial changes sign on both sides of
    # min/max(v1, v3)), so only a large imaginary part signals trouble
    if np.max(np.abs(roots.imag)) > 1e-5 * max(1.0, np.max(np.abs(roots.real))):
        raise DegenerateRoots(f"complex dispersion roots at k = {k}: {roots}")
    e = np.sort(roots.real)
    c3, c2, c1, c0 = coeffs

    def poly(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    p = poly(e)
    for _ in range(2):  # Newton polish, accepted only when it helps (at a
        # multiple root p and p' are both noise and their ratio is garbage)
        dp = (3.0 * c3 * e + 2.0 * c2) * e + c1
        step = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        step = np.clip(step, -0.1 * scale, 0.1 * scale)
        trial = e - step
        p_trial = poly(trial)
        better = np.abs(p_trial) < np.abs(p)
        e = np.where(better, trial, e)
        p = np.where(better, p_trial, p)
    order = np.argsort(e)
    e, p = e[order], p[order]
    fscale = 1.0 + np.abs((e - cfg.v1) * (e - cfg.v2) * (e - cfg.v3))
    if np.any(np.abs(p) > 1e-8 * np.maximum(fscale, scale)):
        raise DegenerateRoots(f"root residual {np.abs(p)} too large at k = {k}")
    return BandTriple(float(e[0]), float(e[1]), float(e[2]), float(k), False)


def classify_flat(cfg: PotentialConfig) -> FlatBandClass:
    """Test the flat-band relations and report plane membership."""
    on_a = cfg.on_plane_a()
    on_b = cfg.on_plane_b()
    if on_a:
        flat_e = cfg.v2
    elif on_b:
        flat_e = cfg.v1
    else:
        flat_e = None
    return FlatBandClass(on_a, on_b, flat_e)


def panel_class(cfg: PotentialConfig) -> str:
    """Classify the band diagram by the position of v2 among v1, va, v3.

    Returns one of 'a'..'j'.  Ties (v2 equal to one of the markers within
    tolerance) resolve to the equality panels 'b', 'd', 'f'; the degenerate
    v1 = v3 family maps to 'h'/'i'/'j'.
    """
    tol = PLANE_RTOL * cfg.scale()
    lo, hi = min(cfg.v1, cfg.v3), max(cfg.v1, cfg.v3)
    v2, va = cfg.v2, cfg.va
    if hi - lo <= tol:
        if abs(v2 - lo) <= tol:
            return "j"
        return "h" if v2 < lo else "i"
    if abs(v2 - lo) <= tol:
        return "b"
    if abs(v2 - va) <= tol:
        return "d"
    if abs(v2 - hi) <= tol:
        return "f"
    if v2 < lo:
        return "a"
    if v2 < va:
        return "c"
    if v2 < hi:
        return "e"
    return "g"


@dataclass(frozen=True)
class BandSweep:
    """Band triples over a k grid plus the diagram class of the configuration."""

    cfg: PotentialConfig
    k_grid: np.ndarray
    triples: list
    panel: str


def band_sweep(cfg: PotentialConfig, k_grid) -> BandSweep:
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size == 0:
        raise ValueError("k_grid must be nonempty")
    triples = [dispersion_bands(cfg, k) for k in k_grid]
    return BandSweep(cfg, k_grid, triples, panel_class(cfg))


def band_eigenfunction(cfg: PotentialConfig, k: float, branch: str) -> SigmaCoefficients:
    """Eigenvector coefficients sigma_j = i k / (sqrt(2)(E - v_j)) per branch.

    branch is one of '+', '0', '-'.  Dispersive branches (and the flat branch
    on plane A, where E - v_j stays finite) use the defining formula and
    satisfy the three-component system exactly.  On plane B and on the
    A||B intersection the flat eigenvector carries no psi2 component, so the
    convention sigma1 = sigma3 = 0 is returned; requesting it there is valid,
    but the coefficients are not meaningful off those planes at k = 0.
    """
    if branch not in ("+", "0", "-"):
        raise ValueError(f"branch must be '+', '0' or '-', got {branch!r}")
    if k == 0:
        raise ZeroK("band eigenvectors are parametrized by k != 0")
    triple = dispersion_bands(cfg, k)
    flat = classify_flat(cfg)
    if branch == "+":
        e = triple.e_plus
    elif branch == "-":
        e = triple.e_minus
    else:
        e = triple.e_mid
        if flat.flat_energy is not None:
            e = flat.flat_energy
            tolerance = PLANE_RTOL * cfg.scale()
            degenerate = (abs(e - cfg.v1) <= tolerance) or (abs(e - cfg.v3) <= tolerance)
            if degenerate:
                # psi2-free flat eigenvector: col(1, 0, 1) up to scale
                return SigmaCoefficients(0.0, 0.0, branch, float(e))
    d1, d3 = e - cfg.v1, e - cfg.v3
    if d1 == 0 or d3 == 0:
        raise PlaneMismatch(
            "generic sigma formula degenerates: E coincides with v1 or v3"
        )
    s1 = k / (SQRT2 * d1)
    s3 = k / (SQRT2 * d3)
    return SigmaCoefficients(float(s1), float(s3), branch, float(e))
