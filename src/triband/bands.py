"""Three-band dispersion for constant potentials and flat-band classification.

For a constant diagonal potential the dispersion relation is the cubic
(E - v1)(E - v2)(E - v3) = (E - va) k^2.  For real k its three roots are the
eigenvalues of a real symmetric tridiagonal matrix (_cubic_roots), so they are
real, giving the lower, middle and upper bands.  A flat (k-independent)
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


@dataclass(frozen=True)
class BandTriple:
    """The three band energies at each wave number, sorted ascending: floats
    at a scalar k, 1-D arrays at an array of k.  flat_flag, one bool, marks
    the closed-form bands of a flat-band plane."""

    e_minus: float | np.ndarray
    e_mid: float | np.ndarray
    e_plus: float | np.ndarray
    k: float | np.ndarray
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


def _cubic_roots(cfg: PotentialConfig, k):
    """Sorted roots (n, 3) of the dispersion cubic at each k of a 1-D array.

    The cubic is det(E - T(k)) for the real symmetric tridiagonal
    T(k) = [[v1, q, 0], [q, v2, q], [0, q, v3]] with q = k / sqrt(2), so one
    eigvalsh call on the stack of T(k) gives real, sorted roots.  Two Newton
    steps, each accepted only where it lowers the residual, polish them on the
    cubic divided by s = 1 + k^2, whose factors stay finite for |k| < 2^512.
    """
    v1, v2, v3, va = cfg.v1, cfg.v2, cfg.v3, cfg.va
    t = np.zeros((k.size, 3, 3))
    t[:, [0, 1, 2], [0, 1, 2]] = v1, v2, v3
    t[:, [0, 1, 1, 2], [1, 0, 2, 1]] = (k / SQRT2)[:, None]
    e = np.linalg.eigvalsh(t)
    root_s = np.sqrt(1.0 + k * k)[:, None]
    q2 = (k[:, None] / root_s) ** 2

    def scaled(x):
        """g = the cubic / s at x, its slope and the sum of its terms' sizes."""
        a, b, c = (x - v1) / root_s, (x - v2) / root_s, (x - v3) / root_s
        cubic, linear = a * b * (x - v3), q2 * (x - va)
        return cubic - linear, a * b + a * c + b * c - q2, np.abs(cubic) + np.abs(linear)

    for _ in range(2):  # accepted only where it helps: at a multiple root g and
        # g' are both noise and their ratio is garbage
        g, dg, _ = scaled(e)
        trial = e - np.where(dg != 0, g / np.where(dg == 0, 1.0, dg), 0.0)
        e = np.where(np.abs(scaled(trial)[0]) < np.abs(g), trial, e)
    # g is a root's residual to 1e-8 of the terms it cancels, or its Newton
    # step is within 1e-8 of max(1, |E|); the comparison also catches nan
    g, dg, size = scaled(e)
    ok = np.abs(g) <= 1e-8 * (size + np.abs(dg) * np.maximum(1.0, np.abs(e)))
    if not ok.all():
        bad = ~ok.all(axis=1)
        raise DegenerateRoots(f"root residual {np.abs(g[bad][0])} too large at k = {k[bad][0]}")
    return np.sort(e)


def dispersion_bands(cfg: PotentialConfig, k) -> BandTriple:
    """Solve the cubic dispersion at real k, elementwise: a float k gives a
    BandTriple of floats, a 1-D array of k one of arrays.

    On the flat-band planes the flat energy is an exact root for every k and
    the cubic reduces to an explicit quadratic for the dispersive pair, so
    those roots are evaluated in closed form (this also stays exact at the
    multiple-root points k = 0).  Elsewhere _cubic_roots solves all k at once.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    # k^2 is finite exactly for |k| < 2^512; the comparison also catches nan
    overflow = ~(np.abs(ks) < 2.0**512)
    if overflow.any():
        raise DomainError(f"k^2 is not finite at k = {ks[overflow][0]}")
    # the exact reduction is keyed on the strict snap tolerance; membership as
    # reported by classify_flat stays at the looser PLANE_RTOL
    if cfg.on_plane_a(REDUCE_RTOL):
        e0, center, half = cfg.v2, cfg.v2, 0.5 * (cfg.v1 - cfg.v3)
    elif cfg.on_plane_b(REDUCE_RTOL):
        e0, center, half = cfg.v1, 0.5 * (cfg.v1 + cfg.v2), 0.5 * (cfg.v1 - cfg.v2)
    else:
        e0 = None
    if e0 is None:
        e = _cubic_roots(cfg, ks)
    else:  # a stable sort keeps tied energies in order, as sorted() does
        r = np.sqrt(ks * ks + half * half)
        e = np.sort(np.column_stack([center - r, np.full_like(r, e0), center + r]), kind="stable")
    if np.ndim(k) == 0:
        return BandTriple(*map(float, e[0]), float(ks[0]), e0 is not None)
    return BandTriple(*e.T, ks, e0 is not None)


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
    """Bands over a k grid (one BandTriple of arrays, k the grid) and the diagram class."""

    cfg: PotentialConfig
    bands: BandTriple
    panel: str


def band_sweep(cfg: PotentialConfig, k_grid) -> BandSweep:
    """The bands of cfg over a nonempty k grid, from one dispersion_bands call."""
    if np.size(k_grid) == 0:
        raise ValueError("k_grid must be nonempty")
    return BandSweep(cfg, dispersion_bands(cfg, np.atleast_1d(k_grid)), panel_class(cfg))


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
