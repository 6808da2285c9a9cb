"""Regenerate the stored 40-digit band reference, tests/data/band_reference.json.

    python3 tools/make_band_reference.py

The reference holds the off-plane configurations of the band tests
(tests/test_bands.py, _reference_cases: every configuration there that
dispersion_bands does not reduce to a flat-band plane), the wave numbers K and,
for each (configuration, k), the three roots of the dispersion cubic
(E - v1)(E - v2)(E - v3) = k^2 (E - va) in the configuration's floats v1, v2,
v3 and va, sorted and written with DIGITS significant digits.  The roots come
from mpmath.polyroots at WORK_DPS digits, on coefficients that are exact at
that precision; a zero constant term is stripped and gives an exact zero root.
Tier-1 reads the JSON, so neither the tests nor the package need mpmath.  The
output depends only on the inputs, so two runs write the same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
from test_bands import _reference_cases  # noqa: E402
from triband.model import REDUCE_RTOL  # noqa: E402

OUT = ROOT / "tests" / "data" / "band_reference.json"
K = (0.0, 1e-9, 0.3, -1.0, 2.0, 3.7, -5.0, 37.5, 1e6)
DIGITS = 40
WORK_DPS = 80  # holds every coefficient exactly: v1 v2 v3 needs 159 bits


def cubic_roots(cfg, k: float) -> list[str]:
    """The three sorted roots of cfg's dispersion cubic at k, as DIGITS-digit strings."""
    v1, v2, v3, va = (mpmath.mpf(x) for x in (cfg.v1, cfg.v2, cfg.v3, cfg.va))
    k2 = mpmath.mpf(k) ** 2
    coeffs = [1, -(v1 + v2 + v3), v1 * v2 + v1 * v3 + v2 * v3 - k2, -v1 * v2 * v3 + k2 * va]
    zeros = []
    while coeffs[-1] == 0:
        coeffs.pop()
        zeros.append(mpmath.mpf(0))
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=4 * WORK_DPS) if len(coeffs) > 1 else []
    # the roots are real: the cubic changes sign on both sides of min/max(v1, v3)
    assert all(abs(mpmath.im(r)) <= mpmath.mpf(10) ** (-WORK_DPS // 2) * (1 + abs(r)) for r in roots)
    return [mpmath.nstr(r, DIGITS) for r in sorted([mpmath.re(r) for r in roots] + zeros)]


def main():
    mpmath.mp.dps = WORK_DPS
    cfgs, _ = _reference_cases()
    cfgs = [c for c in cfgs if not (c.on_plane_a(REDUCE_RTOL) or c.on_plane_b(REDUCE_RTOL))]
    reference = {
        "about": "sorted roots of (E - v1)(E - v2)(E - v3) = k^2 (E - va), "
        f"{DIGITS} significant digits; tools/make_band_reference.py",
        "configs": [[c.v11, c.v22, c.v33] for c in cfgs],
        "k": list(K),
        "roots": [[cubic_roots(c, k) for k in K] for c in cfgs],
    }
    OUT.parent.mkdir(exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"{len(cfgs)} configurations x {len(K)} k -> {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
