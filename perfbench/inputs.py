"""Workload inputs and the stored correctness references.

Everything a workload feeds to triband is derived here from the workload
seed and the reference files under ``refs/``; the package under test only
ever receives the generated inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS = BENCH_DIR / "refs"
DECLARATION = BENCH_DIR.parent / "BENCHMARK.json"

# Pool of random configurations, drawn like triband.verify.random_configs
# (strengths U[-5, 5] m, widths U[0.2, 3]/m); solve_mix and verify_oracle
# take their inputs from it, so every input has a stored oracle reference.
POOL_SEED = 20231027
POOL_SIZE = 300
# solve_mix solves the first SOLVE_MIX_SIZE pool configurations in each pass,
# in seed order, so that every run holds the same work.
SOLVE_MIX_SIZE = 200
# verify_oracle cross-checks the first VERIFY_SIZE pool configurations in
# each pass, in seed order.  A cross-check takes 1.2-2.5 s depending on the
# configuration, so a run holds about three passes; every run then has the
# same mix, where a seed-drawn subset that small, or a pass of part of a
# larger set, would make the seed, not the code, set the figures.
VERIFY_SIZE = 4

# The fig6 preset of `triband sweep`: vertex P2, alphas (1, 1, -1), l = 2,
# over the command's default grid linspace(-12, 12, 2400).
FIG6_PENCIL = ("P2", (1.0, 1.0, -1.0))
FIG6_L = 2.0
FIG6_GRID = (-12.0, 12.0, 2400)
# One sweep command covers every SWEEP_STRIDE-th point of that grid, starting
# at an offset the seed picks among SWEEP_OFFSETS.
SWEEP_NV = 120
SWEEP_STRIDE = 20
SWEEP_OFFSETS = (0, 10)

# Levels closer than this (in units of m) to a reference level match it;
# the tolerance triband.verify uses for solver-versus-oracle agreement.
LEVEL_ATOL = 1e-8

# cli_small: four small commands, each run in a fresh process; {out} stands
# for the run's output directory.
CLI_COMMANDS = {
    "bands": ["bands", "--v", "3,1.5,0", "--out", "{out}/bands.csv"],
    "boundstates_fig3": [
        "boundstates", "--preset", "fig3",
        "--out", "{out}/fig3.csv", "--wavefunction", "{out}/fig3_wf.csv",
    ],
    "pointlimit_converge": [
        "pointlimit", "--family", "delta", "--set", "H2", "--g", "2", "--converge",
        "--out", "{out}/converge.csv",
    ],
    "pointlimit_table1": ["pointlimit", "--preset", "table1", "--out", "{out}/table1.json"],
}


def sweep_grid(offset: int):
    """(vmin, vmax, V values) of the sweep command at a grid offset.

    The V values are computed exactly as the command computes them from its
    --vmin/--vmax/--nv arguments, so references match float for float.
    """
    grid = np.linspace(*FIG6_GRID)
    vmin = float(grid[offset])
    vmax = float(grid[offset + SWEEP_STRIDE * (SWEEP_NV - 1)])
    return vmin, vmax, np.linspace(vmin, vmax, SWEEP_NV)


def sweep_argv(offset: int, out_csv: str):
    vmin, vmax, _ = sweep_grid(offset)
    return [
        "sweep", "--preset", "fig6", "--vmin", repr(vmin), "--vmax", repr(vmax),
        "--nv", str(SWEEP_NV), "--out", out_csv,
    ]


def declared_metrics(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json,
    the one list of the metrics a run reports."""
    with open(DECLARATION) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_ref(name: str) -> dict:
    with open(REFS / name) as fh:
        return json.load(fh)


def pick(seed: int, n_items: int, k: int):
    """k distinct indices out of n_items, in a seed-determined order."""
    return [int(i) for i in np.random.default_rng(seed).permutation(n_items)[:k]]


def levels_outside(levels, exclude):
    """Sorted levels that lie outside every excluded (lo, hi) window."""
    return sorted(e for e in levels if not any(lo < e < hi for lo, hi in exclude))


def levels_match(got, want, atol: float = LEVEL_ATOL) -> bool:
    """Same number of levels and each within atol of its reference."""
    if len(got) != len(want):
        return False
    return all(abs(a - b) < atol for a, b in zip(got, want))
