"""Regenerate the stored correctness references under refs/.

    python3 perfbench/make_refs.py

Levels come from the RK4 shooting oracle (triband.oracle) on the comparison
domain of triband.verify.comparison_domain, computed with its default
settings (n_grid 4000, n_steps 2000).  The oracle itself runs with
REF_STEPS RK4 steps: at the default 2000 steps its phase error reaches
~1.6e-7 m on the largest fig6 strengths, above the 1e-8 m level tolerance,
while 8000 steps bring it to ~6e-10 m (RK4 error falls 16x per halving of
the step).  Takes about half an hour on two cores, which is why the
references are stored instead of computed in a benchmark run.

The cli_small references are SHA-256 digests of the command outputs at the
commit the references were made from.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
from inputs import REFS  # noqa: E402

ROOT = inputs.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
from triband import oracle, verify  # noqa: E402
from triband.model import Geometry, PotentialConfig  # noqa: E402

REF_STEPS = 8000
JOBS = 2  # oracle processes


def random_pool():
    """[(v11, v22, v33, l)] for the configuration pool, m = 1."""
    rng = np.random.default_rng(inputs.POOL_SEED)
    out = []
    for _ in range(inputs.POOL_SIZE):
        v = rng.uniform(-5.0, 5.0, size=3)
        l = rng.uniform(0.2, 3.0)
        out.append((float(v[0]), float(v[1]), float(v[2]), float(l)))
    return out


def _oracle_levels(task):
    """(exclude windows, oracle levels) of one (v11, v22, v33, l, renormalized)."""
    v11, v22, v33, l, renormalized = task
    if renormalized:
        cfg = PotentialConfig.from_renormalized(v11, v22, v33)
    else:
        cfg = PotentialConfig(v11, v22, v33)
    geom = Geometry.centered(l)
    exclude = [[float(a), float(b)] for a, b in verify.comparison_domain(cfg, geom)]
    levels = oracle.oracle_bound_states(
        cfg, geom, n_steps=REF_STEPS, extra_exclusions=[tuple(w) for w in exclude]
    )
    return exclude, [float(e) for e in levels]


def _cli_digests():
    out = {}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, argv in inputs.CLI_COMMANDS.items():
        with tempfile.TemporaryDirectory(dir=inputs.BENCH_DIR) as tmp:
            argv = [a.replace("{out}", tmp) for a in argv]
            subprocess.run(
                [sys.executable, "-m", "triband.cli", *argv],
                check=True, cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            out[name] = {
                p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                for p in sorted(Path(tmp).iterdir())
                if not p.name.endswith(".manifest.json")  # manifests hold elapsed_s
            }
    return out


def main():
    REFS.mkdir(exist_ok=True)
    common = {"oracle_n_steps": REF_STEPS, "domain": "verify.comparison_domain defaults"}
    with open(REFS / "cli_small.json", "w") as fh:
        json.dump({"outputs": _cli_digests()}, fh, indent=1, sort_keys=True)

    pool = random_pool()
    _, alphas = inputs.FIG6_PENCIL
    sweep_v = sorted(
        float(v) for off in inputs.SWEEP_OFFSETS for v in inputs.sweep_grid(off)[2]
    )
    tasks = [(*c, False) for c in pool]
    # fig6 is a P2 pencil: renormalized strengths (a1 V, a2 V, a3 V)
    tasks += [(alphas[0] * v, alphas[1] * v, alphas[2] * v, inputs.FIG6_L, True) for v in sweep_v]
    results = []
    with multiprocessing.get_context("spawn").Pool(JOBS) as workers:
        for i, r in enumerate(workers.imap(_oracle_levels, tasks, chunksize=1)):
            results.append(r)
            if (i + 1) % 20 == 0:
                print(f"{i + 1}/{len(tasks)}", flush=True)

    configs = [
        {"v": list(c[:3]), "l": c[3], "exclude": ex, "levels": lv}
        for c, (ex, lv) in zip(pool, results[: len(pool)])
    ]
    with open(REFS / "solve_pool.json", "w") as fh:
        json.dump({**common, "pool_seed": inputs.POOL_SEED, "configs": configs}, fh)
    points = [
        {"v": v, "exclude": ex, "levels": lv}
        for v, (ex, lv) in zip(sweep_v, results[len(pool):])
    ]
    with open(REFS / "sweep_fig6.json", "w") as fh:
        json.dump({**common, "points": points}, fh)


if __name__ == "__main__":
    main()
