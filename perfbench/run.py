"""triband benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  --trace 0 runs a closed loop of operations
for --seconds and measures set-up as the median of SETUP_SAMPLES fresh
interpreters, each importing triband, generating the inputs and making one
warm-up call; half of them start before the loop and half after it, so the
median spans the run.  --trace 1 ignores --seconds: it runs a fixed pass of
the workload untraced, traced, untraced and traced again; a fixed pass keeps
every count exactly repeatable.  The metrics reported, with their units, are
those BENCHMARK.json declares.  See README.md.

Prints every metric by name with its unit; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The full result, with
machine information, goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "_out"
WORKLOADS = ("solve_mix", "sweep_fig6", "verify_oracle", "cli_small")
SETUP_SAMPLES = 9
# Time allowed beyond --seconds for the whole run: the set-up samples, the
# pass that overruns --seconds, or a traced run, which ignores --seconds.
DEADLINE_MARGIN_S = 150


def _worker(args, env, deadline):
    """Run worker.py; (seconds until it printed "ready", its JSON result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "triband" / "__init__.py").is_file():
        sys.stderr.write(f"no triband sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT.mkdir(exist_ok=True)

    if args.trace:
        _, res = _worker(base + ["--trace"], env, deadline)
        values = res["metrics"]
        units = inputs.declared_metrics("per_layer")
        checks = {"counts_repeat": res["counts_repeat"], "wrappers_restored": res["restored"]}
        if res["counts_mismatched"]:
            sys.stderr.write(f"counts differ between traced passes: {res['counts_mismatched']}\n")
        extra = {"untraced_pass_s": res["untraced_s"], "traced_pass_s": res["traced_s"]}
    else:
        def setup():
            return _worker(base + ["--setup-only"], env, deadline)[0]

        setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
        setup_s, res = _worker(base + ["--seconds", str(args.seconds)], env, deadline)
        setups += [setup_s] + [setup() for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
        values = {**res, "setup_s": statistics.median(setups)}
        units = inputs.declared_metrics("end_to_end")
        checks = {}
        extra = {"setup_samples_s": setups, "op_samples": res["op_samples"], "passes": res["passes"]}
        if "op_p90_ms" in res:
            extra["op_p90_ms"] = res["op_p90_ms"]
    report = {name: (values[name], unit) for name, unit in units.items()}

    attempted, failed = res["ops"], res["failed"]
    extra["fail_frac"] = failed / attempted
    correct = failed == 0 and all(checks.values())
    versions = res["versions"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(" ".join(f"{k}={v}" for k, v in versions.items()))
    for name, (value, unit) in report.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in {**extra, **checks}.items():
        print(f"{name} = {value!r}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "extra": extra, "checks": checks, "versions": versions}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
