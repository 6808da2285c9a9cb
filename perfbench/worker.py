"""One benchmark process: set a workload up, then run it timed or traced.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S
    python3 perfbench/worker.py --workload W --seed N --trace

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
worker prints "ready" once set-up is done (import triband, generate the
inputs, one warm-up call), then, unless --setup-only, one JSON line with
the raw results that run.py turns into metrics.

Every workload is a closed loop: the next operation starts when the previous
one has returned.  Each operation's output is checked against the stored
references in refs/; the check runs outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing

ROOT = inputs.BENCH_DIR.parent
OUT = inputs.BENCH_DIR / "_out"
CHILD_TIMEOUT = 150  # seconds; a single CLI command of any workload takes < 10


def _timed(fn, traced):
    """(result, seconds, trace or None) of one in-process call."""
    if not traced:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, None
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
    return result, dt, {"spans": tracer.spans, "restored": tracer.restored}


def _record(dt, ops, failed, trace, label):
    """One operation's result.  label names the CLI command it ran, or the
    configuration it took; a traced one also carries spans, restored and,
    for CLI processes, the import time."""
    return {"dt": dt, "ops": ops, "failed": failed, "label": label, **(trace or {})}


def _pool_cases(indices):
    """[(config, geometry, reference)] for the given pool indices."""
    from triband.model import Geometry, PotentialConfig

    pool = inputs.load_ref("solve_pool.json")["configs"]
    return [
        (PotentialConfig(*pool[i]["v"]), Geometry.centered(pool[i]["l"]), pool[i])
        for i in indices
    ]


class _Workload:
    """A workload: warm_up() once, then op(i) for i = 0, 1, ...; ops come in
    passes of pass_ops, and a traced run repeats the first pass."""

    pass_ops = 1
    fresh_process = False  # each op runs in its own process


class SolveMix(_Workload):
    """find_bound_states, default settings, on the first SOLVE_MIX_SIZE pool
    configurations, in seed order."""

    pass_ops = inputs.SOLVE_MIX_SIZE

    def __init__(self, seed, workdir):
        from triband import boundstates

        self.bs = boundstates
        self.order = inputs.pick(seed, inputs.SOLVE_MIX_SIZE, inputs.SOLVE_MIX_SIZE)
        self.cases = _pool_cases(self.order)

    def warm_up(self):
        # the same configuration whatever the seed, so the seed does not set setup_s
        cfg, geom, _ = _pool_cases([0])[0]
        self.bs.find_bound_states(cfg, geom)

    def op(self, i, traced=False):
        cfg, geom, ref = self.cases[i % len(self.cases)]
        sols, dt, trace = _timed(lambda: self.bs.find_bound_states(cfg, geom), traced)
        got = inputs.levels_outside([s.energy for s in sols], ref["exclude"])
        ok = inputs.levels_match(got, ref["levels"])
        return _record(dt, 1, int(not ok), trace, f"pool{self.order[i % len(self.order)]}")


class VerifyOracle(_Workload):
    """verify.crosscheck_config (solver plus RK4 oracle) on the first
    VERIFY_SIZE pool configurations, in seed order."""

    pass_ops = inputs.VERIFY_SIZE

    def __init__(self, seed, workdir):
        from triband import verify

        self.verify = verify
        self.cases = _pool_cases(range(inputs.VERIFY_SIZE))
        self.order = inputs.pick(seed, inputs.VERIFY_SIZE, inputs.VERIFY_SIZE)

    def warm_up(self):
        self._check(0, False)

    def op(self, i, traced=False):
        return self._check(self.order[i % len(self.order)], traced)

    def _check(self, case, traced):
        cfg, geom, ref = self.cases[case]
        (ok, n_solver, n_oracle, _), dt, trace = _timed(
            lambda: self.verify.crosscheck_config(cfg, geom), traced
        )
        n_ref = len(ref["levels"])
        ok = ok and n_solver == n_oracle == n_ref
        return _record(dt, 1, int(not ok), trace, f"pool{case}")


class _CliWorkload(_Workload):
    """Operations that each run one triband CLI command in a fresh process."""

    fresh_process = True

    def __init__(self, workdir):
        import triband.cli

        self.cli = triband.cli
        self.workdir = workdir

    def run_cli(self, label, argv, traced):
        """(seconds, exit ok, trace or None) of one command in a fresh process."""
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(inputs.BENCH_DIR / "trace_cli.py"), str(spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "triband.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd + argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}\n")
            return dt, False, None
        trace = None
        if traced:
            with open(spans_path) as fh:
                trace = json.load(fh)
            spans_path.unlink()
        return dt, True, trace


class SweepFig6(_CliWorkload):
    """`triband sweep --preset fig6` on a stride-20 subsample of its V grid."""

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        self.offset = inputs.SWEEP_OFFSETS[inputs.pick(seed, len(inputs.SWEEP_OFFSETS), 1)[0]]
        self.csv = str(workdir / "sweep.csv")
        self.argv = inputs.sweep_argv(self.offset, self.csv)
        by_key = {format(p["v"], ".12g"): p for p in inputs.load_ref("sweep_fig6.json")["points"]}
        # the CSV writes V with 12 significant digits, the key used here
        self.expected = [by_key[format(float(v), ".12g")] for v in inputs.sweep_grid(self.offset)[2]]

    def warm_up(self):
        # one V point, the same whatever the seed, so the seed does not set setup_s
        vmin = repr(inputs.sweep_grid(inputs.SWEEP_OFFSETS[0])[0])
        argv = ["sweep", "--preset", "fig6", "--vmin", vmin, "--vmax", vmin, "--nv", "1",
                "--out", self.csv]
        self.cli.main(argv)

    def op(self, i, traced=False):
        dt, ok, trace = self.run_cli("sweep_fig6", self.argv, traced)
        failed = len(self.expected)
        if ok:
            levels = {}
            with open(self.csv) as fh:
                next(fh)
                for line in fh:
                    v, _, e = line.split(",")[:3]
                    levels.setdefault(v, []).append(float(e))
            failed = sum(
                not inputs.levels_match(
                    inputs.levels_outside(levels.get(format(p["v"], ".12g"), []), p["exclude"]),
                    p["levels"],
                )
                for p in self.expected
            )
        return _record(dt, len(self.expected), failed, trace, "sweep_fig6")


class CliSmall(_CliWorkload):
    """The four small CLI commands of inputs.CLI_COMMANDS in seed order."""

    pass_ops = len(inputs.CLI_COMMANDS)
    # the same command whatever the seed, so the seed does not set setup_s
    warm_up_command = "bands"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        names = sorted(inputs.CLI_COMMANDS)
        self.order = [names[i] for i in inputs.pick(seed, len(names), len(names))]
        self.digests = inputs.load_ref("cli_small.json")["outputs"]

    def argv(self, name):
        return [a.replace("{out}", str(self.workdir)) for a in inputs.CLI_COMMANDS[name]]

    def warm_up(self):
        self.cli.main(self.argv(self.warm_up_command))
        self._collect()

    def _collect(self):
        """{file name: sha256} of the outputs in workdir; removes them."""
        out = {}
        for p in sorted(self.workdir.iterdir()):
            if not p.name.endswith(".manifest.json"):  # manifests hold elapsed_s
                out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            p.unlink()
        return out

    def op(self, i, traced=False):
        name = self.order[i % len(self.order)]
        dt, ok, trace = self.run_cli(name, self.argv(name), traced)
        got = self._collect()
        want = {f: d["sha256"] for f, d in self.digests[name].items()}
        return _record(dt, 1, int(not (ok and got == want)), trace, name)


WORKLOADS = {
    "solve_mix": SolveMix,
    "sweep_fig6": SweepFig6,
    "verify_oracle": VerifyOracle,
    "cli_small": CliSmall,
}


def _peak_rss_mb(fresh_process):
    who = resource.RUSAGE_CHILDREN if fresh_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _pass(work, traced, start=0):
    """One pass: ops start .. start + pass_ops - 1; (records, busy seconds)."""
    recs = [work.op(i, traced) for i in range(start, start + work.pass_ops)]
    return recs, sum(r["dt"] for r in recs)


def run_timed(work, seconds):
    """Closed loop of whole passes until `seconds` have elapsed.

    Every pass runs the same fixed set of operations, each under its own
    label (a configuration or a command), and the loop stops only between
    passes, so every run has the same mix of inputs.  Each label's time is
    its median over the run's passes, which drops the passes that other load
    on a shared machine slowed down.  ops_per_s is the operations of one pass
    over the sum of these median times; op_p50_ms is the median, over the
    labels, of the median time per operation (a sweep command is nv
    operations), and op_p90_ms its 90th percentile where there are at least
    100 labels (solve_mix), so that ten lie beyond it.
    """
    times, pass_ops, ops, failed, passes = {}, {}, 0, 0, 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        recs, _ = _pass(work, False, passes * work.pass_ops)
        passes += 1
        for r in recs:
            times.setdefault(r["label"], []).append(r["dt"])
            pass_ops[r["label"]] = r["ops"]
            ops += r["ops"]
            failed += r["failed"]
    median_s = {label: statistics.median(dts) for label, dts in times.items()}
    per_op_ms = [1e3 * median_s[label] / pass_ops[label] for label in median_s]
    result = {
        "ops": ops, "failed": failed,
        "ops_per_s": sum(pass_ops.values()) / sum(median_s.values()),
        "op_p50_ms": statistics.median(per_op_ms),
        "op_samples": sum(len(dts) for dts in times.values()), "passes": passes,
        "peak_rss_mb": _peak_rss_mb(work.fresh_process),
    }
    if len(per_op_ms) >= 100:
        result["op_p90_ms"] = statistics.quantiles(per_op_ms, n=10)[-1]
    return result


def run_traced(work, spans_file):
    """Two traced passes of the same fixed work, each after an untraced one."""
    plain, traced = [], []
    for _ in range(2):
        plain.append(_pass(work, False))
        traced.append(_pass(work, True))
    units = inputs.declared_metrics("per_layer")
    metrics = []
    for recs, _ in traced:
        recs = [r for r in recs if "spans" in r]  # a failed CLI process leaves none
        metrics.append(tracing.layer_metrics(
            units,
            [r["spans"] for r in recs],
            [r["label"] for r in recs],
            import_s=[r["import_s"] for r in recs if "import_s" in r],
        ))
    t_plain = sum(t for _, t in plain)
    t_traced = sum(t for _, t in traced)
    metrics[-1]["trace.overhead"] = t_traced / t_plain - 1.0
    all_recs = [r for recs, _ in plain + traced for r in recs]
    mismatched = [
        k for k, unit in units.items() if unit in tracing.EXACT_UNITS and metrics[0][k] != metrics[1][k]
    ]
    restored = all(r.get("restored", False) for recs, _ in traced for r in recs)
    with open(spans_file, "w") as fh:
        json.dump([{"label": r["label"], "spans": r.get("spans")} for r in traced[-1][0]], fh)
    return {
        "ops": sum(r["ops"] for r in all_recs),
        "failed": sum(r["failed"] for r in all_recs),
        "metrics": metrics[-1],
        "counts_repeat": not mismatched,
        "counts_mismatched": mismatched,
        "restored": restored,
        "untraced_s": t_plain / 2,
        "traced_s": t_traced / 2,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import numpy
    import triband

    src = (ROOT / "src").resolve()
    if Path(triband.__file__).resolve().parent.parent != src:
        raise SystemExit(f"triband imported from {triband.__file__}, not from {src}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        work.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            result = run_traced(work, spans_file)
        else:
            result = run_timed(work, args.seconds)
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
