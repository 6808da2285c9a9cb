"""Alternating parent/change runs of perfbench/run.py, folded into one JSON file.

    python3 tools/bench_record.py --parent HEAD~1 --workload sweep_fig6 \
        --seeds 101-110 --seconds 20 --trace 0 --out BENCH_7.json

--parent is a git revision: its committed files are unpacked with `git archive`
into a temporary directory and benchmarked there.  The change is this checkout
(or --change DIR).  Each seed makes one pair of runs, and the order within a
pair alternates (parent first on even pairs, change first on odd ones), so a
drift of the machine does not favour either side.  The last JSON line of every
run goes into --out, with the machine (nproc, Python and numpy versions) and,
per workload, trace mode and metric, the medians and quartiles of both sides,
the number of pairs the change wins and the verdicts `gain_shown` and, for the
end-to-end metrics of BENCHMARK.json, `regression` (see _compare).  An
existing --out is extended, so one file can hold several workloads.  Run from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _unpack(rev: str, dest: Path) -> Path:
    archive = dest / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "parent")
    return dest / "parent"


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values):
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def _compare(par, chg, sign, bound=None) -> dict:
    """One metric's paired parent and change values: both sides' medians and
    quartiles, the pairs the change wins (`sign` +1 where higher is better,
    -1 where lower is), and two verdicts.

    gain_shown, whether a gain may be claimed: at least ten pairs, the
    change wins at least nine tenths of them, and its median beats the
    parent's by more than the parent's interquartile range.  regression,
    for metrics with a relative `bound`: "worse" when the change median is
    worse by more than bound x the parent median; "unresolved" when the
    parent's interquartile range is wider than that, unless every change run
    beats every parent run; "no worse" otherwise.
    """
    p, c = _quartiles(par), _quartiles(chg)
    gain = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(par, chg))
    out = {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "gain_shown": bool(len(par) >= 10 and 10 * wins >= 9 * len(par) and gain > spread),
    }
    if bound is not None:
        allowed = bound * abs(p["median"])
        if gain < -allowed:
            out["regression"] = "worse"
        elif spread > allowed and not min(sign * y for y in chg) > max(sign * x for x in par):
            out["regression"] = "unresolved"
        else:
            out["regression"] = "no worse"
    return out


def summarize(runs, declared) -> dict:
    """Per (workload, trace) and metric, _compare of the paired runs; only
    end-to-end metrics have a bound, so only they get a regression verdict."""
    better = {
        m["name"]: m["better"] for kind in ("end_to_end", "per_layer") for m in declared[kind]
    }
    bound = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    out = {}
    groups = sorted({(r["workload"], r["trace"]) for r in runs})
    for workload, trace in groups:
        pairs = {}
        for r in runs:
            if (r["workload"], r["trace"]) == (workload, trace):
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        metrics = {}
        for name in pairs[0]["parent"]["metrics"] if pairs else ():
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            sign = 1.0 if better.get(name) == "higher" else -1.0
            metrics[name] = _compare(par, chg, sign, bound.get(name))
        out[f"{workload}/trace{trace}"] = {
            "pairs": len(pairs),
            "all_correct": all(p[s]["correct"] for p in pairs for s in p),
            "metrics": metrics,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default=str(ROOT), help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out_path = Path(args.out)
    record = json.loads(out_path.read_text()) if out_path.exists() else {"runs": []}
    record["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_rev = subprocess.run(
            ["git", "rev-parse", args.parent], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            check=True,
        ).stdout.strip()
        sides = {"parent": _unpack(parent_rev, Path(tmp)), "change": Path(args.change)}
        for k, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(sides[side], args.workload, seed, args.seconds, args.trace)
                record["runs"].append({
                    "side": side, "workload": args.workload, "seed": seed,
                    "seconds": args.seconds, "trace": args.trace, "result": result,
                })
                value = result["metrics"].get("ops_per_s", {}).get("value")
                print(f"{args.workload} seed={seed} {side}: ops_per_s={value}", flush=True)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
    record["parent_rev"] = parent_rev
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record["summary"] = summarize(record["runs"], declared)
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
