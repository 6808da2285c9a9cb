import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_seed_ranges_expand():
    assert bench_record._seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_record._seeds("5") == [5]


def _run(side, seed, ops, p50, workload="solve_mix"):
    metrics = {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}
    return {
        "side": side, "workload": workload, "seed": seed, "trace": 0,
        "result": {"metrics": metrics, "correct": True},
    }


def test_summary_counts_wins_in_each_metric_direction():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    assert better["ops_per_s"] == "higher" and better["op_p50_ms"] == "lower"
    runs = [
        # the change is faster on seeds 1 and 2: more operations per second
        # and a lower median latency; slower on seed 3
        _run("parent", 1, 100.0, 10.0), _run("change", 1, 110.0, 9.0),
        _run("change", 2, 120.0, 8.0), _run("parent", 2, 100.0, 10.0),
        _run("parent", 3, 100.0, 10.0), _run("change", 3, 90.0, 11.0),
    ]
    (key, summary), = bench_record.summarize(runs, declared).items()
    assert key == "solve_mix/trace0"
    assert summary["pairs"] == 3 and summary["all_correct"]
    ops, p50 = summary["metrics"]["ops_per_s"], summary["metrics"]["op_p50_ms"]
    assert ops["change_wins"] == 2 and p50["change_wins"] == 2
    assert ops["parent"]["median"] == 100.0 and ops["change"]["median"] == 110.0
    assert p50["change"] == {"median": 9.0, "q1": 8.5, "q3": 10.0}


def test_summary_drops_seeds_run_on_one_side_only():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [
        _run("parent", 1, 100.0, 10.0), _run("change", 1, 110.0, 9.0),
        # seed 2 ran on the parent only (an interrupted record)
        _run("parent", 2, 1.0, 1000.0),
        # and seed 3 on the change only
        _run("change", 3, 1.0, 1000.0),
    ]
    summary = bench_record.summarize(runs, declared)["solve_mix/trace0"]
    assert summary["pairs"] == 1
    ops = summary["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == 100.0 and ops["change"]["median"] == 110.0
    assert ops["change_wins"] == 1


def _pairs(parent_ops, change_ops):
    """Pairs of solve_mix runs with the given ops_per_s and op_p50_ms
    = 1000 / ops_per_s."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops)):
        runs += [_run("parent", seed, p, 1000.0 / p), _run("change", seed, c, 1000.0 / c)]
    return runs


def _verdicts(parent_ops, change_ops):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = bench_record.summarize(_pairs(parent_ops, change_ops), declared)["solve_mix/trace0"]
    return {
        name: (m["gain_shown"], m["regression"]) for name, m in summary["metrics"].items()
    }


def test_gain_needs_nine_tenths_of_ten_pairs_and_the_parent_spread():
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    # +10% on every pair; the parent's quartiles are 98.25 and 101.75
    assert _verdicts(parent, [1.1 * p for p in parent])["ops_per_s"] == (True, "no worse")
    # and in the lower-is-better direction of op_p50_ms
    assert _verdicts(parent, [1.1 * p for p in parent])["op_p50_ms"] == (True, "no worse")
    # nine of ten pairs still shows it; eight does not
    nine = [1.1 * p for p in parent[:9]] + [0.9 * parent[9]]
    eight = [1.1 * p for p in parent[:8]] + [0.9 * p for p in parent[8:]]
    assert _verdicts(parent, nine)["ops_per_s"][0]
    assert not _verdicts(parent, eight)["ops_per_s"][0]
    # ten wins by less than the parent's interquartile range of 3.5
    assert not _verdicts(parent, [p + 3.0 for p in parent])["ops_per_s"][0]
    # nine pairs are too few, however they read
    assert not _verdicts(parent[:9], [2.0 * p for p in parent[:9]])["ops_per_s"][0]


def test_regression_is_worse_unresolved_or_no_worse():
    steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    # ops_per_s has a 25% bound
    assert _verdicts(steady, [0.7 * p for p in steady])["ops_per_s"] == (False, "worse")
    assert _verdicts(steady, [0.8 * p for p in steady])["ops_per_s"] == (False, "no worse")
    # a parent spreading over more than the bound leaves a small loss unresolved
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
    assert _verdicts(wide, [0.95 * p for p in wide])["ops_per_s"][1] == "unresolved"
    # and so does a small gain, unless every change run beats every parent run
    assert _verdicts(wide, [1.05 * p for p in wide])["ops_per_s"][1] == "unresolved"
    assert _verdicts(wide, [p + 100.0 for p in wide])["ops_per_s"] == (True, "no worse")


def test_per_layer_metrics_get_no_regression_verdict():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [_run("parent", s, 100.0, 10.0) for s in range(10)]
    runs += [_run("change", s, 100.0, 10.0) for s in range(10)]
    for r in runs:
        points = 500.0 if r["side"] == "parent" else 400.0
        r["result"]["metrics"]["oracle.points"] = {"value": points}
    metrics = bench_record.summarize(runs, declared)["solve_mix/trace0"]["metrics"]
    assert metrics["oracle.points"]["gain_shown"] and "regression" not in metrics["oracle.points"]
    assert metrics["ops_per_s"]["regression"] == "no worse"
