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
