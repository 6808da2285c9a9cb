"""The SHA-256 pins of CLI outputs, tests/data/pins.json, and tools/pins.py,
which checks and re-pins them."""

import importlib.util
import json
from pathlib import Path

import pytest

from triband.cli import PRESETS, build_parser

ROOT = Path(__file__).resolve().parent.parent


def load_module(path: Path):
    """A module loaded from its file: tools/ and perfbench/ hold scripts, not packages."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pins = load_module(ROOT / "tools" / "pins.py")
bench_inputs = load_module(ROOT / "perfbench" / "inputs.py")  # the one home of CLI_COMMANDS
TABLE = json.loads(pins.TABLE.read_text())


@pytest.mark.parametrize("name", [name for name, row in TABLE["rows"].items() if row["tier1"]])
def test_tier1_rows_write_the_pinned_bytes(name):
    assert pins.moved(TABLE["rows"][name]) == []


def test_the_table_is_in_the_form_update_writes():
    # so an update that moves nothing leaves the committed table byte-identical
    assert pins.dumps(TABLE) == pins.TABLE.read_text()


def test_every_cli_preset_has_a_pinned_command():
    _, subs = build_parser()
    offered = {
        (command, preset)
        for command, sub in subs.items()
        for action in sub._actions
        if action.dest == "preset"
        for preset in action.choices
    }
    assert {(command, preset) for command in PRESETS for preset in PRESETS[command]} < offered
    commands = [row["argv"] for row in TABLE["rows"].values()]
    commands += bench_inputs.CLI_COMMANDS.values()
    run = {(argv[0], argv[argv.index("--preset") + 1]) for argv in commands if "--preset" in argv}
    assert offered - run == set()


EVENTS = "fig6.csv.manifest.json:events"


def _small_table(tmp_path):
    """A copy of the table with two fast rows, fig10 and a 12-point fig6 sweep
    with its events pinned, in the form update writes; (path, its text)."""
    argv = ["sweep", "--preset", "fig6", "--vmin", "2", "--vmax", "3", "--nv", "12"]
    argv += ["--out", "{out}/fig6.csv"]
    outputs = {key: {"sha256": d} for key, d in pins.digests(argv, [EVENTS]).items()}
    sweep = {"argv": argv, "tier1": True, "outputs": outputs}
    path = tmp_path / "pins.json"
    path.write_text(pins.dumps({"rows": {"fig10": TABLE["rows"]["fig10"], "sweep": sweep}}))
    return path, path.read_text()


def _repin(path, row, key, digest):
    """Pin key of row to digest in the table at path; the digest it replaced."""
    table = json.loads(path.read_text())
    old = table["rows"][row]["outputs"][key]["sha256"]
    table["rows"][row]["outputs"][key]["sha256"] = digest
    path.write_text(pins.dumps(table))
    return old


@pytest.mark.parametrize("row, key", [("fig10", "fig10.csv"), ("sweep", EVENTS)])
def test_check_names_each_digest_that_moved(row, key, tmp_path, capsys):
    path, _ = _small_table(tmp_path)
    assert pins.main(["check"], table=path) == 0
    true = _repin(path, row, key, "0" * 64)
    assert pins.main(["check"], table=path) == 1
    assert capsys.readouterr().out == f"{row} {key}: {'0' * 64} -> {true}\n"


def test_update_restores_the_digest_and_then_moves_nothing(tmp_path, capsys):
    path, pinned = _small_table(tmp_path)
    true = _repin(path, "fig10", "fig10.csv", "0" * 64)
    assert pins.main(["update"], table=path) == 0
    assert capsys.readouterr().out == f"fig10 fig10.csv: {'0' * 64} -> {true}\n"
    assert path.read_text() == pinned
    assert pins.main(["update"], table=path) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == pinned
