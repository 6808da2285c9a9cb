"""Check or re-pin the SHA-256 digests of CLI outputs in tests/data/pins.json.

    python3 tools/pins.py check     # exit 1 if any digest moved or command failed
    python3 tools/pins.py update    # rewrite the digests that moved

Each row of the table is one `triband` command: its argv, with {out} standing
for an output directory, `tier1` (whether the tier-1 tests run it) and
`outputs`, {file: {"sha256": ...}} for every file the command writes.
Manifests hold elapsed_s, so a manifest is never hashed whole; a key
"<manifest>:<field>" pins sha256(json.dumps(manifest[field])) instead.  Every
row runs in this process, into a fresh temporary directory.  Both commands
print one `row file: pinned -> got` line per digest that moved and one
`row: exited N` line per command that failed, go on to the other rows, and
exit 1 if any command failed; `update` writes the new digests (its lines go
into CHANGES.md), keeps a failed row's digests, and leaves the table
byte-identical when nothing moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from triband.cli import main as triband  # noqa: E402

TABLE = ROOT / "tests" / "data" / "pins.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Failed(Exception):
    """A triband command exited nonzero."""


def digests(argv, fields=()) -> dict:
    """{file: sha256} of every output of one triband argv but the manifests,
    plus the digest of each "<manifest>:<field>" key in fields.  Raises
    Failed when the command exits nonzero, usage errors included."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code = triband([a.replace("{out}", tmp) for a in argv])
        except SystemExit as exc:  # a usage error
            code = exc.code
        if code != 0:
            raise Failed(f"exited {code}")
        outputs = (p for p in Path(tmp).iterdir() if not p.name.endswith(".manifest.json"))
        got = {p.name: _sha256(p.read_bytes()) for p in sorted(outputs)}
        for key in fields:
            name, field = key.split(":")
            manifest = json.loads((Path(tmp) / name).read_text())
            got[key] = _sha256(json.dumps(manifest[field]).encode())
    return got


def moved(row) -> list:
    """(key, pinned, got) of every digest of one table row that differs from
    its command's outputs; None for a file on one side only."""
    pinned = {key: pin["sha256"] for key, pin in row["outputs"].items()}
    got = digests(row["argv"], [key for key in pinned if ":" in key])
    pairs = ((k, pinned.get(k), got.get(k)) for k in sorted(pinned | got))
    return [(k, old, new) for k, old, new in pairs if old != new]


def dumps(table) -> str:
    """The one text form of the table, so that an update that moves nothing
    writes the same bytes back."""
    return json.dumps(table, indent=1) + "\n"


def main(argv=None, table=TABLE) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("check", "update"))
    command = ap.parse_args(argv).command
    pins = json.loads(table.read_text())
    changed = failed = False
    for name, row in pins["rows"].items():
        try:
            diffs = moved(row)
        except Failed as exc:
            print(f"{name}: {exc}", flush=True)
            failed = True
            continue
        for key, old, new in diffs:
            print(f"{name} {key}: {old} -> {new}", flush=True)
            changed = True
            if new is None:
                del row["outputs"][key]
            else:
                row["outputs"][key] = {"sha256": new}
    if command == "update":
        table.write_text(dumps(pins))
        return 1 if failed else 0
    return 1 if changed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
