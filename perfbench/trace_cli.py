"""Run one triband CLI command in this fresh process with layer tracing on.

    python3 perfbench/trace_cli.py SPANS_JSON -- <triband arguments>

Times `import triband.cli`, runs the command under tracing.Tracer and writes
{"exit", "import_s", "restored", "spans"} to SPANS_JSON.
"""

import json
import sys
import time


def main():
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON -- <triband arguments>")
    t0 = time.perf_counter()
    import triband.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    with Tracer() as tracer:
        code = triband.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(
            {"exit": code, "import_s": import_s, "restored": tracer.restored, "spans": tracer.spans},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
