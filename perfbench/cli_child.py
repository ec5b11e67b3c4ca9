"""One graff command in a fresh interpreter, traced (the traced cli_batch run).

    python perfbench/cli_child.py SPANS.json COMMAND [ARGS...]

Times ``import numpy`` and then ``import graff``, counts the modules the two
imports add to ``sys.modules``, runs ``graff.cli.main(ARGS)`` with spans
around every call it makes into another layer, writes the spans to
SPANS.json (times relative to this script's start) and exits with the
command's exit code.  Its stdout is the command's stdout.
"""

import sys
import time

START = time.perf_counter()
BASELINE = len(sys.modules)


def main() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import graff

    t2 = time.perf_counter()
    modules = len(sys.modules) - BASELINE
    scipy_loaded = int("scipy" in sys.modules)
    import graff.cli

    import json

    from layers import internal_targets
    from spans import Span, Tracer, patched

    tracer = Tracer()
    tracer.spans += [
        Span("cli.import_numpy", t0, t1, -1, "workload"),
        Span("cli.import_graff", t1, t2, -1, "workload", {"modules": modules, "scipy": scipy_loaded}),
    ]
    spans_path, argv = sys.argv[1], sys.argv[2:]
    with patched(tracer, internal_targets()):
        code = tracer.call("cli.command", graff.cli.main, argv, tags={"sub": argv[0]})
    sys.stdout.flush()
    records = tracer.to_records()
    for record in records:
        record["start"] -= START
        record["end"] -= START
    with open(spans_path, "w") as handle:
        json.dump(records, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
