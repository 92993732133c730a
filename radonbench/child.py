"""Child-process entry points of the benchmark.

    python3 radonbench/child.py setup <workload>
        Import radoncomp, warm it up for the workload, print the seconds taken.
    python3 radonbench/child.py cli <spans.json> <radoncomp.cli arguments...>
        Import radoncomp.cli (recorded as a ``cli.import`` span), install
        the tracing wrappers, run radoncomp.cli.main, write the spans to
        <spans.json>, and exit with main's exit code.

radoncomp is found through PYTHONPATH, which run.py sets.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str) -> float:
    t0 = time.perf_counter()
    if workload == "cli-scenarios":
        import radoncomp.cli  # noqa: F401
    else:
        import radoncomp as rc
        import rn_mix
        import sphere_mix

        {"sphere-mix": sphere_mix, "rn-mix": rn_mix}[workload].warm_up(rc)
    return time.perf_counter() - t0


def traced_cli(spans_path: str, argv: list) -> int:
    from tracing import Span, Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    import radoncomp.cli

    tracer.spans.append(Span("cli.import", t0, time.perf_counter()))
    tracer.install()
    tracer.request = 0
    try:
        code = radoncomp.cli.main(argv)
    finally:
        tracer.request = None
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(repr(setup(sys.argv[2])))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
