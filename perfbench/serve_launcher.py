"""Traced ``repro serve``: install the layer wrappers, then run the CLI.

Usage: ``python3 perfbench/serve_launcher.py TRACE_OUT serve INDEX [flags]``

The wrappers go in before ``repro.cli.main`` runs, so the traced server
takes the same CLI path as an untraced ``python -m repro serve`` and
its fan-out workers, forked during start-up, inherit them.  When the
server exits (SIGINT), every span of the server and its workers is
written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

from common import require_program

#: Shared span slots for the forked workers (40 bytes each).
WORKER_SPAN_CAPACITY = 1 << 18


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    require_program()
    from tracing import Tracer, install, wrapper_cost_s

    tracer = Tracer(shared_capacity=WORKER_SPAN_CAPACITY)
    install(tracer, {"store", "kernel", "serve"})
    from repro.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        with open(trace_out, "w") as handle:
            json.dump(
                {"spans": tracer.collect(), "wrapper_cost_s": wrapper_cost_s()},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
