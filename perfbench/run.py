"""Repository benchmark: build, interactive and bulk serving, live updates.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``build``, ``serve-small``, ``serve-bulk`` and
``update-mixed`` (see perfbench/README.md).  Inputs are generated from
``--seed``.  Detail lines (provenance, details, wrong answers) go to stdout
first; the last stdout line is the result object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A wrong answer
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from common import (
    BenchError,
    emit_result,
    make_workdir,
    metric,
    provenance,
    remove_workdir,
    require_program,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve-small", "serve-bulk",
                                 "update-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes (tiny is for the self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import inputs
    import layers
    import workloads

    scale = inputs.SCALES[args.scale]
    workdir = make_workdir(args.workload)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, scale, args.seconds, bool(args.trace), workdir
        )
    except (BenchError, OSError, ValueError) as exc:
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)

    chosen = outcome.per_layer if args.trace else outcome.e2e
    declared = layers.PER_LAYER if args.trace else workloads.E2E_UNITS
    problem = check_metrics(chosen, declared, positive=not args.trace)
    if problem:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
        return 2

    details = dict(outcome.details)
    workers = details.pop("fanout_workers", None)
    facts = {k: details.pop(k) for k in ("vertices", "base_edges", "held_out_edges")}
    print(json.dumps({"provenance": provenance(
        args.seed, workload=args.workload, scale=args.scale,
        fanout_workers=workers, **facts)}))
    print(json.dumps({"details": details}))
    for problem in outcome.problems:
        print(json.dumps({"wrong_answer": problem}))
    emit_result(
        outcome.correct, outcome.attempted, outcome.failed,
        {name: metric(*chosen[name]) for name in declared},
    )
    return 0 if outcome.correct else 1


def check_metrics(chosen: dict, declared: dict, positive: bool) -> str | None:
    """Why ``chosen`` is not exactly the declared metrics, or ``None``."""
    if set(chosen) != set(declared):
        return (f"metrics {sorted(set(declared) - set(chosen))} missing, "
                f"{sorted(set(chosen) - set(declared))} undeclared")
    for name, (value, unit) in chosen.items():
        if unit != declared[name]:
            return f"{name} has unit {unit}, declared {declared[name]}"
        if not math.isfinite(value) or (positive and value <= 0):
            return f"{name} measured {value}"
    return None


if __name__ == "__main__":
    sys.exit(main())
