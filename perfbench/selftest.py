"""Tiny-scale self-test of the benchmark.

Usage: ``python3 perfbench/selftest.py`` (from the root of a checkout).

* checks that ``BENCHMARK.json`` declares exactly the metrics the
  benchmark emits, and runs all four workloads at the tiny scale,
  untraced and traced, checking that each emits every declared metric
  with its unit (end-to-end values above 0);
* checks that every answer checker rejects a deliberately perturbed
  distance;
* checks that the benchmark fails, without a result line, in a
  directory that holds only ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK_ROOT, require_program

WORKLOADS = ("build", "serve-small", "serve-bulk", "update-mixed")


def check_declared(spec: dict) -> list[str]:
    """BENCHMARK.json declares exactly the metrics the benchmark emits."""
    require_program()
    import layers
    import workloads

    problems = []
    for key, emitted in (("end_to_end", workloads.E2E_UNITS),
                         ("per_layer", layers.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != emitted:
            problems.append(f"{key}: BENCHMARK.json declares {declared}, "
                            f"the benchmark emits {emitted}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"workloads {spec['workloads']} != {WORKLOADS}")
    if not problems:
        print("ok   BENCHMARK.json matches the emitted metrics", flush=True)
    return problems


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def check_workloads(spec: dict) -> list[str]:
    """Every workload emits every declared metric, untraced and traced."""
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            proc = _run([str(BENCH_DIR / "run.py"), "--workload", workload,
                         "--seed", "3", "--seconds", "1.5", "--trace",
                         str(trace), "--scale", "tiny"])
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{tag}: correct/attempted/failed = "
                                f"{result['correct']}/{result['attempted']}/"
                                f"{result['failed']}")
            metrics = result["metrics"]
            if set(metrics) != set(declared):
                problems.append(
                    f"{tag}: missing {sorted(set(declared) - set(metrics))}, "
                    f"unexpected {sorted(set(metrics) - set(declared))}")
            for name, entry in metrics.items():
                unit = declared.get(name)
                if unit is not None and entry["unit"] != unit:
                    problems.append(f"{tag}: {name} unit {entry['unit']} != {unit}")
                value = entry["value"]
                if not math.isfinite(value) or (trace == 0 and value <= 0):
                    problems.append(f"{tag}: {name} = {value}")
            print(f"ok   {tag}: {len(metrics)} metrics", flush=True)
    return problems


def check_checkers() -> list[str]:
    """Every checker must reject a distance that is off by one."""
    require_program()
    import checks
    import loadgen
    from workloads import Outcome, _score_replies

    problems = []
    adj = checks.Adjacency(4, [(0, 1), (1, 2), (2, 3)])
    pairs = [(0, 3), (1, 3), (3, 3)]
    good, bad = [3.0, 2.0, 0.0], [3.0, 3.0, 0.0]
    if checks.check_against_bfs(adj, pairs, good) is not None:
        problems.append("BFS check rejected correct answers")
    if checks.check_against_bfs(adj, pairs, bad) is None:
        problems.append("BFS check accepted a perturbed distance")
    if checks.check_against_bidirectional(adj, pairs, good) is not None:
        problems.append("bidirectional check rejected correct answers")
    if checks.check_against_bidirectional(adj, pairs, bad) is None:
        problems.append("bidirectional check accepted a perturbed distance")
    for answers, should_pass in ((good, True), (bad, False)):
        reply = json.dumps({"ok": True, "distances": answers}).encode()
        res = {"raw": [reply, b'{"ok":true,"distances":[null]}']}
        out = Outcome()
        _score_replies(out, res, [good, [math.inf]].__getitem__)
        if out.correct != should_pass:
            problems.append(f"reply check gave correct={out.correct} for {answers}")
    status = _score_replies(Outcome(), {"raw": [b'{"ok":false,"code":429}', None]},
                            lambda k: [])
    if status != ["error 429", "no reply"]:
        problems.append(f"failed replies scored as {status}")
    if loadgen.parse_reply(b'{"ok":true,"distances":[1.0,null]}')[0] != [1.0, math.inf]:
        problems.append("null did not decode to inf")
    print("ok   answer checkers reject perturbed distances", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run([f"{BENCH_DIR.name}/run.py", "--workload", "build",
                     "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    print("ok   bare directory fails without a result", flush=True)
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = (check_declared(spec) + check_checkers() + check_bare_directory()
                + check_workloads(spec))
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
