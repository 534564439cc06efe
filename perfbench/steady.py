"""Steadiness mode: run one workload k times and report each metric's spread.

Run from the repository root::

    python3 perfbench/steady.py --workload sampling --runs 10
    python3 perfbench/steady.py --workload sampling --runs 10 --other ../parent

Run ``i`` uses seed ``--first-seed + i``.  For each end-to-end metric (or
per-layer metric with ``--trace 1``) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``.

``--other DIR`` names a second checkout (another build of the program).
Each seed then runs on both, alternating which goes first, and the two
medians are compared against the bound.  Results of the two sides are
paired by workload and seed, and a pair whose input hashes differ is
refused: the two sides did not measure the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("perfbench identity "):
            result["identity"] = json.loads(line[len("perfbench identity "):])
        elif line.startswith("perfbench host "):
            result["host"] = json.loads(line[len("perfbench host "):])
    result["exit_code"] = proc.returncode
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--other", default=None, help="a second checkout to compare against")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    with open(os.path.join(HERE, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    sides = [HERE] + ([os.path.abspath(args.other)] if args.other else [])

    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    ok = True
    host = None
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        results = {side: run_once(side, args.workload, seed, seconds, args.trace)
                   for side in order}
        hashes = {r.get("identity", {}).get("input_hash") for r in results.values()}
        if len(hashes) != 1:
            print(f"seed {seed}: refused, input hashes differ: {sorted(map(str, hashes))}")
            ok = False
            continue
        for side, result in results.items():
            host = host or result.get("host")
            if not result["correct"] or result["exit_code"] != 0:
                print(f"seed {seed} {side}: failed {result['failed']} of {result['attempted']}")
                ok = False
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        for side in sides:
            row = " ".join(f"{m['name']}={values[side][m['name']][-1]:.6g}"
                           for m in metrics if values[side][m["name"]])
            print(f"seed {seed} {side}: {row}", flush=True)

    print("host " + json.dumps(host))
    for side in sides:
        print(f"== {args.workload} at {side} ({args.runs} runs, {seconds} s each)")
        for m in metrics:
            vals = values[side][m["name"]]
            if len(vals) < 4:
                continue
            median, q1, q3, spread = summarize(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "too noisy")
                verdict = f" bound {bound:.3f} -> {verdict}"
            print(f"  {m['name']:32s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{verdict}")
    if len(sides) == 2:
        print("== comparison (second side against first)")
        for m in metrics:
            a, b = values[sides[0]][m["name"]], values[sides[1]][m["name"]]
            if len(a) < 4 or len(b) < 4:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bound = m.get("bound")
            flag = "" if bound is None else (" REGRESSION" if worse > bound else " ok")
            print(f"  {m['name']:32s} {ma:.6g} -> {mb:.6g} worse by {worse:+.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
