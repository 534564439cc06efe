"""One end-to-end benchmark of the C-SAW reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 40 --trace 0

Workloads (all on ``powerlaw_graph(100_000, avg_degree=8, seed=--seed)``):

* ``sampling`` -- one caller, closed loop, over eight registry algorithms
  (stateful walks, neighbour, layer and forest-fire sampling), plus a
  bounded probe of snowball sampling (see ``closed_loop.snowball_probe``);
* ``out_of_core`` -- walks and neighbour sampling alternating between the
  out-of-memory partition scheduler and the in-process sharded cluster.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
Their times are reported at a reference host speed: a fixed probe that uses
no library code runs before every timed request (and around every set-up),
and each wall time is divided by the probe's slowdown against its reference
time (``common.HostSpeed``).  On a shared host, whose CPU speed swings by
half for seconds to minutes at a time, this keeps runs of the same code
comparable; the unadjusted figures and the speed factors are printed too.

``--trace 1`` wraps the public entry points of every layer, alternates
traced and untraced work, and prints the per-layer metrics.  Every output
is checked; a wrong output counts as failed and the command exits 1.
``--corrupt`` flips one edge in one re-run check, to show that the checks
catch it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines
describe the host, the workload identity (name, seed and input hash) and
the sample counts; the full report, and the spans of a traced run, are
written under ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("sampling", "out_of_core")

#: Why a per-layer metric reads 0 on a workload that does not reach it.
NOT_REACHED = "layer not reached on this workload"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one edge in one re-run check (checker self-test)")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the library under {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    spec = benchmark_spec()

    from perfbench import closed_loop, common

    trace = bool(args.trace)
    report = closed_loop.run(closed_loop.SPECS[args.workload], args.seed,
                             args.seconds, trace, args.corrupt, import_s)

    failures = report["failures"]
    attempted = max(1, report["attempted"])
    report["end_to_end"]["failed_share"] = len(failures) / attempted
    report["host"] = common.host_info()
    tracer = report.pop("tracer", None)

    if trace:
        layers = report["layers"]
        notes = {}
        metrics = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in layers:
                notes[name] = NOT_REACHED
            metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": metric["unit"]}
        report["layer_notes"] = notes
        if tracer is not None:
            rows = tracer.self_times()
            report["self_times"] = rows
            report["self_time_sum_s"] = sum(row["self_s"] for row in rows.values())
    else:
        metrics = {
            metric["name"]: {"value": float(report["end_to_end"][metric["name"]]),
                             "unit": metric["unit"]}
            for metric in spec["end_to_end"]
        }

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, stem + "-spans.json"))

    print("perfbench host " + json.dumps(report["host"]))
    print("perfbench identity " + json.dumps({k: report["identity"][k]
                                             for k in ("workload", "seed", "input_hash")}))
    print("perfbench samples " + json.dumps(report["samples"]))
    print(f"perfbench failed_share {report['end_to_end']['failed_share']:.6f} "
          f"({len(failures)} of {report['attempted']})")
    print(f"perfbench cold_pass_s {report['end_to_end']['cold_pass_s']:.6f} s "
          f"(median of {len(report['samples']['cold_passes_s'])} passes)")
    if not trace:
        hs = report["host_speed"]
        print(f"perfbench host_speed factor q1={hs['warm_q1']:.3f} "
              f"median={hs['warm_median']:.3f} q3={hs['warm_q3']:.3f} "
              f"max={hs['warm_max']:.3f} setup={[round(f, 3) for f in hs['setup']]}")
        for name, value in report["raw"].items():
            print(f"perfbench raw {name} = {value:.6g} (unadjusted wall time)")
    for failure in failures[:10]:
        print(f"perfbench failure {failure}")
    if "snowball" in report:
        sb = report["snowball"]
        print(f"perfbench snowball wall_share={sb['wall_share']:.3f} "
              f"edges_per_s={sb['edges_per_s']:.1f} "
              f"(other algorithms {sb['other_algorithms_seps']:.1f}) "
              f"cut={sb['cut']}/{len(sb['requests'])} at {sb['deadline_s']} s")
    if trace and tracer is not None:
        print(f"perfbench self-time sum {report['self_time_sum_s']:.4f} s, "
              f"traced wall {report['layers'].get('trace.wall_s', 0.0):.4f} s")
        for name, note in sorted(report["layer_notes"].items()):
            print(f"perfbench note {name}: {note}")
    for name, metric in metrics.items():
        print(f"perfbench metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": report["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
