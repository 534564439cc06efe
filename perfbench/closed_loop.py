"""The closed-loop workloads: ``sampling`` and ``out_of_core``.

One caller sends its next request only after the previous one returned.  A
run has four phases:

1. set-up (graph generation and CSR build, plus the partition layout for
   ``out_of_core``), repeated and reported as a median;
2. the warm phase: whole cycles of a fixed request mix, until the run has
   lasted ``--seconds`` and timed at least ``MIN_TIMED_REQUESTS`` requests.
   Every request uses a fresh seed set and a fresh RNG seed, and follows
   one host-speed probe (``common.HostSpeed``), outside its timing.  In a
   traced run, cycles alternate between untraced and traced, which gives the
   tracing overhead on the same mix and cache state;
3. cold passes, spread over the first ``MIN_TIMED_REQUESTS`` warm requests
   at cycle boundaries: one request per algorithm (and route) with empty
   kernel and structure caches, on seeds that no other request of the run
   uses.  They sample a second graph object with the same arrays, whose
   structures are evicted before every cold request, so the warm graph's
   caches (node2vec prefix rows included) keep growing undisturbed.
   Spreading them over the run, rather than running them back to back,
   keeps a few seconds of host slowdown from deciding the figure;
4. checks outside the timed region: a seeded sample of warm requests, and
   every request during which a node2vec prefix table emptied itself, is
   re-run on a reference path and must give identical digests.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common
from perfbench.layers import ROOT_SPAN, Tracer, install

#: Fixed out-of-memory configuration of ``out_of_core`` (all of Section V's
#: optimisations on, four partitions of which two fit on the device).
OOM_SETTINGS = dict(num_partitions=4, max_resident_partitions=2, num_kernels=2,
                    batched=True, workload_aware=True, balanced_blocks=True)
#: Shard count of the sharded route, and the second count its results are
#: checked against (results must not depend on the shard count).
SHARDS = 4
REFERENCE_SHARDS = 2
#: The warm phase stops here even when it has timed too few requests, so
#: that a run on a broken or very slow build still ends within its limit.
WARM_LIMIT_S = 90.0
#: Share of warm requests re-run by the checks, and the cap per run.
RERUN_SHARE = 1.0 / 16.0
MAX_RERUNS = 10
#: Cap on the requests re-run because a node2vec prefix table emptied itself
#: while they ran (on top of the random sample above).
MAX_RESET_RERUNS = 40


@dataclass(frozen=True)
class ClosedLoopSpec:
    name: str
    algorithms: Tuple[str, ...]
    routes: Tuple[str, ...]
    #: Request sizes (seeds per request) and how many of each one cycle
    #: holds per (algorithm, route).
    sizes: Tuple[int, ...]
    counts: Tuple[int, ...]
    cold_size: int
    #: Latency limit behind ``slo_attainment``, at the reference host speed.
    #: It cuts through the slowest request classes rather than a gap between
    #: classes, so that the share moves with speed instead of reading one
    #: constant.
    latency_limit_ms: float


SAMPLING = ClosedLoopSpec(
    name="sampling",
    algorithms=(
        "metropolis_hastings_walk", "random_walk_with_jump",
        "random_walk_with_restart", "multidimensional_random_walk",
        "unbiased_neighbor_sampling", "biased_neighbor_sampling",
        "layer_sampling", "forest_fire_sampling",
    ),
    routes=("in_memory",),
    sizes=(16, 64, 256), counts=(6, 3, 1), cold_size=64,
    latency_limit_ms=75.0,
)
OUT_OF_CORE = ClosedLoopSpec(
    name="out_of_core",
    algorithms=("deepwalk", "biased_random_walk", "node2vec", "unbiased_neighbor_sampling"),
    routes=("out_of_memory", "sharded"),
    sizes=(16, 64, 256), counts=(4, 2, 1), cold_size=64,
    latency_limit_ms=200.0,
)
SPECS = {spec.name: spec for spec in (SAMPLING, OUT_OF_CORE)}

#: Snowball probe of ``sampling`` (see :func:`snowball_probe`).
SNOWBALL_PROBES = 3
SNOWBALL_DEADLINE_S = 2.5


@dataclass(frozen=True)
class Request:
    algorithm: str
    route: str
    seeds: np.ndarray
    config_seed: int

    def key(self) -> tuple:
        return (self.algorithm, self.route, int(self.seeds.size), self.config_seed)


class Routes:
    """Runs one request on its route; ``reference=True`` is the check path."""

    def __init__(self, graph, partitions):
        from repro.oom.scheduler import OutOfMemoryConfig

        self.graph = graph
        self.partitions = partitions
        self.oom_config = OutOfMemoryConfig(**OOM_SETTINGS)

    def run(self, req: Request, *, reference: bool = False):
        """Returns (SampleResult, route counters)."""
        from repro import sample_graph
        from repro.algorithms.registry import get_algorithm

        info = get_algorithm(req.algorithm)
        config = info.config_factory(seed=req.config_seed)
        if req.route == "in_memory":
            result = sample_graph(
                self.graph, info.program_factory(), req.seeds, config,
                use_compiled=False if reference else None,
            )
            return result, {}
        if req.route == "out_of_memory":
            from repro.oom.scheduler import OutOfMemorySampler

            out = OutOfMemorySampler(
                self.graph, info.program_factory(), config, self.oom_config,
                partitions=self.partitions,
                use_compiled=False if reference else None,
            ).run(req.seeds)
            return out.sample, {"oom.rounds": out.rounds,
                                "oom.partition_transfers": out.partition_transfers}
        from repro.distributed import ShardedSamplingCluster

        out = ShardedSamplingCluster(
            self.graph, req.algorithm, config,
            num_shards=REFERENCE_SHARDS if reference else SHARDS,
            transport="in_process",
        ).run(req.seeds)
        return out.result, {"distributed.migrations": out.migrations,
                            "distributed.epochs": out.epochs}


def empty_caches(cold_graph) -> None:
    """Empty the kernel cache and ``cold_graph``'s structures."""
    from repro.compiled.compiler import clear_kernel_cache
    from repro.compiled.structures import evict_graph

    evict_graph(cold_graph)
    clear_kernel_cache()


def cache_counters() -> Dict[str, int]:
    from repro.compiled.compiler import kernel_cache_stats
    from repro.compiled.structures import structure_cache_stats

    s = structure_cache_stats()
    k = kernel_cache_stats()
    return {"s_hits": s["hits"], "s_misses": s["misses"],
            "row_hits": s["table_hits"], "row_misses": s["table_misses"],
            "k_hits": k["hits"], "k_misses": k["misses"]}


def table_resets() -> int:
    """How often the node2vec prefix tables have emptied themselves so far."""
    from repro.compiled.structures import structure_cache_stats

    return structure_cache_stats()["table_resets"]


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class Outcome:
    """Per-request records of one phase plus the run's failure list."""

    def __init__(self, edge_index: common.EdgeIndex):
        self.edge_index = edge_index
        self.failures: List[str] = []
        self.attempted = 0

    def execute(self, routes: Routes, req: Request, tracer: Optional[Tracer] = None,
                request_id: int = 0):
        """Time one request and check its output; None when it failed."""
        self.attempted += 1
        record = tracer.open(ROOT_SPAN, request_id) if tracer is not None else None
        start = time.perf_counter()
        try:
            result, counters = routes.run(req)
        except Exception as exc:  # a failed request is counted, not fatal
            if record is not None:
                tracer.close(record)
            self.failures.append(f"{req.key()}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        if record is not None:
            tracer.close(record)
        problem = self.check(req, result)
        if problem:
            self.failures.append(f"{req.key()}: {problem}")
            return None
        return wall, result, counters

    def check(self, req: Request, result) -> str:
        if result.num_instances != req.seeds.size:
            return f"{result.num_instances} instances for {req.seeds.size} seeds"
        missing = self.edge_index.missing(result.all_edges())
        if missing:
            return f"{missing} sampled edges are not edges of the graph"
        return ""


def _cycle(spec: ClosedLoopSpec, pool: common.SeedPool, rng: np.random.Generator):
    plan = [
        (algorithm, route, size)
        for algorithm in spec.algorithms
        for route in spec.routes
        for size in common.size_cycle(spec.sizes, spec.counts)
    ]
    order = rng.permutation(len(plan))
    return [
        Request(plan[i][0], plan[i][1], pool.warm(plan[i][2]),
                int(rng.integers(1 << 31)))
        for i in order
    ]


def snowball_probe(graph, rng: np.random.Generator) -> dict:
    """Snowball sampling at its default config, one seed per request.

    At this revision a single snowball request that reaches the largest hub
    takes 30 s to minutes (the without-replacement SELECT cliff), which no
    bounded run can hold.  The probe therefore runs ``SNOWBALL_PROBES``
    one-seed requests, seeds drawn uniformly from all vertices with no
    filtering, each cut after ``SNOWBALL_DEADLINE_S``.  A cut request is
    reported as cut; its time still counts towards snowball's wall time.
    """
    from repro import sample_graph
    from repro.algorithms.registry import get_algorithm
    from repro.selection.segmented import SegmentedCTPS

    class DeadlineExceeded(Exception):
        pass

    info = get_algorithm("snowball_sampling")
    degrees = graph.degrees
    search = SegmentedCTPS.search
    deadline = [0.0]

    def guarded(self, *args, **kwargs):
        if time.perf_counter() > deadline[0]:
            raise DeadlineExceeded
        return search(self, *args, **kwargs)

    rows = []
    SegmentedCTPS.search = guarded
    try:
        for seed in rng.choice(graph.num_vertices, SNOWBALL_PROBES, replace=False):
            seed = int(seed)
            nbrs = graph.col_idx[graph.row_ptr[seed]:graph.row_ptr[seed + 1]]
            row = {"seed": seed, "degree": int(degrees[seed]),
                   "max_neighbour_degree": int(degrees[nbrs].max()) if nbrs.size else 0}
            start = time.perf_counter()
            deadline[0] = start + SNOWBALL_DEADLINE_S
            try:
                result = sample_graph(graph, info.program_factory(), [seed],
                                      info.config_factory(seed=seed))
                row.update(completed=True, edges=result.total_sampled_edges)
            except DeadlineExceeded:
                row.update(completed=False, edges=0)
            row["wall_s"] = time.perf_counter() - start
            rows.append(row)
    finally:
        SegmentedCTPS.search = search
    wall = sum(r["wall_s"] for r in rows)
    edges = sum(r["edges"] for r in rows)
    return {"requests": rows, "wall_s": wall, "edges": edges,
            "cut": sum(not r["completed"] for r in rows),
            "deadline_s": SNOWBALL_DEADLINE_S,
            "edges_per_s": edges / wall if wall > 0 else 0.0}


def run(spec: ClosedLoopSpec, seed: int, seconds: float, trace: bool,
        corrupt: bool, import_s: float) -> dict:
    from repro.graph.partition import partition_graph

    graph_times = []

    def build():
        start = time.perf_counter()
        graph = common.make_graph(seed)
        graph_times.append(time.perf_counter() - start)
        partitions = (partition_graph(graph, OOM_SETTINGS["num_partitions"])
                      if "out_of_memory" in spec.routes else None)
        return graph, partitions

    speed = common.HostSpeed()
    (graph, partitions), setup_times, setup_factors = common.timed_setups(build, speed)
    routes = Routes(graph, partitions)
    outcome = Outcome(common.EdgeIndex(graph))
    rng = np.random.default_rng([seed, sorted(SPECS).index(spec.name)])
    per_pass = len(spec.algorithms) * len(spec.routes)
    pool = common.SeedPool(rng, graph.num_vertices,
                           reserve=common.COLD_PASSES * per_pass * spec.cold_size)
    params = {"workload": spec.name, **asdict(spec), "oom": OOM_SETTINGS,
              "shards": SHARDS, "reference_shards": REFERENCE_SHARDS,
              "graph": [common.GRAPH_VERTICES, common.GRAPH_AVG_DEGREE]}

    cold_graph = dataclasses.replace(graph)
    cold_routes = Routes(cold_graph, partitions)
    cold_totals: List[float] = []

    def cold_pass() -> None:
        total = 0.0
        for algorithm in spec.algorithms:
            for route in spec.routes:
                empty_caches(cold_graph)
                req = Request(algorithm, route, pool.cold(spec.cold_size),
                              int(rng.integers(1 << 31)))
                done = outcome.execute(cold_routes, req)
                if done is not None:
                    total += done[0]
        empty_caches(cold_graph)
        cold_totals.append(total)

    # Warm phase.
    tracer = Tracer() if trace else None
    walls: List[float] = []
    probes: List[int] = []
    edges: List[int] = []
    traced_flags: List[bool] = []
    iterations = 0
    counters: Dict[str, int] = {}
    reruns: List[Tuple[Request, str]] = []
    sampled_reruns = reset_reruns = 0
    first_cycle = None
    cache_deltas = {key: 0 for key in cache_counters()}
    start = time.perf_counter()
    cycle_index = 0
    classes: List[str] = []
    peak_rss = None
    while ((time.perf_counter() - start < seconds or len(walls) < common.MIN_TIMED_REQUESTS
            or (trace and cycle_index < 2))
           and time.perf_counter() - start < WARM_LIMIT_S):
        due = 1 + (common.COLD_PASSES - 1) * len(walls) // common.MIN_TIMED_REQUESTS
        while len(cold_totals) < min(due, common.COLD_PASSES):
            cold_pass()
        cycle = _cycle(spec, pool, rng)
        before = cache_counters()
        if first_cycle is None:
            first_cycle = [(r.key(), r.seeds.tolist()) for r in cycle]
        traced = trace and cycle_index % 2 == 1
        restore = install(tracer) if traced else None
        try:
            for req in cycle:
                probe = speed.probe()
                resets = table_resets()
                done = outcome.execute(routes, req, tracer if traced else None, len(walls))
                if done is None:
                    continue
                # A request during which a node2vec prefix table emptied
                # itself is always checked: rows it had already looked up
                # were overwritten while it ran.
                reset_during = table_resets() != resets
                wall, result, extra = done
                walls.append(wall)
                probes.append(probe)
                edges.append(result.total_sampled_edges)
                classes.append("/".join(map(str, req.key()[:3])))
                iterations += int(np.sum(result.iteration_counts))
                for key, value in extra.items():
                    counters[key] = counters.get(key, 0) + int(value)
                traced_flags.append(traced)
                sampled = rng.random() < RERUN_SHARE and sampled_reruns < MAX_RERUNS
                if sampled or (reset_during and reset_reruns < MAX_RESET_RERUNS):
                    sampled_reruns += sampled
                    reset_reruns += not sampled
                    reruns.append((req, common.digest(result.samples, result.iteration_counts,
                                                      result.cost.as_dict())))
        finally:
            if restore is not None:
                restore()
        for key, value in cache_counters().items():
            cache_deltas[key] += value - before[key]
        cycle_index += 1
        if peak_rss is None and len(walls) >= common.MIN_TIMED_REQUESTS:
            # Read at a fixed amount of work, so that a faster program,
            # which fits more requests into the run, is not charged for
            # the larger working set they leave behind.
            peak_rss = common.peak_rss_mb()

    while len(cold_totals) < common.COLD_PASSES:
        cold_pass()
    if peak_rss is None:
        outcome.failures.append(f"only {len(walls)} requests timed in {WARM_LIMIT_S} s")
        peak_rss = common.peak_rss_mb()

    # Re-run checks, outside the timed region.
    for index, (req, expected) in enumerate(reruns):
        try:
            result, _ = routes.run(req, reference=True)
        except Exception as exc:
            outcome.failures.append(f"re-run {req.key()}: {type(exc).__name__}: {exc}")
            continue
        samples = result.samples
        if corrupt and index == 0:
            samples = common.flip_one_edge(samples)
        got = common.digest(samples, result.iteration_counts, result.cost.as_dict())
        if got != expected:
            outcome.failures.append(f"re-run {req.key()} on the reference path differs")

    probe = snowball_probe(graph, rng) if spec.name == "sampling" else None

    total_edges = int(np.sum(edges))
    factors = speed.factors(probes)
    # The end-to-end figures take every wall time at the reference host speed.
    adjusted_walls = np.asarray(walls) / factors
    raw = timed_figures(np.asarray(walls), total_edges, spec.latency_limit_ms,
                        len(outcome.failures))
    raw["setup_s"] = import_s + float(np.median(setup_times))
    adjusted = timed_figures(adjusted_walls, total_edges,
                             spec.latency_limit_ms, len(outcome.failures))
    adjusted["setup_s"] = import_s / setup_factors[0] + float(
        np.median(np.asarray(setup_times) / np.asarray(setup_factors)))
    report = {
        "identity": {"workload": spec.name, "seed": seed,
                     "input_hash": common.identity_hash(params, graph, first_cycle),
                     "params": params},
        "samples": {"setups": len(setup_times), "cold_passes_s": cold_totals,
                    "warm_requests": len(walls), "cycles": cycle_index,
                    "reruns_checked": len(reruns), "reset_reruns": reset_reruns},
        # In the order they ran: class, raw wall, index of the probe before it.
        "warm_requests": list(zip(classes, walls, probes)),
        "speed_probes_s": speed.samples,
        "attempted": outcome.attempted + len(reruns),
        "failures": outcome.failures,
        "end_to_end": {**adjusted, "peak_rss_mb": peak_rss,
                       "cold_pass_s": float(np.median(cold_totals))},
        "raw": raw,
        "host_speed": speed_summary(factors, setup_factors),
    }
    if probe is not None:
        # Both in raw wall time: snowball requests are not speed-adjusted.
        share = probe["wall_s"] / (probe["wall_s"] + float(np.sum(walls)))
        report["snowball"] = {**probe, "wall_share": share,
                              "other_algorithms_seps": raw["seps"]}
    layer = {
        "graph.build_s": float(np.median(graph_times)),
        "cold_pass_s": report["end_to_end"]["cold_pass_s"],
        "selection.attempts_per_edge": iterations / total_edges if total_edges else 0.0,
        "compiled.structure_hit_rate": _rate(cache_deltas["s_hits"], cache_deltas["s_misses"]),
        "compiled.n2v_row_hit_rate": _rate(cache_deltas["row_hits"], cache_deltas["row_misses"]),
        "compiled.kernel_cache_hit_rate": _rate(cache_deltas["k_hits"], cache_deltas["k_misses"]),
        **{key: float(value) for key, value in counters.items()},
    }
    if probe is not None:
        layer["snowball.wall_share"] = report["snowball"]["wall_share"]
        layer["snowball.edges_per_s"] = probe["edges_per_s"]
    if tracer is not None:
        flags = np.asarray(traced_flags)
        edge_counts = np.asarray(edges)
        layer.update(traced_layers(tracer, adjusted_walls[flags].sum(), edge_counts[flags].sum(),
                                   adjusted_walls[~flags].sum(), edge_counts[~flags].sum()))
        report["tracer"] = tracer
    report["layers"] = layer
    return report


def timed_figures(walls: np.ndarray, total_edges: int, limit_ms: float,
                  failed: int) -> dict:
    """seps, latency percentiles and SLO attainment of the warm walls."""
    lat_ms = walls * 1e3
    total = float(np.sum(walls))
    return {
        "seps": total_edges / total if total else 0.0,
        "latency_p50_ms": common.percentile(lat_ms, 50),
        "latency_p95_ms": common.percentile(lat_ms, 95),
        "slo_attainment": float(np.sum(lat_ms <= limit_ms)) / max(1, lat_ms.size + failed),
    }


def speed_summary(factors: np.ndarray, setup_factors) -> dict:
    """Quartiles of the warm requests' speed factors (1.0 is the reference)."""
    q1, median, q3 = np.percentile(factors, [25, 50, 75]) if factors.size else (0.0,) * 3
    return {"warm_q1": float(q1), "warm_median": float(median), "warm_q3": float(q3),
            "warm_max": float(factors.max()) if factors.size else 0.0,
            "setup": [float(f) for f in setup_factors]}


def traced_layers(tracer: Tracer, traced_wall, traced_edges, untraced_wall,
                  untraced_edges) -> dict:
    """Per-layer self times and counts of the traced cycles.

    The walls passed in are at the reference host speed, so that the
    tracing overhead compares like with like.

    A layer whose entry point the traced cycles never called is left out,
    so that the report names it as not reached rather than reading 0.
    """
    rows = tracer.self_times()

    def self_s(name):
        return rows[name]["self_s"] if name in rows else None

    def calls(name):
        return float(rows[name]["calls"]) if name in rows else None

    roots = tracer.durations(ROOT_SPAN)
    ratios = []
    for (name, start, end, parent, req) in tracer.spans:
        if name == ROOT_SPAN and req in tracer.plan_predictions and end > start:
            ratios.append(tracer.plan_predictions[req] / (end - start))
    overhead = 0.0
    if traced_edges and untraced_edges and untraced_wall:
        overhead = (traced_wall / traced_edges) / (untraced_wall / untraced_edges) - 1.0
    layers = {
        "planner.plan_s": self_s("planner.plan"),
        "planner.plans": calls("planner.plan"),
        "planner.pred_over_wall": float(np.median(ratios)) if ratios else 0.0,
        "compiled.kernel_s": self_s("compiled.kernel"),
        "compiled.kernel_calls": calls("compiled.kernel"),
        # Warm cycles may legitimately build no structure at all.
        "compiled.structure_build_s": self_s("compiled.structure_build") or 0.0,
        "engine.step_s": self_s("engine.step"),
        "engine.depth_steps": calls("engine.step"),
        "engine.expand_s": self_s("engine.expand"),
        "engine.gather_s": self_s("engine.gather"),
        "engine.gathered_edges": float(tracer.gathered_edges),
        "selection.select_s": self_s("selection.select"),
        "selection.select_calls": calls("selection.select"),
        "api.finalize_s": self_s("api.finalize"),
        "oom.run_self_s": self_s("oom.run"),
        "distributed.step_all_s": self_s("distributed.step_all"),
        "distributed.exchange_s": self_s("distributed.exchange"),
        "trace.overhead_share": overhead,
        "trace.unattributed_s": self_s(ROOT_SPAN),
        "trace.wall_s": float(np.sum(roots)),
        "trace.requests": float(len(roots)),
        "compiled.structure_lookup_s": self_s("compiled.structure_hit"),
    }
    return {name: value for name, value in layers.items() if value is not None}
