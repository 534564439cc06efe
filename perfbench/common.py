"""Inputs, output checks and statistics shared by the benchmark workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from typing import List

import numpy as np

#: Every workload samples ``powerlaw_graph(GRAPH_VERTICES, GRAPH_AVG_DEGREE)``
#: generated from the run's seed.  Its largest degree is about 16k, and the
#: SELECT cost of the sampling algorithms depends on it.
GRAPH_VERTICES = 100_000
GRAPH_AVG_DEGREE = 8
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: Cold passes per run (median reported).
COLD_PASSES = 9
#: Every run times at least this many warm requests, so that at least ten
#: fall beyond the 95th percentile.
MIN_TIMED_REQUESTS = 200


def host_info() -> dict:
    """The host facts a reader needs to compare two runs."""
    from repro.compiled.backends import NUMBA_AVAILABLE, select_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_backend": select_backend(),
        "numba": "present" if NUMBA_AVAILABLE else "absent",
    }


def make_graph(seed: int):
    """The workload graph (generator plus CSR build)."""
    from repro.graph.generators import powerlaw_graph

    return powerlaw_graph(GRAPH_VERTICES, avg_degree=GRAPH_AVG_DEGREE, seed=seed)


#: Probe time at the reference host speed: the median of :func:`speed_probe`
#: on a lightly loaded Xeon (Sapphire Rapids) vCPU at 2 GHz.  Timed end-to-end
#: figures are reported at this speed: a wall time ``t`` measured while the
#: probe takes ``p`` is reported as ``t * REFERENCE_PROBE_S / p``.
REFERENCE_PROBE_S = 0.77e-3
#: A request's speed factor is the median of the probes this many places
#: either side of the one taken just before it.
PROBE_WINDOW = 4
#: Probes taken before and after each set-up.
SETUP_PROBES = 5

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VALUES = _PROBE_RNG.random(2048)
_PROBE_TARGETS = np.sort(_PROBE_RNG.random(256)) * _PROBE_VALUES.sum()
_PROBE_INDEX = _PROBE_RNG.integers(0, _PROBE_VALUES.size, 512)


def _probe_call(x: int, lookup: dict) -> int:
    return lookup.get(x & 7, x) + 1


def speed_probe() -> float:
    """Seconds taken by one fixed pass of interpreter and small-array work.

    The pass uses no library code, so a change to the program cannot move
    it; it does the kind of work the samplers do (Python loops, calls and
    dict lookups, and numpy calls on small arrays), so it slows down with
    them when the host does.  Call-heavy Python slows down more than the
    rest on a loaded host, and the stateful samplers make many such calls,
    hence the share of calls (about a third of the pass).
    """
    start = time.perf_counter()
    x = 0
    for i in range(2500):
        x = (x * 31 + i) % 1000003
    lookup = {1: 2}
    for i in range(2500):
        x = _probe_call(x, lookup)
    for _ in range(6):
        prefix = np.cumsum(_PROBE_VALUES)
        picked = np.searchsorted(prefix, _PROBE_TARGETS)
        np.unique(picked)
        float((_PROBE_VALUES[_PROBE_INDEX] * 2.0).sum())
    return time.perf_counter() - start


class HostSpeed:
    """Probes interleaved with the timed work, and the speed they give.

    On a shared host the CPU's speed can change by half in stretches of
    seconds to minutes, which moves every wall time of a run together.
    Dividing each wall time by the speed factor measured around it reports
    the program at the reference speed; the raw figures are kept as well.
    """

    def __init__(self):
        self.samples: List[float] = []

    def probe(self) -> int:
        """Take one probe; return its index."""
        self.samples.append(speed_probe())
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Probe time around probe ``index`` over the reference probe time."""
        lo = max(0, index - PROBE_WINDOW)
        return float(np.median(self.samples[lo:index + PROBE_WINDOW + 1])) / REFERENCE_PROBE_S

    def factors(self, indices) -> np.ndarray:
        return np.asarray([self.factor(i) for i in indices], dtype=np.float64)


def timed_setups(build, speed: HostSpeed, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times between probes.

    Returns (last result, durations, speed factors): each duration's factor
    is the median of the probes taken just before and just after it.
    """
    durations = []
    factors = []
    result = None
    before = [speed.probe() for _ in range(SETUP_PROBES)]
    for _ in range(repeats):
        start = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - start)
        after = [speed.probe() for _ in range(SETUP_PROBES)]
        factors.append(float(np.median([speed.samples[i] for i in before + after]))
                       / REFERENCE_PROBE_S)
        before = after
    return result, durations, factors


def graph_digest(graph) -> str:
    """Content hash of a CSR graph."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.row_ptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.col_idx, dtype=np.int64).tobytes())
    return h.hexdigest()


def identity_hash(params: dict, graph, first_requests) -> str:
    """Hash of a workload's fixed parameters and generated inputs.

    Two result rows are comparable only when this hash is equal: it covers
    the graph, the request mix and every fixed setting (latency limit,
    out-of-memory and shard configuration).
    """
    h = hashlib.sha256()
    h.update(json.dumps(params, sort_keys=True).encode())
    h.update(graph_digest(graph).encode())
    for item in first_requests:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


class EdgeIndex:
    """Membership test for sampled edges against one graph."""

    def __init__(self, graph):
        n = np.int64(graph.num_vertices)
        src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
        self.num_vertices = n
        self.keys = np.sort(src * n + graph.col_idx.astype(np.int64))

    def missing(self, edges: np.ndarray) -> int:
        """How many of the ``(k, 2)`` edges are not edges of the graph."""
        if edges.size == 0:
            return 0
        edges = np.asarray(edges, dtype=np.int64)
        out_of_range = (edges < 0) | (edges >= self.num_vertices)
        if out_of_range.any():
            return int(out_of_range.any(axis=1).sum())
        query = edges[:, 0] * self.num_vertices + edges[:, 1]
        pos = np.minimum(np.searchsorted(self.keys, query), self.keys.size - 1)
        return int((self.keys[pos] != query).sum())


def digest(samples, iteration_counts, cost: dict | None = None) -> str:
    """Hash of everything a re-run must reproduce bit for bit."""
    h = hashlib.sha256()
    for s in samples:
        h.update(np.int64(s.instance_id).tobytes())
        h.update(np.ascontiguousarray(s.seeds, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(s.edges, dtype=np.int64).tobytes())
    h.update(np.asarray(list(iteration_counts), dtype=np.int64).tobytes())
    if cost is not None:
        h.update(json.dumps(cost, sort_keys=True).encode())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def size_cycle(sizes, counts):
    """One cycle's request sizes: ``counts[i]`` requests of ``sizes[i]``."""
    return [size for size, count in zip(sizes, counts) for _ in range(count)]


class SeedPool:
    """Seed sets drawn from a run's RNG.

    Vertices reserved for cold passes are never used by warm requests, and
    no seed set is handed out twice.
    """

    def __init__(self, rng: np.random.Generator, num_vertices: int, reserve: int):
        order = rng.permutation(num_vertices)
        self._rng = rng
        self._cold = order[:reserve]
        self._cold_next = 0
        self._warm = order[reserve:]
        self._seen: set = set()

    def cold(self, size: int) -> np.ndarray:
        picked = self._cold[self._cold_next:self._cold_next + size]
        if picked.size != size:
            raise RuntimeError("cold seed reserve exhausted")
        self._cold_next += size
        return picked.copy()

    def warm(self, size: int) -> np.ndarray:
        while True:
            picked = self._rng.choice(self._warm, size=size, replace=False)
            key = hashlib.sha1(np.sort(picked).tobytes()).digest()
            if key not in self._seen:
                self._seen.add(key)
                return picked


def flip_one_edge(samples):
    """A copy of ``samples`` with one sampled edge's endpoint changed.

    ``--corrupt`` applies it to one re-run check, to show that a wrong
    output fails the run.
    """
    from repro.api.results import InstanceSample

    out = list(samples)
    for i, s in enumerate(out):
        if s.num_edges:
            edges = s.edges.copy()
            edges[0, 1] += 1
            out[i] = InstanceSample(s.instance_id, s.seeds, edges)
            break
    return out
