"""The two simulator workloads: one large run at a time through ``repro.api``.

An operation is one fresh ``api.run_experiment(spec=...)``: the per-process
stream cache is cleared first, so every run pays stream generation the way a
new user run does.  Each run is followed by cached replays of the same spec
through an in-process ``ResultCache`` (the ``cache=`` argument of the API),
the latency a user sees when re-running an experiment already computed.
A host-speed sample (``bench_host``) is taken between consecutive runs, and
each run and its replays are scaled by the samples nearest to them.
"""

from __future__ import annotations

import cProfile
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from bench_common import (
    Tally,
    count_beyond,
    expected_digest,
    ledger_metrics,
    median,
    peak_rss_mb,
    quantile,
    result_digest,
    self_time_by_layer,
)
from bench_host import HostClock
from repro import api
from repro.client import ServiceClient
from repro.parallel import clear_stream_cache
from repro.service import ResultCache
from repro.service.server import ServerThread
from repro.system import SystemBuilder
from repro.system.builder import build_streams

#: Cached replays timed after each fresh run.
REPLAYS_PER_RUN = 20
#: ``cold_tail_ms`` is this percentile of the fresh runs.  A run of a
#: simulator workload takes about a second, so 30 s hold only 20-30 of them;
#: p60 of at least :data:`MIN_FRESH_RUNS` keeps ten or more beyond it.
COLD_TAIL_FRACTION = 0.60
#: ``repeat_tail_ms`` is this percentile of the replays, which keeps ten or
#: more of the at least 520 beyond it.  The first replay after a fresh run
#: finds its data out of the CPU caches and takes 2-3 times as long as the
#: rest, so one replay in 20 is slow: p90 and p95 sit on the steep edge of
#: that step and moved by 10-19 % between seeds, p98 lies inside it.
REPEAT_TAIL_FRACTION = 0.98
#: The timed loop goes on past its deadline until this many fresh runs are
#: done (up to about 12 s on a slow host phase).
MIN_FRESH_RUNS = 26


@dataclass(frozen=True)
class SimWorkload:
    name: str
    workload: str
    protocol: str
    network: str
    scale: float
    overrides: Tuple[Tuple[str, Any], ...]

    def spec(self, seed: int, scale: float = 0.0) -> api.ExperimentSpec:
        """The experiment of this workload for ``seed`` (``scale`` 0 = default)."""
        return api.ExperimentSpec.make(
            self.workload,
            protocol=self.protocol,
            network=self.network,
            scale=scale or self.scale,
            seed=seed,
            **dict(self.overrides),
        )


#: Broadcast snooping with logical-time ordering at 64 nodes: the
#: ts_snoop and core layers carry the load; no directory, NACKs or store
#: buffers.
SNOOP_OLTP_64 = SimWorkload(
    "snoop-oltp-64", "oltp", "ts-snoop", "butterfly", 0.05, (("num_nodes", 64),)
)
#: A directory on the paper's 16-node torus under TSO: kernel, torus
#: routing, the NACK/retry path and the store buffers; core does nothing.
DIR_DSS_TSO = SimWorkload(
    "dir-dss-tso", "dss", "dirclassic", "torus", 0.5, (("consistency", "tso"),)
)

WORKLOADS = {workload.name: workload for workload in (SNOOP_OLTP_64, DIR_DSS_TSO)}


def check_reference(
    tally: Tally, label: str, result: Any, expected: Optional[str]
) -> None:
    """Compare the first result of a run against its recorded digest."""
    if expected is None:
        print(
            f"perfbench: no digest recorded for {label}; results are checked "
            "against each other only",
            file=sys.stderr,
        )
        tally.ok()
        return
    tally.check(
        result_digest(result) == expected,
        f"{label}: result digest differs from the recorded one",
    )


def _fresh_run(spec: api.ExperimentSpec) -> Tuple[Any, float]:
    clear_stream_cache()
    start = time.perf_counter()
    result = api.run_experiment(spec=spec)
    return result, time.perf_counter() - start


def timed_loop(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    scale: float = 0.0,
    min_runs: int = 0,
) -> Dict[str, Any]:
    """Fresh runs, each followed by cached replays, for ``seconds`` and at
    least ``min_runs`` fresh runs.

    Returns the samples, the reference result and the tally.  ``runs`` and
    ``replays`` are at the reference host speed; ``wall_runs`` and
    ``wall_replays`` are as measured.  The first run (through the cache, to
    fill it) is a warm-up and is not timed.
    """
    spec = workload.spec(seed, scale)
    tally = Tally()
    cache = ResultCache(memory_entries=4)
    clear_stream_cache()
    reference = api.run_experiment(spec=spec, cache=cache)
    # Digests are recorded at each workload's own scale only.
    expected = (
        expected_digest(workload.name, seed) if spec == workload.spec(seed) else None
    )
    check_reference(tally, f"{workload.name} seed {seed}", reference, expected)

    # Measured times of each interval between two host-speed samples.
    intervals: List[Tuple[List[float], List[float]]] = []
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    while True:
        run_times: List[float] = []
        replay_times: List[float] = []
        intervals.append((run_times, replay_times))
        try:
            result, elapsed = _fresh_run(spec)
        except Exception:
            tally.fail_exception(f"{workload.name} run")
        else:
            run_times.append(elapsed)
            tally.check(result == reference, f"{workload.name}: run differs")
        for _ in range(REPLAYS_PER_RUN):
            try:
                begin = time.perf_counter()
                result = api.run_experiment(spec=spec, cache=cache)
                replay_times.append(time.perf_counter() - begin)
            except Exception:
                tally.fail_exception(f"{workload.name} replay")
            else:
                tally.check(result == reference, f"{workload.name}: replay differs")
        clock.mark()
        if time.perf_counter() >= deadline and len(intervals) >= min_runs:
            break
    factors = clock.factors()
    return {
        "spec": spec,
        "tally": tally,
        "reference": reference,
        "runs": [f * t for f, (ts, _) in zip(factors, intervals) for t in ts],
        "replays": [f * t for f, (_, ts) in zip(factors, intervals) for t in ts],
        "wall_runs": [t for ts, _ in intervals for t in ts],
        "wall_replays": [t for _, ts in intervals for t in ts],
        "unit_ms": clock.unit_ms(),
        "cache": cache,
    }


def end_to_end(loop: Dict[str, Any]) -> Dict[str, float]:
    runs, replays = loop["runs"], loop["replays"]
    print(
        f"perfbench: {len(runs)} fresh runs, {len(replays)} cached replays; "
        f"cold tail = p{round(100 * COLD_TAIL_FRACTION)} "
        f"({count_beyond(runs, COLD_TAIL_FRACTION)} beyond), "
        f"repeat tail = p{round(100 * REPEAT_TAIL_FRACTION)} "
        f"({count_beyond(replays, REPEAT_TAIL_FRACTION)} beyond); as measured, "
        f"run_s {median(loop['wall_runs']):.4g} s, reference unit "
        f"{loop['unit_ms']:.4g} ms"
    )
    return {
        "run_s": median(runs),
        "peak_rss_mb": peak_rss_mb(),
        # Fresh runs per second at the median run time: a closed loop of one
        # caller, without the replays, which cost under a thousandth as much.
        "jobs_per_s": 1.0 / median(runs),
        "cold_p50_ms": 1000.0 * median(runs),
        "cold_tail_ms": 1000.0 * quantile(runs, COLD_TAIL_FRACTION),
        "repeat_tail_ms": 1000.0 * quantile(replays, REPEAT_TAIL_FRACTION),
    }


def model_counts(results: List[Any], paper_three_hop_pct: float) -> Dict[str, float]:
    """Exact simulator counts, summed over ``results``."""
    events = sum(result.sim_events for result in results)
    misses = sum(result.misses for result in results)
    c2c = sum(result.cache_to_cache_misses for result in results)
    c2c_frac = c2c / misses if misses else 0.0
    return {
        "sim.events": events,
        "processor.references": sum(result.references for result in results),
        "protocols.misses": misses,
        "protocols.c2c_frac": c2c_frac,
        "protocols.retries_per_miss": (
            sum(result.retries for result in results) / misses if misses else 0.0
        ),
        "network.traffic_bytes": sum(result.total_traffic_bytes for result in results),
        "model.runtime_ns": sum(result.runtime_ns for result in results),
        "model.three_hop_pct": 100.0 * c2c_frac,
        "model.paper_three_hop_pct": paper_three_hop_pct,
    }


def time_build_layers(spec: api.ExperimentSpec) -> Tuple[float, float]:
    """Wall seconds of ``build_streams`` and ``SystemBuilder.build`` for a spec."""
    config, profile = spec.config(), spec.profile()
    start = time.perf_counter()
    streams = build_streams(profile, config)
    built = time.perf_counter()
    SystemBuilder(config).build(streams)
    return built - start, time.perf_counter() - built


def cache_counts(stats: Dict[str, int]) -> Dict[str, float]:
    lookups = stats["hits"] + stats["misses"]
    return {
        "cache.memory_hits": stats["memory_hits"],
        "cache.disk_hits": stats["disk_hits"],
        "cache.misses": stats["misses"],
        "cache.stores": stats["stores"],
        "cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
    }


def service_counts(
    snapshot_before: Dict[str, Any], snapshot_after: Dict[str, Any]
) -> Dict[str, float]:
    """Replica and queue counts as deltas of two ``/v1/metrics`` snapshots."""
    before, after = snapshot_before["replicas"], snapshot_after["replicas"]
    return {
        "replicas.computed": after["replicas_computed"] - before["replicas_computed"],
        "replicas.from_cache": after["replicas_from_cache"]
        - before["replicas_from_cache"],
        "replicas.deduped": after["replicas_deduped"] - before["replicas_deduped"],
        "queue.peak_depth": snapshot_after["queue"]["peak_queue_depth"],
    }


def served_run(
    client: ServiceClient, spec: api.ExperimentSpec
) -> Tuple[Any, float, float]:
    """Submit and wait; the result with submit and wait milliseconds."""
    start = time.perf_counter()
    accepted = client.submit(spec)
    submitted = time.perf_counter()
    result = client.wait(accepted.job_id)
    return (
        result,
        1000.0 * (submitted - start),
        1000.0 * (time.perf_counter() - submitted),
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 0.0):
    """One benchmark run; returns ``(tally, metrics)``."""
    workload = WORKLOADS[workload_name]
    if not trace:
        loop = timed_loop(workload, seed, seconds, scale, MIN_FRESH_RUNS)
        return loop["tally"], end_to_end(loop)
    return _traced(workload, seed, seconds, scale)


def _traced(workload: SimWorkload, seed: int, seconds: float, scale: float):
    """The per-layer ledger.

    A third of ``seconds`` runs the timed loop untraced.  Then the same
    experiment is submitted twice through a loopback gateway, once plain and
    once with cProfile on the server loop thread (where the inline backend
    computes) and on the client thread.
    """
    loop = timed_loop(workload, seed, seconds / 3.0, scale)
    tally, spec, reference = loop["tally"], loop["spec"], loop["reference"]
    # Ledger timings are as measured; host.unit_ms gives the host's speed.
    run_s = median(loop["wall_runs"])
    streams_s, build_s = time_build_layers(spec)

    server_profile, client_profile = cProfile.Profile(), cProfile.Profile()
    with ServerThread(jobs=1) as server:
        client = ServiceClient(server.base_url, client_id="bench")
        before = client.metrics()
        clear_stream_cache()
        plain_start = time.perf_counter()
        result, submit_ms, wait_ms = served_run(client, spec)
        plain_s = time.perf_counter() - plain_start
        tally.check(result == reference, f"{workload.name}: served result differs")

        clear_stream_cache()
        server.call(server_profile.enable)
        client_profile.enable()
        traced_start = time.perf_counter()
        try:
            result, _, _ = served_run(client, spec)
        finally:
            traced_s = time.perf_counter() - traced_start
            client_profile.disable()
            server.call(server_profile.disable)
        tally.check(result == reference, f"{workload.name}: traced result differs")
        after = client.metrics()

    metrics: Dict[str, float] = {
        "workloads.build_streams_s": streams_s,
        "system.build_s": build_s,
        "client.submit_ms": submit_ms,
        "client.wait_ms": wait_ms,
        "direct.run_ms": 1000.0 * run_s,
        "service.overhead_ms": 1000.0 * (plain_s - run_s),
        "repeat_p50_ms": 1000.0 * median(loop["wall_replays"]),
        "trace.overhead_x": traced_s / plain_s,
        "sim.us_per_event": 1e6 * run_s / reference.sim_events,
        "host.unit_ms": loop["unit_ms"],
    }
    metrics.update(
        ledger_metrics(
            self_time_by_layer([server_profile]),
            self_time_by_layer([client_profile], repro_only=True),
        )
    )
    metrics.update(model_counts([reference], spec.profile().paper_three_hop_percent))
    metrics.update(cache_counts(loop["cache"].stats.as_dict()))
    metrics.update(service_counts(before, after))
    return tally, metrics
