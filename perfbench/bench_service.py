"""The ``service-mix`` workload: two weighted clients against a loopback gateway.

A closed loop: each of two ``ServiceClient`` threads (DRR weights 2:1)
submits its next job only after the previous one returned, as scripts that
submit and wait do.  Both draw from one seeded sequence of small specs that
covers every workload, protocol, network and consistency model; every other
submission repeats an earlier spec, alternately a recent one (held in the
cache's memory LRU) and any earlier one (mostly read back from disk).

The loop runs in segments of a few seconds.  Between segments both clients
are idle and a host-speed sample is taken (``bench_host``); the latencies and
the duration of each segment are scaled by the samples nearest to it.
"""

from __future__ import annotations

import bisect
import cProfile
import random
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from bench_common import (
    TAIL_FRACTION,
    WORK_DIR,
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
from bench_sim import (
    cache_counts,
    model_counts,
    served_run,
    service_counts,
    time_build_layers,
)
from repro import api
from repro.client import ServiceClient
from repro.parallel import clear_stream_cache
from repro.service import ResultCache
from repro.service.server import ServerThread

SCALE = 0.02
CLIENT_WEIGHTS = {"a": 2, "b": 1}
#: Below the number of distinct specs a run submits (several hundred), so
#: repeats of old specs are disk hits and repeats of recent ones memory hits.
MEMORY_ENTRIES = 32
#: A repeat names a spec first submitted at least this many submissions
#: earlier, so it is normally finished rather than still in flight.
REPEAT_GAP = 4
RECENT_WINDOW = 16
#: Length of one segment of the closed loop; a host-speed sample follows each.
SEGMENT_S = 3.0
#: Direct runs of the checked sample timed between two host-speed samples.
DIRECT_RUNS_PER_SAMPLE = 10
#: Submit and wait time out after this long; a timeout is a failed job.
CLIENT_TIMEOUT_S = 60.0

GRID = [
    (workload, protocol, network, consistency)
    for workload in api.WORKLOAD_NAMES
    for protocol in api.PROTOCOL_NAMES
    for network in api.NETWORK_NAMES
    for consistency in ("sc", "tso")
]


#: Leading hex digits of a result digest that ``digests.json`` keeps per
#: grid cell for this workload.
DIGEST_PREFIX = 16


def cell_key(spec: api.ExperimentSpec) -> str:
    """The :data:`GRID` cell of a spec, as ``workload/protocol/network/model``."""
    consistency = spec.overrides_dict()["consistency"]
    return "/".join((spec.workload, spec.protocol, spec.network, consistency))


class SpecSequence:
    """The seeded submission sequence; entry ``i`` depends only on the seed.

    New specs walk shuffled passes over :data:`GRID`, so every seed submits
    the same mix of configurations, each with its own stream seed.  The first
    cold spec of every cell therefore comes from the first pass and depends
    only on the seed; ``digests.json`` records its result.
    """

    def __init__(self, seed: int, scale: float = SCALE) -> None:
        self._rng = random.Random(seed)
        self._scale = scale
        self._pass: List[Tuple[str, str, str, str]] = []
        #: Every distinct spec in order of first submission, with the index
        #: of that submission.
        self.firsts: List[api.ExperimentSpec] = []
        self._first_indices: List[int] = []
        self.count = 0

    def _fresh(self) -> api.ExperimentSpec:
        if not self._pass:
            self._pass = list(GRID)
            self._rng.shuffle(self._pass)
        workload, protocol, network, consistency = self._pass.pop()
        return api.ExperimentSpec.make(
            workload,
            protocol=protocol,
            network=network,
            scale=self._scale,
            consistency=consistency,
            seed=self._rng.randrange(1, 1 << 30),
        )

    def next(self) -> Tuple[int, api.ExperimentSpec, bool]:
        """``(index, spec, is_repeat)`` of the next submission.

        Odd submissions repeat, alternately a recent spec and any earlier
        one.  A fixed pattern rather than a coin toss: a cold job costs many
        times a repeat, so a share of repeats that varied with the seed
        would move throughput from seed to seed.
        """
        index = self.count
        self.count += 1
        eligible = bisect.bisect_right(self._first_indices, index - REPEAT_GAP)
        if eligible and index % 2:
            low = max(0, eligible - RECENT_WINDOW) if index % 4 == 1 else 0
            return index, self.firsts[self._rng.randrange(low, eligible)], True
        spec = self._fresh()
        self._first_indices.append(index)
        self.firsts.append(spec)
        return index, spec, False

    def first_pass(self) -> List[api.ExperimentSpec]:
        """The first cold spec of every grid cell (advances the sequence)."""
        while len(self.firsts) < len(GRID):
            self.next()
        return self.firsts[: len(GRID)]


@dataclass
class Job:
    index: int
    spec: api.ExperimentSpec
    repeat: bool
    submit_ms: float
    wait_ms: float
    result: Any
    #: Scales this job's times to the reference host speed.
    factor: float = 1.0

    @property
    def wall_ms(self) -> float:
        """Submit to result, as measured."""
        return self.submit_ms + self.wait_ms

    @property
    def latency_ms(self) -> float:
        """Submit to result, at the reference host speed."""
        return self.factor * self.wall_ms


@dataclass
class LoopOutcome:
    jobs: List[Job] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: Duration of the loop as measured, and at the reference host speed.
    wall_elapsed: float = 0.0
    elapsed: float = 0.0
    unit_ms: float = 0.0
    before: Dict[str, Any] = field(default_factory=dict)
    after: Dict[str, Any] = field(default_factory=dict)
    server_profile: Optional[cProfile.Profile] = None
    client_profiles: List[cProfile.Profile] = field(default_factory=list)

    def latencies(self, repeat: bool, wall: bool = False) -> List[float]:
        return [
            job.wall_ms if wall else job.latency_ms
            for job in self.jobs
            if job.repeat == repeat
        ]


class DirectRun(NamedTuple):
    spec: api.ExperimentSpec
    result: Any
    #: Seconds as measured, and at the reference host speed.
    wall_s: float
    seconds: float


class Service:
    """A loopback gateway with a result cache on a fresh directory."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
        self.cache = ResultCache(self.directory, memory_entries=MEMORY_ENTRIES)
        self.server = ServerThread(
            jobs=1, cache=self.cache, client_weights=dict(CLIENT_WEIGHTS)
        )

    def start(self) -> "Service":
        try:
            self.server.start()
        except BaseException:
            shutil.rmtree(self.directory, ignore_errors=True)
            raise
        return self

    def client(self, client_id: str) -> ServiceClient:
        return ServiceClient(
            self.server.base_url, client_id=client_id, timeout=CLIENT_TIMEOUT_S
        )

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()


def _client_thread(
    client: ServiceClient,
    next_job: Iterator[Tuple[int, api.ExperimentSpec, bool]],
    jobs: List[Job],
    tally: Tally,
    lock: threading.Lock,
    profile: Optional[cProfile.Profile],
) -> None:
    if profile is not None:
        profile.enable()
    try:
        while True:
            with lock:
                entry = next(next_job, None)
            if entry is None:
                break
            index, spec, repeat = entry
            try:
                result, submit_ms, wait_ms = served_run(client, spec)
            except Exception:
                with lock:
                    tally.fail_exception(f"job {index} ({spec.label})")
                continue
            with lock:
                tally.ok()
                jobs.append(Job(index, spec, repeat, submit_ms, wait_ms, result))
    finally:
        if profile is not None:
            profile.disable()


def _segment(
    clients: List[ServiceClient],
    sequence: SpecSequence,
    deadline: float,
    outcome: LoopOutcome,
    profiles: List[Optional[cProfile.Profile]],
) -> List[Job]:
    """Both clients submit and wait until ``deadline``; returns their jobs."""
    lock = threading.Lock()
    jobs: List[Job] = []

    def until_deadline() -> Iterator[Tuple[int, api.ExperimentSpec, bool]]:
        while time.perf_counter() < deadline:
            yield sequence.next()

    next_job = until_deadline()
    threads = [
        threading.Thread(
            target=_client_thread,
            args=(client, next_job, jobs, outcome.tally, lock, profile),
        )
        for client, profile in zip(clients, profiles)
    ]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    return jobs


def closed_loop(
    service: Service, seed: int, seconds: float, *, trace: bool, scale: float = SCALE
) -> LoopOutcome:
    """Both clients submit and wait until ``seconds`` have passed.

    The loop runs in segments of :data:`SEGMENT_S`, each followed by a
    host-speed sample while the clients are idle.
    """
    outcome = LoopOutcome()
    sequence = SpecSequence(seed, scale)
    clients = [service.client(name) for name in CLIENT_WEIGHTS]
    outcome.before = clients[0].metrics()
    profiles = [cProfile.Profile() if trace else None for _ in clients]
    if trace:
        outcome.server_profile = cProfile.Profile()
        outcome.client_profiles = [profile for profile in profiles if profile]
        service.server.call(outcome.server_profile.enable)
    clear_stream_cache()
    clock = HostClock()
    segments: List[Tuple[List[Job], float]] = []
    end = time.perf_counter() + seconds
    try:
        while True:
            start = time.perf_counter()
            jobs = _segment(
                clients, sequence, min(start + SEGMENT_S, end), outcome, profiles
            )
            segments.append((jobs, time.perf_counter() - start))
            clock.mark()
            if time.perf_counter() >= end:
                break
    finally:
        if outcome.server_profile is not None:
            service.server.call(outcome.server_profile.disable)
    for factor, (jobs, wall) in zip(clock.factors(), segments):
        for job in jobs:
            job.factor = factor
        outcome.jobs += jobs
        outcome.wall_elapsed += wall
        outcome.elapsed += factor * wall
    outcome.unit_ms = clock.unit_ms()
    outcome.after = clients[0].metrics()
    outcome.jobs.sort(key=lambda job: job.index)
    return outcome


def check_results(outcome: LoopOutcome) -> None:
    """Every submission of a spec returns the same result."""
    first: Dict[api.ExperimentSpec, Any] = {}
    for job in outcome.jobs:
        reference = first.setdefault(job.spec, job.result)
        if job.result != reference:
            outcome.tally.fail(f"job {job.index} ({job.spec.label}) differs")


def direct_sample(
    outcome: LoopOutcome, tally: Tally, expected: Optional[Dict[str, str]]
) -> List[DirectRun]:
    """Direct runs of the first cold spec of every grid cell.

    Each must equal its served result, and its digest must match
    ``expected`` (cell to recorded digest prefix) when a table was recorded.
    One spec per cell keeps the sample's mix the same for every seed.  The
    runs happen outside the timed loop, stream cache cleared before each, so
    every sample pays what the served cold job paid.  A host-speed sample
    is taken after every :data:`DIRECT_RUNS_PER_SAMPLE` runs.
    """
    chosen: Dict[str, Job] = {}
    for job in outcome.jobs:
        if not job.repeat:
            chosen.setdefault(cell_key(job.spec), job)
    batches: List[List[Tuple[api.ExperimentSpec, Any, float]]] = [[]]
    clock = HostClock()
    cells = list(chosen.items())
    for position, (cell, job) in enumerate(cells, 1):
        clear_stream_cache()
        start = time.perf_counter()
        try:
            result = api.run_experiment(spec=job.spec)
        except Exception:
            tally.fail_exception(f"direct run of {job.spec.label}")
            result = None
        elapsed = time.perf_counter() - start
        if result is not None and (
            expected is None
            or tally.check(
                result_digest(result)[:DIGEST_PREFIX] == expected.get(cell),
                f"direct run of {job.spec.label} differs from the recorded digest",
            )
        ):
            if tally.check(
                result == job.result,
                f"served {job.spec.label} differs from a direct run",
            ):
                batches[-1].append((job.spec, result, elapsed))
        if position % DIRECT_RUNS_PER_SAMPLE == 0 or position == len(cells):
            clock.mark()
            batches.append([])
    return [
        DirectRun(spec, result, wall, factor * wall)
        for factor, batch in zip(clock.factors(), batches)
        for spec, result, wall in batch
    ]


def recorded_cells(seed: int, scale: float) -> Optional[Dict[str, str]]:
    """The recorded digest prefixes of ``seed``'s first pass, if any."""
    expected = expected_digest("service-mix", seed) if scale == SCALE else None
    if expected is None:
        print(
            f"perfbench: no digests recorded for service-mix seed {seed} at "
            f"scale {scale}; results are checked against each other only",
            file=sys.stderr,
        )
    return expected


def end_to_end(outcome: LoopOutcome, sample: List[DirectRun]) -> Dict[str, float]:
    cold, repeat = outcome.latencies(False), outcome.latencies(True)
    print(
        f"perfbench: {len(outcome.jobs)} jobs ({len(cold)} cold, {len(repeat)} "
        f"repeat), {len(sample)} direct runs; tails = p{round(100 * TAIL_FRACTION)} "
        f"({count_beyond(cold, TAIL_FRACTION)} cold and "
        f"{count_beyond(repeat, TAIL_FRACTION)} repeat samples beyond); as "
        f"measured, {len(outcome.jobs) / outcome.wall_elapsed:.4g} jobs/s, "
        f"cold p50 {median(outcome.latencies(False, wall=True)):.4g} ms, "
        f"reference unit {outcome.unit_ms:.4g} ms"
    )
    return {
        "run_s": median([run.seconds for run in sample]),
        "jobs_per_s": len(outcome.jobs) / outcome.elapsed,
        "cold_p50_ms": median(cold),
        "cold_tail_ms": quantile(cold, TAIL_FRACTION),
        "repeat_tail_ms": quantile(repeat, TAIL_FRACTION),
    }


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, scale: float = SCALE
):
    """One benchmark run; returns ``(tally, metrics)``."""
    with Service() as service:
        outcome = closed_loop(
            service, seed, seconds / 2 if trace else seconds, trace=False, scale=scale
        )
    check_results(outcome)
    tally = outcome.tally
    expected = recorded_cells(seed, scale)
    if not trace:
        sample = direct_sample(outcome, tally, expected)
        metrics = end_to_end(outcome, sample)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return tally, metrics

    with Service() as service:
        traced = closed_loop(service, seed, seconds / 2, trace=True, scale=scale)
    check_results(traced)
    tally.absorb(traced.tally)
    sample = direct_sample(outcome, tally, expected)
    if not sample:
        raise RuntimeError("no direct run succeeded")
    # Ledger timings are as measured; host.unit_ms gives the host's speed.
    direct_s = [run.wall_s for run in sample]
    builds = [time_build_layers(run.spec) for run in sample]
    results = [run.result for run in sample]
    cold = outcome.latencies(False, wall=True)
    metrics: Dict[str, float] = {
        "workloads.build_streams_s": median([streams for streams, _ in builds]),
        "system.build_s": median([build for _, build in builds]),
        "client.submit_ms": median([job.submit_ms for job in outcome.jobs]),
        "client.wait_ms": median([job.wait_ms for job in outcome.jobs]),
        "direct.run_ms": 1000.0 * median(direct_s),
        "service.overhead_ms": median(cold) - 1000.0 * median(direct_s),
        "repeat_p50_ms": median(outcome.latencies(True, wall=True)),
        # Per job, both halves at the reference host speed.
        "trace.overhead_x": (traced.elapsed / len(traced.jobs))
        / (outcome.elapsed / len(outcome.jobs)),
        "sim.us_per_event": 1e6 * sum(direct_s) / sum(r.sim_events for r in results),
        "host.unit_ms": outcome.unit_ms,
    }
    assert traced.server_profile is not None
    metrics.update(
        ledger_metrics(
            self_time_by_layer([traced.server_profile]),
            self_time_by_layer(traced.client_profiles, repro_only=True),
        )
    )
    paper = median([run.spec.profile().paper_three_hop_percent for run in sample])
    metrics.update(model_counts(results, paper))
    metrics.update(cache_counts(outcome.after["cache"]))
    metrics.update(service_counts(outcome.before, outcome.after))
    return tally, metrics
