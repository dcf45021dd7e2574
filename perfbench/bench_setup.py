"""Set-up probe: time from before ``import repro`` until a workload could issue
its first operation.

    python3 perfbench/bench_setup.py <workload> <seed>

Prints ``{"setup_s": ...}``: the set-up time at the reference host speed of
``bench_host``, from a host-speed sample taken right after it.  ``run.py``
starts several of these as fresh processes and reports their median, so
import time shows in ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time

from bench_common import use_checkout_sources
from bench_host import REFERENCE_UNIT_S, unit_seconds


def setup(workload: str, seed: int) -> float:
    """Seconds from before ``import repro`` until ``workload`` can start."""
    use_checkout_sources()
    start = time.perf_counter()
    if workload == "service-mix":
        import bench_service

        bench_service.SpecSequence(seed).next()
        with bench_service.Service() as service:
            service.client("a").health()
            return time.perf_counter() - start
    import bench_sim

    bench_sim.WORKLOADS[workload].spec(seed)
    return time.perf_counter() - start


def main(workload: str, seed: int) -> None:
    seconds = setup(workload, seed)
    print(json.dumps({"setup_s": seconds * REFERENCE_UNIT_S / unit_seconds()}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
