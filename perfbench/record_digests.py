"""Record the expected results of every workload into ``perfbench/digests.json``.

    python3 perfbench/record_digests.py

For each recorded seed (0-31 and the held-out seed) it runs each simulator
workload once and keeps its result digest, and runs the first cold spec of
every ``service-mix`` grid cell directly and keeps a digest prefix per cell.
The table is written afresh, so no digest of an earlier recording survives.
Re-record only when a change is meant to alter simulated results; a
performance-only change must leave every digest as it is.
"""

from __future__ import annotations

import json

from bench_common import (
    BENCH_DIR,
    HELD_OUT_SEED,
    RECORDED_SEEDS,
    result_digest,
    use_checkout_sources,
)


def main() -> None:
    use_checkout_sources()
    from repro import api

    import bench_service
    import bench_sim

    seeds = [*RECORDED_SEEDS, HELD_OUT_SEED]
    workloads = {}
    for name, workload in bench_sim.WORKLOADS.items():
        table = workloads[name] = {}
        for seed in seeds:
            result = api.run_experiment(spec=workload.spec(seed))
            table[str(seed)] = result_digest(result)
            print(name, seed, table[str(seed)][:16], flush=True)
    service = workloads["service-mix"] = {}
    for seed in seeds:
        service[str(seed)] = {
            bench_service.cell_key(spec): result_digest(api.run_experiment(spec=spec))[
                : bench_service.DIGEST_PREFIX
            ]
            for spec in bench_service.SpecSequence(seed).first_pass()
        }
        print("service-mix", seed, len(service[str(seed)]), "cells", flush=True)
    document = {"held_out_seed": HELD_OUT_SEED, "workloads": workloads}
    with open(BENCH_DIR / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
