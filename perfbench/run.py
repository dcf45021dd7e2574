"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload snoop-oltp-64 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
profiling off; ``--trace 1`` is a separate run that produces the per-layer
ledger (cProfile self time per package, timed public calls, exact counts).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and the layers they map to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict

from bench_common import (
    BENCH_DIR,
    ROOT,
    CheckoutError,
    median,
    use_checkout_sources,
    verify_imported_from_checkout,
)
from bench_host import pin_to_one_cpu

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over :data:`SETUP_PROBES` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "bench_setup.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchmark = load_benchmark()
        use_checkout_sources()
        verify_imported_from_checkout()
    except (OSError, ValueError, CheckoutError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in workloads:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose one of "
            f"{', '.join(workloads)}",
            file=sys.stderr,
        )
        return 2

    pin_to_one_cpu()
    import bench_service
    import bench_sim

    runner = bench_service if args.workload == "service-mix" else bench_sim
    tally, values = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        values["setup_s"] = setup_seconds(args.workload, args.seed)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = {entry["name"] for entry in wanted} ^ set(values)
    if missing:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {sorted(missing)}"
        )
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    for name, body in metrics.items():
        print(f"{name:>28} {body['value']:>16.6g} {body['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
