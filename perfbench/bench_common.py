"""Shared pieces of the benchmark: checkout layout, statistics, output checks
and the per-layer self-time ledger.

Only the standard library is imported here, so the set-up probe can take its
start time before anything from ``repro`` is loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pstats
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"
#: Scratch space for the service workload's result cache; it lives inside
#: the checkout because the benchmark writes nowhere else.
WORK_DIR = ROOT / ".perfbench-work"


class CheckoutError(RuntimeError):
    """The benchmark does not run next to the program's sources."""


def use_checkout_sources() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    Refuses to run without it, so an installed ``repro`` elsewhere can never
    be measured in place of the checkout's own code.
    """
    if not (REPRO_DIR / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {REPRO_DIR}; run the benchmark from the "
            "root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def verify_imported_from_checkout() -> None:
    import repro

    origin = Path(repro.__file__).resolve()
    if REPRO_DIR not in origin.parents:
        raise CheckoutError(f"repro was imported from {origin}, not {REPRO_DIR}")


# ------------------------------------------------------------------ stats
def quantile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: The tail percentile of a metric whose run holds hundreds of samples: p90
#: keeps well over ten samples beyond it.
TAIL_FRACTION = 0.90


def count_beyond(samples: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly beyond the ``fraction`` quantile's position."""
    return len(samples) - 1 - int(fraction * (len(samples) - 1))


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------- output checks
def result_digest(result: Any) -> str:
    """SHA-256 over every field of a ``RunResult``, floats at full precision."""
    document = dataclasses.asdict(result)
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Seeds whose results ``record_digests.py`` records, plus one held-out seed
#: kept for checking later gain claims on a seed they were not tuned on.
RECORDED_SEEDS = range(32)
HELD_OUT_SEED = 7919


def load_expected_digests() -> Dict[str, Any]:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def expected_digest(workload: str, seed: int) -> Any:
    """What was recorded for ``workload`` at ``seed``, if anything.

    A simulator workload records one digest per seed; ``service-mix`` records
    a table from grid cell to digest prefix.
    """
    table = load_expected_digests()["workloads"].get(workload, {})
    return table.get(str(seed))


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)
        print(f"perfbench: failed operation: {reason}", file=sys.stderr)

    def fail_exception(self, what: str) -> None:
        self.fail(f"{what}: {traceback.format_exc(limit=3).strip()}")

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


# ----------------------------------------------------------------- ledger
#: Modules of the directory-protocol family, reported as one sub-layer.
DIRECTORY_MODULES = frozenset(
    {
        "directory.py",
        "directory_state.py",
        "dir_classic.py",
        "dir_opt.py",
        "mesi_dir.py",
    }
)

#: Layers whose self time the ledger reports, in report order.
LEDGER_LAYERS = (
    "sim",
    "network",
    "core",
    "protocols",
    "protocols.ts_snoop",
    "protocols.directory",
    "memory",
    "processor",
    "workloads",
    "system",
    "service.manager",
    "service.server",
    "service.wire",
    "service.cache",
    "service.fairness",
    "client",
    "stdlib",
)


def layers_of(filename: str) -> Tuple[str, ...]:
    """The ledger layers a profiled function's self time counts towards.

    Functions of this benchmark count towards none; everything outside
    ``repro`` (the standard library and built-ins) is ``stdlib``.
    """
    path = Path(filename)
    if not path.is_absolute():
        return ("stdlib",)
    if BENCH_DIR in path.parents:
        return ()
    try:
        parts = path.relative_to(REPRO_DIR).parts
    except ValueError:
        return ("stdlib",)
    if len(parts) == 1:
        return (Path(parts[0]).stem,)
    package, module = parts[0], parts[1]
    if package == "service":
        return (f"service.{Path(module).stem}",)
    if package == "protocols":
        if module == "ts_snoop.py":
            return ("protocols", "protocols.ts_snoop")
        if module in DIRECTORY_MODULES:
            return ("protocols", "protocols.directory")
    return (package,)


def _is_wait(filename: str, name: str) -> bool:
    """The event loop's readiness poll: time spent idle, not working."""
    return filename == "~" and name.startswith(
        ("<method 'poll' of 'select.", "<method 'select' of 'select.")
    )


def self_time_by_layer(
    profiles: Iterable[Any], *, repro_only: bool = False
) -> Dict[str, float]:
    """Sum cProfile self time (``tottime``) per ledger layer.

    ``repro_only`` drops ``stdlib`` time: on a thread that mostly blocks on
    a socket, that time is waiting, not any layer's work.
    """
    totals: Dict[str, float] = {}
    layer_cache: Dict[str, Tuple[str, ...]] = {}
    for profile in profiles:
        for (filename, _line, name), row in pstats.Stats(profile).stats.items():
            if _is_wait(filename, name):
                continue
            layers = layer_cache.get(filename)
            if layers is None:
                layers = layer_cache[filename] = layers_of(filename)
            for layer in layers:
                if repro_only and layer == "stdlib":
                    continue
                totals[layer] = totals.get(layer, 0.0) + row[2]
    return totals


def ledger_metrics(
    server: Dict[str, float], client: Dict[str, float]
) -> Dict[str, float]:
    """The ``<layer>.self_s`` metrics from the server- and client-side sums.

    ``client.self_s`` is every ``repro`` function the client threads ran
    (the client, wire decoding, events); the service layers are taken from
    the server thread, where admission, scheduling and computation happen.
    """
    metrics = {f"{layer}.self_s": server.get(layer, 0.0) for layer in LEDGER_LAYERS}
    metrics["client.self_s"] = sum(client.values())
    return metrics
