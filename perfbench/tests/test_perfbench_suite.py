"""Tests of the benchmark itself: BENCHMARK.json, a tiny run of every
workload, and the output checks catching a wrong result."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_common  # noqa: E402
import bench_host  # noqa: E402

bench_common.use_checkout_sources()

import bench_service  # noqa: E402
import bench_sim  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY_SCALE = 0.005


def benchmark():
    return json.loads((bench_common.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {entry["name"] for entry in benchmark()[section]}


def test_names_and_units_are_valid_and_unique():
    document = benchmark()
    every = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in document[section]
    ]
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for section in ("end_to_end", "per_layer"):
        for entry in document[section]:
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("higher", "lower"), entry
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_bounds_and_setup_metric():
    document = benchmark()
    bounds = {entry["name"]: entry["bound"] for entry in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())
    assert document["paths"] == ["perfbench"]


def test_workloads_match_runners():
    assert {w["name"] for w in benchmark()["workloads"]} == {
        *bench_sim.WORKLOADS,
        "service-mix",
    }


def _assert_metrics(values, section):
    assert set(values) | {"setup_s"} == names(section) | {"setup_s"}
    for name, value in values.items():
        assert isinstance(value, (int, float)) and value == value, name


@pytest.mark.parametrize("workload", sorted(bench_sim.WORKLOADS))
def test_sim_workload_smoke(workload):
    tally, values = bench_sim.run(workload, 0, 0.01, False, scale=TINY_SCALE)
    assert (tally.failed, tally.reasons) == (0, [])
    assert tally.attempted > 1
    _assert_metrics(values, "end_to_end")
    assert all(value > 0 for value in values.values())


def test_sim_traced_smoke():
    tally, values = bench_sim.run("dir-dss-tso", 1, 0.01, True, scale=TINY_SCALE)
    assert tally.failed == 0
    _assert_metrics(values, "per_layer")
    assert values["replicas.computed"] == 2
    assert values["protocols.directory.self_s"] > 0
    assert values["core.self_s"] == 0


def test_service_mix_smoke_and_traced():
    tally, values = bench_service.run("service-mix", 0, 1.0, False, scale=TINY_SCALE)
    assert (tally.failed, tally.reasons) == (0, [])
    _assert_metrics(values, "end_to_end")
    tally, values = bench_service.run("service-mix", 0, 1.0, True, scale=TINY_SCALE)
    assert tally.failed == 0
    _assert_metrics(values, "per_layer")
    assert values["replicas.computed"] == values["cache.stores"] > 0


def test_spec_sequence_is_seeded_and_mixed():
    def entries(seed, count=400):
        sequence = bench_service.SpecSequence(seed)
        return [sequence.next() for _ in range(count)]

    first = entries(7)
    assert first == entries(7)
    assert first != entries(8)
    assert [repeat for _, _, repeat in first[4:]] == [False, True] * 198
    distinct = {spec for _, spec, _ in first}
    assert len(distinct) > bench_service.MEMORY_ENTRIES
    assert {spec.protocol for spec in distinct} == set(bench_sim.api.PROTOCOL_NAMES)
    assert {spec.workload for spec in distinct} == set(bench_sim.api.WORKLOAD_NAMES)
    assert {spec.network for spec in distinct} == set(bench_sim.api.NETWORK_NAMES)


def test_tampered_result_fails_the_checks():
    spec = bench_sim.DIR_DSS_TSO.spec(0, TINY_SCALE)
    result = bench_sim.api.run_experiment(spec=spec)
    tampered = dataclasses.replace(result, runtime_ns=result.runtime_ns + 1)
    assert bench_common.result_digest(tampered) != bench_common.result_digest(result)

    tally = bench_common.Tally()
    bench_sim.check_reference(tally, "x", result, bench_common.result_digest(result))
    bench_sim.check_reference(tally, "x", tampered, bench_common.result_digest(result))
    assert (tally.attempted, tally.failed) == (2, 1)

    outcome = bench_service.LoopOutcome()
    for index, value in enumerate((result, tampered)):
        job = bench_service.Job(index, spec, bool(index), 1.0, 1.0, value)
        outcome.jobs.append(job)
    bench_service.check_results(outcome)
    assert outcome.tally.failed == 1


def test_service_direct_sample_checks_the_recorded_digest():
    spec = bench_service.SpecSequence(0, TINY_SCALE).first_pass()[0]
    result = bench_sim.api.run_experiment(spec=spec)
    outcome = bench_service.LoopOutcome()
    outcome.jobs.append(bench_service.Job(0, spec, False, 1.0, 1.0, result))
    cell = bench_service.cell_key(spec)
    right = bench_common.result_digest(result)[: bench_service.DIGEST_PREFIX]

    tally = bench_common.Tally()
    assert len(bench_service.direct_sample(outcome, tally, {cell: right})) == 1
    assert tally.failed == 0
    tally = bench_common.Tally()
    assert bench_service.direct_sample(outcome, tally, {cell: "0" * 16}) == []
    assert tally.failed == 1


def test_first_pass_is_the_first_cold_spec_of_every_cell():
    sequence = bench_service.SpecSequence(5)
    first = {}
    for _ in range(1000):
        _, spec, repeat = sequence.next()
        if not repeat:
            first.setdefault(bench_service.cell_key(spec), spec)
    assert len(first) == len(bench_service.GRID)
    assert list(first.values()) == bench_service.SpecSequence(5).first_pass()


def test_tail_percentiles_keep_ten_samples_beyond():
    runs = range(bench_sim.MIN_FRESH_RUNS)
    assert bench_common.count_beyond(runs, bench_sim.COLD_TAIL_FRACTION) >= 10
    replays = range(bench_sim.MIN_FRESH_RUNS * bench_sim.REPLAYS_PER_RUN)
    assert bench_common.count_beyond(replays, bench_sim.REPEAT_TAIL_FRACTION) >= 10
    assert bench_common.count_beyond(range(100), bench_common.TAIL_FRACTION) >= 10


def test_reference_unit_is_fixed_work():
    assert bench_host.reference_unit() == bench_host.reference_unit() > 0
    assert bench_host.unit_seconds() > 0


def test_host_clock_scales_each_interval_by_the_nearest_samples(monkeypatch):
    reference = bench_host.REFERENCE_UNIT_S
    # Two fast samples, then the host slows to half speed for good.
    samples = iter([reference, reference, 2 * reference, 2 * reference,
                    2 * reference, 2 * reference, 2 * reference, 2 * reference])
    monkeypatch.setattr(bench_host, "unit_seconds", lambda: next(samples))
    clock = bench_host.HostClock()
    for _ in range(7):
        clock.mark()
    factors = clock.factors()
    assert len(factors) == 7
    # Interval i is scaled by the mean of samples i-2 .. i+3.
    assert factors[0] == pytest.approx(1 / 1.5)
    assert factors[1] == pytest.approx(5 / 8)
    assert factors[-1] == pytest.approx(0.5)
    assert clock.unit_ms() == pytest.approx(2000 * reference)


def test_digest_table_covers_every_workload_and_recorded_seed():
    document = bench_common.load_expected_digests()
    assert document["held_out_seed"] == bench_common.HELD_OUT_SEED
    seeds = {str(seed) for seed in bench_common.RECORDED_SEEDS}
    seeds.add(str(bench_common.HELD_OUT_SEED))
    for workload in [*bench_sim.WORKLOADS, "service-mix"]:
        assert set(document["workloads"][workload]) == seeds
    cells = {"/".join(cell) for cell in bench_service.GRID}
    for table in document["workloads"]["service-mix"].values():
        assert set(table) == cells


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(bench_common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
