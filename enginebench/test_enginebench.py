"""The engine benchmark's own tests: tiny inputs, every workload, both modes.

Run from the repository root:  python -m pytest -q enginebench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from enginebench import run as bench
from enginebench.layers import SpanLog, install, layer_table

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke(workload, trace, tmp_path):
    record = bench.run(workload, seed=5, seconds=0.2, trace=trace,
                       scale=0.05, out_dir=str(tmp_path))
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and metric["unit"]
        assert isinstance(metric["value"], (int, float))
    assert record["inputs"] and all(v["IN"] > 0 for v in record["inputs"].values())
    if trace:
        assert (tmp_path / f"spans-{workload}-seed5.jsonl").exists()
        for table in record["layer_tables"].values():
            summed = sum(row[0] for row in table["rows"].values())
            assert summed == pytest.approx(table["total_s"], rel=1e-9, abs=1e-12)


def test_benchmark_json_matches_what_the_benchmark_emits():
    spec = _spec()
    assert spec["command"] == ["python3", "enginebench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and metric["unit"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_install_restores_every_wrapped_call():
    from repro.engine import session
    from repro.mpc.backends.serial import SerialBackend

    before = (session.parse_query, session.Engine.execute, SerialBackend.map_parts)
    uninstall = install(SpanLog(), SerialBackend)
    assert session.parse_query is not before[0]
    uninstall()
    assert (session.parse_query, session.Engine.execute, SerialBackend.map_parts) == before


def test_host_times_at_reference_speed_and_restores_the_process():
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    affinity = os.sched_getaffinity(0)
    host = bench.Host()
    try:
        host.move()
        _, slowdown, alarms = host.call(sum, range(10))
        assert slowdown > 0 and alarms == []
    finally:
        host.close()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert os.sched_getaffinity(0) == affinity
    # A probe inside the span is not the operation's time; one outside is.
    assert bench.Host.at_reference((1.0, 2.0), 2.0, [(1.2, 1.4), (2.1, 2.2)]) == \
        pytest.approx(0.4)


@pytest.mark.parametrize("seed, scale", [(1, 1.0), (5, 0.2), (10, 0.2)])
def test_cold_versions_differ_in_every_plan_statistics(seed, scale):
    """``cold`` relies on it: every request prepares afresh.

    At these seeds and sizes, independent draws of the binary join's
    relations agree on their planning statistics.
    """
    from repro.data.stats import stats_fingerprint

    from enginebench.workloads import COLD_DECK, cold_versions, oracle_instance

    versions = cold_versions(seed, scale)
    for entry in COLD_DECK:
        prints = {stats_fingerprint(oracle_instance(entry, v)) for v in versions}
        assert len(prints) == len(versions), entry.label


def test_self_times_add_up_to_the_request():
    log = SpanLog()
    log.request = 1
    root = log.open("request")
    outer = log.open("a")
    log.close(log.open("b"))
    log.close(outer)
    log.close(root)
    table = layer_table(log, {1: "q"})["q"]
    assert set(table["rows"]) == {"unattributed", "a", "b"}
    assert sum(r[0] for r in table["rows"].values()) == pytest.approx(table["total_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(SPEC, tmp_path)
    shutil.copytree(HERE, tmp_path / "enginebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "enginebench/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("keep_stats", [True, False])
def test_writes_keep_or_change_the_planning_statistics(keep_stats):
    """``read-write`` relies on it: revalidation and recompiling both occur."""
    import random

    from repro.data.instance import Instance
    from repro.data.stats import stats_fingerprint
    from repro.query import catalog

    from enginebench.workloads import mutate, warm_relations

    base = warm_relations(seed=7, scale=0.2)
    query = catalog.line3()
    before = Instance(query, {n: base[n] for n in ("R1", "R2", "R3")})
    new = mutate(base["R2"], 0.05, random.Random(1), keep_stats=keep_stats)
    assert new.rows != base["R2"].rows and len(set(new.rows)) == len(new.rows)
    after = Instance(query, {"R1": base["R1"], "R2": new, "R3": base["R3"]})
    same = stats_fingerprint(after) == stats_fingerprint(before)
    assert same == keep_stats
