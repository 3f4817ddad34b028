"""The benchmark's own tests: shrunken smoke runs of every workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: the repository's tier-1
suite collects every such file under the root, and these smoke runs
spawn fleet workers, which belongs to the benchmark, not to tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.fleet import Fleet  # noqa: E402
from perfbench.workloads import (SMOKE, WORKLOADS, Rep, needs_general_path,  # noqa: E402
                                 sample_a72_configs)


def _children() -> list:
    """Live processes whose parent is this one."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            kids.append(int(entry))
    return kids


@pytest.fixture()
def run_dir(tmp_path):
    path = tmp_path / "run"
    path.mkdir()
    yield str(path)
    # Hermetic: no fleet directory, store or trace cache survives a run,
    # and every worker has exited.
    assert os.listdir(path) == []
    assert _children() == []


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_sweep_sample_is_seeded_and_monomorphic():
    first = sample_a72_configs(5, 6)
    assert [c.flatten() for c in first] == [c.flatten() for c in sample_a72_configs(5, 6)]
    assert [c.flatten() for c in first] != [c.flatten() for c in sample_a72_configs(6, 6)]
    assert len({json.dumps(c.flatten(), sort_keys=True) for c in first}) == 7
    assert not any(needs_general_path(c.flatten()) for c in first)


def test_campaign_runs_cycle_through_derived_seeds():
    runner = run.Runner("campaign-a53", 7, SMOKE, "unused")
    assert runner.seeds == [7 * run.CAMPAIGN_SEEDS + i for i in range(run.CAMPAIGN_SEEDS)]
    assert set(runner.seeds).isdisjoint(run.Runner("campaign-a53", 8, SMOKE, "unused").seeds)
    assert run.Runner("sweep-a72-spec", 7, SMOKE, "unused").seeds == [7]


def test_checker_compares_each_repetition_with_its_seeds_reference():
    checker = run.Checker()
    for seed, digest in ((1, "a"), (2, "b"), (1, "a"), (2, "c")):
        checker.check(Rep(setup_s=0.0, seed=seed,
                          outputs={"digest": digest, "unique_trials": 3}), "rep")
    assert checker.attempted == 12 and checker.failed == 3
    assert checker.problems == ["rep: digest differs from the reference run of seed 2"]


def test_worker_that_exits_early_is_a_failed_check(run_dir):
    fleet = Fleet(run_dir, os.path.join(ROOT, "src"), launcher=[sys.executable, "-c", "pass"])
    try:
        fleet.start_service()
        fleet.spawn_worker()
        fleet.proc.wait()
        with pytest.raises(RuntimeError, match="exited early"):
            fleet.worker_cpu_s()
        fleet.finish()
        assert fleet.worker["exited_early"] and fleet.worker["summaries"] == 0
    finally:
        fleet.close()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_measure(workload, run_dir):
    metrics, checker = run.measure(run.Runner(workload, 3, SMOKE, run_dir), seconds=0)
    assert checker.problems == []
    assert checker.failed == 0 and checker.attempted > 0
    assert set(metrics) == {name for name, _u, _b in run.END_TO_END}
    assert all(value > 0 for value in metrics.values())


def test_smoke_traced_campaign_covers_serial_and_fleet(run_dir):
    # The traced run itself checks that the fleet simulated exactly what
    # the serial campaign did; a mismatch would show up as a problem.
    metrics, checker = run.trace(run.Runner("campaign-a53", 4, SMOKE, run_dir))
    assert checker.problems == [] and checker.failed == 0
    assert set(metrics) == {name for name, _u, _b in run.PER_LAYER}
    assert metrics["simulator.instructions"] > 0 and metrics["tuning.race_steps"] > 0
    assert metrics["core.constructions"] > 0 and metrics["memory.l1d_accesses"] > 0
    assert metrics["fabric.tasks_claimed"] > 0 and metrics["fabric.polls"] > 0
    assert metrics["service.requests_per_trial"] > 0 and metrics["store.calls"] > 0
    assert metrics["fabric.lost_leases"] == 0 and metrics["fabric.tasks_failed"] == 0


def test_smoke_traced_sweep(run_dir):
    metrics, checker = run.trace(run.Runner("sweep-a72-spec", 4, SMOKE, run_dir))
    assert checker.problems == []
    assert metrics["memory.general_path_frac"] == 0
    assert metrics["engine.batched_ratio"] == 1.0
    assert metrics["tuning.race_steps"] == 0
    assert metrics["core.host_share"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign-a53",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
