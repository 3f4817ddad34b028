#!/usr/bin/env python3
"""Campaign benchmark of the ``repro`` validation pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-a53 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs the workload again with the layer spans of
:mod:`perfbench.tracing`, one cProfile pass, and reports the per-layer
metrics instead. Human-readable tables go to standard output first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Load is closed-loop: one driver process runs one campaign or sweep at a
time (plus, for ``fleet-a53``, one worker process). The program is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIRS = os.path.join(ROOT, ".perfbench-run")

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("sim_ips", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("public_cpi_error", "frac", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("model.tuned_cpi_error", "frac", "lower"),
    ("model.heldout_cpi_error", "frac", "lower"),
    ("model.sweep_cpi_error", "frac", "lower"),
    ("validation.lmbench_s", "s", "lower"),
    ("validation.evaluate_s", "s", "lower"),
    ("tuning.race_s", "s", "lower"),
    ("tuning.self_s", "s", "lower"),
    ("tuning.race_steps", "count", "lower"),
    ("tuning.requested_trials", "count", "lower"),
    ("tuning.unique_trials", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.key_s", "s", "lower"),
    ("engine.key_calls", "count", "lower"),
    ("engine.cache_hit_ratio", "frac", "higher"),
    ("engine.batched_ratio", "frac", "higher"),
    ("engine.executor_s", "s", "lower"),
    ("trace.record_s", "s", "lower"),
    ("trace.recorded_instructions", "count", "lower"),
    ("trace.columnar_s", "s", "lower"),
    ("hardware.measure_s", "s", "lower"),
    ("hardware.measurements", "count", "lower"),
    ("simulator.s", "s", "lower"),
    ("simulator.instructions", "count", "lower"),
    ("simulator.ns_per_inst", "ns", "lower"),
    ("core.construct_s", "s", "lower"),
    ("core.constructions", "count", "lower"),
    ("core.cycles", "count", "lower"),
    ("core.host_share", "frac", "lower"),
    ("memory.construct_s", "s", "lower"),
    ("memory.host_share", "frac", "lower"),
    ("memory.general_path_frac", "frac", "lower"),
    ("memory.l1d_accesses", "count", "lower"),
    ("memory.l1d_misses", "count", "lower"),
    ("memory.l2_misses", "count", "lower"),
    ("memory.dram_accesses", "count", "lower"),
    ("memory.prefetches_issued", "count", "lower"),
    ("branch.host_share", "frac", "lower"),
    ("branch.branches", "count", "lower"),
    ("branch.mispredicts", "count", "lower"),
    ("store.calls", "count", "lower"),
    ("store.s", "s", "lower"),
    ("fabric.submit_s", "s", "lower"),
    ("fabric.poll_s", "s", "lower"),
    ("fabric.polls", "count", "lower"),
    ("fabric.step_latency_ms", "ms", "lower"),
    ("fabric.step_latency_ms_p90", "ms", "lower"),
    ("fabric.overhead_ms_per_trial", "ms", "lower"),
    ("fabric.worker_busy_frac", "frac", "higher"),
    ("fabric.tasks_claimed", "count", "lower"),
    ("fabric.tasks_failed", "count", "lower"),
    ("fabric.lost_leases", "count", "lower"),
    ("service.requests_per_trial", "count", "lower"),
    ("service.bytes_per_trial", "B", "lower"),
    ("service.retries", "count", "lower"),
    ("service.compressed_frac", "frac", "higher"),
    ("cli.import_s", "s", "lower"),
    ("bench.tracing_overhead_frac", "frac", "lower"),
)

#: ``setup_s`` is the median over at least this many warm set-ups per
#: run (a set-up-only pass costs 1-2 s).
MIN_SETUPS = 7

#: Fresh-interpreter imports timed for ``cli.import_s``.
IMPORT_SAMPLES = 3

#: Campaign seeds a run cycles through, all derived from ``--seed``. How
#: much a campaign simulates depends on its tuner's seed (unique trials
#: and simulated instructions differ by about +-10% between seeds), so
#: a run's median covers several seeds; the repetition after the last
#: seed repeats the first one and must reproduce it exactly.
CAMPAIGN_SEEDS = 4


# ----------------------------------------------------------------------
# Statistics and printing
# ----------------------------------------------------------------------
def spread(values) -> tuple:
    """``(median, q1, q3, n)`` of a sample (quartiles are inclusive)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3, len(values)


def tail_percentile(values, beyond: int = 10):
    """The highest whole percentile with at least ``beyond`` samples
    above it, and its value; ``None`` when there are too few samples."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return None
    pct = math.floor(100 * (1 - beyond / len(ordered)))
    index = min(len(ordered) - 1, max(0, math.ceil(pct / 100 * len(ordered)) - 1))
    return pct, ordered[index]


def print_table(title: str, rows) -> None:
    """Rows of ``(name, unit, samples)``: median, quartiles and count."""
    print(title)
    print(f"  {'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'n':>6}  unit")
    for name, unit, samples in rows:
        med, q1, q3, n = spread(samples)
        print(f"  {name:<30}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>6}  {unit}")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
class Runner:
    """Repetitions of one workload for one ``--seed``."""

    def __init__(self, name: str, seed: int, size, run_dir: str) -> None:
        from perfbench.workloads import WORKLOADS, sample_a72_configs

        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.configs = (sample_a72_configs(seed, size.sweep_configs)
                        if name == "sweep-a72-spec" else None)
        #: Tuner seeds of the campaign repetitions, in order.
        self.seeds = ([seed] if self.configs is not None else
                      [seed * CAMPAIGN_SEEDS + i for i in range(CAMPAIGN_SEEDS)])

    @property
    def on_fleet(self) -> bool:
        return self.name == "fleet-a53"

    def rep(self, index: int = 0, fleet: bool = None, launcher: list = None, **kwargs):
        """Repetition number ``index`` (it picks the campaign seed). A
        campaign runs on the fleet when ``fleet`` is true (default: when
        the workload is ``fleet-a53``); ``launcher`` starts the fleet's
        worker."""
        from perfbench.fleet import Fleet
        from perfbench.workloads import run_campaign, run_sweep

        seed = self.seeds[index % len(self.seeds)]
        if self.configs is not None:
            rep = run_sweep(self.configs, self.size, **kwargs)
        elif not (self.on_fleet if fleet is None else fleet):
            rep = run_campaign(seed, self.size, **kwargs)
        else:
            pool = Fleet(self.run_dir, SRC, launcher)
            try:
                rep = run_campaign(seed, self.size, fleet=pool, **kwargs)
            finally:
                pool.close()
        rep.seed = seed
        return rep


class Checker:
    """Output checks: every repetition must match the reference outputs,
    which the first repetition of each seed sets."""

    def __init__(self) -> None:
        #: Seed -> outputs of its first repetition.
        self.references: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, rep, label: str) -> None:
        problems = list(rep.problems)
        reference = self.references.setdefault(rep.seed, rep.outputs)
        for key, expected in reference.items():
            if rep.outputs.get(key) != expected:
                problems.append(f"{key} differs from the reference run of seed {rep.seed}")
        trials = rep.outputs.get("unique_trials", 0)
        self.attempted += trials
        if problems:
            self.failed += max(1, trials)
            self.problems.extend(f"{label}: {p}" for p in problems)


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics over repetitions filling ``seconds``."""
    checker = Checker()
    # A set-up-only pass first warms the interpreter (lazy imports, first
    # touches of module-level tables); its set-up time is discarded.
    runner.rep(setup_only=True)
    start = time.perf_counter()
    reps = []
    while True:
        index = len(reps)
        if runner.on_fleet and index < len(runner.seeds):
            # Distributed output must equal serial output for the same
            # seed: the serial campaign sets the reference.
            checker.check(runner.rep(index, fleet=False, verify=True),
                          f"serial reference {index + 1}")
        rep = runner.rep(index, verify=index == 0 and not runner.on_fleet)
        checker.check(rep, f"repetition {index + 1}")
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = [rep.setup_s for rep in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.rep(setup_only=True).setup_s)

    samples = {
        "wall_s": [r.wall_s for r in reps],
        "trials_per_s": [r.trials_per_s for r in reps],
        "sim_ips": [r.sim_ips for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [peak_rss_mb()],
        "public_cpi_error": [r.public_cpi_error for r in reps],
    }
    print(f"{runner.name} seed {runner.seed}: {len(reps)} timed repetitions, "
          f"{len(setups)} set-ups")
    for rep in reps[:len(runner.seeds)]:
        print(f"  seed {rep.seed}: {rep.unique} unique trials and "
              f"{rep.instructions} instructions timed, SimStats digest "
              f"{rep.outputs['digest']}, model CPI errors " + ", ".join(
                  f"{name} {value:.6f}" for name, value in sorted(rep.model.items())))
    print_table("end-to-end", [(name, unit, samples[name]) for name, unit, _b in END_TO_END])
    metrics = {name: statistics.median(samples[name]) for name, _u, _b in END_TO_END}
    return metrics, checker


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def import_seconds() -> list:
    """Fresh-interpreter import times of ``repro.validation.campaign``."""
    code = ("import time; t = time.perf_counter(); import repro.validation.campaign; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(IMPORT_SAMPLES)]


def trace(runner: Runner) -> tuple:
    """Per-layer metrics of a workload's traced run.

    Serial repetitions: one untraced, one with spans, one cProfile pass
    of the timed phase. A campaign (either name) adds an untraced and a
    traced repetition on the fleet, for the fabric, service and store
    layers and for the fleet's overhead over the serial run. Every
    repetition must reproduce the untraced serial one exactly, and the
    fleet must simulate exactly what the serial campaign simulated.
    """
    from perfbench.tracing import Recorder, instrument, merge_summaries, profile_buckets
    from perfbench.workloads import needs_general_path

    checker = Checker()
    plain = runner.rep(fleet=False)
    checker.check(plain, "untraced repetition")
    recorder = Recorder()
    with instrument(recorder):
        traced = runner.rep(fleet=False)
    checker.check(traced, "traced repetition")
    profiler = cProfile.Profile()
    checker.check(runner.rep(fleet=False, profiler=profiler), "profiled repetition")
    shares = profile_buckets(profiler)
    spans = recorder.summary()

    fleet_plain = fleet_traced = None
    fleet_driver: dict = {}
    fleet_steps_ms: list = []
    if runner.configs is None:
        fleet_plain = runner.rep(fleet=True)
        checker.check(fleet_plain, "untraced fleet repetition")
        spans_path = os.path.join(runner.run_dir, "worker-spans.json")
        worker_main = [sys.executable, os.path.join(ROOT, "perfbench", "worker_main.py"),
                       "--spans", spans_path]
        fleet_recorder = Recorder()
        with instrument(fleet_recorder):
            fleet_traced = runner.rep(fleet=True, launcher=worker_main)
        checker.check(fleet_traced, "traced fleet repetition")
        with open(spans_path) as fh:
            worker_spans = json.load(fh)
        os.remove(spans_path)
        fleet_driver = fleet_recorder.summary()
        fleet_steps_ms = [d * 1e3 for d in fleet_recorder.durations("tuning.step")]
        on_fleet = merge_summaries(fleet_driver, worker_spans)
        for name, field in (("simulator", "count"), ("core.construct", "calls"),
                            ("tuning.step", "calls")):
            if on_fleet.get(name, {}).get(field) != spans.get(name, {}).get(field):
                checker.problems.append(f"fleet: {name} {field} differs from the serial run")
                checker.failed += fleet_traced.outputs["unique_trials"]
    imports = import_seconds()

    def span(name, field="total_s", summary=spans):
        return summary.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    stats = traced.stats
    unique = len(stats)
    tel = traced.telemetry
    executed = [needs_general_path(c.flatten()) for c in recorder.executed_configs]
    fleet_state = fleet_traced.fleet if fleet_traced is not None else {}
    worker = fleet_state.get("worker", {})
    rows = fleet_state.get("status", {}).get("workers", [])
    wire: dict = {}
    for client in (fleet_recorder.clients if fleet_traced is not None else []):
        for name, value in client.telemetry().items():
            wire[name] = wire.get(name, 0) + value
    for row in rows:
        for name in ("wire_requests", "wire_bytes_in", "wire_bytes_out",
                     "wire_retries", "wire_compressed_bodies"):
            wire[name] = wire.get(name, 0) + row.get(name, 0)

    m = {
        "model.tuned_cpi_error": traced.model.get("tuned", 0.0),
        "model.heldout_cpi_error": traced.model.get("heldout", 0.0),
        "model.sweep_cpi_error": traced.model.get("sweep", 0.0),
        "validation.lmbench_s": span("validation.lmbench"),
        "validation.evaluate_s": span("validation.evaluate"),
        "tuning.race_s": span("tuning.race"),
        "tuning.self_s": span("tuning.race", "self_s"),
        "tuning.race_steps": span("tuning.step", "calls"),
        "tuning.requested_trials": sum(r.requested_trials for r in traced.irace),
        "tuning.unique_trials": sum(r.unique_trials for r in traced.irace),
        "engine.self_s": span("engine", "self_s"),
        "engine.key_s": span("engine.key"),
        "engine.key_calls": span("engine.key", "calls"),
        "engine.cache_hit_ratio": ratio(tel["sim_cache_hits"], tel["requested_trials"]),
        "engine.batched_ratio": ratio(tel["batched_trials"], tel["unique_trials"]),
        "engine.executor_s": span("engine.executor"),
        "trace.record_s": span("trace.record"),
        "trace.recorded_instructions": span("trace.record", "count"),
        "trace.columnar_s": span("trace.columnar"),
        "hardware.measure_s": span("hardware.measure"),
        "hardware.measurements": tel["hw_measurements"],
        "simulator.s": span("simulator"),
        "simulator.instructions": span("simulator", "count"),
        "simulator.ns_per_inst": ratio(span("simulator") * 1e9, span("simulator", "count")),
        "core.construct_s": span("core.construct"),
        "core.constructions": span("core.construct", "calls"),
        "core.cycles": sum(s.cycles for s in stats),
        "core.host_share": shares.get("core", 0.0),
        "memory.construct_s": span("memory.construct"),
        "memory.host_share": shares.get("memory", 0.0),
        "memory.general_path_frac": ratio(sum(executed), len(executed)),
        "memory.l1d_accesses": sum(s.l1d.accesses for s in stats),
        "memory.l1d_misses": sum(s.l1d.misses for s in stats),
        "memory.l2_misses": sum(s.l2.misses for s in stats),
        "memory.dram_accesses": sum(s.dram_accesses for s in stats),
        "memory.prefetches_issued": sum(s.l1i.prefetches_issued + s.l1d.prefetches_issued
                                        + s.l2.prefetches_issued for s in stats),
        "branch.host_share": shares.get("branch", 0.0),
        "branch.branches": sum(s.branch.branches for s in stats),
        "branch.mispredicts": sum(s.branch.mispredicts for s in stats),
        "store.calls": span("store", "calls", fleet_driver),
        "store.s": span("store", summary=fleet_driver),
        "fabric.submit_s": span("fabric.submit", summary=fleet_driver),
        "fabric.poll_s": span("fabric.poll", summary=fleet_driver),
        "fabric.polls": span("fabric.poll", "calls", fleet_driver),
        "fabric.step_latency_ms": statistics.median(fleet_steps_ms) if fleet_steps_ms else 0.0,
        "fabric.step_latency_ms_p90": (statistics.quantiles(fleet_steps_ms, n=10)[-1]
                                       if len(fleet_steps_ms) >= 2 else 0.0),
        "fabric.overhead_ms_per_trial": (ratio((fleet_plain.wall_s - plain.wall_s) * 1e3,
                                               plain.unique) if fleet_plain else 0.0),
        "fabric.worker_busy_frac": (ratio(fleet_plain.worker_cpu_s, fleet_plain.wall_s)
                                    if fleet_plain else 0.0),
        "fabric.tasks_claimed": worker.get("claimed", 0),
        "fabric.tasks_failed": sum(row.get("tasks_failed", 0) for row in rows),
        "fabric.lost_leases": worker.get("lost_leases", 0),
        "service.requests_per_trial": ratio(wire.get("wire_requests", 0), unique),
        "service.bytes_per_trial": ratio(wire.get("wire_bytes_in", 0)
                                         + wire.get("wire_bytes_out", 0), unique),
        "service.retries": wire.get("wire_retries", 0),
        "service.compressed_frac": ratio(wire.get("wire_compressed_bodies", 0),
                                         wire.get("wire_requests", 0)),
        "cli.import_s": statistics.median(imports),
        "bench.tracing_overhead_frac": traced.wall_s / plain.wall_s - 1.0,
    }

    print(f"{runner.name} seed {runner.seed}: traced run, {unique} unique trials, "
          f"wall {plain.wall_s:.3f} s untraced / {traced.wall_s:.3f} s traced, "
          f"SimStats digest {traced.outputs['digest']}")
    if fleet_plain is not None:
        print(f"fleet: wall {fleet_plain.wall_s:.3f} s untraced / "
              f"{fleet_traced.wall_s:.3f} s traced")
    durations: dict = {}
    for name, start, end, _parent, _count in recorder.spans:
        durations.setdefault(name, []).append(end - start)
    print_table("serial driver spans (per-call seconds)",
                [(name, "s", values) for name, values in sorted(durations.items())])
    for label, steps in (("serial", [d * 1e3 for d in recorder.durations("tuning.step")]),
                         ("fleet", fleet_steps_ms)):
        if steps:
            med, q1, q3, n = spread(steps)
            text = (f"{label} race-step latency: median {med:.3f} ms, "
                    f"q1 {q1:.3f}, q3 {q3:.3f}, n {n}")
            tail = tail_percentile(steps)
            if tail is not None:
                text += f", p{tail[0]} {tail[1]:.3f} ms"
            print(text)
    print("host shares (cProfile, timed phase): " + ", ".join(
        f"{bucket} {share:.3f}" for bucket, share in
        sorted(shares.items(), key=lambda item: -item[1])))
    print_table("fresh-interpreter import of repro.validation.campaign",
                [("cli.import_s", "s", imports)])
    print("per-layer")
    for name, unit, _better in PER_LAYER:
        print(f"  {name:<32}{m[name]:>16.6g}  {unit}")
    return m, checker


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole repetitions, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources in {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    os.makedirs(RUN_DIRS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIRS)
    # Keep every temporary file of this process and its children inside
    # the run directory, which is removed below.
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = None
    try:
        from perfbench.workloads import FULL

        runner = Runner(args.workload, args.seed, FULL, run_dir)
        if args.trace:
            values, checker = trace(runner)
            table = PER_LAYER
        else:
            values, checker = measure(runner, args.seconds)
            table = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIRS)
        except OSError:
            pass  # another run still uses it

    for problem in checker.problems:
        print(f"CHECK FAILED {problem}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
