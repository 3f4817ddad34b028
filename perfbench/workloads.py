"""The benchmark's workloads, each split into a set-up and a timed phase.

- ``campaign-a53``: the fast-profile, two-stage Cortex-A53 validation
  campaign (``ValidationCampaign.run``, serial executor, in process),
  then the tuned model on the 11 held-out SPEC proxies.
- ``fleet-a53``: the same campaign with ``executor="fabric"`` against an
  in-process experiment service and one ``repro worker --url``
  subprocess (see :mod:`perfbench.fleet`). Race mode stays ``sync``.
- ``sweep-a72-spec``: a seeded sample of Cortex-A72 configurations that
  all keep the monomorphic cache path, each simulated on the 11 SPEC
  proxies in one ``EvaluationEngine.simulate_batch``.

Every repetition builds fresh workload objects, a fresh board and fresh
engines, so traces are recorded and the board measured again: set-up is
real work each time, and no repetition warms the next.

The timed phase of a campaign starts at its first tuning call
(``step4_tune``) and ends when the held-out evaluation returns. Set-up
is everything before: construction, SPEC trace recording and board
measurements, lmbench, the untuned evaluation, and for the fleet the
service start and the worker spawn up to its first tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field

from repro.core.config import cortex_a72_public_config
from repro.core.stats import SimStats
from repro.engine import EvaluationEngine
from repro.hardware.board import FireflyRK3399
from repro.simulator import simulate
from repro.store.serialize import encode_key, stats_to_payload
from repro.tuning.cost import cpi_error
from repro.validation.campaign import PROFILES, BudgetProfile, ValidationCampaign
from repro.validation.steps import param_space_for
from repro.workloads.base import Workload
from repro.workloads.microbench import ALL_MICROBENCHMARKS
from repro.workloads.spec import SPEC_WORKLOADS

WORKLOADS = ("campaign-a53", "fleet-a53", "sweep-a72-spec")

CACHE_LEVELS = ("l1i", "l1d", "l2")

#: Cache fields the sweep pins to the values that keep every level on
#: the monomorphic access path (mask hashing also keeps its inlined
#: index).
MONOMORPHIC = {"hashing": "mask", "replacement": "lru", "prefetcher": "none",
               "victim_entries": 0, "ports": 1}


@dataclass(frozen=True)
class Size:
    """How much work one repetition does."""

    profile: BudgetProfile
    #: Micro-benchmark names the campaigns run; ``None`` = all of them.
    micro: tuple
    spec_scale: float
    sweep_configs: int


#: The benchmark's size.
FULL = Size(PROFILES["fast"], None, 1.0, 16)

#: A shrunken size for the benchmark's own smoke tests.
SMOKE = Size(BudgetProfile("smoke", 24, 24, microbench_scale=0.2,
                           first_test=2, n_elites=2),
             ("CCa", "CS1", "MM", "MD", "ED1", "STc"), 0.2, 2)


class _SetupDone(Exception):
    """Ends a set-up-only pass at the campaign's first tuning call."""


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    #: The tuner seed (campaigns) or ``--seed`` (sweep) it ran with.
    seed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The fleet worker's share of ``cpu_s``.
    worker_cpu_s: float = 0.0
    #: Unique simulations and their instructions in the timed phase.
    unique: int = 0
    instructions: int = 0
    #: Outputs every repetition of one seed must reproduce exactly.
    outputs: dict = field(default_factory=dict)
    #: Mean CPI error of the public (untuned) model: it depends on the
    #: simulator and the board only, not on the seed.
    public_cpi_error: float = 0.0
    #: Seed-dependent model errors: ``tuned`` (campaign, micro suite),
    #: ``heldout`` (campaign's tuned model on SPEC), ``sweep`` (mean
    #: over the sampled configs).
    model: dict = field(default_factory=dict)
    #: Every unique simulation of the repetition (set-up and timed).
    stats: list = field(default_factory=list)
    #: Engine telemetry summed over the driver's engines.
    telemetry: dict = field(default_factory=dict)
    #: Per-stage ``IraceResult`` of a campaign.
    irace: list = field(default_factory=list)
    #: Fleet state after the run (worker summary, status snapshot).
    fleet: dict = field(default_factory=dict)
    #: Output checks that failed, as text.
    problems: list = field(default_factory=list)

    @property
    def trials_per_s(self) -> float:
        return self.unique / self.wall_s

    @property
    def sim_ips(self) -> float:
        return self.instructions / self.wall_s


class _Clock:
    """Wall and CPU time of the timed phase, the worker's CPU included."""

    def __init__(self, fleet=None) -> None:
        self.fleet = fleet
        self.t0 = None

    def _worker_cpu(self) -> float:
        return self.fleet.worker_cpu_s() if self.fleet is not None else 0.0

    def start(self) -> None:
        self.worker0 = self._worker_cpu()
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    def stop(self, rep: Rep) -> None:
        rep.wall_s = time.perf_counter() - self.t0
        try:
            rep.worker_cpu_s = self._worker_cpu() - self.worker0
        except RuntimeError as exc:
            rep.problems.append(str(exc))
        rep.cpu_s = time.process_time() - self.cpu0 + rep.worker_cpu_s


def fresh_workloads(workloads) -> list:
    """New workload objects: their trace memo starts empty."""
    return [Workload(wl.name, wl.category, wl.description, wl.builder,
                     wl.paper_instructions, wl.max_instructions,
                     wl.default_kwargs) for wl in workloads]


def needs_general_path(flat: dict) -> bool:
    """True when some cache level of a flattened config leaves the
    monomorphic access path (multi-port, non-LRU, prefetcher, victim)."""
    return any(flat[f"{level}.ports"] != 1
               or flat[f"{level}.replacement"] != "lru"
               or flat[f"{level}.prefetcher"] != "none"
               or flat[f"{level}.victim_entries"] != 0
               for level in CACHE_LEVELS)


def sample_a72_configs(seed: int, count: int) -> list:
    """The public Cortex-A72 config, then ``count`` distinct seeded ones.

    Every stage-1 tunable is drawn uniformly from its candidate values,
    except the cache fields in :data:`MONOMORPHIC`, which stay pinned.
    """
    base = cortex_a72_public_config()
    pinned = {f"{level}.{name}": value for level in CACHE_LEVELS
              for name, value in MONOMORPHIC.items()}
    space = [p for p in param_space_for("ooo", stage=1) if p.name not in pinned]
    rng = random.Random(seed)
    configs = [base]
    seen = {json.dumps(base.flatten(), sort_keys=True)}
    while len(configs) < count + 1:
        drawn = dict(pinned)
        for param in space:
            drawn[param.name] = rng.choice(param.values)
        active = {name: value for name, value in drawn.items()
                  if name in pinned or next(p for p in space if p.name == name).is_active(drawn)}
        config = base.with_updates(active)
        token = json.dumps(config.flatten(), sort_keys=True)
        if token not in seen:
            seen.add(token)
            configs.append(config)
    return configs


def _unique_stats(engines) -> dict:
    """``{encoded key: SimStats}`` of every simulation the engines ran.

    Read from the engines' first-level result caches once the timed
    phase is over; those hold exactly one entry per unique trial.
    """
    out = {}
    for engine in engines:
        for key, value in engine._results.items():
            if isinstance(value, SimStats):
                out[encode_key(key)] = value
    return out


def stats_digest(stats_by_key: dict) -> str:
    """SHA-256 over every unique trial's key and full ``SimStats``."""
    h = hashlib.sha256()
    for key in sorted(stats_by_key):
        h.update(key.encode("utf-8"))
        h.update(json.dumps(stats_to_payload(stats_by_key[key]), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _telemetry(engines) -> dict:
    total: dict = {}
    for engine in engines:
        for name, value in vars(engine.telemetry).items():
            total[name] = total.get(name, 0) + value
    return total


def _check_errors(rep: Rep, errors: dict, what: str) -> None:
    bad = sorted(name for name, err in errors.items()
                 if not (math.isfinite(err) and err >= 0))
    if bad:
        rep.problems.append(f"{what}: invalid CPI error on {bad}")


def run_campaign(seed: int, size: Size, profiler=None, fleet=None,
                 setup_only: bool = False, verify: bool = False) -> Rep:
    """One campaign repetition, serial or (with ``fleet``) on the fleet.

    ``profiler`` (a ``cProfile.Profile``) is enabled for the timed phase
    only.
    ``verify`` re-simulates the tuned model on every micro-benchmark with
    the plain simulator, outside the timed phase, and checks the
    campaign's reported errors against it.
    """
    t_start = time.perf_counter()
    executor = store = None
    if fleet is not None:
        store = fleet.start_service()
        executor = "fabric"
    board = FireflyRK3399()
    spec = fresh_workloads(SPEC_WORKLOADS.values())
    micro = [wl for wl in ALL_MICROBENCHMARKS if size.micro is None or wl.name in size.micro]
    campaign = ValidationCampaign(board, core="a53", profile=size.profile, seed=seed,
                                  workloads=fresh_workloads(micro),
                                  executor=executor, store=store)
    heldout = EvaluationEngine(hw=campaign.hw, workloads=spec, scale=size.spec_scale,
                               executor=executor, store=store)
    try:
        for wl in spec:
            heldout.measure_hw(wl.name)
        if fleet is not None:
            fleet.spawn_worker()

        clock = _Clock(fleet)
        setup = {}
        tune = campaign.step4_tune

        def step4_tune(*args, **kwargs):
            if clock.t0 is None:
                setup["keys"] = set(campaign.engine._results)
                setup["s"] = time.perf_counter() - t_start
                if setup_only:
                    raise _SetupDone
                if profiler is not None:
                    profiler.enable()
                clock.start()
            return tune(*args, **kwargs)

        campaign.step4_tune = step4_tune
        try:
            result = campaign.run(stages=2)
        except _SetupDone:
            return Rep(setup_s=setup["s"])
        names = [wl.name for wl in spec]
        held = heldout.evaluate_batch([(result.final_config, name) for name in names])
        rep = Rep(setup_s=setup["s"])
        clock.stop(rep)
        if profiler is not None:
            profiler.disable()
    finally:
        campaign.close()
        heldout.close()
        if fleet is not None:
            fleet.finish()

    engines = (campaign.engine, heldout)
    stats = _unique_stats(engines)
    setup_keys = {encode_key(key) for key in setup["keys"]}
    timed = [s for key, s in stats.items() if key not in setup_keys]
    rep.unique = len(timed)
    rep.instructions = sum(s.instructions for s in timed)
    rep.stats = list(stats.values())
    rep.telemetry = _telemetry(engines)
    rep.irace = [stage.irace for stage in result.stages]
    heldout_errors = dict(zip(names, held))
    rep.public_cpi_error = result.untuned_mean_error
    rep.model = {"tuned": result.tuned_mean_error,
                 "heldout": sum(held) / len(held)}
    rep.outputs = {
        "assignment": result.final_config.flatten(),
        "errors": dict(result.final_errors),
        "heldout": heldout_errors,
        "digest": stats_digest(stats),
        "unique_trials": len(stats),
    }
    _check_errors(rep, result.final_errors, "tuned model")
    _check_errors(rep, heldout_errors, "held-out evaluation")
    if len(held) != len(SPEC_WORKLOADS):
        rep.problems.append("held-out evaluation is missing SPEC proxies")
    if verify:
        for name, err in result.final_errors.items():
            trace = campaign.engine.trace(name)
            direct = simulate(result.final_config, trace, decoder=campaign.decoder)
            if cpi_error(direct, campaign.engine.measure_hw(name)) != err:
                rep.problems.append(f"tuned error on {name} differs from a direct simulation")
    if fleet is not None:
        rep.fleet = {"worker": dict(fleet.worker), "status": fleet.status}
        worker = fleet.worker
        dead = fleet.status.get("dead", [])
        if (worker.get("exit_code") != 0 or worker.get("exited_early")
                or worker.get("summaries") != 1):
            rep.problems.append(f"worker did not run to the end and exit cleanly once: {worker}")
        if worker.get("failed") or worker.get("lost_leases") or dead:
            rep.problems.append(
                f"fleet lost work: {worker.get('failed')} failed tasks, "
                f"{worker.get('lost_leases')} lost leases, {len(dead)} dead letters")
    return rep


def run_sweep(configs: list, size: Size, profiler=None,
              setup_only: bool = False, verify: bool = False) -> Rep:
    """One sweep repetition: every config on every SPEC proxy, one batch.

    ``profiler`` (a ``cProfile.Profile``) is enabled for the timed phase
    only.
    ``verify`` re-simulates the first config on every proxy with the
    plain (unfused) simulator and checks the batch's stats against it.
    """
    t_start = time.perf_counter()
    board = FireflyRK3399()
    spec = fresh_workloads(SPEC_WORKLOADS.values())
    engine = EvaluationEngine(hw=board.core("a72"), workloads=spec, scale=size.spec_scale)
    with engine:
        for wl in spec:
            engine.measure_hw(wl.name)
        rep = Rep(setup_s=time.perf_counter() - t_start)
        if setup_only:
            return rep
        pairs = [(config, wl.name) for config in configs for wl in spec]
        clock = _Clock()
        if profiler is not None:
            profiler.enable()
        clock.start()
        stats_list = engine.simulate_batch(pairs)
        errors = [engine.cost_of(stats, name) for stats, (_c, name) in zip(stats_list, pairs)]
        clock.stop(rep)
        if profiler is not None:
            profiler.disable()

    stats = _unique_stats([engine])
    rep.unique = len(stats)
    rep.instructions = sum(s.instructions for s in stats.values())
    rep.stats = list(stats.values())
    rep.telemetry = _telemetry([engine])
    rep.public_cpi_error = sum(errors[:len(spec)]) / len(spec)
    rep.model = {"sweep": sum(errors) / len(errors)}
    rep.outputs = {"errors": errors, "digest": stats_digest(stats),
                   "unique_trials": len(stats)}
    _check_errors(rep, dict(enumerate(errors)), "sweep")
    if len(stats) != len(pairs):
        rep.problems.append(f"sweep ran {len(stats)} unique trials for {len(pairs)} pairs")
    if verify:
        for wl, batched in zip(spec, stats_list[:len(spec)]):
            direct = simulate(configs[0], engine.trace(wl.name), decoder=engine.decoder)
            if stats_to_payload(direct) != stats_to_payload(batched):
                rep.problems.append(f"fused batch differs from a direct simulation on {wl.name}")
    return rep
