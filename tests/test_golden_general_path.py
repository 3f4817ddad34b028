"""Golden stats for the cache *general* access path.

``tests/test_golden_stats.py`` replays the public configurations, whose
caches are all monomorphic (LRU, mask hashing, no prefetcher, no victim
buffer, one port), so it never reaches the composed access path that
tuned candidates take. This file pins that path: full ``SimStats`` for a
fixed, seeded sample of Cortex-A53 and Cortex-A72 configurations on the
``MC`` and ``MD`` micro-benchmarks at scale 0.2.

The sample draws every replacement policy, hash and prefetcher on each
of L1I, L1D and L2, both ``prefetch_on_hit`` values, victim buffers of 0
and 4 entries, one and two ports, and shrunken geometries so that
evictions, writebacks and victim-buffer swaps actually happen.

``tests/golden/general_path_stats.json`` was captured from the
method-based general path, before it was replaced by a closure composed
at construction time. To capture it again on a reference tree::

    PYTHONPATH=src python tests/test_golden_general_path.py --write
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import asdict

import pytest

from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.simulator import simulate
from repro.workloads.microbench import MICROBENCHMARKS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "general_path_stats.json")

SEED = 20261018
N_CONFIGS = 40
WORKLOADS = ("MC", "MD")
SCALE = 0.2
LEVELS = ("l1i", "l1d", "l2")

REPLACEMENTS = ("lru", "plru", "random", "srrip")
HASHES = ("mask", "xor", "mersenne", "skew")
PREFETCHERS = ("none", "nextline", "stride", "ghb", "stream")
#: Size divisors per level (associativity stays public, so every
#: geometry keeps a power-of-two set count).
SHRINK = {"l1i": (1, 8, 32), "l1d": (1, 8, 32), "l2": (1, 16, 64)}


def _base(core: str):
    return cortex_a53_public_config() if core == "a53" else cortex_a72_public_config()


def _spread(rng: random.Random, values: tuple) -> list:
    """``N_CONFIGS`` draws of ``values`` that use each value at least once."""
    out = [values[i % len(values)] for i in range(N_CONFIGS)]
    rng.shuffle(out)
    return out


def sample_configs() -> list:
    """The fixed sample: ``[(core, updates), ...]``, ``N_CONFIGS`` long."""
    rng = random.Random(SEED)
    columns: dict = {}
    for level in LEVELS:
        for field, values in (
            ("replacement", REPLACEMENTS),
            ("hashing", HASHES),
            ("prefetcher", PREFETCHERS),
            ("prefetch_on_hit", (False, True)),
            ("victim_entries", (0, 4)),
            ("ports", (1, 2)),
        ):
            columns[f"{level}.{field}"] = _spread(rng, values)
    samples = []
    for i in range(N_CONFIGS):
        core = ("a53", "a72")[i % 2]
        base = _base(core)
        updates = {path: column[i] for path, column in columns.items()}
        for level in LEVELS:
            section = getattr(base, level)
            updates[f"{level}.size"] = section.size // rng.choice(SHRINK[level])
            updates[f"{level}.prefetch_degree"] = rng.choice((1, 2, 4))
            updates[f"{level}.prefetch_table_entries"] = rng.choice((16, 32, 64))
            updates[f"{level}.mshr_entries"] = rng.choice((1, 2, 4, 8))
            updates[f"{level}.serial_tag_data"] = rng.random() < 0.3
        samples.append((core, updates))
    return samples


def _run(core: str, updates: dict, workload: str) -> dict:
    config = _base(core).with_updates(updates)
    trace = MICROBENCHMARKS[workload].trace(scale=SCALE)
    return asdict(simulate(config, trace))


def capture() -> dict:
    entries = []
    for i, (core, updates) in enumerate(sample_configs()):
        for workload in WORKLOADS:
            entries.append({
                "index": i,
                "core": core,
                "workload": workload,
                "updates": updates,
                "stats": _run(core, updates, workload),
            })
    return {"seed": SEED, "scale": SCALE, "sim": entries}


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _golden() if os.path.exists(GOLDEN_PATH) else {"sim": []}


@pytest.mark.parametrize(
    "entry", GOLDEN["sim"],
    ids=[f"{e['index']:02d}-{e['core']}-{e['workload']}" for e in GOLDEN["sim"]],
)
def test_general_path_stats_match_golden(entry):
    assert _run(entry["core"], entry["updates"], entry["workload"]) == entry["stats"]


def test_golden_matches_the_sample():
    """The stored configurations are the ones the seeded sampler draws."""
    sample = sample_configs()
    assert len(GOLDEN["sim"]) == len(sample) * len(WORKLOADS)
    for entry in GOLDEN["sim"]:
        core, updates = sample[entry["index"]]
        assert (entry["core"], entry["updates"]) == (core, updates)


def test_sample_covers_every_component_at_every_level():
    sample = [updates for _, updates in sample_configs()]
    for level in LEVELS:
        for field, values in (
            ("replacement", REPLACEMENTS),
            ("hashing", HASHES),
            ("prefetcher", PREFETCHERS),
            ("prefetch_on_hit", (False, True)),
            ("victim_entries", (0, 4)),
            ("ports", (1, 2)),
        ):
            seen = {u[f"{level}.{field}"] for u in sample}
            assert seen == set(values), (level, field)
    assert {core for core, _ in sample_configs()} == {"a53", "a72"}


def test_golden_exercises_the_rare_paths():
    """Evictions, victim swaps, prefetch hits and MSHR merges all occur."""
    totals: dict = {}
    for entry in GOLDEN["sim"]:
        for level in LEVELS:
            for counter, value in entry["stats"][level].items():
                totals[counter] = totals.get(counter, 0) + value
    for counter in ("writebacks", "victim_hits", "prefetches_issued",
                    "prefetch_hits", "late_prefetch_hits", "mshr_merges"):
        assert totals[counter] > 0, counter


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_general_path.py --write")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
