"""Set-associative cache timing model.

One :class:`Cache` instance models one level (L1I, L1D or L2). Timing is
timestamp-based, matching the Sniper philosophy: an access returns the
absolute cycle at which its data is available, accounting for port
bandwidth, serial vs. parallel tag/data access, MSHR occupancy and miss
merging, victim-cache probes, downstream latency, dirty writebacks and
in-flight prefetch fills.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.memory.hashing import AddressHash, MaskHash, build_hash
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import NullPrefetcher, Prefetcher
from repro.memory.replacement import LRUPolicy, ReplacementPolicy, build_replacement
from repro.memory.victim import VictimCache


class _Line:
    """Per-line metadata (tag lives as the dict key)."""

    __slots__ = ("dirty", "ready", "referenced", "prefetched")

    def __init__(self, dirty: bool = False, ready: int = 0, prefetched: bool = False) -> None:
        self.dirty = dirty
        #: Absolute cycle at which the fill completes (in-flight lines).
        self.ready = ready
        #: Reference bit for the clock pseudo-LRU policy.
        self.referenced = False
        self.prefetched = prefetched


@dataclass(slots=True)
class CacheStats:
    """Demand-access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    victim_hits: int = 0
    writebacks: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    late_prefetch_hits: int = 0
    mshr_merges: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of the cache hierarchy.

    Parameters mirror the tunable list of §IV-A: geometry (``size``,
    ``assoc``, ``line_size``), ``hit_latency``, ``serial_tag_data`` (serial
    access adds a cycle to hits but saves tag-array energy — some cores
    ship it), ``ports`` (bandwidth), ``mshr_entries``, address ``hashing``,
    ``replacement`` policy, ``victim_entries`` (0 disables the victim
    buffer) and an attached ``prefetcher``.

    ``next_level`` must expose ``access_line(line_addr, now, is_write,
    is_prefetch) -> completion_cycle`` (another Cache or the DRAM model).
    """

    __slots__ = ("name", "size", "assoc", "line_size", "n_sets", "hit_latency",
                 "serial_tag_data", "ports", "hash", "policy", "victim",
                 "prefetcher", "mshrs", "next_level", "stats", "_sets",
                 "_port_free", "access_line")

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int = 64,
        hit_latency: int = 2,
        serial_tag_data: bool = False,
        ports: int = 1,
        mshr_entries: int = 4,
        hashing: str = "mask",
        replacement: str = "lru",
        victim_entries: int = 0,
        prefetcher: Prefetcher = None,
        next_level=None,
    ) -> None:
        if size <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError("size, assoc and line_size must be positive")
        if size % (assoc * line_size):
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*line_size ({assoc * line_size})"
            )
        if hit_latency <= 0 or ports <= 0:
            raise ValueError("hit_latency and ports must be positive")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self.hit_latency = hit_latency
        self.serial_tag_data = serial_tag_data
        self.ports = ports
        self.hash: AddressHash = build_hash(hashing, self.n_sets)
        self.policy: ReplacementPolicy = build_replacement(replacement)
        self.victim = VictimCache(victim_entries) if victim_entries else None
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.mshrs = MSHRFile(mshr_entries)
        self.next_level = next_level
        self.stats = CacheStats()
        # Set dicts materialise lazily (most runs touch a fraction of
        # the sets; building hundreds of dicts per run is pure overhead).
        self._sets = [None] * self.n_sets
        self._port_free = [0] * ports
        self._install_access_path()

    # ------------------------------------------------------------------
    @staticmethod
    def _claim_port(ports: list, now: int) -> int:
        """Start cycle on the earliest-free of several ports; books it."""
        best = 0
        best_free = ports[0]
        for i in range(1, len(ports)):
            if ports[i] < best_free:
                best_free = ports[i]
                best = i
        start = now if now > best_free else best_free
        ports[best] = start + 1
        return start

    def _install_access_path(self) -> None:
        """Compose ``access_line`` from this cache's own components.

        Every per-access dependency is resolved here, once: the set index
        (one inline AND for power-of-two mask hashing, else the hash's
        bound ``index``), the port claim (inline for one port, else
        :meth:`_claim_port`), the replacement hooks (LRU recency inlined
        as a dict pop/reinsert, else the policy's bound ``on_hit`` and
        ``choose_victim``), the victim buffer's bound ``probe`` and
        ``insert``, and the prefetcher's bound ``observe`` followed by an
        inlined issue loop. Hits skip ``observe`` when the prefetcher
        declares it ignores them (:attr:`Prefetcher.needs_hits`). The
        common geometry — single-ported, LRU, victimless, no prefetcher —
        gets a leaner monomorphic closure that tests none of those
        options per access. Both closures inline the MSHR file. Neither
        references the cache itself, so a finished trial's caches are
        freed by reference counting, not left to the cycle collector.
        Re-run by :meth:`reset`, which replaces the bound state objects.
        """
        stats = self.stats
        sets = self._sets
        ports = self._port_free
        index = self.hash.index
        # Power-of-two mask indexing (the default) inlines to one AND.
        mask = -1
        if isinstance(self.hash, MaskHash) and self.hash._pow2:
            mask = self.hash._mask
        # Serial tag->data access adds one cycle to hits; the miss
        # determination needs only the tag array.
        hit_latency = self.hit_latency
        hit_time = hit_latency + (1 if self.serial_tag_data else 0)
        tag_time = 2 if self.serial_tag_data else 1
        assoc = self.assoc
        mshrs = self.mshrs
        mshr_entries = mshrs.entries
        mshr_heap = mshrs._heap
        mshr_inflight = mshrs._inflight
        mshr_expire = mshrs._expire
        next_level = self.next_level
        next_access = next_level.access_line if next_level is not None else None
        heappush = heapq.heappush
        line_cls = _Line
        policy = self.policy
        lru = isinstance(policy, LRUPolicy)
        choose_victim = policy.choose_victim
        victim = self.victim
        victim_insert = victim.insert if victim is not None else None
        prefetcher = self.prefetcher
        observe = None
        if not isinstance(prefetcher, NullPrefetcher):
            observe = prefetcher.observe

        def fill(line_addr: int, entries: dict, ready: int, dirty: bool,
                 prefetched: bool) -> None:
            """Install the absent ``line_addr`` in its set; evict a victim.

            Every caller fills a line it just missed on, and levels below
            never touch this cache's sets, so the line is always new.
            """
            if len(entries) >= assoc:
                tag = next(iter(entries)) if lru else choose_victim(entries)
                wb = entries.pop(tag).dirty
                if victim_insert is not None:
                    # The buffer absorbs the eviction and may push out
                    # its oldest line instead.
                    tag, wb = victim_insert(tag, wb)
                if wb:
                    stats.writebacks += 1
                    if next_access is not None:
                        next_access(tag, ready, True, False)
            entries[line_addr] = line_cls(dirty, ready, prefetched)

        if self.ports == 1 and lru and observe is None and victim is None:
            def access_line(
                line_addr: int,
                now: int,
                is_write: bool = False,
                is_prefetch: bool = False,
                pc: int = 0,
            ) -> int:
                """Access one line; returns the absolute data-ready cycle."""
                if not is_prefetch:
                    stats.accesses += 1
                free = ports[0]
                start = now if now > free else free
                ports[0] = start + 1

                idx = line_addr & mask if mask >= 0 else index(line_addr)
                entries = sets[idx]
                if entries is None:
                    entries = sets[idx] = {}
                    line = None
                else:
                    line = entries.get(line_addr)

                if line is not None:
                    done = start + hit_time
                    if line.ready > done:
                        # In-flight line: a delayed hit (merged into the
                        # outstanding miss).
                        done = line.ready
                        if not is_prefetch:
                            if line.prefetched:
                                stats.late_prefetch_hits += 1
                            else:
                                stats.mshr_merges += 1
                    if not is_prefetch:
                        stats.hits += 1
                        if line.prefetched:
                            stats.prefetch_hits += 1
                            line.prefetched = False
                    # Inlined LRUPolicy.on_hit: move to the recency tail.
                    entries[line_addr] = entries.pop(line_addr)
                    if is_write:
                        line.dirty = True
                    return done

                # ---------------------------------------------- miss path
                tag_done = start + tag_time
                if not is_prefetch:
                    stats.misses += 1

                # Inlined MSHRFile lookup + allocate: one expiry sweep
                # serves both (identical state evolution — lookup's sweep
                # is what allocate would repeat at the same cycle).
                if mshr_inflight:
                    if mshr_heap[0][0] <= tag_done:
                        mshr_expire(tag_done)
                    inflight = mshr_inflight.get(line_addr, -1)
                    if inflight >= 0:
                        if not is_prefetch:
                            stats.mshr_merges += 1
                        if is_write:
                            fill(line_addr, entries, inflight, True, False)
                        return tag_done if tag_done > inflight else inflight
                    if len(mshr_inflight) < mshr_entries:
                        issue = tag_done
                    else:
                        earliest = mshr_heap[0][0]
                        mshr_expire(earliest)
                        issue = tag_done if tag_done > earliest else earliest
                else:
                    issue = tag_done

                if next_access is not None:
                    done = next_access(line_addr, issue, False, is_prefetch)
                else:
                    done = issue  # no backing level configured (unit tests)
                # Inlined MSHRFile.record.
                mshr_inflight[line_addr] = done
                heappush(mshr_heap, (done, line_addr))

                # Inlined fill for the victimless-LRU geometry.
                existing = entries.get(line_addr)
                if existing is not None:
                    existing.dirty = existing.dirty or is_write
                    if done < existing.ready:
                        existing.ready = done
                else:
                    if len(entries) >= assoc:
                        victim_tag = next(iter(entries))  # LRU victim
                        victim_line = entries.pop(victim_tag)
                        if victim_line.dirty:
                            stats.writebacks += 1
                            if next_access is not None:
                                next_access(victim_tag, done, True, False)
                    entries[line_addr] = line_cls(is_write, done, is_prefetch)
                return done

            self.access_line = access_line
            return

        on_hit = policy.on_hit
        victim_probe = victim.probe if victim is not None else None
        observe_hits = observe is not None and prefetcher.needs_hits
        single_port = self.ports == 1
        claim_port = self._claim_port  # static: binds no reference to self

        def prefetch(line_addr: int, pc: int, hit: bool, now: int) -> None:
            """Show a demand access to the prefetcher; issue its candidates."""
            for pf_addr in observe(line_addr, pc, hit):
                if pf_addr < 0:
                    continue
                pf_idx = pf_addr & mask if mask >= 0 else index(pf_addr)
                pf_set = sets[pf_idx]
                if pf_set is not None and pf_addr in pf_set:
                    continue
                if mshr_inflight:
                    if mshr_heap[0][0] <= now:
                        mshr_expire(now)
                    if pf_addr in mshr_inflight:
                        continue
                if len(mshr_inflight) >= mshr_entries:
                    break  # never stall demand traffic for prefetches
                stats.prefetches_issued += 1
                done = now
                if next_access is not None:
                    done = next_access(pf_addr, now, False, True)
                mshr_inflight[pf_addr] = done
                heappush(mshr_heap, (done, pf_addr))
                # Inlined fill (see fill()).
                if pf_set is None:
                    pf_set = sets[pf_idx] = {}
                elif len(pf_set) >= assoc:
                    tag = next(iter(pf_set)) if lru else choose_victim(pf_set)
                    wb = pf_set.pop(tag).dirty
                    if victim_insert is not None:
                        tag, wb = victim_insert(tag, wb)
                    if wb:
                        stats.writebacks += 1
                        if next_access is not None:
                            next_access(tag, done, True, False)
                pf_set[pf_addr] = line_cls(False, done, True)

        def access_line(
            line_addr: int,
            now: int,
            is_write: bool = False,
            is_prefetch: bool = False,
            pc: int = 0,
        ) -> int:
            """Access one line; returns the absolute data-ready cycle."""
            if not is_prefetch:
                stats.accesses += 1
            if single_port:
                free = ports[0]
                start = now if now > free else free
                ports[0] = start + 1
            else:
                start = claim_port(ports, now)

            idx = line_addr & mask if mask >= 0 else index(line_addr)
            entries = sets[idx]
            if entries is None:
                entries = sets[idx] = {}
                line = None
            else:
                line = entries.get(line_addr)

            if line is not None:
                done = start + hit_time
                if line.ready > done:
                    # In-flight line: a delayed hit. A demand fill in
                    # flight means this access merged into the miss.
                    done = line.ready
                    if not is_prefetch:
                        if line.prefetched:
                            stats.late_prefetch_hits += 1
                        else:
                            stats.mshr_merges += 1
                if not is_prefetch:
                    stats.hits += 1
                    if line.prefetched:
                        stats.prefetch_hits += 1
                        line.prefetched = False
                if lru:
                    entries[line_addr] = entries.pop(line_addr)
                else:
                    on_hit(entries, line_addr)
                if is_write:
                    line.dirty = True
                if observe_hits and not is_prefetch:
                    prefetch(line_addr, pc, True, done)
                return done

            # -------------------------------------------------- miss path
            tag_done = start + tag_time
            if victim_probe is not None and victim_probe(line_addr):
                if not is_prefetch:
                    stats.hits += 1
                    stats.victim_hits += 1
                done = tag_done + hit_latency  # swap takes an extra access
                fill(line_addr, entries, done, is_write, False)
                if observe_hits and not is_prefetch:
                    prefetch(line_addr, pc, True, done)
                return done

            if not is_prefetch:
                stats.misses += 1
            if mshr_inflight:
                if mshr_heap[0][0] <= tag_done:
                    mshr_expire(tag_done)
                inflight = mshr_inflight.get(line_addr, -1)
                if inflight >= 0:
                    if not is_prefetch:
                        stats.mshr_merges += 1
                    if is_write:
                        fill(line_addr, entries, inflight, True, False)
                    return tag_done if tag_done > inflight else inflight
                if len(mshr_inflight) < mshr_entries:
                    issue = tag_done
                else:
                    earliest = mshr_heap[0][0]
                    mshr_expire(earliest)
                    issue = tag_done if tag_done > earliest else earliest
            else:
                issue = tag_done

            done = issue
            if next_access is not None:
                done = next_access(line_addr, issue, False, is_prefetch)
            mshr_inflight[line_addr] = done
            heappush(mshr_heap, (done, line_addr))
            # Inlined fill (see fill()).
            if len(entries) >= assoc:
                tag = next(iter(entries)) if lru else choose_victim(entries)
                wb = entries.pop(tag).dirty
                if victim_insert is not None:
                    tag, wb = victim_insert(tag, wb)
                if wb:
                    stats.writebacks += 1
                    if next_access is not None:
                        next_access(tag, done, True, False)
            entries[line_addr] = line_cls(is_write, done, is_prefetch)
            if observe is not None and not is_prefetch:
                prefetch(line_addr, pc, False, tag_done)
            return done

        self.access_line = access_line

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """Tag-array probe without timing side effects (for tests)."""
        entries = self._sets[self.hash.index(line_addr)]
        return entries is not None and line_addr in entries

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def reset(self) -> None:
        self._sets = [None] * self.n_sets
        self._port_free = [0] * self.ports
        self.mshrs.reset()
        self.policy.reset()
        self.prefetcher.reset()
        if self.victim is not None:
            self.victim.reset()
        self.stats = CacheStats()
        # Rebind the fast path to the fresh stats/sets/ports objects.
        self._install_access_path()
