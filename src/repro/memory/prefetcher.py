"""Hardware data prefetchers.

§IV-B: "we provide the tuning algorithm with ... configurable prefetching
options including stride and GHB prefetching" (citing Fu et al. for
stride-directed and Nesbit & Smith for global-history-buffer
prefetching). Each prefetcher observes demand accesses and proposes line
addresses to fill; the owning cache schedules the fills.
"""

from __future__ import annotations


class Prefetcher:
    """Observes demand accesses, proposes prefetch line addresses."""

    kind = "abstract"

    #: Whether to train/trigger on hits as well as misses (the paper's
    #: "prefetch after a prefetch hit" boolean shows up here).
    def __init__(self, on_hit: bool = False) -> None:
        self.on_hit = on_hit

    @property
    def needs_hits(self) -> bool:
        """Whether :meth:`observe` must see hits.

        When false, ``observe(..., hit=True)`` returns no candidates and
        changes no state, so the owning cache skips the call on hits.
        """
        return self.on_hit

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        """Return line addresses to prefetch after this demand access."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class NullPrefetcher(Prefetcher):
    """No prefetching."""

    kind = "none"
    needs_hits = False

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        return []

    def reset(self) -> None:
        pass


class NextLinePrefetcher(Prefetcher):
    """Sequential next-line prefetcher with configurable degree."""

    kind = "nextline"

    def __init__(self, degree: int = 1, on_hit: bool = False) -> None:
        super().__init__(on_hit)
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        if hit and not self.on_hit:
            return []
        return list(range(line_addr + 1, line_addr + self.degree + 1))

    def reset(self) -> None:
        pass


class StridePrefetcher(Prefetcher):
    """PC-indexed stride prefetcher (Fu/Patel/Janssens style).

    A reference-prediction table keyed by load PC tracks the last line
    address and stride with a 2-bit confidence counter; once confident it
    prefetches ``degree`` strides ahead.
    """

    kind = "stride"
    #: The reference table trains on every demand access; ``on_hit``
    #: only gates whether hits trigger prefetches.
    needs_hits = True

    def __init__(self, table_entries: int = 64, degree: int = 2, on_hit: bool = True) -> None:
        super().__init__(on_hit)
        if table_entries <= 0 or degree <= 0:
            raise ValueError("table_entries and degree must be positive")
        self.table_entries = table_entries
        self.degree = degree
        #: pc-index -> [tag, last_line, stride, confidence]
        self._table: dict = {}

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        idx = (pc >> 2) % self.table_entries
        tag = pc
        entry = self._table.get(idx)
        out: list = []
        if entry is None or entry[0] != tag:
            self._table[idx] = [tag, line_addr, 0, 0]
            return out
        stride = line_addr - entry[1]
        if stride == entry[2] and stride != 0:
            if entry[3] < 3:
                entry[3] += 1
        else:
            entry[3] = entry[3] - 1 if entry[3] > 0 else 0
            if entry[3] == 0:
                entry[2] = stride
        entry[1] = line_addr
        confident = entry[3] >= 2
        if confident and (not hit or self.on_hit) and entry[2] != 0:
            stride = entry[2]
            out = list(range(line_addr + stride,
                             line_addr + stride * (self.degree + 1), stride))
        return out

    def reset(self) -> None:
        self._table = {}


class GHBPrefetcher(Prefetcher):
    """Global History Buffer delta-correlation prefetcher (Nesbit & Smith).

    A FIFO of recent miss line addresses plus an index table keyed by the
    last two deltas: on a miss, the last delta pair is looked up and the
    historical successor deltas are replayed ``degree`` deep.
    """

    kind = "ghb"

    def __init__(self, buffer_entries: int = 128, degree: int = 2, on_hit: bool = False) -> None:
        super().__init__(on_hit)
        if buffer_entries < 4 or degree <= 0:
            raise ValueError("buffer_entries must be >= 4 and degree positive")
        self.buffer_entries = buffer_entries
        self.degree = degree
        self._history: list = []
        #: (delta1, delta2) -> list of following deltas (most recent first)
        self._correlation: dict = {}

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        if hit and not self.on_hit:
            return []
        history = self._history
        out: list = []
        if len(history) >= 2:
            d1 = history[-1] - history[-2]
            d2 = line_addr - history[-1]
            if len(history) >= 3:
                d0 = history[-2] - history[-3]
                key_prev = (d0, d1)
                followers = self._correlation.setdefault(key_prev, [])
                followers.insert(0, d2)
                del followers[8:]
            predicted = self._correlation.get((d1, d2))
            if predicted:
                addr = line_addr
                for delta in predicted[: self.degree]:
                    addr += delta
                    out.append(addr)
        history.append(line_addr)
        if len(history) > self.buffer_entries:
            del history[0]
        return out

    def reset(self) -> None:
        self._history = []
        self._correlation = {}


class StreamPrefetcher(Prefetcher):
    """Next-N-line prefetcher behind a stream-detection filter.

    Plain next-line prefetching pollutes the cache on irregular access
    patterns; the classic fix (Jouppi-style stream buffers) is an
    *allocation filter*: a small table of candidate streams, each keyed
    by the line it expects next. Only when an access confirms a
    candidate (the second consecutive ascending line) does the stream
    issue ``degree`` next-line prefetches; unconfirmed candidates age
    out of the FIFO-managed table. ``table_entries`` bounds the number
    of streams tracked concurrently.
    """

    kind = "stream"

    def __init__(self, table_entries: int = 8, degree: int = 2,
                 on_hit: bool = False) -> None:
        super().__init__(on_hit)
        if table_entries <= 0 or degree <= 0:
            raise ValueError("table_entries and degree must be positive")
        self.table_entries = table_entries
        self.degree = degree
        #: Set of expected-next lines, one per tracked stream; the
        #: insertion-ordered dict doubles as the FIFO for candidate
        #: replacement (values are a meaningless sentinel).
        self._streams: dict = {}

    def observe(self, line_addr: int, pc: int, hit: bool) -> list:
        if hit and not self.on_hit:
            return []
        streams = self._streams
        out: list = []
        if streams.pop(line_addr, None) is not None:
            # The access a stream predicted: the stream is confirmed —
            # advance it and run ``degree`` lines ahead.
            streams[line_addr + 1] = True
            out = list(range(line_addr + 1, line_addr + self.degree + 1))
        else:
            # New candidate stream anchored here; evict the oldest
            # candidate when the table is full.
            if len(streams) >= self.table_entries:
                del streams[next(iter(streams))]
            streams[line_addr + 1] = True
        return out

    def reset(self) -> None:
        self._streams = {}


def build_prefetcher(
    kind: str,
    degree: int = 2,
    table_entries: int = 64,
    on_hit: bool = False,
) -> Prefetcher:
    """Instantiate a prefetcher by registry ``kind``.

    Dispatches through the component registry
    (:mod:`repro.components`): the arguments are presented under their
    :class:`~repro.core.config.CacheConfig` field names and each
    component's declared knob binding selects what its constructor
    consumes (the GHB's ``buffer_entries`` aliases ``table_entries``).
    """
    from repro.components import build_component

    return build_component("prefetcher", kind, {
        "prefetch_degree": degree,
        "prefetch_table_entries": table_entries,
        "prefetch_on_hit": on_hit,
    })
