"""Trace capture, persistence, statistics, and mixing.

Generators are convenient, but real methodology work needs traces as
*artifacts*: save a reference stream to disk, characterize it (what
makes ctree evict more than gcc?), interleave streams to model
multi-programmed cores, and replay the identical trace against every
scheme.  The text format is one reference per line::

    <address> <R|W> <gap>

with ``#`` comments, so traces diff cleanly and can be hand-edited.
"""

from __future__ import annotations

from collections import Counter

from repro.telemetry import CounterMetric, GaugeMetric, counter_field, gauge_field
from repro.workloads.base import Workload


class TraceStats:
    """Characterization of one reference stream.

    Backed by telemetry instruments (``trace.*``): integer tallies are
    counters, derived ratios are gauges.  The historical dataclass
    field names stay available as read/write properties.
    """

    COUNTER_FIELDS = ("references", "writes", "unique_blocks", "footprint_bytes")
    GAUGE_FIELDS = ("mean_gap", "top_block_share", "sequential_fraction")

    _HELP = {
        "references": "memory references in the stream",
        "writes": "write references in the stream",
        "unique_blocks": "distinct 64B blocks touched",
        "footprint_bytes": "bytes spanned by the touched blocks",
        "mean_gap": "mean inter-reference gap (cycles)",
        "top_block_share": "fraction of refs to the hottest block",
        "sequential_fraction": "refs whose block follows the previous",
    }

    def __init__(
        self,
        references: int = 0,
        writes: int = 0,
        unique_blocks: int = 0,
        footprint_bytes: int = 0,
        mean_gap: float = 0.0,
        top_block_share: float = 0.0,
        sequential_fraction: float = 0.0,
        registry=None,
        prefix: str = "trace",
    ):
        metrics = []
        for name in self.COUNTER_FIELDS:
            metric = CounterMetric(f"{prefix}.{name}", help=self._HELP[name])
            setattr(self, f"_{name}", metric)
            metrics.append(metric)
        for name in self.GAUGE_FIELDS:
            metric = GaugeMetric(f"{prefix}.{name}", help=self._HELP[name])
            setattr(self, f"_{name}", metric)
            metrics.append(metric)
        self._metrics = tuple(metrics)
        if registry is not None:
            for metric in metrics:
                registry.register(metric)
        self._references.n = references
        self._writes.n = writes
        self._unique_blocks.n = unique_blocks
        self._footprint_bytes.n = footprint_bytes
        self._mean_gap.v = mean_gap
        self._top_block_share.v = top_block_share
        self._sequential_fraction.v = sequential_fraction

    references = counter_field("_references")
    writes = counter_field("_writes")
    unique_blocks = counter_field("_unique_blocks")
    footprint_bytes = counter_field("_footprint_bytes")
    mean_gap = gauge_field("_mean_gap")
    top_block_share = gauge_field("_top_block_share")
    sequential_fraction = gauge_field("_sequential_fraction")

    def metrics(self) -> tuple:
        return self._metrics

    def _values(self) -> tuple:
        return tuple(
            getattr(self, name)
            for name in self.COUNTER_FIELDS + self.GAUGE_FIELDS
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceStats):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value}"
            for name, value in zip(
                self.COUNTER_FIELDS + self.GAUGE_FIELDS, self._values()
            )
        )
        return f"TraceStats({inner})"

    @property
    def write_fraction(self) -> float:
        return self.writes / self.references if self.references else 0.0


class Trace:
    """A materialized reference stream with workload semantics."""

    def __init__(self, name: str, references):
        self.name = name
        self.references = [
            (int(a), bool(w), int(g)) for a, w, g in references
        ]

    @classmethod
    def from_workload(cls, workload: Workload) -> "Trace":
        return cls(workload.name, workload.references())

    def __len__(self) -> int:
        return len(self.references)

    def __iter__(self):
        return iter(self.references)

    def as_workload(self, footprint_bytes: int = None) -> Workload:
        """Wrap back into a Workload for the simulator."""
        if footprint_bytes is None:
            footprint_bytes = max(
                (a for a, _, _ in self.references), default=0
            ) + 64
        refs = self.references

        def generate(rng, footprint, num_refs):
            return tuple(zip(*refs)) or ((), (), ())

        return Workload(
            name=self.name,
            generator=generate,
            footprint_bytes=footprint_bytes,
            num_refs=len(refs),
        )

    # ---- persistence ----

    def save(self, path) -> None:
        from repro.runtime import atomic_write_text

        lines = [f"# trace: {self.name}",
                 f"# references: {len(self.references)}"]
        for address, is_write, gap in self.references:
            kind = "W" if is_write else "R"
            lines.append(f"{address} {kind} {gap}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path, name: str = None) -> "Trace":
        references = []
        trace_name = name
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if trace_name is None and line.startswith("# trace:"):
                        trace_name = line.split(":", 1)[1].strip()
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[1] not in ("R", "W"):
                    raise ValueError(f"malformed trace line: {line!r}")
                references.append(
                    (int(parts[0]), parts[1] == "W", int(parts[2]))
                )
        return cls(trace_name or "trace", references)

    # ---- characterization ----

    def stats(self, registry=None) -> TraceStats:
        if not self.references:
            return TraceStats(0, 0, 0, 0, 0.0, 0.0, 0.0, registry=registry)
        blocks = Counter()
        writes = 0
        gap_total = 0
        sequential = 0
        previous_block = None
        for address, is_write, gap in self.references:
            block = address // 64
            blocks[block] += 1
            writes += is_write
            gap_total += gap
            if previous_block is not None and block in (
                previous_block, previous_block + 1
            ):
                sequential += 1
            previous_block = block
        hottest = blocks.most_common(1)[0][1]
        return TraceStats(
            references=len(self.references),
            writes=writes,
            unique_blocks=len(blocks),
            footprint_bytes=len(blocks) * 64,
            mean_gap=gap_total / len(self.references),
            top_block_share=hottest / len(self.references),
            sequential_fraction=sequential / len(self.references),
            registry=registry,
        )


# ----------------------------------------------------------------------
# external trace ingestion

#: Tokens accepted as the reference kind in external traces.
_KIND_TOKENS = {
    "r": False, "read": False, "ld": False, "load": False,
    "w": True, "write": True, "st": True, "store": True,
}

TRACE_FORMATS = ("auto", "native", "generic", "multicore")


def _parse_int(token: str):
    try:
        return int(token, 0)       # base 0: decimal, 0x hex, 0o octal
    except ValueError:
        return None


def _parse_external_line(tokens, fmt: str, line_no: int, raw: str):
    """-> (core | None, address, is_write, gap) for one data line.

    Recognized shapes (``fmt`` forces one; ``auto`` detects per line):

    * ``native``    — ``<address> <R|W> <gap>``, all decimal (the
      repository's own format);
    * ``generic``   — ``<R|W> <address>`` or ``<address> <R|W>``,
      address decimal or ``0x``-hex;
    * ``multicore`` — ``<core> <R|W> <address>``: per-core streams of a
      multi-core interleaved capture.  Under ``auto`` a 3-token line is
      multicore when its address is ``0x``-hex (unambiguous vs native's
      all-decimal gap field); all-decimal multicore captures need
      ``fmt="multicore"``.
    """
    kind_indices = [
        i for i, t in enumerate(tokens) if t.lower() in _KIND_TOKENS
    ]
    if len(kind_indices) != 1:
        raise ValueError(
            f"line {line_no}: expected exactly one R/W token: {raw!r}"
        )
    kind_index = kind_indices[0]
    is_write = _KIND_TOKENS[tokens[kind_index].lower()]
    numbers = []
    for i, token in enumerate(tokens):
        if i == kind_index:
            continue
        value = _parse_int(token)
        if value is None:
            raise ValueError(
                f"line {line_no}: unparsable field {token!r}: {raw!r}"
            )
        numbers.append((i, token, value))

    if len(numbers) == 1:
        if fmt in ("native", "multicore"):
            raise ValueError(
                f"line {line_no}: {fmt} format needs 3 fields: {raw!r}"
            )
        return None, numbers[0][2], is_write, 0
    if len(numbers) != 2:
        raise ValueError(
            f"line {line_no}: expected 2 or 3 fields: {raw!r}"
        )

    if fmt == "native":
        shape_native = True
    elif fmt == "multicore":
        shape_native = False
    else:   # auto: a hex address marks <core> <R|W> <0xaddr>
        hex_last = numbers[1][1].lower().startswith("0x")
        shape_native = not (kind_index == 1 and hex_last)
    if shape_native:
        if kind_index != 1:
            raise ValueError(
                f"line {line_no}: native format is "
                f"'<address> <R|W> <gap>': {raw!r}"
            )
        return None, numbers[0][2], is_write, numbers[1][2]
    if kind_index != 1:
        raise ValueError(
            f"line {line_no}: multicore format is "
            f"'<core> <R|W> <address>': {raw!r}"
        )
    return numbers[0][2], numbers[1][2], is_write, 0


def load_external(path, fmt: str = "auto", name: str = None,
                  chunk: int = 1) -> Trace:
    """Ingest an external/recorded memory trace as a :class:`Trace`.

    Accepts the repository's native format plus the common shapes real
    trace captures come in (see :func:`_parse_external_line`); ``#`` and
    ``//`` comments and blank lines are skipped, fields split on
    whitespace or commas.  Multi-core captures are demultiplexed into
    per-core streams and round-robin :func:`interleave`-d (``chunk``
    references per core per turn), exactly like the synthetic
    multi-programmed mixes, so scheme comparisons see one merged
    reference stream.  A negative address or gap is a parse error that
    names its line, like a malformed one.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {fmt!r}; valid: {TRACE_FORMATS}"
        )
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    rows = []
    trace_name = name
    with open(path) as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].split("//", 1)[0].strip()
            if not line:
                if trace_name is None and raw.strip().startswith("# trace:"):
                    trace_name = raw.strip().split(":", 1)[1].strip()
                continue
            tokens = line.replace(",", " ").split()
            row = _parse_external_line(tokens, fmt, line_no, line)
            for field, value in (("address", row[1]), ("gap", row[3])):
                if value < 0:
                    raise ValueError(
                        f"line {line_no}: negative {field} {value}: "
                        f"{line!r}"
                    )
            rows.append(row)
    if not rows:
        raise ValueError(f"trace {path!r} contains no references")
    if trace_name is None:
        import os

        trace_name = os.path.splitext(os.path.basename(str(path)))[0]

    cores = sorted({core for core, _, _, _ in rows if core is not None})
    if not cores:
        return Trace(trace_name,
                     [(a, w, g) for _, a, w, g in rows])
    per_core = {core: [] for core in cores}
    for core, address, is_write, gap in rows:
        if core is None:
            raise ValueError(
                "trace mixes multicore and per-core-less lines"
            )
        per_core[core].append((address, is_write, gap))
    merged = interleave(
        [Trace(f"{trace_name}/core{core}", per_core[core])
         for core in cores],
        name=trace_name, chunk=chunk,
    )
    return merged


def trace_workload(path, fmt: str = "auto", name: str = None,
                   chunk: int = 1, footprint_bytes: int = None):
    """External trace file as a standard :class:`Workload` (picklable
    via a ``("trace_workload", (path,), {...})`` spec triple)."""
    return load_external(
        path, fmt=fmt, name=name, chunk=chunk
    ).as_workload(footprint_bytes=footprint_bytes)


def interleave(traces, name: str = "mix", chunk: int = 1) -> Trace:
    """Round-robin interleave several traces (multi-programmed mix).

    ``chunk`` references are taken from each trace in turn until all
    are exhausted — the standard way to build heterogeneous-pressure
    mixes from single-threaded traces.
    """
    if not traces:
        raise ValueError("at least one trace required")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    iterators = [iter(t.references) for t in traces]
    merged = []
    live = list(range(len(iterators)))
    while live:
        still_live = []
        for index in live:
            taken = 0
            for reference in iterators[index]:
                merged.append(reference)
                taken += 1
                if taken >= chunk:
                    still_live.append(index)
                    break
        live = still_live
    return Trace(name, merged)
