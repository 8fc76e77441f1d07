"""Workload generators: uBENCH, WHISPER-like, PMEMKV-like, SPEC-like."""

from repro.workloads.base import Workload, zipf_addresses
from repro.workloads.trace import (
    TRACE_FORMATS,
    Trace,
    TraceStats,
    interleave,
    load_external,
    trace_workload,
)
from repro.workloads.pmemkv import pmemkv
from repro.workloads.spec import gcc, lbm, libquantum, mcf, milc
from repro.workloads.ubench import ubench
from repro.workloads.whisper import ctree, echo, hashmap, redo_log, tpcc
from repro.workloads.ycsb import ycsb, ycsb_a, ycsb_b, ycsb_c


def standard_suite_specs(footprint_bytes: int = 16 << 20,
                         num_refs: int = 20_000):
    """The paper's evaluation mix: persistent kernels, key-value,
    microbenchmarks, and SPEC-like applications (Figure 10's x-axis).

    Each entry is a picklable ``(factory_name, args, kwargs)`` triple
    for :func:`make_workload`; names resolve against this package, so
    a triple also crosses a process boundary (``repro.sim.sweep``).
    """
    kw = {"footprint_bytes": footprint_bytes, "num_refs": num_refs}
    return [
        ("ctree", (), dict(kw)),
        ("hashmap", (), dict(kw)),
        ("redo_log", (), dict(kw)),
        ("tpcc", (), dict(kw)),
        ("echo", (), dict(kw)),
        ("pmemkv", (0.9,), dict(kw)),
        ("pmemkv", (0.1,), dict(kw)),
        ("ubench", (16,), dict(kw)),
        ("ubench", (64,), dict(kw)),
        ("ubench", (128,), dict(kw)),
        ("mcf", (), dict(kw)),
        ("lbm", (), dict(kw)),
        ("libquantum", (), dict(kw)),
        ("gcc", (), dict(kw)),
        ("milc", (), dict(kw)),
    ]


def make_workload(spec, seed: int = None) -> Workload:
    """Build a workload from a ``(factory_name, args, kwargs)`` triple
    (or return a :class:`Workload` passed straight through), optionally
    overriding its stream seed."""
    if isinstance(spec, Workload):
        workload = spec
    else:
        name, args, kwargs = spec
        factory = globals().get(name)
        if factory is None or not callable(factory):
            raise ValueError(f"unknown workload factory {name!r}")
        workload = factory(*args, **kwargs)
    if seed is not None:
        workload.seed = seed
    return workload


__all__ = [
    "TRACE_FORMATS",
    "Trace",
    "TraceStats",
    "Workload",
    "interleave",
    "load_external",
    "trace_workload",
    "ctree",
    "echo",
    "gcc",
    "hashmap",
    "lbm",
    "libquantum",
    "make_workload",
    "mcf",
    "milc",
    "pmemkv",
    "redo_log",
    "standard_suite_specs",
    "tpcc",
    "ubench",
    "ycsb",
    "ycsb_a",
    "ycsb_b",
    "ycsb_c",
    "zipf_addresses",
]
