#!/usr/bin/env python3
"""Workload characterization: why overheads differ across applications.

Soteria's cost is driven by one thing — metadata-cache evictions — and
those are driven by the access pattern.  This example characterizes
every workload in the suite (write fraction, locality, footprint),
runs a few through the simulator, and shows the correlation: skewed or
streaming access keeps the counter working set cached (near-zero
overhead); pointer-chasing and transactional kernels thrash it.

Also demonstrates the trace tooling: capture, save/load, and build a
multi-programmed mix.

Run:  python examples/trace_analysis.py
"""

import tempfile
from pathlib import Path

from repro.sim import SecureSystem, SystemConfig, run_schemes
from repro.workloads import Trace, interleave, make_workload, standard_suite_specs

MB = 1 << 20


def main():
    print("=== workload characterization (20k references each) ===")
    header = (f"{'workload':>12} {'writes':>7} {'unique kB':>10} "
              f"{'seq':>6} {'hot blk':>8}")
    print(header)
    traces = {}
    for spec in standard_suite_specs(footprint_bytes=8 * MB, num_refs=8_000):
        trace = Trace.from_workload(make_workload(spec))
        traces[trace.name] = trace
        s = trace.stats()
        print(f"{trace.name:>12} {s.write_fraction*100:>6.1f}% "
              f"{s.footprint_bytes//1024:>9}kB "
              f"{s.sequential_fraction*100:>5.1f}% "
              f"{s.top_block_share*100:>7.2f}%")

    print("\n=== pattern -> overhead (SRC vs baseline) ===")
    config = SystemConfig.scaled(memory_mb=32)
    for name in ("gcc", "libquantum", "hashmap", "mcf"):
        out = run_schemes(
            lambda name=name: traces[name].as_workload(8 * MB),
            config=config,
        )
        base = out["baseline"]
        print(f"{name:>12}: evict/req {base.evictions_per_request*100:5.2f}% "
              f"-> SRC slowdown {out['src'].slowdown_vs(base)*100:5.2f}%")

    print("\n=== trace round-trip + multi-programmed mix ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hashmap.trace"
        traces["hashmap"].save(path)
        reloaded = Trace.load(path)
        assert reloaded.references == traces["hashmap"].references
        print(f"saved+reloaded hashmap trace: {len(reloaded)} refs, "
              f"{path.stat().st_size//1024}kB on disk")
    mix = interleave(
        [traces["hashmap"], traces["libquantum"]], name="hashmap+libq"
    )
    result = SecureSystem("src", config=config).run(mix.as_workload(8 * MB))
    print(f"mix '{mix.name}': {result.memory_requests} requests, "
          f"evict/req {result.evictions_per_request*100:.2f}% "
          f"(between its two components, as expected)")


if __name__ == "__main__":
    main()
