"""Tests for the workload generators."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import (
    Workload,
    ctree,
    echo,
    gcc,
    hashmap,
    lbm,
    libquantum,
    make_workload,
    mcf,
    milc,
    pmemkv,
    redo_log,
    standard_suite_specs,
    tpcc,
    ubench,
    ycsb,
    ycsb_a,
    ycsb_b,
    ycsb_c,
    zipf_addresses,
)

ALL_FACTORIES = [
    lambda: ubench(16),
    lambda: ubench(128),
    lambda: ctree(),
    lambda: hashmap(),
    lambda: redo_log(),
    lambda: tpcc(),
    lambda: echo(),
    lambda: pmemkv(0.9),
    lambda: pmemkv(0.1),
    lambda: mcf(),
    lambda: lbm(),
    lambda: libquantum(),
    lambda: gcc(),
    lambda: milc(),
    lambda: ycsb_a(),
    lambda: ycsb_b(),
    lambda: ycsb_c(),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_reference_stream_well_formed(factory):
    workload = factory()
    workload.num_refs = 500
    refs = workload.materialize()
    assert len(refs) == 500
    for address, is_write, gap in refs:
        assert 0 <= address < workload.footprint_bytes
        assert isinstance(is_write, bool) or is_write in (0, 1)
        assert gap >= 0


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_stream_replayable(factory):
    workload = factory()
    workload.num_refs = 300
    assert workload.materialize() == workload.materialize()


class TestUbench:
    def test_stride_respected(self):
        w = ubench(64, footprint_bytes=1 << 20, num_refs=10)
        addrs = [a for a, _, _ in w.materialize()]
        assert addrs[1] - addrs[0] == 64

    def test_read_write_ratio_one(self):
        w = ubench(16, num_refs=1000)
        writes = sum(1 for _, is_write, _ in w.materialize() if is_write)
        assert writes == 500

    def test_wraps_footprint(self):
        w = ubench(64, footprint_bytes=640, num_refs=30)
        assert all(a < 640 for a, _, _ in w.materialize())

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            ubench(0)


class TestWhisper:
    def test_ctree_mixes_reads_and_writes(self):
        refs = ctree(num_refs=2000).materialize()
        writes = sum(1 for _, w, _ in refs if w)
        assert 0 < writes < 2000

    def test_redo_log_has_sequential_log_writes(self):
        w = redo_log(footprint_bytes=1 << 20, num_refs=2000)
        writes = [a for a, is_w, _ in w.materialize() if is_w]
        # Log appends form ascending runs in the top quarter.
        log_base = (1 << 20) // 64 * 3 // 4 * 64
        log_writes = [a for a in writes if a >= log_base]
        assert len(log_writes) > 10

    def test_hashmap_write_fraction_reasonable(self):
        refs = hashmap(num_refs=3000).materialize()
        writes = sum(1 for _, w, _ in refs if w)
        assert 0.2 < writes / 3000 < 0.8


class TestPmemkv:
    def test_put_has_more_writes_than_get(self):
        puts = sum(1 for _, w, _ in pmemkv(0.9, num_refs=3000).materialize() if w)
        gets = sum(1 for _, w, _ in pmemkv(0.1, num_refs=3000).materialize() if w)
        assert puts > gets

    def test_names(self):
        assert pmemkv(0.9).name == "pmemkv_put"
        assert pmemkv(0.1).name == "pmemkv_get"

    def test_validation(self):
        with pytest.raises(ValueError):
            pmemkv(1.5)


class TestSpec:
    def test_mcf_read_dominated_low_locality(self):
        refs = mcf(num_refs=4000).materialize()
        writes = sum(1 for _, w, _ in refs if w)
        assert writes / 4000 < 0.1
        unique_blocks = {a // 64 for a, _, _ in refs}
        assert len(unique_blocks) > 3500  # pointer chase barely repeats

    def test_gcc_high_locality(self):
        refs = gcc(num_refs=4000).materialize()
        unique_blocks = {a // 64 for a, _, _ in refs}
        assert len(unique_blocks) < 2000  # Zipf working set re-use

    def test_libquantum_sequential(self):
        refs = libquantum(num_refs=100).materialize()
        addrs = [a for a, _, _ in refs]
        assert addrs[:5] == [0, 64, 128, 192, 256]

    def test_lbm_alternates_read_write(self):
        refs = lbm(num_refs=100).materialize()
        assert [w for _, w, _ in refs[:4]] == [False, True, False, True]

    def test_milc_stride(self):
        refs = milc(stride_blocks=5, num_refs=10).materialize()
        addrs = [a for a, _, _ in refs]
        assert addrs[1] - addrs[0] == 5 * 64


class TestNewKernels:
    def test_tpcc_transactions_mix_reads_and_writes(self):
        refs = tpcc(num_refs=3000).materialize()
        writes = sum(1 for _, w, _ in refs if w)
        assert 0.2 < writes / 3000 < 0.7

    def test_echo_put_appends_to_heap(self):
        w = echo(footprint_bytes=1 << 20, num_refs=3000)
        heap_base = ((1 << 20) // 64 // 16) * 64
        heap_writes = [a for a, is_w, _ in w.materialize()
                       if is_w and a >= heap_base]
        assert len(heap_writes) > 100

    def test_ycsb_read_fractions_ordered(self):
        counts = {}
        for factory in (ycsb_a, ycsb_b, ycsb_c):
            w = factory(num_refs=4000)
            counts[w.name] = sum(1 for _, is_w, _ in w.materialize() if is_w)
        assert counts["ycsb_a"] > counts["ycsb_b"] > counts["ycsb_c"] == 0

    def test_ycsb_validation_and_naming(self):
        with pytest.raises(ValueError):
            ycsb(1.5)
        assert ycsb(0.75).name == "ycsb_r75"

    def test_ycsb_hot_set_concentration(self):
        refs = ycsb_b(num_refs=5000).materialize()
        unique = {a for a, _, _ in refs}
        assert len(unique) < 2500  # Zipf reuse


class TestSuiteAndHelpers:
    def test_standard_suite_names_unique(self):
        names = [make_workload(spec).name
                 for spec in standard_suite_specs(num_refs=10)]
        assert len(names) == len(set(names)) == 15

    def test_zipf_addresses_bounded(self):
        rng = np.random.default_rng(0)
        addrs = zipf_addresses(rng, 100, 1000)
        assert addrs.min() >= 0 and addrs.max() < 100

    def test_zipf_is_skewed(self):
        rng = np.random.default_rng(0)
        addrs = zipf_addresses(rng, 1000, 5000)
        top = (addrs == 0).sum()
        assert top > 500  # head block dominates (~18% of draws)

    def test_workload_dataclass(self):
        w = Workload("x", lambda rng, f, n: ((), (), ()), 1024, 0)
        assert w.materialize() == []


STREAMS = json.loads(
    (Path(__file__).parent / "fixtures" / "workload_streams.json").read_text()
)["cases"]


def _sha256(column, dtype) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(column, dtype=dtype).tobytes()
    ).hexdigest()


@pytest.mark.parametrize(
    "case", STREAMS,
    ids=[f"{c['workload']}-{c['footprint_bytes']}-{c['num_refs']}-{c['seed']}"
         for c in STREAMS],
)
def test_stream_matches_pinned_digest(case):
    """Every generator's stream is pinned byte for byte, including the
    points that end a stream in the middle of an operation."""
    spec = (case["factory"], tuple(case["args"]),
            {"footprint_bytes": case["footprint_bytes"],
             "num_refs": case["num_refs"]})
    workload = make_workload(spec, seed=case["seed"])
    addresses, writes, gaps = workload.reference_arrays()
    assert (addresses.dtype, writes.dtype, gaps.dtype) == (
        np.int64, np.bool_, np.int64)
    assert len(addresses) == len(writes) == len(gaps) == case["length"]
    assert _sha256(addresses, "<i8") == case["addresses"]
    assert _sha256(writes, "|b1") == case["writes"]
    assert _sha256(gaps, "<i8") == case["gaps"]
    types = {tuple(map(type, ref)) for ref in workload.references()}
    assert types <= {(int, bool, int)}


#: The pinned configurations, with the sizes left to each test.
CONFIGS = sorted({(c["factory"], tuple(c["args"])) for c in STREAMS})


@pytest.mark.parametrize(
    "factory, args", CONFIGS,
    ids=[factory + "".join(map(str, args)) for factory, args in CONFIGS],
)
class TestSizeValidation:
    @pytest.mark.parametrize("kwargs", [
        {"footprint_bytes": 0},
        {"footprint_bytes": 448},
        {"num_refs": -1},
    ])
    def test_rejects_sizes_no_layout_holds(self, factory, args, kwargs):
        name = make_workload((factory, args, {})).name
        with pytest.raises(ValueError, match=name):
            make_workload((factory, args, kwargs))

    def test_smallest_footprint_stays_in_range(self, factory, args):
        for seed in (1, 2, 3):
            workload = make_workload(
                (factory, args, {"footprint_bytes": 512, "num_refs": 3000}),
                seed=seed,
            )
            addresses, _, _ = workload.reference_arrays()
            assert len(addresses) == 3000
            assert addresses.min() >= 0 and addresses.max() < 512


class TestShapeValidation:
    """Kernel shapes that would hang, crash or silently misbehave are
    refused with an error naming the workload."""

    @pytest.mark.parametrize("factory, args, kwargs", [
        ("redo_log", (), {"batch": 0}),
        ("redo_log", (), {"batch": -1}),
        ("tpcc", (), {"records_per_tx": 0}),
        ("tpcc", (), {"records_per_tx": -2}),
        ("hashmap", (), {"chain": 0}),
        ("ctree", (), {"depth": -1}),
        ("pmemkv", (0.9,), {"index_levels": -1}),
    ])
    def test_rejects_bad_shape(self, factory, args, kwargs):
        name = make_workload((factory, args, {})).name
        (param,) = kwargs
        with pytest.raises(ValueError, match=f"{name}: {param} must be >="):
            make_workload((factory, args, kwargs))

    @pytest.mark.parametrize("factory, args", CONFIGS,
                             ids=[f + "".join(map(str, a)) for f, a in CONFIGS])
    def test_rejects_negative_gap(self, factory, args):
        name = make_workload((factory, args, {})).name
        with pytest.raises(ValueError, match=f"{name}: gap must be >= 0"):
            make_workload((factory, args, {"gap": -1}))

    @pytest.mark.parametrize("factory, kwargs", [
        ("redo_log", {"batch": 1}),
        ("tpcc", {"records_per_tx": 1}),
        ("hashmap", {"chain": 1}),
        ("ctree", {"depth": 0}),
        ("mcf", {"gap": 0}),
    ])
    def test_smallest_shape_fills_its_stream(self, factory, kwargs):
        workload = make_workload((factory, (), dict(kwargs, num_refs=500)))
        addresses, _, gaps = workload.reference_arrays()
        assert len(addresses) == 500 and gaps.min() >= 0
