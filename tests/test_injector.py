"""Live fault injector: scheduling, targeting, determinism."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import make_controller
from repro.faults import (
    INJECTION_TARGETS,
    FaultInjector,
    FaultSimConfig,
    region_addresses,
)
from repro.memory import DimmGeometry

KB = 1024


def make_ctrl(scheme="src", seed=7):
    ctrl = make_controller(
        scheme, 64 * KB, functional_crypto=True, quarantine=True,
        rng=np.random.default_rng(seed),
    )
    for block in range(0, ctrl.num_data_blocks, 4):
        ctrl.write(block, bytes([block % 251]) * 64)
    ctrl.flush()
    return ctrl


class TestScheduling:
    def test_events_fire_in_op_order(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter",), seed=1,
                            num_faults=5, horizon_ops=100)
        assert [e.op for e in inj.events] == sorted(e.op for e in inj.events)
        fired_ops = []
        for op in range(100):
            for event in inj.poll(op):
                fired_ops.append(event.op)
        assert inj.pending == 0
        assert sorted(fired_ops) == fired_ops

    def test_poll_is_idempotent_per_event(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter",), seed=1,
                            num_faults=3, horizon_ops=10)
        first = inj.poll(10)
        assert len(first) + sum(e.deferred for e in inj.events) == 3
        assert inj.poll(10) == []

    def test_drain_fires_everything(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("tree",), seed=2,
                            num_faults=4, horizon_ops=1000)
        inj.drain()
        assert inj.pending == 0
        assert all(e.fired or e.deferred for e in inj.events)

    def test_targets_cycle_round_robin(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter", "tree"), seed=3,
                            num_faults=4, horizon_ops=100)
        assert [e.target for e in inj.events] == [
            "counter", "tree", "counter", "tree"
        ]


class TestValidation:
    def test_rejects_unknown_target(self):
        ctrl = make_ctrl()
        with pytest.raises(ValueError, match="unknown injection targets"):
            FaultInjector(ctrl, targets=("bogus",))

    def test_rejects_unknown_mode(self):
        ctrl = make_ctrl()
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(ctrl, mode="fuzzy")

    def test_ecc_mode_rejects_more_than_64_banks(self):
        # The ECC evaluator's uint64 bank bitset holds 64 banks at most.
        wide = DimmGeometry(chips=8, chips_per_rank=4, ranks=2, banks=65,
                            rows=4, cols=256)
        inj = FaultInjector(make_ctrl(), seed=1, num_faults=2,
                            horizon_ops=10, mode="ecc",
                            config=FaultSimConfig(geometry=wide))
        with pytest.raises(ValueError, match="at most 64 banks"):
            inj.drain()

    @pytest.mark.parametrize("mode", ["direct", "ecc"])
    def test_rejects_negative_max_blocks_per_fault(self, mode):
        # Unchecked, direct mode silently deferred every event, and ecc
        # mode failed inside islice once a fault was uncorrectable.
        with pytest.raises(ValueError, match="max_blocks_per_fault"):
            FaultInjector(make_ctrl(), mode=mode, max_blocks_per_fault=-1)

    def test_all_documented_targets_resolve(self):
        ctrl = make_ctrl(scheme="sac")
        for target in INJECTION_TARGETS:
            inj = FaultInjector(ctrl, targets=(target,), seed=4,
                                num_faults=1, horizon_ops=1)
            assert inj._candidates(target), target


class TestDamage:
    def test_direct_mode_poisons_target_region(self):
        ctrl = make_ctrl()
        amap = ctrl.amap
        counter_addresses = {
            amap.node_addr(1, i) for i in range(amap.level_sizes[0])
        }
        inj = FaultInjector(ctrl, targets=("counter",), seed=5,
                            num_faults=4, horizon_ops=10)
        inj.drain()
        injected = inj.injected_addresses()
        assert injected
        assert injected <= counter_addresses
        assert all(ctrl.nvm.is_poisoned(a) for a in injected)

    def test_baseline_has_no_clone_candidates(self):
        ctrl = make_ctrl(scheme="baseline")
        inj = FaultInjector(ctrl, targets=("clone",), seed=6,
                            num_faults=2, horizon_ops=10)
        inj.drain()
        assert inj.injected_addresses() == set()
        assert all(e.deferred for e in inj.events)

    def test_ecc_mode_defers_correctable_arrivals(self):
        # Under Chipkill a single chip fault is always correctable, so
        # the very first event can never poison anything.
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter",), seed=7,
                            num_faults=6, horizon_ops=10, mode="ecc")
        inj.drain()
        assert inj.events[0].deferred

    def test_ecc_mode_poisoning_is_pinned(self):
        """What ``mode="ecc"`` poisons, over every repair on the Table-4
        geometry and on a dense one where chip faults overlap often.
        The digest is sha256 of the canonical JSON of every run's
        ``summary()``; the totals say what moved when it fails."""
        geometries = (
            DimmGeometry(),
            DimmGeometry(chips=8, chips_per_rank=4, ranks=2, banks=4,
                         rows=4, cols=256),
        )
        summaries = []
        for repair in ("chipkill", "chipkill2", "secded", "none"):
            for geometry in geometries:
                for seed in (1, 2, 3):
                    config = FaultSimConfig(geometry=geometry, repair=repair)
                    inj = FaultInjector(
                        make_ctrl(), targets=("counter", "tree", "data"),
                        seed=seed, num_faults=12, horizon_ops=10,
                        mode="ecc", config=config,
                    )
                    inj.drain()
                    summaries.append(inj.summary())
        totals = {
            key: sum(s[key] for s in summaries)
            for key in ("fired", "deferred", "poisoned_blocks")
        }
        canonical = json.dumps(summaries, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert (len(summaries), totals, digest) == (
            24,
            {"fired": 105, "deferred": 183, "poisoned_blocks": 234},
            "d28d0570926a393fdab6ff28541605800d370e37df2bfacf92a42bf47cd30fd9",
        )

    def test_summary_counts(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter",), seed=8,
                            num_faults=3, horizon_ops=10)
        inj.drain()
        s = inj.summary()
        assert s["scheduled"] == 3
        assert s["fired"] + s["deferred"] == 3
        assert len(s["events"]) == 3


class TestEmptyAndQuarantinedRegions:
    """Satellite regression: empty / fully-quarantined targets must
    produce a well-formed zero summary, never raise."""

    def test_empty_targets_tuple_schedules_nothing(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=(), seed=1, num_faults=5,
                            horizon_ops=100)
        assert inj.events == []
        assert inj.drain() == []
        s = inj.summary()
        assert s["scheduled"] == 0
        assert s["fired"] == 0
        assert s["deferred"] == 0
        assert s["poisoned_blocks"] == 0
        assert s["events"] == []

    def test_empty_region_defers_with_zero_summary(self):
        # baseline has no clone copies: the region is genuinely empty.
        ctrl = make_ctrl(scheme="baseline")
        inj = FaultInjector(ctrl, targets=("clone",), seed=2, num_faults=3,
                            horizon_ops=10)
        inj.drain()
        s = inj.summary()
        assert s["fired"] == 0
        assert s["deferred"] == 3
        assert s["poisoned_blocks"] == 0

    def test_fully_quarantined_region_defers_instead_of_raising(self):
        ctrl = make_ctrl()
        for index in range(ctrl.amap.level_sizes[0]):
            ctrl.quarantine_node(1, index, "test exhaustion")
        inj = FaultInjector(ctrl, targets=("counter",), seed=3,
                            num_faults=4, horizon_ops=10,
                            exclude_quarantined=True)
        inj.drain()
        s = inj.summary()
        assert s["fired"] == 0
        assert s["deferred"] == 4
        assert s["poisoned_blocks"] == 0

    def test_exclude_quarantined_filters_candidates(self):
        ctrl = make_ctrl()
        all_counters = region_addresses(ctrl, "counter")
        entry = ctrl.quarantine_node(1, 0, "test")
        assert entry is not None
        remaining = region_addresses(ctrl, "counter",
                                     exclude_quarantined=True)
        assert ctrl.amap.node_addr(1, 0) in all_counters
        assert ctrl.amap.node_addr(1, 0) not in remaining
        assert set(remaining) < set(all_counters)

    def test_exclude_quarantined_filters_covered_data_blocks(self):
        ctrl = make_ctrl()
        ctrl.quarantine_node(1, 0, "test")
        covered = ctrl.amap.data_blocks_covered(1, 0)
        remaining = region_addresses(ctrl, "data",
                                     exclude_quarantined=True)
        blocks = {a // 64 for a in remaining}
        assert not blocks & set(covered)

    def test_default_behavior_unchanged_without_flag(self):
        ctrl = make_ctrl()
        ctrl.quarantine_node(1, 0, "test")
        # Without the opt-in flag the historical candidate list (and
        # therefore every pinned campaign seed) is untouched.
        assert ctrl.amap.node_addr(1, 0) in region_addresses(ctrl, "counter")


class TestExplicitArrivals:
    def test_arrivals_pin_the_schedule(self):
        ctrl = make_ctrl()
        inj = FaultInjector(ctrl, targets=("counter",), seed=4,
                            num_faults=3, horizon_ops=1000,
                            arrivals=(500, 10, 200))
        assert [e.op for e in inj.events] == [10, 200, 500]

    def test_arrivals_length_must_match(self):
        ctrl = make_ctrl()
        with pytest.raises(ValueError, match="arrivals"):
            FaultInjector(ctrl, targets=("counter",), num_faults=3,
                          arrivals=(1, 2))

    def test_same_arrivals_same_damage(self):
        def run():
            ctrl = make_ctrl(seed=11)
            inj = FaultInjector(ctrl, targets=("counter",), seed=9,
                                num_faults=4, horizon_ops=100,
                                arrivals=(0, 0, 50, 99))
            inj.drain()
            return inj.summary()

        assert run() == run()


class TestDeterminism:
    def test_same_seed_same_schedule_and_damage(self):
        def run(seed):
            ctrl = make_ctrl(seed=11)
            inj = FaultInjector(ctrl, targets=("counter", "tree"),
                                seed=seed, num_faults=6, horizon_ops=500)
            inj.drain()
            return inj.summary()

        assert run(42) == run(42)
        assert run(42) != run(43)
