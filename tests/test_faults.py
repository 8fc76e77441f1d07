"""Tests for the fault encoding, the ECC evaluator, and the Monte Carlo
simulator.

Faults and regions use the integer encoding of :mod:`repro.faults.mc`:
a fault is ``(class, rank, chip, bank_mask, row, group)`` and a DUE
region ``(rank, bank_mask, row, group)``, with ``-1`` = all rows or
groups.
"""

import warnings

import numpy as np
import pytest

from repro.faults import (
    FAULT_CLASSES,
    FaultSimConfig,
    FaultSimulator,
    mc,
    mtbf_hours,
)
from repro.memory import DimmGeometry
from tests.test_mc_properties import union_block_count

GEO = DimmGeometry()
ALL_BANKS = (1 << GEO.banks) - 1


def fault(fault_class, chip, rank, bank=None, row=-1, group=-1):
    """One encoded fault; ``bank=None`` covers every bank."""
    mask = ALL_BANKS if bank is None else 1 << bank
    return (fault_class, rank, chip, mask, row, group)


def region(rank=0, bank=None, row=-1, group=-1):
    """One encoded region; ``bank=None`` covers every bank."""
    return (rank, ALL_BANKS if bank is None else 1 << bank, row, group)


def block_count(region):
    _, mask, row, group = region
    return int(mc._region_blocks(
        np.array([mask], dtype=np.uint64), np.array([row]), np.array([group]),
        GEO,
    )[0])


class TestExtent:
    def test_intersect_disjoint_is_empty(self):
        # Overlapping chips in one bank, but disjoint rows (or groups):
        # the meet is empty, so there is nothing to lose.
        rows = [fault("row", 0, 0, bank=3, row=1),
                fault("row", 1, 0, bank=3, row=2)]
        groups = [fault("column", 0, 0, bank=3, group=1),
                  fault("column", 1, 0, bank=3, group=2)]
        assert mc.due_regions(rows, "chipkill", GEO) == []
        assert mc.due_regions(groups, "chipkill", GEO) == []

    def test_intersect_with_all(self):
        # A whole-chip fault meets a row fault in the row fault's cells.
        faults = [fault("row", 0, 0, bank=2, row=5), fault("nrank", 1, 0)]
        assert mc.due_regions(faults, "chipkill", GEO) == [
            region(bank=2, row=5)
        ]

    def test_block_count(self):
        assert block_count(region(bank=0, row=0, group=0)) == 1
        assert block_count(region(bank=0, row=0)) == GEO.blocks_per_row
        assert block_count(region(bank=0)) == GEO.rows * GEO.blocks_per_row
        assert block_count(region()) == GEO.blocks_per_rank

    def test_blocks_enumeration(self):
        blocks = list(mc.region_blocks(region(bank=1, row=2, group=3), GEO))
        per_bank = GEO.rows * GEO.blocks_per_row
        assert blocks == [1 * per_bank + 2 * GEO.blocks_per_row + 3]
        # Ascending: bank, then row, then group.
        two_banks = (0, 0b101, -1, 7)
        blocks = list(mc.region_blocks(two_banks, GEO))
        assert blocks == sorted(blocks)
        assert len(blocks) == 2 * GEO.rows
        assert blocks[GEO.rows] == 2 * per_bank + 7

    def test_blocks_respect_rank_offset(self):
        b0 = next(mc.region_blocks(region(0, bank=0, row=0, group=0), GEO))
        b1 = next(mc.region_blocks(region(1, bank=0, row=0, group=0), GEO))
        assert b1 - b0 == GEO.blocks_per_rank

    def test_blocks_limit(self):
        blocks = list(mc.region_blocks(region(bank=0), GEO, limit=10))
        assert blocks == list(range(10))


class TestSampleFault:
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_all_classes_sample(self, fault_class):
        rng = np.random.default_rng(1)
        cls, rank, chip, mask, _, _ = mc.draw_fault(fault_class, GEO, rng)
        assert cls == fault_class
        assert chip in GEO.chip_ids_of_rank(rank)
        assert 0 < mask <= ALL_BANKS

    def test_bit_fault_is_single_block(self):
        rng = np.random.default_rng(2)
        _, rank, _, mask, row, group = mc.draw_fault("bit", GEO, rng)
        assert block_count((rank, mask, row, group)) == 1

    def test_bank_fault_covers_whole_bank(self):
        rng = np.random.default_rng(3)
        _, rank, _, mask, row, group = mc.draw_fault("bank", GEO, rng)
        assert mask.bit_count() == 1
        assert block_count((rank, mask, row, group)) == (
            GEO.rows * GEO.blocks_per_row
        )

    def test_nrank_is_whole_chip(self):
        rng = np.random.default_rng(4)
        _, rank, _, mask, row, group = mc.draw_fault("nrank", GEO, rng)
        assert block_count((rank, mask, row, group)) == GEO.blocks_per_rank

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            mc.draw_fault("meteor", GEO, np.random.default_rng(0))

    def test_more_than_64_banks_rejected(self):
        # The uint64 bank bitset cannot hold more than 64 banks.
        wide = DimmGeometry(chips=8, chips_per_rank=4, ranks=2, banks=65,
                            rows=4, cols=256)
        faults = [mc.draw_fault("bank", wide, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="at most 64 banks"):
            mc.due_regions(faults, "chipkill", wide)


class TestChipkill:
    def test_single_chip_fault_fully_corrected(self):
        faults = [fault("bank", chip=0, rank=0, bank=0)]
        assert mc.due_regions(faults, "chipkill", GEO) == []

    def test_two_chips_overlapping_is_due(self):
        faults = [
            fault("bank", 0, 0, bank=3),
            fault("row", 1, 0, bank=3, row=7),
        ]
        regions = mc.due_regions(faults, "chipkill", GEO)
        assert regions == [region(bank=3, row=7)]
        assert block_count(regions[0]) == GEO.blocks_per_row

    def test_two_chips_disjoint_banks_corrected(self):
        faults = [
            fault("bank", 0, 0, bank=3),
            fault("bank", 1, 0, bank=4),
        ]
        assert mc.due_regions(faults, "chipkill", GEO) == []

    def test_different_ranks_never_interact(self):
        faults = [
            fault("bank", 0, 0, bank=3),
            fault("bank", 9, 1, bank=3),
        ]
        assert mc.due_regions(faults, "chipkill", GEO) == []

    def test_same_chip_twice_corrected(self):
        faults = [
            fault("bank", 0, 0, bank=3),
            fault("row", 0, 0, bank=3, row=1),
        ]
        assert mc.due_regions(faults, "chipkill", GEO) == []


class TestSecDed:
    def test_multibit_fault_is_due_alone(self):
        faults = [fault("row", 0, 0, bank=0, row=0)]
        assert mc.due_regions(faults, "secded", GEO) == [
            region(bank=0, row=0)
        ]

    def test_single_bit_fault_corrected(self):
        faults = [fault("bit", 0, 0, bank=0, row=0, group=0)]
        assert mc.due_regions(faults, "secded", GEO) == []

    def test_two_bit_faults_same_cell_due(self):
        faults = [
            fault("bit", 0, 0, bank=0, row=0, group=0),
            fault("bit", 1, 0, bank=0, row=0, group=0),
        ]
        assert len(mc.due_regions(faults, "secded", GEO)) == 1

    def test_chipkill_strictly_stronger(self):
        """Every SECDED-correctable pattern is Chipkill-correctable."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            faults = [
                mc.draw_fault(
                    FAULT_CLASSES[int(rng.integers(0, len(FAULT_CLASSES)))],
                    GEO, rng,
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            ck = sum(map(block_count, mc.due_regions(faults, "chipkill", GEO)))
            sd = sum(map(block_count, mc.due_regions(faults, "secded", GEO)))
            assert ck <= sd


class TestUnionCount:
    def test_disjoint_regions_sum(self):
        regions = [
            region(bank=0, row=0, group=0),
            region(bank=1, row=0, group=0),
        ]
        assert union_block_count(regions, GEO) == 2

    def test_overlapping_regions_deduplicated(self):
        regions = [region(bank=0, row=0), region(bank=0, row=0)]
        assert union_block_count(regions, GEO) == GEO.blocks_per_row

    def test_partial_overlap(self):
        regions = [
            region(bank=0, row=0),        # one row: 64 blocks
            region(bank=0, group=0),      # one group column: 16384
        ]
        expected = GEO.blocks_per_row + GEO.rows - 1
        assert union_block_count(regions, GEO) == expected

    def test_regions_in_different_ranks_independent(self):
        regions = [region(0, bank=0, row=0), region(1, bank=0, row=0)]
        assert union_block_count(regions, GEO) == 2 * GEO.blocks_per_row

    def test_additive_fallback_warns_and_reports(self):
        # 15 single-row regions in one rank: above the inclusion-
        # exclusion cutoff, so evaluate_batch substitutes the additive
        # upper bound, warns, and reports the event.
        config = FaultSimConfig(repair="none")
        faults = [fault("row", 0, 0, bank=0, row=r) for r in range(15)]
        seen = []
        with pytest.warns(RuntimeWarning, match="additive upper bound"):
            total, _ = mc.evaluate_batch(
                mc._trial_batch(faults), config,
                on_approximation=seen.append,
            )
        assert total[0] == 15 * GEO.blocks_per_row
        assert seen == [15]
        # At or below the cutoff: exact, silent, no callback.
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact, _ = mc.evaluate_batch(
                mc._trial_batch(faults[:14]), config,
                on_approximation=seen.append,
            )
        assert exact[0] == 14 * GEO.blocks_per_row
        assert seen == []

    def test_result_counts_approximations(self):
        # Normal campaigns never hit the fallback: the field exists and
        # stays zero, so a nonzero value is a reliable red flag.
        config = FaultSimConfig(fit_per_device=20, trials=800, seed=5)
        result = FaultSimulator(config).run(trials_per_k=100)
        assert result.union_approximations == 0


class TestFaultSimConfig:
    def test_table4_defaults(self):
        config = FaultSimConfig()
        assert config.geometry.chips == 18
        assert config.repair == "chipkill"
        assert config.years == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSimConfig(fit_per_device=0)
        with pytest.raises(ValueError):
            FaultSimConfig(repair="raid")
        with pytest.raises(ValueError):
            FaultSimConfig(relative_rates={"bit": 0.5})

    def test_expected_faults_scale_with_fit(self):
        low = FaultSimConfig(fit_per_device=1).expected_faults_per_dimm()
        high = FaultSimConfig(fit_per_device=80).expected_faults_per_dimm()
        assert abs(high / low - 80) < 1e-9

    def test_mtbf_matches_paper_calibration(self):
        # Section 4: 694 hours at FIT 1, 8.6 hours at FIT 80.
        assert mtbf_hours(1) == pytest.approx(694.4, abs=0.1)
        assert mtbf_hours(80) == pytest.approx(8.68, abs=0.01)
        with pytest.raises(ValueError):
            mtbf_hours(0)


class TestFaultSimulator:
    def test_moments_are_decreasing_in_depth(self):
        sim = FaultSimulator(FaultSimConfig(fit_per_device=80, trials=4000))
        result = sim.run(trials_per_k=500)
        moments = result.p_multi_due
        for d in range(1, 5):
            assert moments[d] >= moments[d + 1] >= 0
        cross = result.p_multi_due_cross
        assert cross[2] <= cross[1]

    def test_p_block_due_increases_with_fit(self):
        results = []
        for fit in (10, 80):
            sim = FaultSimulator(FaultSimConfig(fit_per_device=fit, trials=4000))
            results.append(sim.run(trials_per_k=800).p_block_due)
        assert results[1] > results[0] > 0

    def test_chipkill_beats_secded(self):
        ck = FaultSimulator(
            FaultSimConfig(fit_per_device=40, trials=4000, repair="chipkill")
        ).run(trials_per_k=500)
        sd = FaultSimulator(
            FaultSimConfig(fit_per_device=40, trials=4000, repair="secded")
        ).run(trials_per_k=500)
        assert ck.p_block_due < sd.p_block_due

    def test_deterministic_for_same_seed(self):
        config = FaultSimConfig(fit_per_device=20, trials=2000, seed=5)
        a = FaultSimulator(config).run(trials_per_k=300)
        b = FaultSimulator(config).run(trials_per_k=300)
        assert a.p_block_due == b.p_block_due
        assert a.p_multi_due == b.p_multi_due

    def test_cross_rank_moment_not_above_same_domain(self):
        sim = FaultSimulator(FaultSimConfig(fit_per_device=80, trials=4000))
        result = sim.run(trials_per_k=500)
        # Spreading copies across ranks can only reduce joint loss.
        assert result.p_multi_due_cross[2] <= result.p_multi_due[2] * 1.5

    @pytest.mark.parametrize("trials_per_k", [0, -5])
    def test_rejects_fewer_than_one_trial_per_bucket(self, trials_per_k):
        sim = FaultSimulator(FaultSimConfig(fit_per_device=80))
        with pytest.raises(ValueError, match="trials_per_k"):
            sim.run(trials_per_k=trials_per_k)
