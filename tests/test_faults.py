"""Tests for the fault model, ECC models, and Monte Carlo simulator."""

import numpy as np
import pytest

from repro.faults import (
    FAULT_CLASSES,
    ChipkillCorrect,
    Extent,
    Fault,
    FaultSimConfig,
    FaultSimulator,
    NoEcc,
    SecDed,
    make_ecc,
    mtbf_hours,
    sample_fault,
)
from repro.memory import DimmGeometry
from tests.test_mc_properties import union_block_count

GEO = DimmGeometry()


def extent(bank=None, row=None, group=None):
    return Extent(
        banks=None if bank is None else frozenset([bank]),
        rows=None if row is None else frozenset([row]),
        groups=None if group is None else frozenset([group]),
    )


class TestExtent:
    def test_intersect_disjoint_is_empty(self):
        a = extent(bank=0)
        b = extent(bank=1)
        assert a.intersect(b).is_empty()

    def test_intersect_with_all(self):
        a = extent(bank=2, row=5)
        b = Extent()  # everything
        meet = a.intersect(b)
        assert meet.banks == frozenset([2])
        assert meet.rows == frozenset([5])
        assert meet.groups is None

    def test_block_count(self):
        assert extent(bank=0, row=0, group=0).block_count(GEO) == 1
        assert extent(bank=0, row=0).block_count(GEO) == GEO.blocks_per_row
        assert extent(bank=0).block_count(GEO) == GEO.rows * GEO.blocks_per_row
        assert Extent().block_count(GEO) == GEO.blocks_per_rank

    def test_blocks_enumeration(self):
        blocks = list(extent(bank=1, row=2, group=3).blocks(GEO, rank=0))
        assert len(blocks) == 1
        per_bank = GEO.rows * GEO.blocks_per_row
        assert blocks[0] == 1 * per_bank + 2 * GEO.blocks_per_row + 3

    def test_blocks_respect_rank_offset(self):
        b0 = next(extent(bank=0, row=0, group=0).blocks(GEO, rank=0))
        b1 = next(extent(bank=0, row=0, group=0).blocks(GEO, rank=1))
        assert b1 - b0 == GEO.blocks_per_rank

    def test_blocks_limit(self):
        blocks = list(extent(bank=0).blocks(GEO, rank=0, limit=10))
        assert len(blocks) == 10


class TestSampleFault:
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_all_classes_sample(self, fault_class):
        rng = np.random.default_rng(1)
        faults = sample_fault(fault_class, GEO, rng)
        assert faults
        for fault in faults:
            assert fault.fault_class == fault_class
            assert fault.chip in GEO.chip_ids_of_rank(fault.rank)

    def test_bit_fault_is_single_block(self):
        rng = np.random.default_rng(2)
        (fault,) = sample_fault("bit", GEO, rng)
        assert fault.extent.block_count(GEO) == 1
        assert not fault.multibit

    def test_bank_fault_covers_whole_bank(self):
        rng = np.random.default_rng(3)
        (fault,) = sample_fault("bank", GEO, rng)
        assert fault.extent.block_count(GEO) == GEO.rows * GEO.blocks_per_row

    def test_nrank_is_whole_chip(self):
        rng = np.random.default_rng(4)
        (fault,) = sample_fault("nrank", GEO, rng)
        assert fault.extent.block_count(GEO) == GEO.blocks_per_rank

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            sample_fault("meteor", GEO, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Fault("meteor", 0, 0, Extent())


class TestChipkill:
    def test_single_chip_fault_fully_corrected(self):
        ecc = ChipkillCorrect()
        faults = [Fault("bank", chip=0, rank=0, extent=extent(bank=0), multibit=True)]
        assert ecc.uncorrectable_regions(faults, GEO) == []

    def test_two_chips_overlapping_is_due(self):
        ecc = ChipkillCorrect()
        faults = [
            Fault("bank", 0, 0, extent(bank=3), True),
            Fault("row", 1, 0, extent(bank=3, row=7), True),
        ]
        regions = ecc.uncorrectable_regions(faults, GEO)
        assert len(regions) == 1
        assert regions[0].block_count(GEO) == GEO.blocks_per_row

    def test_two_chips_disjoint_banks_corrected(self):
        ecc = ChipkillCorrect()
        faults = [
            Fault("bank", 0, 0, extent(bank=3), True),
            Fault("bank", 1, 0, extent(bank=4), True),
        ]
        assert ecc.uncorrectable_regions(faults, GEO) == []

    def test_different_ranks_never_interact(self):
        ecc = ChipkillCorrect()
        faults = [
            Fault("bank", 0, 0, extent(bank=3), True),
            Fault("bank", 9, 1, extent(bank=3), True),
        ]
        assert ecc.uncorrectable_regions(faults, GEO) == []

    def test_same_chip_twice_corrected(self):
        ecc = ChipkillCorrect()
        faults = [
            Fault("bank", 0, 0, extent(bank=3), True),
            Fault("row", 0, 0, extent(bank=3, row=1), True),
        ]
        assert ecc.uncorrectable_regions(faults, GEO) == []


class TestSecDed:
    def test_multibit_fault_is_due_alone(self):
        ecc = SecDed()
        faults = [Fault("row", 0, 0, extent(bank=0, row=0), True)]
        regions = ecc.uncorrectable_regions(faults, GEO)
        assert len(regions) == 1

    def test_single_bit_fault_corrected(self):
        ecc = SecDed()
        faults = [Fault("bit", 0, 0, extent(bank=0, row=0, group=0), False)]
        assert ecc.uncorrectable_regions(faults, GEO) == []

    def test_two_bit_faults_same_cell_due(self):
        ecc = SecDed()
        cell = extent(bank=0, row=0, group=0)
        faults = [
            Fault("bit", 0, 0, cell, False),
            Fault("bit", 1, 0, cell, False),
        ]
        assert len(ecc.uncorrectable_regions(faults, GEO)) == 1

    def test_chipkill_strictly_stronger(self):
        """Every SECDED-correctable pattern is Chipkill-correctable."""
        rng = np.random.default_rng(11)
        chipkill, secded = ChipkillCorrect(), SecDed()
        for _ in range(50):
            faults = []
            for _ in range(int(rng.integers(1, 4))):
                cls = FAULT_CLASSES[int(rng.integers(0, len(FAULT_CLASSES)))]
                faults.extend(sample_fault(cls, GEO, rng))
            ck = sum(r.block_count(GEO) for r in chipkill.uncorrectable_regions(faults, GEO))
            sd = sum(r.block_count(GEO) for r in secded.uncorrectable_regions(faults, GEO))
            assert ck <= sd


class TestUnionCount:
    def test_disjoint_regions_sum(self):
        from repro.faults import DueRegion

        regions = [
            DueRegion(0, extent(bank=0, row=0, group=0)),
            DueRegion(0, extent(bank=1, row=0, group=0)),
        ]
        assert union_block_count(regions, GEO) == 2

    def test_overlapping_regions_deduplicated(self):
        from repro.faults import DueRegion

        regions = [
            DueRegion(0, extent(bank=0, row=0)),
            DueRegion(0, extent(bank=0, row=0)),  # identical
        ]
        assert union_block_count(regions, GEO) == GEO.blocks_per_row

    def test_partial_overlap(self):
        from repro.faults import DueRegion

        regions = [
            DueRegion(0, extent(bank=0, row=0)),         # one row: 64 blocks
            DueRegion(0, extent(bank=0, group=0)),       # one group col: 16384
        ]
        expected = GEO.blocks_per_row + GEO.rows - 1
        assert union_block_count(regions, GEO) == expected

    def test_regions_in_different_ranks_independent(self):
        from repro.faults import DueRegion

        regions = [
            DueRegion(0, extent(bank=0, row=0)),
            DueRegion(1, extent(bank=0, row=0)),
        ]
        assert union_block_count(regions, GEO) == 2 * GEO.blocks_per_row

    def test_additive_fallback_warns_and_reports(self):
        import warnings

        from repro.faults import DueRegion

        # 15 single-row regions in one rank: above the inclusion-
        # exclusion cutoff, so the additive upper bound substitutes.
        regions = [
            DueRegion(0, extent(bank=0, row=r)) for r in range(15)
        ]
        seen = []
        with pytest.warns(RuntimeWarning, match="additive upper bound"):
            total = union_block_count(
                regions, GEO, on_approximation=seen.append
            )
        assert total == 15 * GEO.blocks_per_row
        assert seen == [15]
        # At or below the cutoff: exact, silent, no callback.
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = union_block_count(
                regions[:14], GEO, on_approximation=seen.append
            )
        assert exact == 14 * GEO.blocks_per_row
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

    def test_make_ecc(self):
        assert isinstance(make_ecc("chipkill"), ChipkillCorrect)
        assert isinstance(make_ecc("secded"), SecDed)
        assert isinstance(make_ecc("none"), NoEcc)
        with pytest.raises(ValueError):
            make_ecc("magic")


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
