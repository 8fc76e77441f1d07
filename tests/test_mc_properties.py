"""Property tests for the streaming MC layer.

Three invariants the 1e8-trial campaign design rests on:

* estimator state is a pure function of the *set* of batches — any
  insertion or merge order yields bitwise-identical aggregates;
* the vectorized sampler is batch-size invariant — any chunking of a
  global trial range yields identical fault arrays;
* a checkpointed campaign resumed mid-flight finishes bit-identical to
  an uninterrupted run.

It also holds :func:`union_block_count`, the brute-force oracle the
vectorized closed-form union ``mc._union_regions`` is checked against,
and :func:`pack_regions`, which lays region lists out as that
function's arrays.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultSimConfig,
    McBatchStat,
    McEstimatorState,
    run_mc_campaign,
)
from repro.faults import mc
from repro.memory.geometry import DimmGeometry


CONFIG = FaultSimConfig(fit_per_device=80, trials=2_000, seed=3)


def union_block_count(regions, geometry) -> int:
    """Unique blocks covered by ``(rank, bank_mask, row, group)`` regions.

    Brute force: mark every covered block in a ``(ranks, banks, rows,
    blocks_per_row)`` boolean array and count the marks, so it shares
    no arithmetic with the closed-form union it checks.
    """
    covered = np.zeros(
        (geometry.ranks, geometry.banks, geometry.rows,
         geometry.blocks_per_row),
        dtype=bool,
    )
    for rank, mask, row, group in regions:
        for bank in range(geometry.banks):
            if mask >> bank & 1:
                covered[
                    rank,
                    bank,
                    slice(None) if row == -1 else row,
                    slice(None) if group == -1 else group,
                ] = True
    return int(np.count_nonzero(covered))


def pack_regions(trials):
    """``mc._union_regions``'s ``(mask, row, group, selected)`` arrays
    for lists of ``(mask, row, group)`` regions, one list per trial.

    Short trials are padded with unselected whole-rank regions, so an
    unselected slot that got counted would show in the result.
    """
    width = max([len(regions) for regions in trials] + [1])
    shape = (len(trials), width)
    mask = np.full(shape, (1 << 64) - 1, dtype=np.uint64)
    row = np.full(shape, -1, dtype=np.int32)
    group = np.full(shape, -1, dtype=np.int32)
    selected = np.zeros(shape, dtype=bool)
    for i, regions in enumerate(trials):
        for j, (m, r, g) in enumerate(regions):
            mask[i, j], row[i, j], group[i, j] = m, r, g
            selected[i, j] = True
    return mask, row, group, selected


_STAT_NAMES = ("due", "blocks", "moment_2", "cross_2", "scheme:src")


@st.composite
def batch_stats(draw):
    trials = draw(st.integers(1, 500))
    finite = st.floats(
        0.0, 1e9, allow_nan=False, allow_infinity=False
    )
    return McBatchStat(
        k=draw(st.integers(1, 8)),
        batch_index=draw(st.integers(0, 30)),
        trials=trials,
        due_count=draw(st.integers(0, trials)),
        approximated_ranks=draw(st.integers(0, 3)),
        weight_sum=draw(finite),
        weight_sumsq=draw(finite),
        sums={name: draw(finite) for name in _STAT_NAMES},
        sumsq={name: draw(finite) for name in _STAT_NAMES},
    )


class TestMergeOrderInvariance:
    @given(stats=st.lists(batch_stats(), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_any_insertion_order_is_bitwise_identical(self, stats, seed):
        unique = list({s.key(): s for s in stats}.values())
        forward = McEstimatorState()
        for s in unique:
            forward.add(s)
        shuffled = list(unique)
        np.random.default_rng(seed).shuffle(shuffled)
        backward = McEstimatorState()
        for s in shuffled:
            backward.add(s)
        assert forward.per_k() == backward.per_k()
        assert forward.total_trials == backward.total_trials

    @given(stats=st.lists(batch_stats(), min_size=2, max_size=10),
           cut=st.integers(0, 10))
    @settings(deadline=None, max_examples=60)
    def test_merge_is_commutative(self, stats, cut):
        unique = list({s.key(): s for s in stats}.values())
        cut = min(cut, len(unique))
        a, b = McEstimatorState(), McEstimatorState()
        for s in unique[:cut]:
            a.add(s)
        for s in unique[cut:]:
            b.add(s)
        assert a.merge(b).per_k() == b.merge(a).per_k()

    def test_duplicate_add_is_noop_conflict_is_error(self):
        stat = McBatchStat(
            k=2, batch_index=0, trials=10, due_count=1,
            approximated_ranks=0, weight_sum=10.0, weight_sumsq=10.0,
            sums={"due": 1.0}, sumsq={"due": 1.0},
        )
        state = McEstimatorState()
        state.add(stat)
        state.add(stat)  # idempotent
        assert len(state.batches) == 1
        conflicting = McBatchStat(
            k=2, batch_index=0, trials=10, due_count=2,
            approximated_ranks=0, weight_sum=10.0, weight_sumsq=10.0,
            sums={"due": 2.0}, sumsq={"due": 2.0},
        )
        with pytest.raises(ValueError, match="conflicting"):
            state.add(conflicting)


class TestSamplerBatchInvariance:
    @given(
        k=st.sampled_from([1, 2, 5]),
        edges=st.lists(st.integers(1, 149), unique=True, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_any_chunking_yields_identical_arrays(self, k, edges):
        bounds = [0] + sorted(edges) + [150]
        whole = mc.sample_batch(CONFIG, k, 0, 150)
        parts = [
            mc.sample_batch(CONFIG, k, lo, hi - lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        for name in ("class_index", "rank", "chip", "bank_mask",
                     "row", "group", "multibit", "weight"):
            stitched = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), stitched)


#: Rows and groups differ, so a formula that swaps them fails; the
#: second geometry has 64 banks, so bank bit 63 is the mask's top bit.
_UNION_GEOMETRIES = (
    DimmGeometry(chips=8, chips_per_rank=4, ranks=2, banks=4, rows=5,
                 cols=192),
    DimmGeometry(chips=8, chips_per_rank=4, ranks=2, banks=64, rows=3,
                 cols=256),
)


@st.composite
def union_trials(draw):
    """A geometry and 1-5 trials of 0-8 regions each.  Rows and groups
    of -1 make all four region kinds: whole bank, column, row, point.
    Some regions cover every bank, and some trials repeat a region."""
    geometry = draw(st.sampled_from(_UNION_GEOMETRIES))
    banks = geometry.banks
    mask = st.one_of(
        st.just((1 << banks) - 1),
        st.sets(st.integers(0, banks - 1), min_size=1, max_size=4).map(
            lambda chosen: sum(1 << bank for bank in chosen)
        ),
    )
    region = st.tuples(
        mask,
        st.integers(-1, geometry.rows - 1),
        st.integers(-1, geometry.blocks_per_row - 1),
    )
    trials = []
    for _ in range(draw(st.integers(1, 5))):
        regions = draw(st.lists(region, max_size=6))
        if regions:
            regions += draw(st.lists(st.sampled_from(regions), max_size=2))
        trials.append(regions)
    return geometry, trials


_TOP = 1 << 63
#: Always run: no region, one region, a duplicate, and every region
#: kind on bank 63 of the 64-bank geometry.
_EXPLICIT_TRIALS = [
    [],
    [(_TOP, 1, 2)],
    [(_TOP | 1, 0, -1), (_TOP | 1, 0, -1)],
    [(_TOP, -1, -1), (_TOP | 2, -1, 1), (_TOP | 2, 2, -1), (_TOP | 6, 1, 3),
     (4, 0, 0), (2, 2, 1)],
]


class TestUnionEncoding:
    @given(case=union_trials())
    @example(case=(_UNION_GEOMETRIES[1], _EXPLICIT_TRIALS))
    @settings(deadline=None, max_examples=80)
    def test_int_encoding_matches_marked_union(self, case):
        """One ``_union_regions`` call over several trials must give
        each trial ``union_block_count``'s block marking of its own
        regions: a key that mixed trials would show as a mismatch."""
        geometry, trials = case
        counts = mc._union_regions(*pack_regions(trials), geometry)
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            union_block_count([(0, *r) for r in regions], geometry)
            for regions in trials
        ]


class TestResumeEqualsUninterrupted:
    def _compare(self, a, b):
        assert a.p_block_due == b.p_block_due
        assert a.p_block_due_half_width == b.p_block_due_half_width
        assert a.due_probability == b.due_probability
        assert a.expected_due_blocks == b.expected_due_blocks
        assert a.p_multi_due == b.p_multi_due
        assert a.p_multi_due_cross == b.p_multi_due_cross
        assert a.by_fault_count == b.by_fault_count
        assert a.schemes == b.schemes
        assert a.state.per_k() == b.state.per_k()
        assert a.total_trials == b.total_trials

    def test_resumed_campaign_bit_identical(self, tmp_path):
        """Run wave 0 checkpointed (the 'interrupted' half), then the
        full campaign with resume: the finished estimate must be
        bitwise equal to an uninterrupted run of the same budget."""
        kwargs = dict(batch_trials=200, schemes=("baseline", "src"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            uninterrupted = run_mc_campaign(
                CONFIG, max_waves=2, **kwargs
            )
            run_mc_campaign(
                CONFIG, max_waves=1,
                checkpoint=str(tmp_path / "mc"), **kwargs
            )
            resumed = run_mc_campaign(
                CONFIG, max_waves=2,
                checkpoint=str(tmp_path / "mc"), resume=True, **kwargs
            )
        self._compare(uninterrupted, resumed)

    def test_checkpointed_equals_plain(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = run_mc_campaign(CONFIG, max_waves=1, batch_trials=150,
                                    schemes=())
            journaled = run_mc_campaign(
                CONFIG, max_waves=1, batch_trials=150, schemes=(),
                checkpoint=str(tmp_path / "ck"),
            )
        self._compare(plain, journaled)
