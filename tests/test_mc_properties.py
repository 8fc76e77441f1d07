"""Property tests for the streaming MC layer.

Three invariants the 1e8-trial campaign design rests on:

* estimator state is a pure function of the *set* of batches — any
  insertion or merge order yields bitwise-identical aggregates;
* the vectorized sampler is batch-size invariant — any chunking of a
  global trial range yields identical fault arrays;
* a checkpointed campaign resumed mid-flight finishes bit-identical to
  an uninterrupted run.

It also holds three oracles: :func:`union_block_count`, the
brute-force union the vectorized closed-form ``mc._union_regions`` is
checked against (with :func:`pack_regions`, which lays region lists out
as that function's arrays); :func:`reference_sample_batch`, the
slot-at-a-time sampler the one-pass-per-field ``mc.sample_batch`` must
match bit for bit; and :func:`reference_per_k`, the re-summing fold
``McEstimatorState``'s running aggregates must match.
"""

import copy
import math
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


def reference_sample_batch(config, k, start_trial, trials, q=None):
    """``mc.sample_batch`` one fault slot at a time.

    Each slot derives its stream keys and draws each field from
    ``mc.draw_array`` on its own, so it shares only the counter RNG and
    the class tables with the sampler it checks.
    """
    U = np.uint64
    geometry = config.geometry
    seed = config.seed
    classes = tuple(config.relative_rates)
    dist = q if q is not None else config.relative_rates
    cdf = np.array(mc._class_cdf(classes, dist))
    ratios = (
        np.array(mc._likelihood_ratios(classes, config.relative_rates, q))
        if q is not None
        else None
    )
    has_row = np.array([c in mc._HAS_ROW for c in classes])
    has_group = np.array([c in mc._HAS_GROUP for c in classes])
    single_bank = np.array([c in mc._SINGLE_BANK for c in classes])
    nbank_index = classes.index("nbank") if "nbank" in classes else -1
    full_mask = U((1 << geometry.banks) - 1)

    t = np.arange(start_trial, start_trial + trials, dtype=np.uint64)
    shape = (trials, k)
    class_index = np.empty(shape, dtype=np.int16)
    rank = np.empty(shape, dtype=np.int16)
    chip = np.empty(shape, dtype=np.int32)
    bank_mask = np.empty(shape, dtype=np.uint64)
    row = np.empty(shape, dtype=np.int32)
    group = np.empty(shape, dtype=np.int32)
    weight = np.ones(trials, dtype=np.float64)

    def draw(j, field, *lane):
        return mc.draw_array(mc.stream_key(seed, k, j, field, *lane), t)

    for j in range(k):
        words = draw(j, mc.F_CLASS)
        u = (words >> U(11)).astype(np.float64) * 2.0**-53
        cls = np.minimum(
            np.searchsorted(cdf, u, side="right"), len(classes) - 1
        ).astype(np.int16)
        class_index[:, j] = cls
        if ratios is not None:
            weight = weight * ratios[cls]
        rank_j = (draw(j, mc.F_RANK) % U(geometry.ranks)).astype(np.int16)
        chip_pos = (
            draw(j, mc.F_CHIP) % U(geometry.chips_per_rank)
        ).astype(np.int32)
        bank = (draw(j, mc.F_BANK) % U(geometry.banks)).astype(np.int32)
        row_j = (draw(j, mc.F_ROW) % U(geometry.rows)).astype(np.int32)
        group_j = (
            draw(j, mc.F_GROUP) % U(geometry.blocks_per_row)
        ).astype(np.int32)
        rank[:, j] = rank_j
        chip[:, j] = (
            rank_j.astype(np.int32) * geometry.chips_per_rank + chip_pos
        )
        mask_j = np.where(
            single_bank[cls], U(1) << bank.astype(np.uint64), full_mask
        )
        sel = np.nonzero(cls == nbank_index)[0]
        if nbank_index >= 0 and sel.size:
            banks = geometry.banks
            count = (
                U(2) + draw(j, mc.F_NBANK_COUNT)[sel] % U(banks - 1)
            ).astype(np.int64)
            scores = np.stack(
                [draw(j, mc.F_NBANK_SCORE, lane)[sel]
                 for lane in range(banks)],
                axis=1,
            )
            order = np.argsort(scores, axis=1, kind="stable")
            position = np.argsort(order, axis=1, kind="stable")
            chosen = position < count[:, None]
            lanes = np.arange(banks, dtype=np.uint64)
            mask_j[sel] = (chosen.astype(np.uint64) << lanes).sum(
                axis=1, dtype=np.uint64
            )
        bank_mask[:, j] = mask_j
        row[:, j] = np.where(has_row[cls], row_j, np.int32(-1))
        group[:, j] = np.where(has_group[cls], group_j, np.int32(-1))

    multibit = np.array([c != "bit" for c in classes])[class_index]
    return mc.FaultBatch(
        k=k, start_trial=start_trial, classes=classes,
        class_index=class_index, rank=rank, chip=chip, bank_mask=bank_mask,
        row=row, group=group, multibit=multibit, weight=weight,
    )


def reference_per_k(batches) -> dict:
    """``McEstimatorState.per_k`` computed by re-summing ``batches``,
    a ``{(k, batch_index): McBatchStat}`` dict, in sorted key order."""
    grouped = {}
    for key in sorted(batches):
        grouped.setdefault(batches[key].k, []).append(batches[key])
    out = {}
    for k, stats in grouped.items():
        names = sorted({name for s in stats for name in s.sums})
        out[k] = {
            "trials": sum(s.trials for s in stats),
            "batches": len(stats),
            "due_count": sum(s.due_count for s in stats),
            "approximated_ranks": sum(s.approximated_ranks for s in stats),
            "weight_sum": math.fsum(s.weight_sum for s in stats),
            "weight_sumsq": math.fsum(s.weight_sumsq for s in stats),
            "sums": {
                name: math.fsum(s.sums.get(name, 0.0) for s in stats)
                for name in names
            },
            "sumsq": {
                name: math.fsum(s.sumsq.get(name, 0.0) for s in stats)
                for name in names
            },
        }
    return out


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


#: Terms that cancel and round: a fold that lost a low bit shows.
_AWKWARD_TERMS = (1e16, -1e16, 1.0, -1.0, 0.1, 1 / 3, 2.0**-60, -0.0,
                  5e-324, 123456789.125)


@st.composite
def sparse_batch_stats(draw):
    """Batch statistics of any sign, some of whose ``sums`` and
    ``sumsq`` lack names (a missing name counts as 0.0).  Few fault
    counts, so a count often folds many batches."""
    trials = draw(st.integers(1, 500))
    term = st.one_of(
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        st.sampled_from(_AWKWARD_TERMS),
    )
    names = st.sets(st.sampled_from(_STAT_NAMES))
    return McBatchStat(
        k=draw(st.integers(0, 2)),
        batch_index=draw(st.integers(0, 40)),
        trials=trials,
        due_count=draw(st.integers(0, trials)),
        approximated_ranks=draw(st.integers(0, 3)),
        weight_sum=draw(term),
        weight_sumsq=draw(term),
        sums={name: draw(term) for name in sorted(draw(names))},
        sumsq={name: draw(term) for name in sorted(draw(names))},
    )


def _distinct_keys(stats):
    return list({s.key(): s for s in stats}.values())


class TestFoldMatchesResum:
    """The running fold against :func:`reference_per_k`."""

    def _check(self, state):
        assert state.per_k() == reference_per_k(state.batches)
        assert state.total_trials == sum(
            s.trials for s in state.batches.values())
        assert state.ks() == tuple(sorted(
            {s.k for s in state.batches.values()}))

    @given(stats=st.lists(sparse_batch_stats(), max_size=30).map(
               _distinct_keys).flatmap(st.permutations))
    @settings(deadline=None, max_examples=80)
    def test_any_insertion_order(self, stats):
        state = McEstimatorState()
        for count, stat in enumerate(stats):
            state.add(stat)
            if count % 5 == 0:
                self._check(state)
        self._check(state)
        self._check(McEstimatorState(dict(state.batches)))

    @given(stats=st.lists(sparse_batch_stats(), max_size=30),
           data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_after_merge(self, stats, data):
        """Two states that may share batches merge to the fold of their
        union, either way round."""
        unique = _distinct_keys(stats)
        a, b = McEstimatorState(), McEstimatorState()
        for stat in unique:
            for state in data.draw(st.sampled_from([(a,), (b,), (a, b)])):
                state.add(stat)
        for merged in (a.merge(b), b.merge(a)):
            assert len(merged.batches) == len(unique)
            self._check(merged)

    @given(stats=st.lists(sparse_batch_stats(), min_size=1, max_size=20),
           data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_duplicate_and_conflict_leave_folds_unchanged(self, stats, data):
        state = McEstimatorState()
        for stat in _distinct_keys(stats):
            state.add(stat)
        before = copy.deepcopy(state._folds)
        stat = data.draw(st.sampled_from(list(state.batches.values())))
        state.add(stat)
        assert state._folds == before
        conflicting = McBatchStat(**{**vars(stat), "trials": stat.trials + 1})
        with pytest.raises(ValueError, match="conflicting"):
            state.add(conflicting)
        assert state._folds == before
        assert state.batches[stat.key()] is stat
        self._check(state)

    def test_long_campaign_stays_exact(self):
        """3,000 batches of one fault count whose terms cancel and span
        37 decades: the fold still equals the re-sum."""
        rng = np.random.default_rng(7)
        state = McEstimatorState()
        for index in rng.permutation(3_000):
            scale = 10.0 ** int(rng.integers(-20, 17))
            value = float(rng.choice([-1.0, 1.0]) * scale * rng.random())
            state.add(McBatchStat(
                k=3, batch_index=int(index), trials=256, due_count=1,
                approximated_ranks=0, weight_sum=value,
                weight_sumsq=value * value,
                sums={"due": value, "blocks": -value / 3},
                sumsq={"due": value * value},
            ))
            if index % 500 == 0:
                self._check(state)
        self._check(state)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["weight_sum", "sums", "sumsq"])
    def test_non_finite_sum_is_rejected(self, bad, where):
        """A non-finite sum has no exact fold, so it is refused when
        the batch statistic is made, before any state sees it."""
        fields = dict(k=1, batch_index=0, trials=10, due_count=0,
                      approximated_ranks=0, weight_sum=10.0,
                      weight_sumsq=10.0, sums={"due": 0.0},
                      sumsq={"due": 0.0})
        fields[where] = bad if where == "weight_sum" else {"due": bad}
        with pytest.raises(ValueError, match="non-finite"):
            McBatchStat(**fields)


_GEOMETRIES = st.builds(
    lambda ranks, chips_per_rank, **kw: DimmGeometry(
        chips=ranks * chips_per_rank, chips_per_rank=chips_per_rank,
        ranks=ranks, **kw),
    ranks=st.sampled_from([1, 2, 4]),
    chips_per_rank=st.sampled_from([4, 9]),
    banks=st.sampled_from([2, 16, 64]),
    rows=st.sampled_from([3, 16384]),
    cols=st.sampled_from([320, 4096]),
)

#: A rate table with no nbank class.
_NO_NBANK_RATES = {"bit": 0.55, "word": 0.05, "column": 0.1, "row": 0.1,
                   "bank": 0.15, "nrank": 0.05}


@st.composite
def sampler_cases(draw):
    """``(config, k, start_trial, trials, q)`` for ``mc.sample_batch``."""
    rates = draw(st.sampled_from([None, _NO_NBANK_RATES]))
    config = FaultSimConfig(
        geometry=draw(_GEOMETRIES),
        fit_per_device=80,
        seed=draw(st.integers(0, 2**64 - 1)),
        **({} if rates is None else {"relative_rates": dict(rates)}),
    )
    tilt = draw(st.sampled_from([None, 0.5, 0.9]))
    q = (None if tilt is None else
         mc.importance_distribution(config.relative_rates, tilt))
    start = draw(st.one_of(st.integers(0, 2**20),
                           st.integers(2**40, 2**62)))
    return config, draw(st.integers(0, 8)), start, draw(st.integers(0, 300)), q


_BIG_CONFIG = FaultSimConfig(
    geometry=DimmGeometry(chips=16, chips_per_rank=4, ranks=4, banks=64,
                          rows=3, cols=320),
    fit_per_device=80, seed=2**64 - 1, relative_rates=dict(_NO_NBANK_RATES),
)


class TestSamplerMatchesReference:
    @given(case=sampler_cases())
    @example(case=(CONFIG, 0, 0, 5, None))
    @example(case=(CONFIG, 8, 2**62, 300,
                   mc.importance_distribution(CONFIG.relative_rates)))
    @example(case=(_BIG_CONFIG, 8, 2**40 + 3, 300,
                   mc.importance_distribution(_BIG_CONFIG.relative_rates)))
    @settings(deadline=None, max_examples=100)
    def test_every_field_bit_identical(self, case):
        config, k, start, trials, q = case
        batch = mc.sample_batch(config, k, start, trials, q=q)
        reference = reference_sample_batch(config, k, start, trials, q=q)
        assert (batch.k, batch.start_trial, batch.classes) == (
            reference.k, reference.start_trial, reference.classes)
        for name in ("class_index", "rank", "chip", "bank_mask", "row",
                     "group", "multibit", "weight"):
            got, want = getattr(batch, name), getattr(reference, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


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
