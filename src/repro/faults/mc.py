"""Vectorized Monte-Carlo core for the fault simulator.

This module is the batched engine behind :class:`FaultSimulator` and the
1e8-trial campaign runner.  Three design rules make it trustworthy:

**Counter-based RNG.**  Every random draw is a pure function of
``(seed, k-bucket, fault slot, field, global trial index)`` through a
SplitMix64 mix on ``numpy.uint64`` arrays.  Because draws are keyed
rather than sequenced, the stream is identical no matter how trials are
chunked into batches — batch-size invariance and resume-bit-identity
fall out by construction.  A bucket's stream keys are derived once per
``(seed, k, banks)`` and memoised, and each fault field is one
SplitMix64 pass over all of the bucket's slots at once.

**Integer-encoded ECC evaluation.**  Each fault is encoded as
``(class, rank, chip, bank-mask, row, group)`` integers and ECC
correctability is evaluated with array arithmetic (bank-set meets are
``AND`` on uint64 masks, row/group meets use ``-1`` = *all* and ``-2`` =
*empty* sentinels).  A trial reduces to per-rank unique DUE block
counts.  The engine was proven bit-identical to a scalar reference (an
object model of faults, extents and ECC classes) before that reference
was deleted; its behavior is pinned by the replay fixture ``repro
mc-diff`` checks.  :func:`_candidates` is the only ECC evaluator: the
one-trial entry points (:func:`draw_fault`, :func:`due_regions`,
:func:`region_blocks`) serve the live :class:`FaultInjector` and the
layout-level ``monte_carlo_udr`` from it too.

**Streaming sufficient statistics.**  Campaign batches emit exact
per-batch sums (:class:`~repro.faults.streaming.McBatchStat`); the
estimator combines them with ``math.fsum`` so estimates are independent
of batch arrival order.  Importance sampling draws fault classes from a
biased distribution ``q`` and carries the exact likelihood ratio
``prod p/q`` per trial, keeping every estimator unbiased.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.config import FaultSimConfig
from repro.faults.streaming import (
    McBatchStat,
    McEstimatorState,
    mean_and_variance,
    wilson_interval,
)

#: Highest fault count explicitly conditioned on; the Poisson tail
#: above it is folded into the last bucket.
MAX_FAULTS = 8

#: Default memory size UDR estimates refer to (1 TB, as in Figure 11).
DEFAULT_DATA_BYTES = 1 << 40

#: Fault classes worth oversampling: they hit whole rows/banks/ranks and
#: dominate the multi-copy loss tail that UDR campaigns chase.
HEAVY_CLASSES = ("row", "bank", "nbank", "nrank")


def min_faults_for_due(repair: str) -> int:
    """Fewest fault arrivals that can produce a DUE under this ECC.

    Symbol correction over c chips needs c+1 independent chip faults to
    overlap; SECDED and no-ECC can fail with a single (multi-bit) fault.
    """
    if repair == "chipkill":
        return 2
    if repair == "chipkill2":
        return 3
    return 1


def poisson_pmf(k: int, mean: float) -> float:
    return math.exp(-mean) * mean**k / math.factorial(k)


def bucket_pmf(k: int, mean: float, max_faults: int = MAX_FAULTS) -> float:
    """P(N = k), with the Poisson tail folded into the last bucket."""
    if k == max_faults:
        return 1.0 - sum(poisson_pmf(j, mean) for j in range(max_faults))
    return poisson_pmf(k, mean)


# ---------------------------------------------------------------------------
# counter-based RNG (SplitMix64)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED0 = 0x6A09E667F3BCC909   # frac(sqrt(2)) — key-derivation root
_STREAM = 0xD1342543DE82EF95  # odd trial-index stride

_U = np.uint64
_GOLDEN_U = _U(_GOLDEN)
_MIX1_U = _U(_MIX1)
_MIX2_U = _U(_MIX2)
_STREAM_U = _U(_STREAM)

# per-(slot, field) stream identifiers
F_CLASS = 0
F_RANK = 1
F_CHIP = 2
F_BANK = 3
F_ROW = 4
F_GROUP = 5
F_NBANK_COUNT = 6
F_NBANK_SCORE = 7  # keyed per bank lane


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a Python int (stream-key derivation)."""
    z = (value + _GOLDEN) & _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (twin of mix64)."""
    return _mix64_in_place(np.array(values, dtype=np.uint64))


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` of a uint64 array the caller owns, computed
    in place (uint64 arithmetic wraps, so the words are the same)."""
    z += _GOLDEN_U
    z ^= z >> _U(30)
    z *= _MIX1_U
    z ^= z >> _U(27)
    z *= _MIX2_U
    z ^= z >> _U(31)
    return z


def stream_key(*parts: int) -> int:
    """Derive a 64-bit stream key from integer coordinates."""
    h = _SEED0
    for part in parts:
        h = mix64(h ^ ((part & _MASK64) * _GOLDEN & _MASK64))
    return h


def draw_array(key: int, trials: np.ndarray) -> np.ndarray:
    """The ``trials``-th 64-bit values of stream ``key``."""
    return _mix64_in_place(_U(key) ^ (trials * _STREAM_U))


@functools.lru_cache(maxsize=64)
def _bucket_keys(seed: int, k: int, banks: int) -> tuple:
    """The stream keys of one k-fault bucket, read-only uint64 arrays:
    ``fields[f, j]`` for the six per-slot fields ``F_CLASS`` ..
    ``F_GROUP``, ``nbank_count[j]``, and ``nbank_score[j, bank]``."""
    fields = np.array(
        [[stream_key(seed, k, j, f) for j in range(k)]
         for f in range(F_NBANK_COUNT)],
        dtype=np.uint64,
    ).reshape(F_NBANK_COUNT, k)
    nbank_count = np.array(
        [stream_key(seed, k, j, F_NBANK_COUNT) for j in range(k)],
        dtype=np.uint64,
    )
    nbank_score = np.array(
        [[stream_key(seed, k, j, F_NBANK_SCORE, bank) for bank in range(banks)]
         for j in range(k)],
        dtype=np.uint64,
    ).reshape(k, banks)
    for keys in (fields, nbank_count, nbank_score):
        keys.flags.writeable = False
    return fields, nbank_count, nbank_score


def _unit_float_array(raw: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) from the top 53 bits of words the
    caller owns (``raw`` is shifted in place)."""
    raw >>= _U(11)
    unit = raw.astype(np.float64)
    unit *= 2.0**-53
    return unit


# ---------------------------------------------------------------------------
# batched fault sampling
# ---------------------------------------------------------------------------

#: Device fault modes (Hopper), smallest to largest.
FAULT_CLASSES = ("bit", "word", "column", "row", "bank", "nbank", "nrank")

# spatial structure per fault class: which coordinates pin to one value
_HAS_ROW = ("bit", "word", "row")
_HAS_GROUP = ("bit", "word", "column")
_SINGLE_BANK = ("bit", "word", "column", "row", "bank")


def _class_cdf(classes, distribution) -> list:
    """Running-sum CDF over ``classes`` (Python floats)."""
    total = 0.0
    cdf = []
    for name in classes:
        total += distribution[name]
        cdf.append(total)
    return cdf


def _likelihood_ratios(classes, rates, q) -> list:
    """Per-class importance weights p/q (Python floats)."""
    for name in classes:
        if rates[name] > 0.0 and q.get(name, 0.0) <= 0.0:
            raise ValueError(
                f"importance distribution assigns zero mass to {name!r}"
            )
    return [
        (rates[name] / q[name]) if q.get(name, 0.0) > 0.0 else 0.0
        for name in classes
    ]


@dataclass
class FaultBatch:
    """``trials x k`` fault arrays in the integer encoding.

    ``bank_mask`` is a uint64 bitset of affected banks (requires
    ``geometry.banks <= 64``); ``row``/``group`` use ``-1`` for *all*.
    For nRank faults the mask is all banks.
    """

    k: int
    start_trial: int
    classes: tuple
    class_index: np.ndarray  # (n, k) int16 into ``classes``
    rank: np.ndarray         # (n, k) int16
    chip: np.ndarray         # (n, k) int32 (absolute chip id)
    bank_mask: np.ndarray    # (n, k) uint64
    row: np.ndarray          # (n, k) int32, -1 = all rows
    group: np.ndarray        # (n, k) int32, -1 = all groups
    multibit: np.ndarray     # (n, k) bool
    weight: np.ndarray       # (n,) float64 likelihood ratios (1.0 = direct)

    @property
    def trials(self) -> int:
        return self.class_index.shape[0]


def sample_batch(
    config: FaultSimConfig,
    k: int,
    start_trial: int,
    trials: int,
    q: Optional[dict] = None,
) -> FaultBatch:
    """Sample ``trials`` conditioned k-fault trials as arrays.

    Trial identity is the *global* index ``start_trial + i``, so any
    chunking of the same index range yields identical faults.  Each
    field is drawn for all slots at once: one SplitMix64 pass over a
    ``(trials, k)`` array whose column j is slot j's stream, which is
    the batch's own layout, so nothing is transposed.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    geometry = config.geometry
    if geometry.banks > 64:
        raise ValueError("bank bitsets support at most 64 banks")
    classes = tuple(config.relative_rates)
    dist = q if q is not None else config.relative_rates
    cdf = np.array(_class_cdf(classes, dist))

    has_row = np.array([c in _HAS_ROW for c in classes])
    has_group = np.array([c in _HAS_GROUP for c in classes])
    single_bank = np.array([c in _SINGLE_BANK for c in classes])
    multibit_by_class = np.array([c != "bit" for c in classes])
    nbank_index = classes.index("nbank") if "nbank" in classes else -1
    # nRank (whole-chip) faults need no special casing here: the table
    # defaults — full bank mask, row/group = all — already encode them.
    full_mask = _U((1 << geometry.banks) - 1)

    keys, nbank_count, nbank_score = _bucket_keys(
        config.seed, k, geometry.banks
    )
    stride = (
        np.arange(start_trial, start_trial + trials, dtype=np.uint64)
        * _STREAM_U
    )[:, None]

    def draw(field: int) -> np.ndarray:
        return _mix64_in_place(stride ^ keys[field])

    def below(field: int, bound: int) -> np.ndarray:
        """Field words reduced to ``[0, bound)``, in place."""
        words = draw(field)
        words %= _U(bound)
        return words

    class_index = np.searchsorted(
        cdf, _unit_float_array(draw(F_CLASS)), side="right"
    )
    np.minimum(class_index, len(classes) - 1, out=class_index)
    class_index = class_index.astype(np.int16)
    weight = np.ones(trials, dtype=np.float64)
    if q is not None:
        ratios = np.array(
            _likelihood_ratios(classes, config.relative_rates, q)
        )
        # Slot by slot, left to right: the same float rounding as a
        # trial-at-a-time product.
        for j in range(k):
            weight = weight * ratios[class_index[:, j]]

    rank = below(F_RANK, geometry.ranks).astype(np.int16)
    chip = (
        rank.astype(np.int32) * geometry.chips_per_rank
        + below(F_CHIP, geometry.chips_per_rank).astype(np.int32)
    )
    bank_mask = np.where(
        single_bank[class_index],
        _U(1) << below(F_BANK, geometry.banks),
        full_mask,
    )
    if nbank_index >= 0:
        trial, slot = np.nonzero(class_index == nbank_index)
        if trial.size:
            bank_mask[trial, slot] = _nbank_masks_array(
                nbank_count[slot], nbank_score[slot], stride[trial, 0],
                geometry.banks,
            )
    row = np.where(
        has_row[class_index],
        below(F_ROW, geometry.rows).astype(np.int32),
        np.int32(-1),
    )
    group = np.where(
        has_group[class_index],
        below(F_GROUP, geometry.blocks_per_row).astype(np.int32),
        np.int32(-1),
    )

    return FaultBatch(
        k=k,
        start_trial=start_trial,
        classes=classes,
        class_index=class_index,
        rank=rank,
        chip=chip,
        bank_mask=bank_mask,
        row=row,
        group=group,
        multibit=multibit_by_class[class_index],
        weight=weight,
    )


def _nbank_masks_array(count_keys, score_keys, stride, banks) -> np.ndarray:
    """Bitsets of the nbank subsets of selected (trial, slot) pairs.

    Pair i draws from its slot's ``count_keys[i]`` stream and per-lane
    ``score_keys[i]`` streams (a fresh array, mixed in place) at the
    trial whose index times the stream stride is ``stride[i]``.  It
    keeps the ``count`` lanes of lowest score, ties broken by lane: the
    lane ``order[i, r]`` is kept when ``r < count[i]``.
    """
    count = (
        _U(2) + _mix64_in_place(count_keys ^ stride) % _U(banks - 1)
    ).astype(np.int64)
    score_keys ^= stride[:, None]
    order = np.argsort(
        _mix64_in_place(score_keys), axis=1, kind="stable"
    ).view(np.uint64)
    bits = np.left_shift(_U(1), order, out=order)
    bits *= np.arange(banks) < count[:, None]
    return bits.sum(axis=1, dtype=np.uint64)


# ---------------------------------------------------------------------------
# vectorized ECC evaluation
# ---------------------------------------------------------------------------

#: Row/group sentinel values: -1 = all, -2 = empty meet.
_ALL = np.int32(-1)
_EMPTY = np.int32(-2)

#: Above this many DUE regions in one rank, :func:`evaluate_batch`
#: substitutes the additive upper bound for the exact union.  The exact
#: union is linear in the regions now, so the cutoff saves no time; it
#: stays only so that outputs pinned with the bound (the replay fixture,
#: the benchmark digests) remain bit-identical.
UNION_EXACT_LIMIT = 14

#: Trials per :func:`_union_regions` call: bounds the memory of the
#: bank-expanded regions.
_UNION_CHUNK_TRIALS = 512

_PC_M1 = _U(0x5555555555555555)
_PC_M2 = _U(0x3333333333333333)
_PC_M4 = _U(0x0F0F0F0F0F0F0F0F)
_PC_H01 = _U(0x0101010101010101)


def popcount64(values: np.ndarray) -> np.ndarray:
    """SWAR popcount on a uint64 array."""
    x = values - ((values >> _U(1)) & _PC_M1)
    x = (x & _PC_M2) + ((x >> _U(2)) & _PC_M2)
    x = (x + (x >> _U(4))) & _PC_M4
    return (x * _PC_H01) >> _U(56)


def _meet_coord(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Meet of pinned coordinates under the -1=all / -2=empty sentinels."""
    return np.where(a == _ALL, b, np.where(b == _ALL, a, np.where(a == b, a, _EMPTY)))


def _candidates(batch: FaultBatch, repair: str):
    """Enumerate candidate DUE regions as (n, C) arrays.

    This is the one ECC evaluator.  Each candidate is one single fault
    or one combination of fault slots: Chipkill-c needs c+1 faults of
    distinct chips in one rank to overlap; SECDED fails on any
    multi-bit fault alone and on two single-bit faults of distinct
    chips in one cell; no ECC fails on every fault.  It reproduced the
    deleted object ECC model's regions on every trial it was checked
    on, and the replay fixture pins it.
    """
    k = batch.k
    n = batch.trials
    masks, rows, groups, ranks_, valids = [], [], [], [], []

    def add_single(j, valid):
        masks.append(batch.bank_mask[:, j])
        rows.append(batch.row[:, j])
        groups.append(batch.group[:, j])
        ranks_.append(batch.rank[:, j])
        valids.append(valid)

    def add_combo(combo):
        first = combo[0]
        mask = batch.bank_mask[:, first].copy()
        row = batch.row[:, first]
        group = batch.group[:, first]
        same_rank = np.ones(n, dtype=bool)
        for other in combo[1:]:
            mask &= batch.bank_mask[:, other]
            row = _meet_coord(row, batch.row[:, other])
            group = _meet_coord(group, batch.group[:, other])
            same_rank &= batch.rank[:, first] == batch.rank[:, other]
        distinct = np.ones(n, dtype=bool)
        for a, b in combinations(combo, 2):
            distinct &= batch.chip[:, a] != batch.chip[:, b]
        valid = (
            same_rank
            & distinct
            & (mask != _U(0))
            & (row != _EMPTY)
            & (group != _EMPTY)
        )
        masks.append(mask)
        rows.append(row)
        groups.append(group)
        ranks_.append(batch.rank[:, first])
        valids.append(valid)

    if repair in ("chipkill", "chipkill2"):
        needed = 2 if repair == "chipkill" else 3
        for combo in combinations(range(k), needed):
            add_combo(combo)
    elif repair == "secded":
        for j in range(k):
            add_single(j, batch.multibit[:, j].copy())
        for pair in combinations(range(k), 2):
            i, j = pair
            mask = batch.bank_mask[:, i] & batch.bank_mask[:, j]
            row = _meet_coord(batch.row[:, i], batch.row[:, j])
            group = _meet_coord(batch.group[:, i], batch.group[:, j])
            valid = (
                ~batch.multibit[:, i]
                & ~batch.multibit[:, j]
                & (batch.rank[:, i] == batch.rank[:, j])
                & (batch.chip[:, i] != batch.chip[:, j])
                & (mask != _U(0))
                & (row != _EMPTY)
                & (group != _EMPTY)
            )
            masks.append(mask)
            rows.append(row)
            groups.append(group)
            ranks_.append(batch.rank[:, i])
            valids.append(valid)
    elif repair == "none":
        for j in range(k):
            add_single(j, np.ones(n, dtype=bool))
    else:
        raise ValueError(f"unknown ECC scheme {repair!r}")

    if not masks:
        return None
    return (
        np.stack(masks, axis=1),
        np.stack(rows, axis=1),
        np.stack(groups, axis=1),
        np.stack(ranks_, axis=1),
        np.stack(valids, axis=1),
    )


def _region_blocks(mask, row, group, geometry) -> np.ndarray:
    """Blocks covered by each of the int-encoded regions in arrays."""
    blocks = popcount64(mask).astype(np.int64)
    blocks *= np.where(row == _ALL, geometry.rows, 1)
    blocks *= np.where(group == _ALL, geometry.blocks_per_row, 1)
    return blocks


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a fresh int64 array, sorted in place.

    Same result as ``np.unique``, whose first call imports ``numpy.ma``
    (1.6 MiB of resident memory in every campaign process).
    """
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _contains(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the sorted distinct array ``keys``.

    Same result as ``np.isin``, whose sort-based merge raised a
    campaign process's peak RSS by 1 MiB.
    """
    if not keys.size:
        return np.zeros(values.shape, dtype=bool)
    at = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return keys[at] == values


def _union_regions(mask, row, group, selected, geometry) -> np.ndarray:
    """Exact union block counts of many trials' regions in one pass.

    ``mask``, ``row`` and ``group`` are ``(m, C)`` int-encoded regions
    of one rank; row i of the ``(m, C)`` bool ``selected`` picks trial
    i's regions.  Returns the ``(m,)`` int64 count of distinct blocks
    each trial's selected regions cover.

    Within one bank the union has a closed form.  A bank that a
    whole-bank region hits counts whole.  Otherwise, with C the bank's
    whole columns (groups) and W its whole rows, it counts
    ``|C|*rows + |W|*groups - |C|*|W|`` plus the distinct points that
    lie outside both C and W.  The other regions are expanded only to
    the banks not already whole, and every set is a sorted array of
    distinct integer keys that lead with the trial, so trials never
    mix.
    """
    banks, rows, groups = geometry.banks, geometry.rows, geometry.blocks_per_row
    trials = selected.shape[0]
    trial, slot = np.nonzero(selected)
    mask, row, group = mask[trial, slot], row[trial, slot], group[trial, slot]
    whole = (row == _ALL) & (group == _ALL)
    whole_banks = np.zeros(trials, dtype=np.uint64)
    np.bitwise_or.at(whole_banks, trial[whole], mask[whole])

    part = ~whole
    trial, row, group = trial[part], row[part], group[part]
    mask = mask[part] & ~whole_banks[trial]
    # Little-endian bytes, low bit first: column b of the bits is bank b.
    bits = np.unpackbits(mask.astype("<u8").view(np.uint8), bitorder="little")
    entry, bank = np.nonzero(bits.reshape(-1, 64)[:, :banks])
    cell = trial[entry] * banks + bank  # one (trial, bank) pair
    row = row[entry].astype(np.int64)
    group = group[entry].astype(np.int64)
    all_rows = row == _ALL
    all_groups = group == _ALL

    columns = _distinct(cell[all_rows] * groups + group[all_rows])
    lines = _distinct(cell[all_groups] * rows + row[all_groups])
    point = ~all_rows & ~all_groups
    cell, row, group = cell[point], row[point], group[point]
    outside = ~(
        _contains(columns, cell * groups + group)
        | _contains(lines, cell * rows + row)
    )
    points = _distinct(
        (cell[outside] * rows + row[outside]) * groups + group[outside]
    )

    size = trials * banks
    n_columns = np.bincount(columns // groups, minlength=size)
    n_lines = np.bincount(lines // rows, minlength=size)
    n_points = np.bincount(points // (rows * groups), minlength=size)
    blocks = (
        n_columns * rows + n_lines * groups - n_columns * n_lines + n_points
    )
    return blocks.reshape(trials, banks).sum(axis=1) + popcount64(
        whole_banks
    ).astype(np.int64) * (rows * groups)


def evaluate_batch(
    batch: FaultBatch,
    config: FaultSimConfig,
    on_approximation=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial unique-DUE-block counts for a sampled batch.

    Returns ``(u_total, per_rank)`` int64 arrays of shapes ``(n,)`` and
    ``(n, ranks)``.  Each rank is one numpy pass over the batch: a lone
    region counts its own blocks, and the trials with several regions
    go to :func:`_union_regions`, at most :data:`_UNION_CHUNK_TRIALS`
    per call.  Trials whose per-rank region count exceeds
    :data:`UNION_EXACT_LIMIT` keep the additive upper bound, only so
    that pinned outputs stay bit-identical: each event is reported
    through ``on_approximation(region_count)`` and summarized in a
    single warning per affected rank instead of one warning per trial.
    """
    geometry = config.geometry
    n = batch.trials
    per_rank = np.zeros((n, geometry.ranks), dtype=np.int64)
    cand = _candidates(batch, config.repair)
    if cand is None:
        return per_rank.sum(axis=1), per_rank
    cand_mask, cand_row, cand_group, cand_rank, cand_valid = cand

    for rank in range(geometry.ranks):
        selected = cand_valid & (cand_rank == rank)
        count = selected.sum(axis=1)
        exact = (count >= 2) & (count <= UNION_EXACT_LIMIT)
        # A lone region, or past the limit the additive bound: the sum
        # of the regions' own blocks.
        t, j = np.nonzero(selected & ~exact[:, None])
        np.add.at(
            per_rank[:, rank],
            t,
            _region_blocks(cand_mask[t, j], cand_row[t, j], cand_group[t, j],
                           geometry),
        )
        multi = np.flatnonzero(exact)
        for start in range(0, multi.size, _UNION_CHUNK_TRIALS):
            t = multi[start:start + _UNION_CHUNK_TRIALS]
            per_rank[t, rank] = _union_regions(
                cand_mask[t], cand_row[t], cand_group[t], selected[t],
                geometry,
            )

        approximated = np.flatnonzero(count > UNION_EXACT_LIMIT)
        if on_approximation is not None:
            for t in approximated:
                on_approximation(int(count[t]))
        if approximated.size:
            warnings.warn(
                f"evaluate_batch: rank {rank} exceeded "
                f"{UNION_EXACT_LIMIT} overlapping DUE regions in "
                f"{approximated.size} trial(s); substituted the additive "
                "upper bound for inclusion-exclusion",
                RuntimeWarning,
                stacklevel=2,
            )

    return per_rank.sum(axis=1), per_rank


# ---------------------------------------------------------------------------
# one-trial entry points (live injection, layout-level cross-check)
# ---------------------------------------------------------------------------

def draw_fault(fault_class: str, geometry, rng) -> tuple:
    """One fault of ``fault_class`` drawn from a numpy ``Generator``.

    Returns ``(class, rank, chip, bank_mask, row, group)`` in the
    integer encoding (``row``/``group`` -1 = all).  Every class makes
    the same draws in the same order — rank, chip, bank, row, group,
    then the nbank subset — so a seeded stream replays exactly.  An
    nrank fault is a whole chip: a chip serves one rank, and Chipkill
    corrects it alone until it overlaps another chip's fault.
    """
    if fault_class not in FAULT_CLASSES:
        raise ValueError(f"unknown fault class {fault_class!r}")
    rank = int(rng.integers(0, geometry.ranks))
    chip = int(rng.choice(geometry.chip_ids_of_rank(rank)))
    bank = int(rng.integers(0, geometry.banks))
    row = int(rng.integers(0, geometry.rows))
    group = int(rng.integers(0, geometry.blocks_per_row))
    if fault_class == "nbank":
        count = int(rng.integers(2, geometry.banks + 1))
        banks = rng.choice(geometry.banks, size=count, replace=False)
        mask = sum(1 << int(b) for b in banks)
    elif fault_class in _SINGLE_BANK:
        mask = 1 << bank
    else:
        mask = (1 << geometry.banks) - 1
    row = row if fault_class in _HAS_ROW else -1
    group = group if fault_class in _HAS_GROUP else -1
    return (fault_class, rank, chip, mask, row, group)


def _slot_groups(k: int, repair: str) -> list:
    """The groups of fault slots of a k-fault trial that can fail
    together: single faults under SECDED and no ECC, pairs under SECDED
    and Chipkill, triples under double-Chipkill."""
    singles = [(j,) for j in range(k)]
    if repair == "none":
        return singles
    if repair == "secded":
        return singles + list(combinations(range(k), 2))
    if repair in ("chipkill", "chipkill2"):
        return list(combinations(range(k), 2 if repair == "chipkill" else 3))
    raise ValueError(f"unknown ECC scheme {repair!r}")


def _slot_batch(faults, slot_groups) -> FaultBatch:
    """A :class:`FaultBatch` whose row i holds the faults of
    ``slot_groups[i]`` (equal-length tuples of indices into ``faults``)."""
    classes, rank, chip, mask, row, group = zip(*faults)
    index = np.array(slot_groups, dtype=np.intp)
    class_index = [FAULT_CLASSES.index(c) for c in classes]
    return FaultBatch(
        k=index.shape[1],
        start_trial=0,
        classes=FAULT_CLASSES,
        class_index=np.array(class_index, dtype=np.int16)[index],
        rank=np.array(rank, dtype=np.int16)[index],
        chip=np.array(chip, dtype=np.int32)[index],
        bank_mask=np.array(mask, dtype=np.uint64)[index],
        row=np.array(row, dtype=np.int32)[index],
        group=np.array(group, dtype=np.int32)[index],
        multibit=np.array([c != "bit" for c in classes])[index],
        weight=np.ones(len(index)),
    )


def due_regions(faults, repair: str, geometry) -> list:
    """Uncorrectable ``(rank, bank_mask, row, group)`` regions of one
    trial's :func:`draw_fault` faults, as :func:`_candidates` decides.

    Every group of fault slots that can fail together is one row of a
    :class:`FaultBatch` whose ``k`` is the group's size, so one
    vectorized :func:`_candidates` pass decides them all: a row's own
    candidate is the last column it emits.  (A one-row batch of the
    whole trial would make ``_candidates`` loop in Python over every
    slot combination, and live injection re-evaluates the trial at
    every event as faults accumulate.)

    Order: under ``none`` by arrival; otherwise by rank, then SECDED's
    single multi-bit faults by arrival, then multi-chip overlaps by
    their chips ascending (for the same chips, by arrival).  Live
    injection enumerates regions in this order under a block budget, so
    it decides which blocks a trial poisons.
    """
    if geometry.banks > 64:
        raise ValueError("bank bitsets support at most 64 banks")
    slot_groups = _slot_groups(len(faults), repair)
    keyed = []
    for size in {len(slots) for slots in slot_groups}:
        sized = [slots for slots in slot_groups if len(slots) == size]
        candidates = _candidates(_slot_batch(faults, sized), repair)
        masks, rows, groups, ranks, valid = (c[:, -1] for c in candidates)
        for i in np.flatnonzero(valid):
            slots, rank = sized[i], int(ranks[i])
            if repair == "none":
                key = slots
            elif size == 1:
                key = (rank, 0, (), slots)
            else:
                by_chip = tuple(sorted(slots, key=lambda j: faults[j][2]))
                key = (rank, 1, tuple(faults[j][2] for j in by_chip), by_chip)
            region = (rank, int(masks[i]), int(rows[i]), int(groups[i]))
            keyed.append((key, region))
    keyed.sort(key=lambda item: item[0])
    return [region for _, region in keyed]


def region_blocks(region, geometry, limit: Optional[int] = None):
    """Absolute block indices of one ``(rank, bank_mask, row, group)``
    region, ascending (bank, then row, then group), at most ``limit``."""
    rank, mask, row, group = region
    banks = [b for b in range(geometry.banks) if mask >> b & 1]
    rows = range(geometry.rows) if row == -1 else (row,)
    groups = range(geometry.blocks_per_row) if group == -1 else (group,)
    first = rank * geometry.blocks_per_rank
    blocks = (
        first + (bank * geometry.rows + r) * geometry.blocks_per_row + g
        for bank in banks
        for r in rows
        for g in groups
    )
    return islice(blocks, limit)


# ---------------------------------------------------------------------------
# per-trial reductions
# ---------------------------------------------------------------------------

def trial_moment_arrays(u_total, per_rank, geometry, max_depth: int = 5):
    """Per-trial DUE fractions and clone-survival moment factors.

    Returns ``(fraction, powers, crosses)`` where ``powers[d]`` is the
    per-trial ``fraction**d`` and ``crosses[d]`` the round-robin
    cross-rank product — computed with one multiply per depth in a
    fixed order, so results are bitwise reproducible.
    """
    fraction = u_total / geometry.total_blocks
    rank_fraction = per_rank / geometry.blocks_per_rank
    powers = {}
    crosses = {}
    power = np.ones(len(u_total))
    cross = np.ones(len(u_total))
    for d in range(1, max_depth + 1):
        power = power * fraction
        powers[d] = power
        cross = cross * rank_fraction[:, (d - 1) % geometry.ranks]
        crosses[d] = cross
    return fraction, powers, crosses


def aggregate_outputs(u_total, per_rank, geometry, max_depth: int = 5):
    """Reduce per-trial counts to the sums ``FaultSimulator.run`` needs.

    Returns ``(blocks_sum, due_count, moment_sums, cross_sums)``; this
    single reduction is the only float path of ``FaultSimulator.run``.
    """
    _, powers, crosses = trial_moment_arrays(
        u_total, per_rank, geometry, max_depth
    )
    moment_sums = {d: float(powers[d].sum()) for d in powers}
    cross_sums = {d: float(crosses[d].sum()) for d in crosses}
    return (
        int(u_total.sum()),
        int((u_total > 0).sum()),
        moment_sums,
        cross_sums,
    )


#: Internal chunk size: bounds the memory of one vectorized evaluation.
_CHUNK_TRIALS = 16384


def batch_outputs(
    config: FaultSimConfig,
    k: int,
    start_trial: int,
    trials: int,
    q: Optional[dict] = None,
    on_approximation=None,
):
    """Run ``trials`` conditioned k-fault trials.

    Returns ``(u_total, per_rank, weights)``; identical for any chunking
    because trial identity is the global index.
    """
    geometry = config.geometry
    u_parts, rank_parts, weight_parts = [], [], []
    for offset in range(0, trials, _CHUNK_TRIALS):
        count = min(_CHUNK_TRIALS, trials - offset)
        batch = sample_batch(config, k, start_trial + offset, count, q=q)
        u_chunk, rank_chunk = evaluate_batch(
            batch, config, on_approximation=on_approximation
        )
        u_parts.append(u_chunk)
        rank_parts.append(rank_chunk)
        weight_parts.append(batch.weight)
    if not u_parts:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros((0, geometry.ranks), dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
    return (
        np.concatenate(u_parts),
        np.concatenate(rank_parts),
        np.concatenate(weight_parts),
    )


# ---------------------------------------------------------------------------
# importance sampling and scheme loss coefficients
# ---------------------------------------------------------------------------

def importance_distribution(rates: dict, tilt: float = 0.5) -> dict:
    """Mix the Hopper rates with a uniform boost over heavy classes.

    ``q = (1 - tilt) * p + tilt * uniform(heavy)`` keeps every class
    with ``p > 0`` reachable (so likelihood ratios stay finite) while
    oversampling the row/bank/rank modes that drive upper-tree-node
    loss.  ``tilt = 0`` degenerates to direct sampling.
    """
    if not 0.0 <= tilt < 1.0:
        raise ValueError("tilt must be in [0, 1)")
    heavy = [c for c in rates if c in HEAVY_CLASSES and rates[c] > 0.0]
    if tilt == 0.0 or not heavy:
        return dict(rates)
    boost = tilt / len(heavy)
    return {
        name: (1.0 - tilt) * p + (boost if name in heavy else 0.0)
        for name, p in rates.items()
    }


def scheme_loss_coefficients(scheme: str, data_bytes: int) -> tuple:
    """Per-depth byte coefficients of the UDR formula for one scheme.

    ``compute_udr`` is linear in the multi-copy loss probabilities:
    ``unverifiable = sum_d coef[d] * p_multi[d]`` with ``coef[d]`` the
    total coverage bytes of all levels cloned to depth ``d``.  Feeding
    the per-trial cross-rank moments through these coefficients gives an
    *empirical* per-scheme UDR with a confidence interval.
    """
    from repro.analysis.expected_loss import level_inventory
    from repro.analysis.udr import scheme_depths

    depths = scheme_depths(scheme, data_bytes)
    coefficients: Dict[int, int] = {}
    for info in level_inventory(data_bytes):
        depth = depths.get(info.level, 1)
        coefficients[depth] = (
            coefficients.get(depth, 0) + info.nodes * info.coverage_bytes
        )
    return tuple(sorted(coefficients.items()))


# ---------------------------------------------------------------------------
# checkpointable campaign batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McBatchSpec:
    """One content-addressed unit of campaign work.

    The spec fully determines its :class:`McBatchStat` (counter RNG +
    deterministic reductions), so a result store can serve it
    bit-identically on resume.
    """

    config: FaultSimConfig
    k: int
    batch_index: int
    start_trial: int
    trials: int
    importance: Optional[tuple]  # ((class, q), ...) or None
    scheme_coefs: tuple          # ((name, ((depth, coef), ...)), ...)
    stats_depth: int

    @property
    def label(self) -> str:
        return f"mc-k{self.k}-b{self.batch_index:04d}"


def run_mc_batch(spec: McBatchSpec) -> McBatchStat:
    """Execute one batch and reduce it to sufficient statistics."""
    q = dict(spec.importance) if spec.importance is not None else None
    approximations = 0

    def note(region_count: int) -> None:
        nonlocal approximations
        approximations += 1

    u_total, per_rank, weight = batch_outputs(
        spec.config,
        spec.k,
        spec.start_trial,
        spec.trials,
        q=q,
        on_approximation=note,
    )
    _, powers, crosses = trial_moment_arrays(
        u_total, per_rank, spec.config.geometry, spec.stats_depth
    )
    due = (u_total > 0).astype(np.float64)

    values = {"due": due, "blocks": u_total.astype(np.float64)}
    for d in powers:
        values[f"moment_{d}"] = powers[d]
        values[f"cross_{d}"] = crosses[d]
    for name, coefs in spec.scheme_coefs:
        loss = np.zeros(len(u_total))
        for depth, coef in coefs:
            loss = loss + coef * crosses[depth]
        values[f"scheme:{name}"] = loss

    sums = {}
    sumsq = {}
    for name, value in values.items():
        weighted = weight * value
        sums[name] = float(weighted.sum())
        sumsq[name] = float((weighted * weighted).sum())
    return McBatchStat(
        k=spec.k,
        batch_index=spec.batch_index,
        trials=spec.trials,
        due_count=int((u_total > 0).sum()),
        approximated_ranks=approximations,
        weight_sum=float(weight.sum()),
        weight_sumsq=float((weight * weight).sum()),
        sums=sums,
        sumsq=sumsq,
    )


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

UDR_MC_SCHEMA = "udr_mc/v1"


@dataclass
class McCampaignResult:
    """Streaming-estimator outcome of one (possibly partial) campaign."""

    config: FaultSimConfig
    data_bytes: int
    z: float
    total_trials: int
    waves: int
    batch_trials: int
    interrupted: bool
    converged: bool
    target_ci: Optional[float]
    p_block_due: float
    p_block_due_half_width: float
    due_probability: float
    due_probability_half_width: float
    expected_due_blocks: float
    p_multi_due: dict = field(default_factory=dict)
    p_multi_due_half_width: dict = field(default_factory=dict)
    p_multi_due_cross: dict = field(default_factory=dict)
    p_multi_due_cross_half_width: dict = field(default_factory=dict)
    by_fault_count: dict = field(default_factory=dict)
    schemes: dict = field(default_factory=dict)
    trajectory: list = field(default_factory=list)
    approximated_ranks: int = 0
    importance: Optional[dict] = None
    state: McEstimatorState = field(default_factory=McEstimatorState)
    #: ``runtime.*`` telemetry snapshot accumulated across every wave's
    #: sweep engine (store hits/misses, lease claims/reclaims, retries).
    runtime: dict = field(default_factory=dict)


def _finalize(state, config, data_bytes, scheme_coefs, z):
    """Point estimates + CI half-widths from accumulated batch stats.

    Pure function of the batch *set* (sorted keys + fsum inside
    ``per_k``), so resumed and uninterrupted campaigns agree bitwise.
    """
    mean = config.expected_faults_per_dimm()
    total_blocks = config.geometry.total_blocks
    per_k = state.per_k()
    by_fault_count = {}
    blocks_terms, blocks_var_terms = [], []
    due_terms, due_var_terms = [], []
    moment_terms: Dict[int, list] = {}
    moment_var_terms: Dict[int, list] = {}
    cross_terms: Dict[int, list] = {}
    cross_var_terms: Dict[int, list] = {}
    scheme_terms = {name: ([], []) for name, _ in scheme_coefs}
    approximated_ranks = 0

    for k in sorted(per_k):
        agg = per_k[k]
        pmf = bucket_pmf(k, mean)
        n = agg["trials"]
        approximated_ranks += agg["approximated_ranks"]
        mean_blocks, var_blocks = mean_and_variance(
            agg["sums"]["blocks"], agg["sumsq"]["blocks"], n
        )
        mean_due, var_due = mean_and_variance(
            agg["sums"]["due"], agg["sumsq"]["due"], n
        )
        wilson_low, wilson_high = wilson_interval(agg["due_count"], n, z=z)
        by_fault_count[k] = {
            "pmf": pmf,
            "trials": n,
            "batches": agg["batches"],
            "due_count": agg["due_count"],
            "due_fraction": mean_due,
            "wilson_low": wilson_low,
            "wilson_high": wilson_high,
            "mean_due_blocks": mean_blocks,
            "mean_due_blocks_half_width": (
                z * math.sqrt(var_blocks / n) if n > 1 else 0.0
            ),
            "approximated_ranks": agg["approximated_ranks"],
        }
        blocks_terms.append(pmf * mean_blocks)
        blocks_var_terms.append(pmf * pmf * var_blocks / n if n else 0.0)
        due_terms.append(pmf * mean_due)
        due_var_terms.append(pmf * pmf * var_due / n if n else 0.0)
        for name, total in agg["sums"].items():
            if name.startswith("moment_"):
                d = int(name.split("_", 1)[1])
                m, v = mean_and_variance(total, agg["sumsq"][name], n)
                moment_terms.setdefault(d, []).append(pmf * m)
                moment_var_terms.setdefault(d, []).append(
                    pmf * pmf * v / n if n else 0.0
                )
            elif name.startswith("cross_"):
                d = int(name.split("_", 1)[1])
                m, v = mean_and_variance(total, agg["sumsq"][name], n)
                cross_terms.setdefault(d, []).append(pmf * m)
                cross_var_terms.setdefault(d, []).append(
                    pmf * pmf * v / n if n else 0.0
                )
        for scheme, _ in scheme_coefs:
            mean_loss, var_loss = mean_and_variance(
                agg["sums"][f"scheme:{scheme}"],
                agg["sumsq"][f"scheme:{scheme}"],
                n,
            )
            scheme_terms[scheme][0].append(pmf * mean_loss)
            scheme_terms[scheme][1].append(
                pmf * pmf * var_loss / n if n else 0.0
            )

    expected_due_blocks = math.fsum(blocks_terms)
    schemes = {}
    for scheme, (means, variances) in scheme_terms.items():
        unverifiable = math.fsum(means)
        schemes[scheme] = {
            "udr": unverifiable / data_bytes,
            "half_width": z * math.sqrt(math.fsum(variances)) / data_bytes,
            "trials": state.total_trials,
        }
    return {
        "by_fault_count": by_fault_count,
        "p_block_due": expected_due_blocks / total_blocks,
        "p_block_due_half_width": (
            z * math.sqrt(math.fsum(blocks_var_terms)) / total_blocks
        ),
        "due_probability": math.fsum(due_terms),
        "due_probability_half_width": z * math.sqrt(math.fsum(due_var_terms)),
        "expected_due_blocks": expected_due_blocks,
        "p_multi_due": {
            d: math.fsum(terms) for d, terms in sorted(moment_terms.items())
        },
        "p_multi_due_half_width": {
            d: z * math.sqrt(math.fsum(terms))
            for d, terms in sorted(moment_var_terms.items())
        },
        "p_multi_due_cross": {
            d: math.fsum(terms) for d, terms in sorted(cross_terms.items())
        },
        "p_multi_due_cross_half_width": {
            d: z * math.sqrt(math.fsum(terms))
            for d, terms in sorted(cross_var_terms.items())
        },
        "schemes": schemes,
        "approximated_ranks": approximated_ranks,
    }


def run_mc_campaign(
    config: FaultSimConfig,
    *,
    trials: Optional[int] = None,
    batch_trials: int = 4096,
    target_ci: Optional[float] = None,
    max_waves: Optional[int] = None,
    importance: Optional[dict] = None,
    schemes=None,
    data_bytes: int = DEFAULT_DATA_BYTES,
    jobs: int = 1,
    checkpoint=None,
    resume: bool = False,
    max_failures: Optional[int] = None,
    store=None,
    queue=None,
    lease_ttl: Optional[float] = None,
    registry=None,
    progress=None,
    z: float = 1.96,
) -> McCampaignResult:
    """Streaming conditional-MC campaign with checkpointed batches.

    Work proceeds in *waves*: one ``batch_trials``-trial batch per fault
    count ``k`` per wave, fanned through the
    :class:`~repro.sim.sweep.SweepEngine` (one checkpoint manifest per
    wave under ``checkpoint/wave-NNNN``, over the shared ``store`` when
    one is armed and else a store in that directory; SIGTERM drain
    salvages completed batches).  After each wave the streaming
    estimate is refreshed and a trajectory point recorded; the campaign
    stops when the ``trials`` budget is spent, the ``p_block_due`` CI
    half-width reaches ``target_ci``, or ``max_waves`` waves have run.

    ``importance`` is a class->probability sampling distribution (see
    :func:`importance_distribution`); estimates stay unbiased via exact
    per-trial likelihood ratios.

    ``store``/``queue`` arm the fleet substrate: batches already in the
    shared content-addressed ``store`` are served instead of recomputed,
    and with ``queue`` each wave's batch grid is published as a lease
    campaign under ``<queue>/wave-NNNN`` so ``repro fleet worker
    --follow`` processes (on any host sharing the directory) drain it
    concurrently.  Because every batch is a pure function of its spec
    and waves are decided from the accumulated batch *set*, a
    fleet-drained campaign converges to results bit-identical to a
    single-host serial run.  One shared ``registry`` accumulates the
    ``runtime.*`` instruments across waves into the report's ``runtime``
    block.
    """
    from pathlib import Path

    from repro.sim.sweep import SweepEngine
    from repro.telemetry import MetricRegistry

    if batch_trials < 1:
        raise ValueError("batch_trials must be >= 1")
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint directory")
    if registry is None:
        registry = MetricRegistry()
    if schemes is None:
        from repro.schemes import scheme_names

        schemes = scheme_names()
    scheme_coefs = tuple(
        (name, scheme_loss_coefficients(name, data_bytes))
        for name in schemes
    )
    stats_depth = max(
        [5]
        + [depth for _, coefs in scheme_coefs for depth, _ in coefs]
    )
    importance_spec = (
        tuple((name, importance[name]) for name in config.relative_rates)
        if importance is not None
        else None
    )
    mean = config.expected_faults_per_dimm()
    ks = [
        k
        for k in range(min_faults_for_due(config.repair), MAX_FAULTS + 1)
        if bucket_pmf(k, mean) > 0
    ]
    trials_per_wave = len(ks) * batch_trials
    wave_budget = None
    if trials is not None:
        wave_budget = max(1, -(-int(trials) // trials_per_wave))
    if max_waves is not None:
        wave_budget = (
            max_waves if wave_budget is None else min(wave_budget, max_waves)
        )
    if wave_budget is None and target_ci is None:
        wave_budget = 1

    state = McEstimatorState()
    trajectory = []
    interrupted = False
    converged = False
    wave = 0
    estimate = None
    while True:
        if wave_budget is not None and wave >= wave_budget:
            break
        cells = [
            McBatchSpec(
                config=config,
                k=k,
                batch_index=wave,
                start_trial=wave * batch_trials,
                trials=batch_trials,
                importance=importance_spec,
                scheme_coefs=scheme_coefs,
                stats_depth=stats_depth,
            )
            for k in ks
        ]
        wave_checkpoint = (
            str(Path(checkpoint) / f"wave-{wave:04d}")
            if checkpoint is not None
            else None
        )
        # One store for the whole campaign (keys are content-addressed,
        # so waves cannot collide), one queue *per wave* (each wave is
        # its own lease campaign with its own fingerprint).
        wave_queue = (
            str(Path(queue) / f"wave-{wave:04d}")
            if queue is not None
            else None
        )
        wave_store = store
        if wave_store is None and queue is not None:
            wave_store = str(Path(queue) / "store")
        engine_kwargs = {}
        if lease_ttl is not None:
            engine_kwargs["lease_ttl"] = lease_ttl
        sweep = SweepEngine(
            cells,
            runner=run_mc_batch,
            jobs=jobs,
            checkpoint=wave_checkpoint,
            resume=resume and wave_checkpoint is not None,
            max_failures=max_failures,
            store=wave_store,
            queue=wave_queue,
            registry=registry,
            progress=progress,
            **engine_kwargs,
        )
        outcomes = sweep.run()
        for outcome in outcomes:
            if outcome.ok:
                state.add(outcome.result)
        if sweep.interrupted:
            interrupted = True
        if state.batches:
            estimate = _finalize(state, config, data_bytes, scheme_coefs, z)
            trajectory.append(
                {
                    "wave": wave,
                    "trials": state.total_trials,
                    "p_block_due": estimate["p_block_due"],
                    "half_width": estimate["p_block_due_half_width"],
                    "due_probability": estimate["due_probability"],
                }
            )
        if interrupted:
            break
        wave += 1
        if (
            target_ci is not None
            and estimate is not None
            and estimate["p_block_due_half_width"] <= target_ci
        ):
            converged = True
            break

    if estimate is None:
        estimate = _finalize(state, config, data_bytes, scheme_coefs, z)
    return McCampaignResult(
        config=config,
        data_bytes=data_bytes,
        z=z,
        total_trials=state.total_trials,
        waves=wave if not interrupted else wave + 1,
        batch_trials=batch_trials,
        interrupted=interrupted,
        converged=converged,
        target_ci=target_ci,
        p_block_due=estimate["p_block_due"],
        p_block_due_half_width=estimate["p_block_due_half_width"],
        due_probability=estimate["due_probability"],
        due_probability_half_width=estimate["due_probability_half_width"],
        expected_due_blocks=estimate["expected_due_blocks"],
        p_multi_due=estimate["p_multi_due"],
        p_multi_due_half_width=estimate["p_multi_due_half_width"],
        p_multi_due_cross=estimate["p_multi_due_cross"],
        p_multi_due_cross_half_width=estimate["p_multi_due_cross_half_width"],
        by_fault_count=estimate["by_fault_count"],
        schemes=estimate["schemes"],
        trajectory=trajectory,
        approximated_ranks=estimate["approximated_ranks"],
        importance=dict(importance) if importance is not None else None,
        state=state,
        runtime=registry.snapshot(),
    )


def mc_report(result: McCampaignResult) -> dict:
    """Schema-stamped ``udr_mc/v1`` payload for one campaign."""
    from repro.analysis.udr import compute_udr, scheme_depths

    schemes = {}
    for name, entry in result.schemes.items():
        analytic = compute_udr(
            result.p_block_due,
            result.data_bytes,
            clone_depths=scheme_depths(name, result.data_bytes),
            scheme=name,
            p_multi_due=result.p_multi_due_cross,
        ).udr
        half_width = entry["half_width"]
        schemes[name] = {
            "udr": entry["udr"],
            "half_width": half_width,
            "trials": entry["trials"],
            "analytic": analytic,
            "analytic_in_ci": (
                abs(analytic - entry["udr"])
                <= max(half_width, 1e-12 * abs(analytic))
            ),
        }
    return {
        "schema": UDR_MC_SCHEMA,
        "config": {
            "fit_per_device": result.config.fit_per_device,
            "years": result.config.years,
            "repair": result.config.repair,
            "seed": result.config.seed,
            "relative_rates": dict(result.config.relative_rates),
            "total_blocks": result.config.geometry.total_blocks,
            "ranks": result.config.geometry.ranks,
        },
        "data_bytes": result.data_bytes,
        "z": result.z,
        "total_trials": result.total_trials,
        "waves": result.waves,
        "batch_trials": result.batch_trials,
        "interrupted": result.interrupted,
        "converged": result.converged,
        "target_ci": result.target_ci,
        "p_block_due": result.p_block_due,
        "p_block_due_half_width": result.p_block_due_half_width,
        "due_probability": result.due_probability,
        "due_probability_half_width": result.due_probability_half_width,
        "expected_due_blocks": result.expected_due_blocks,
        "p_multi_due": {str(d): v for d, v in result.p_multi_due.items()},
        "p_multi_due_half_width": {
            str(d): v for d, v in result.p_multi_due_half_width.items()
        },
        "p_multi_due_cross": {
            str(d): v for d, v in result.p_multi_due_cross.items()
        },
        "p_multi_due_cross_half_width": {
            str(d): v
            for d, v in result.p_multi_due_cross_half_width.items()
        },
        "by_fault_count": {
            str(k): dict(v) for k, v in result.by_fault_count.items()
        },
        "schemes": schemes,
        "approximated_ranks": result.approximated_ranks,
        "importance": result.importance,
        "trajectory": list(result.trajectory),
        # Host-local fleet/runtime telemetry.  Everything above this key
        # is a pure function of the campaign description; ``runtime``
        # legitimately differs between a serial run and a fleet-merged
        # one, so bit-equality comparisons must exclude it.
        "runtime": dict(result.runtime),
    }


# ---------------------------------------------------------------------------
# throughput micro-benchmark
# ---------------------------------------------------------------------------

def mc_bench(
    fit: float = 80.0, trials_per_k: int = 1_500, seed: int = 2021
) -> dict:
    """Time one pinned ``FaultSimulator.run`` campaign (trials/s)."""
    import time

    from repro.faults.faultsim import FaultSimulator

    config = FaultSimConfig(fit_per_device=fit, seed=seed)
    trials = trials_per_k * (MAX_FAULTS + 1 - min_faults_for_due(config.repair))
    started = time.perf_counter()
    result = FaultSimulator(config).run(trials_per_k=trials_per_k)
    wall = time.perf_counter() - started
    return {
        "fit_per_device": fit,
        "trials_per_k": trials_per_k,
        "wall_s": round(wall, 4),
        "trials": trials,
        "trials_per_s": round(trials / wall, 1) if wall else 0.0,
        "p_block_due": result.p_block_due,
    }
