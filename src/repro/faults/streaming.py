"""Streaming estimators for large Monte-Carlo reliability campaigns.

A 1e8-trial campaign cannot hold per-trial samples in memory, and a
checkpointed campaign must produce *bit-identical* estimates whether its
batches arrive in one uninterrupted run, across a SIGTERM/resume
boundary, or merged from parallel workers in any order.  This module
provides the two layers that make that possible:

* :class:`WelfordState` — classic online mean/variance with Chan's
  parallel merge rule, for consumers that genuinely stream one value at
  a time.
* :class:`McBatchStat` / :class:`McEstimatorState` — the campaign
  accumulator.  Each batch contributes exact *per-batch sums* (computed
  once, deterministically, from the batch arrays), keyed by
  ``(k, batch_index)``.  A running fold keeps, per fault count ``k``,
  the integer totals and each float sum exactly, as an integer count
  of 2**-1074 units; it is updated once when a batch is added.
  Reading the estimate rounds each exact sum once, as
  :func:`math.fsum` of the batches' terms would — so the final
  estimate is a pure function of the *set* of batches, independent of
  insertion or merge order, and refreshing it after every campaign
  wave never revisits the batches.  That invariance is what the
  Hypothesis property suite pins down.

Confidence intervals come in two flavours: Wilson score intervals for
binomial counts (per-k DUE fractions) and Wald/normal intervals driven
by the sample variance (weighted means under importance sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "WelfordState",
    "wilson_interval",
    "wald_half_width",
    "mean_and_variance",
    "McBatchStat",
    "McEstimatorState",
]


# ---------------------------------------------------------------------------
# online mean / variance
# ---------------------------------------------------------------------------

@dataclass
class WelfordState:
    """Online mean/variance (Welford 1962, Chan et al. 1983 merge).

    ``update`` folds in one observation; ``merge`` combines two states
    as if their observations had been seen by a single accumulator.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def update_batch(self, values: Iterable[float]) -> None:
        for value in values:
            self.update(float(value))

    def merge(self, other: "WelfordState") -> "WelfordState":
        """Return a new state equivalent to seeing both streams."""
        if other.count == 0:
            return WelfordState(self.count, self.mean, self.m2)
        if self.count == 0:
            return WelfordState(other.count, other.mean, other.m2)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / count
        return WelfordState(count, mean, m2)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        if self.count < 1:
            return 0.0
        return math.sqrt(self.variance / self.count)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sensibly at the extremes (0 or ``trials`` successes) where
    the naive Wald binomial interval collapses to zero width — exactly
    the regime rare-event campaigns live in.
    """
    if trials <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def wald_half_width(variance: float, trials: int, z: float = 1.96) -> float:
    """Half-width of the normal (Wald) CI for a sample mean."""
    if trials <= 1 or variance <= 0.0:
        return 0.0
    return z * math.sqrt(variance / trials)


def mean_and_variance(
    total: float, total_sq: float, count: int
) -> Tuple[float, float]:
    """Sample mean and unbiased variance from (sum, sum-of-squares, n)."""
    if count <= 0:
        return (0.0, 0.0)
    mean = total / count
    if count < 2:
        return (mean, 0.0)
    variance = (total_sq - total * total / count) / (count - 1)
    return (mean, max(0.0, variance))


# ---------------------------------------------------------------------------
# campaign batch statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McBatchStat:
    """Sufficient statistics for one Monte-Carlo batch.

    Every float here is an exact, deterministically-computed per-batch
    sum (``numpy.sum`` over the batch arrays, which numpy evaluates with
    a fixed pairwise order for a given array).  ``sums``/``sumsq`` map a
    statistic name (``"due"``, ``"blocks"``, ``"moment_<d>"``,
    ``"cross_<d>"``, ``"scheme:<name>"``) to the batch sum of
    ``weight * value`` and ``(weight * value)**2`` respectively, so
    importance-sampled and direct batches share one representation
    (direct sampling is simply ``weight == 1``).  Every float must be
    finite, so that :class:`McEstimatorState` can fold it exactly; a
    non-finite one raises ``ValueError``.
    """

    k: int
    batch_index: int
    trials: int
    due_count: int
    approximated_ranks: int
    weight_sum: float
    weight_sumsq: float
    sums: Mapping[str, float]
    sumsq: Mapping[str, float]

    def __post_init__(self):
        floats = (self.weight_sum, self.weight_sumsq,
                  *self.sums.values(), *self.sumsq.values())
        if not all(map(math.isfinite, floats)):
            raise ValueError(
                f"non-finite batch sum for k={self.k} "
                f"batch={self.batch_index}"
            )

    def key(self) -> Tuple[int, int]:
        return (self.k, self.batch_index)


#: Every finite float is a whole number of units of 2**-1074, the
#: smallest subnormal, so an integer count of those units holds a sum
#: of floats exactly.
_UNIT_BITS = 1074


def _units(value: float) -> int:
    """A finite ``value`` as a whole number of 2**-1074 units."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (_UNIT_BITS + 1 - denominator.bit_length())


def _rounded(units: int) -> float:
    """``units`` · 2**-1074 correctly rounded (ties to even), which is
    what :func:`math.fsum` returns for terms with that exact sum."""
    return units / (1 << _UNIT_BITS)


@dataclass
class _BucketFold:
    """Running exact aggregate of one fault count's batches.

    Integer totals, and each float sum as an exact count of 2**-1074
    units (a statistic a batch lacks adds nothing, as a 0.0 term
    would).  Reading a sum rounds it once, so it is bit for bit the
    :func:`math.fsum` of every batch's term, and the fold's size does
    not grow with the batch count.
    """

    trials: int = 0
    batches: int = 0
    due_count: int = 0
    approximated_ranks: int = 0
    weight_sum: int = 0
    weight_sumsq: int = 0
    #: Every name in some batch's ``sums``: the names reported.
    sums: Dict[str, int] = field(default_factory=dict)
    sumsq: Dict[str, int] = field(default_factory=dict)

    def add(self, stat: McBatchStat) -> None:
        for name, value in stat.sums.items():
            self.sums[name] = self.sums.get(name, 0) + _units(value)
        for name, value in stat.sumsq.items():
            self.sumsq[name] = self.sumsq.get(name, 0) + _units(value)
        self.weight_sum += _units(stat.weight_sum)
        self.weight_sumsq += _units(stat.weight_sumsq)
        self.trials += stat.trials
        self.batches += 1
        self.due_count += stat.due_count
        self.approximated_ranks += stat.approximated_ranks

    def totals(self) -> Dict[str, object]:
        names = sorted(self.sums)
        return {
            "trials": self.trials,
            "batches": self.batches,
            "due_count": self.due_count,
            "approximated_ranks": self.approximated_ranks,
            "weight_sum": _rounded(self.weight_sum),
            "weight_sumsq": _rounded(self.weight_sumsq),
            "sums": {name: _rounded(self.sums[name]) for name in names},
            "sumsq": {
                name: _rounded(self.sumsq.get(name, 0)) for name in names
            },
        }


@dataclass
class McEstimatorState:
    """Merge-order-invariant accumulator of :class:`McBatchStat`.

    Batches are keyed by ``(k, batch_index)``; adding the same batch
    twice is a no-op, adding a *conflicting* batch under an existing key
    is an error (it would silently corrupt a resumed campaign).  Each
    new batch is also folded, once, into its fault count's running
    aggregate (:class:`_BucketFold`): integer totals plus every float
    sum held exactly.  :meth:`per_k`, :attr:`total_trials` and
    :meth:`ks` read only those aggregates, so a campaign that refreshes
    its estimate after every wave does not re-sum the batches of the
    waves before.  Each float sum is its exact value rounded once, the
    :func:`math.fsum` of the batches' terms, so any insertion or merge
    order yields bitwise-identical results.
    """

    batches: Dict[Tuple[int, int], McBatchStat] = field(default_factory=dict)
    _folds: Dict[int, _BucketFold] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for stat in self.batches.values():
            self._fold(stat)

    def add(self, stat: McBatchStat) -> None:
        existing = self.batches.get(stat.key())
        if existing is not None:
            if existing != stat:
                raise ValueError(
                    f"conflicting batch statistics for k={stat.k} "
                    f"batch={stat.batch_index}"
                )
            return
        self.batches[stat.key()] = stat
        self._fold(stat)

    def _fold(self, stat: McBatchStat) -> None:
        fold = self._folds.get(stat.k)
        if fold is None:
            fold = self._folds[stat.k] = _BucketFold()
        fold.add(stat)

    def merge(self, other: "McEstimatorState") -> "McEstimatorState":
        merged = McEstimatorState(dict(self.batches))
        for stat in other.batches.values():
            merged.add(stat)
        return merged

    @property
    def total_trials(self) -> int:
        return sum(fold.trials for fold in self._folds.values())

    def ks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._folds))

    def per_k(self) -> Dict[int, Dict[str, object]]:
        """Exact per-k aggregates, independent of batch insertion order.

        Returns ``{k: {"trials", "batches", "due_count",
        "approximated_ranks", "weight_sum", "weight_sumsq",
        "sums": {name: float}, "sumsq": {name: float}}}``.
        """
        return {k: self._folds[k].totals() for k in sorted(self._folds)}
