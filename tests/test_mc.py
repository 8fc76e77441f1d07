"""Vectorized Monte-Carlo core: counter RNG, sampler, replay parity.

The batched engine (repro.faults.mc) was proven bit-identical to a
scalar reference before that reference was retired; the committed
replay fixture (tests/fixtures/mc_replay.json) carries the evidence.
These tests pin individual layers of corpus entries outside the quick
subset that tests/test_mc_diff.py replays in full, so the two files
check disjoint fixture entries.
"""

import math
import warnings

import numpy as np
import pytest

from repro.faults import FaultSimConfig, FaultSimulator, run_mc_campaign
from repro.faults import mc
from repro.telemetry import MetricRegistry
from repro.verify.mc_diff import (
    DEFAULT_FIXTURE,
    REPLAY_SCHEMA,
    diff_configs,
    load_fixture,
    observe_result,
    observe_sampler,
    observe_trial,
)
from tests.test_mc_properties import pack_regions, union_block_count


#: The ``chipkill/hopper`` configuration of the pinned mc-diff corpus.
CONFIG = FaultSimConfig(fit_per_device=80, trials=4_000, seed=3)

CORPUS = {name: config for name, config, _ in diff_configs()}

#: One full-corpus entry per ECC model (none is in the quick subset).
FULL_ONLY = {"chipkill": "chipkill/tiny-geometry",
             "secded": "secded/bit-word", "none": "none/hopper"}


@pytest.fixture(scope="module")
def pinned():
    fixture = load_fixture(DEFAULT_FIXTURE, REPLAY_SCHEMA)
    return fixture["trials"], fixture["cases"]


class TestCounterRng:
    def test_mix64_matches_array_twin(self):
        probes = [0, 1, 2021, 1 << 32, (1 << 63) + 5, (1 << 64) - 1]
        vector = mc.mix64_array(np.array(probes, dtype=np.uint64))
        for i, probe in enumerate(probes):
            assert mc.mix64(probe) == int(vector[i])

    def test_draw_matches_array_twin(self):
        # draw_array(key, t) is mix64(key ^ t * stride) lane by lane.
        key = mc.stream_key(2021, 3, 1, mc.F_ROW)
        trials = np.arange(0, 256, dtype=np.uint64)
        vector = mc.draw_array(key, trials)
        for t in range(256):
            word = mc.mix64(key ^ ((t * mc._STREAM) & mc._MASK64))
            assert word == int(vector[t])

    def test_stream_keys_distinct_per_field(self):
        keys = {
            mc.stream_key(2021, 2, 0, field)
            for field in range(mc.F_NBANK_SCORE + 1)
        }
        assert len(keys) == mc.F_NBANK_SCORE + 1

    def test_draws_depend_on_trial_index_only(self):
        # Global trial identity: the same (key, t) always yields the
        # same word, which is what makes chunking invariant.
        key = mc.stream_key(7, 4, 2, mc.F_CHIP)
        alone = mc.draw_array(key, np.array([1234], dtype=np.uint64))
        within = mc.draw_array(key, np.arange(1000, 2000, dtype=np.uint64))
        assert alone[0] == within[234]


class TestSamplerTwins:
    @pytest.mark.parametrize("name, k", [
        ("none/hopper", 1), ("secded/tiny-geometry", 4),
        ("chipkill/tiny-geometry", 8),
    ])
    def test_batch_matches_pinned_scalar_twin(self, pinned, name, k):
        """The sampled arrays are the ones recorded when every decoded
        trial matched the retired scalar sampler fault for fault."""
        _, cases = pinned
        observed = observe_sampler(CORPUS[name], k, 400)
        assert observed == cases[f"sampler:{name}/k{k}"]

    def test_direct_weights_are_unity(self):
        batch = mc.sample_batch(CONFIG, 4, 0, 50)
        assert np.all(batch.weight == 1.0)

    @pytest.mark.parametrize("k, trials, name", [
        (-1, 10, "k"), (3, -1, "trials"),
    ])
    def test_negative_sizes_rejected(self, k, trials, name):
        q = mc.importance_distribution(CONFIG.relative_rates)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            mc.sample_batch(CONFIG, k, 0, trials, q=q)

    @pytest.mark.parametrize("q", [None, "importance"])
    def test_zero_faults_is_an_empty_batch(self, q):
        if q is not None:
            q = mc.importance_distribution(CONFIG.relative_rates)
        batch = mc.sample_batch(CONFIG, 0, 7, 12, q=q)
        assert (batch.k, batch.trials) == (0, 12)
        for name in ("class_index", "rank", "chip", "bank_mask", "row",
                     "group", "multibit"):
            assert getattr(batch, name).shape == (12, 0)
        assert batch.weight.dtype == np.float64
        assert batch.weight.tolist() == [1.0] * 12

    def test_batch_size_invariance(self):
        whole = mc.sample_batch(CONFIG, 5, 0, 90)
        parts = [
            mc.sample_batch(CONFIG, 5, lo, hi - lo)
            for lo, hi in [(0, 1), (1, 40), (40, 90)]
        ]
        for name in ("class_index", "rank", "chip", "bank_mask",
                     "row", "group", "multibit"):
            stitched = np.concatenate(
                [getattr(p, name) for p in parts]
            )
            assert np.array_equal(getattr(whole, name), stitched)


class TestEngineParity:
    """The vector engine against the scalar reference's pinned outputs."""

    @pytest.mark.parametrize("repair", ["chipkill", "secded", "none"])
    def test_run_bit_identical(self, pinned, repair):
        trials, cases = pinned
        name = FULL_ONLY[repair]
        observed = observe_result(CORPUS[name], min(trials, 800))
        assert observed == cases[f"result:{name}"]

    def test_batch_outputs_parity_per_trial(self, pinned):
        trials, cases = pinned
        name = "secded/tiny-geometry"
        observed = observe_trial(CORPUS[name], 4, trials)
        assert observed == cases[f"trial:{name}/k4"]


def _encoded(specs):
    """(mask, row, group) encodings of ``(banks, row, group)`` specs."""
    return [
        (sum(1 << bank for bank in banks), row, group)
        for banks, row, group in specs
    ]


class TestUnionFallback:
    def test_union_regions_matches_union_block_count(self):
        geometry = CONFIG.geometry
        encoded = _encoded([
            ([0], 5, -1),
            ([0], -1, 7),
            ([0, 1, 2], -1, -1),
            ([1], 5, 7),
            ([2], -1, -1),
        ])
        union = mc._union_regions(*pack_regions([encoded]), geometry)
        assert union.tolist() == [union_block_count(
            [(0, *region) for region in encoded], geometry
        )]

    def test_additive_fallback_matches_and_counts(self):
        # >14 same-rank regions: evaluate_batch substitutes the additive
        # bound for the exact union, which it never undercounts, and
        # reports the event.
        geometry = CONFIG.geometry
        faults = [
            ("row", 0, 0, 1 << (i % geometry.banks), i, -1)
            for i in range(16)
        ] + [("column", 0, 0, 1, -1, 3)]  # crosses bank 0, row 0
        encoded = [f[3:] for f in faults]
        events = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            total, _ = mc.evaluate_batch(
                mc._trial_batch(faults),
                FaultSimConfig(repair="none"),
                on_approximation=events.append,
            )
        _, mask, row, group, _ = pack_regions([encoded])
        additive = int(mc._region_blocks(mask, row, group, geometry).sum())
        exact = union_block_count(
            [(0, *region) for region in encoded], geometry
        )
        assert total[0] == additive > exact
        assert events == [17]

    def test_fallback_surfaces_through_batched_path(self):
        # fit=80, k=8 triggers real >14-region trials.
        events = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mc.batch_outputs(CONFIG, 8, 0, 1500,
                             on_approximation=events.append)
        assert events
        assert all(count > mc.UNION_EXACT_LIMIT for count in events)

    def test_fallback_recorded_in_result(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = FaultSimulator(CONFIG).run(trials_per_k=4_000)
        assert result.union_approximations > 0

    def test_fallback_warns_once_per_rank_per_batch(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mc.batch_outputs(CONFIG, 8, 0, 4_000)
        fallback = [
            w for w in caught
            if "overlapping DUE regions" in str(w.message)
        ]
        # Chunked evaluation: at most one warning per rank per chunk,
        # never one per trial.
        assert 0 < len(fallback) <= 2 * (
            4_000 // mc._CHUNK_TRIALS + 1
        ) * CONFIG.geometry.ranks


class TestImportanceSampling:
    def test_distribution_tilts_heavy_classes(self):
        q = mc.importance_distribution(CONFIG.relative_rates, tilt=0.5)
        assert abs(sum(q.values()) - 1.0) < 1e-12
        for name in mc.HEAVY_CLASSES:
            if CONFIG.relative_rates.get(name, 0.0) > 0.0:
                assert q[name] > CONFIG.relative_rates[name]

    def test_weights_are_exact_likelihood_ratios(self):
        q = mc.importance_distribution(CONFIG.relative_rates, tilt=0.6)
        batch = mc.sample_batch(CONFIG, 2, 0, 200, q=q)
        classes = batch.classes
        for i in range(200):
            expected = 1.0
            for j in range(2):
                name = classes[batch.class_index[i, j]]
                expected *= CONFIG.relative_rates[name] / q[name]
            assert batch.weight[i] == expected

    def test_importance_preserves_due_support(self):
        # Weighted due indicator must stay a probability estimate.
        q = mc.importance_distribution(CONFIG.relative_rates)
        u_total, _, weight = mc.batch_outputs(CONFIG, 2, 0, 500, q=q)
        estimate = float(((u_total > 0) * weight).mean())
        assert 0.0 <= estimate <= 1.5


class TestSchemeCoefficients:
    def test_coefficients_cover_all_depths(self):
        coefs = mc.scheme_loss_coefficients("src", mc.DEFAULT_DATA_BYTES)
        assert coefs
        depths = [d for d, _ in coefs]
        assert depths == sorted(set(depths))
        assert all(weight > 0 for _, weight in coefs)

    def test_baseline_depth_is_one(self):
        coefs = mc.scheme_loss_coefficients(
            "baseline", mc.DEFAULT_DATA_BYTES
        )
        assert [d for d, _ in coefs] == [1]


class TestCampaignRuntime:
    """The campaign's ``runtime`` block reports the sweep instruments."""

    KWARGS = dict(max_waves=1, batch_trials=100, schemes=())

    def test_store_counters_reach_the_report(self, tmp_path):
        result = run_mc_campaign(CONFIG, store=str(tmp_path / "store"),
                                 **self.KWARGS)
        cells = len(result.by_fault_count)
        assert result.runtime["runtime.store.misses"] == cells
        assert result.runtime["runtime.store.writes"] == cells
        warm = run_mc_campaign(CONFIG, store=str(tmp_path / "store"),
                               **self.KWARGS)
        assert warm.runtime["runtime.store.hits"] == cells
        assert warm.p_block_due == result.p_block_due

    def test_caller_registry_is_populated(self):
        registry = MetricRegistry()
        assert len(registry) == 0  # empty, hence falsy
        result = run_mc_campaign(CONFIG, registry=registry, **self.KWARGS)
        snapshot = registry.snapshot()
        assert snapshot["runtime.cells_completed"] == len(
            result.by_fault_count
        )
        assert result.runtime == snapshot

    @pytest.mark.parametrize("target_ci", [-1.0, 0.0, math.nan, math.inf])
    def test_unreachable_target_ci_is_refused(self, tmp_path, target_ci):
        """A half-width target a campaign can never reach is refused
        before any wave runs or any checkpoint or store is made."""
        with pytest.raises(ValueError, match="target_ci"):
            run_mc_campaign(
                FaultSimConfig(fit_per_device=80.0, seed=1),
                batch_trials=16, target_ci=target_ci, max_waves=1,
                checkpoint=str(tmp_path / "checkpoint"),
                store=str(tmp_path / "store"),
            )
        assert list(tmp_path.iterdir()) == []
