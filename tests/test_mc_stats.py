"""Statistical calibration of the streaming MC estimators.

Every assertion here is against *closed-form* ground truth, not against
another simulator: Poisson arithmetic for no-ECC DUE probability, an
exact binomial for Wilson-interval coverage, direct-vs-importance
agreement on an overlapping regime, and numpy for Welford.
"""

import math

import numpy as np
import pytest

from repro.faults import (
    FaultSimConfig,
    FaultSimulator,
    WelfordState,
    importance_distribution,
    run_mc_campaign,
    wald_half_width,
    wilson_interval,
)
from repro.faults import mc
from repro.faults.streaming import mean_and_variance


class TestClosedFormPoisson:
    def test_noecc_due_probability_is_pure_poisson(self):
        """Under no ECC every fault is uncorrectable, so P(any DUE) is
        exactly P(N >= 1) = 1 - exp(-mean) — zero Monte-Carlo noise in
        the due fractions, only Poisson arithmetic."""
        config = FaultSimConfig(
            fit_per_device=40, trials=1_000, seed=11, repair="none"
        )
        result = FaultSimulator(config).run(trials_per_k=200)
        mean = config.expected_faults_per_dimm()
        assert result.due_probability == pytest.approx(
            1.0 - math.exp(-mean), abs=1e-12
        )
        for k, row in result.by_fault_count.items():
            assert row["due_fraction"] == 1.0

    def test_bucket_pmf_matches_closed_form(self):
        mean = 0.7
        for k in range(8):
            assert mc.bucket_pmf(k, mean, 8) == pytest.approx(
                math.exp(-mean) * mean**k / math.factorial(k), abs=1e-15
            )
        tail = 1.0 - sum(
            math.exp(-mean) * mean**j / math.factorial(j) for j in range(8)
        )
        assert mc.bucket_pmf(8, mean, 8) == pytest.approx(tail, abs=1e-15)

    def test_noecc_campaign_matches_closed_form(self):
        config = FaultSimConfig(
            fit_per_device=40, trials=800, seed=13, repair="none"
        )
        result = run_mc_campaign(
            config, trials=800, batch_trials=100, schemes=()
        )
        mean = config.expected_faults_per_dimm()
        assert result.due_probability == pytest.approx(
            1.0 - math.exp(-mean), abs=1e-12
        )
        assert result.due_probability_half_width == 0.0


class TestWilsonCalibration:
    # SECDED with a 50/50 bit/word mix and exactly one fault: the trial
    # is DUE iff the fault is a word (multibit) fault — a fair coin.
    CONFIG = FaultSimConfig(
        fit_per_device=40,
        trials=1_000,
        seed=29,
        repair="secded",
        relative_rates={"bit": 0.5, "word": 0.5},
    )

    def test_interval_basic_properties(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.1
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0, abs=1e-12) and 0.9 < low < 1.0
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_coverage_at_expected_rate(self):
        """95% Wilson intervals over disjoint trial windows must cover
        the true binomial p = 0.5 at roughly the nominal rate."""
        windows = 60
        per_window = 400
        covered = 0
        for w in range(windows):
            u_total, _, _ = mc.batch_outputs(
                self.CONFIG, 1, w * per_window, per_window
            )
            due = int((u_total > 0).sum())
            low, high = wilson_interval(due, per_window)
            if low <= 0.5 <= high:
                covered += 1
        # Binomial(60, 0.95): P(covered < 51) < 1e-3.
        assert covered >= 51

    def test_due_rate_is_the_class_rate(self):
        u_total, _, _ = mc.batch_outputs(self.CONFIG, 1, 0, 8_000)
        p_hat = float((u_total > 0).mean())
        # 4 sigma around 0.5 at n=8000.
        assert abs(p_hat - 0.5) < 4 * math.sqrt(0.25 / 8_000)


class TestImportanceUnbiased:
    CONFIG = FaultSimConfig(fit_per_device=80, trials=4_000, seed=17)

    def test_is_matches_direct_on_overlapping_regime(self):
        """At high FIT the direct estimator resolves P(DUE | k=2) well,
        so the importance-sampled estimate must agree within combined
        sampling noise — the unbiasedness check."""
        n = 6_000
        u_direct, _, w_direct = mc.batch_outputs(self.CONFIG, 2, 0, n)
        assert np.all(w_direct == 1.0)
        p_direct = float((u_direct > 0).mean())

        q = importance_distribution(self.CONFIG.relative_rates)
        u_is, _, w_is = mc.batch_outputs(self.CONFIG, 2, 0, n, q=q)
        weighted = (u_is > 0) * w_is
        p_is = float(weighted.mean())

        sigma = math.sqrt(
            p_direct * (1 - p_direct) / n + float(weighted.var()) / n
        )
        assert abs(p_is - p_direct) < 5 * sigma
        assert p_direct > 0.01  # the regime really is overlapping

    def test_is_tightens_heavy_class_ci(self):
        """The whole point: oversampling upper-tree loss classes must
        shrink the p_block_due CI against direct sampling at equal
        trial budget."""
        kwargs = dict(trials=4_000, batch_trials=1_000, schemes=())
        direct = run_mc_campaign(self.CONFIG, **kwargs)
        tilted = run_mc_campaign(
            self.CONFIG,
            importance=importance_distribution(self.CONFIG.relative_rates),
            **kwargs,
        )
        assert (
            tilted.p_block_due_half_width
            < direct.p_block_due_half_width
        )
        # And the two estimates agree within combined CIs.
        assert abs(tilted.p_block_due - direct.p_block_due) <= (
            tilted.p_block_due_half_width + direct.p_block_due_half_width
        )


class TestWelford:
    def test_matches_numpy_mean_and_variance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(5.0, 2.0, size=2_000)
        state = WelfordState()
        state.update_batch(values)
        assert state.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert state.variance == pytest.approx(
            float(values.var(ddof=1)), rel=1e-12
        )

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(1.0, size=1_000)
        whole = WelfordState()
        whole.update_batch(values)
        left, right = WelfordState(), WelfordState()
        left.update_batch(values[:373])
        right.update_batch(values[373:])
        merged = left.merge(right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-12)

    def test_merge_with_empty_is_identity(self):
        state = WelfordState()
        state.update_batch([1.0, 2.0, 3.0])
        merged = state.merge(WelfordState())
        assert (merged.count, merged.mean, merged.m2) == (
            state.count, state.mean, state.m2
        )

    def test_mean_and_variance_matches_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0.0, 1.0, size=500)
        mean, variance = mean_and_variance(
            float(values.sum()), float((values * values).sum()), len(values)
        )
        assert mean == pytest.approx(float(values.mean()), rel=1e-10)
        assert variance == pytest.approx(
            float(values.var(ddof=1)), rel=1e-8
        )

    def test_wald_half_width(self):
        assert wald_half_width(4.0, 100) == pytest.approx(
            1.96 * math.sqrt(4.0 / 100)
        )
        assert wald_half_width(4.0, 1) == 0.0
        assert wald_half_width(0.0, 100) == 0.0
