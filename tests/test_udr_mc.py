"""Cross-validation: direct Monte-Carlo UDR vs the analytic estimator.

The moment-based estimator (repro.analysis.udr) abstracts the layout;
the Monte-Carlo scorer (repro.analysis.udr_mc) walks real uncorrectable
block addresses through a real AddressMap.  Agreement between the two
— within Monte-Carlo noise — validates the whole Figure 11 pipeline.
"""

import pytest

from repro.analysis import compute_udr, scheme_depths
from repro.analysis.udr_mc import build_dimm_map, monte_carlo_udr
from repro.faults import FaultSimConfig, FaultSimulator


@pytest.fixture(scope="module")
def high_fit_sim():
    # High FIT so a few hundred conditioned trials see enough DUEs.
    return FaultSimulator(
        FaultSimConfig(fit_per_device=80, trials=4_000, seed=3)
    )


@pytest.fixture(scope="module")
def mc_baseline(high_fit_sim):
    return monte_carlo_udr(
        high_fit_sim, due_events_per_k=40, max_attempts_per_k=6_000,
        rng_seed=11,
    )


class TestDimmMap:
    def test_layout_fits_device(self, high_fit_sim):
        geometry = high_fit_sim.config.geometry
        amap = build_dimm_map(geometry)
        assert amap.total_bytes <= geometry.total_blocks * 64
        assert amap.num_levels >= 5

    def test_clone_depths_respected(self, high_fit_sim):
        geometry = high_fit_sim.config.geometry
        amap = build_dimm_map(geometry, clone_depths={1: 2, 2: 2})
        assert amap.clone_depths[1] == 2


class TestMonteCarloUdr:
    def test_l_error_agrees_with_per_block_probability(
        self, high_fit_sim, mc_baseline
    ):
        """The data-loss fraction is the high-statistics cross-check:
        every DUE event contributes, so even a small event budget pins
        it down — and it must match the moment estimator's per-block
        probability, which shares only the ECC evaluator with it."""
        analytic_input = high_fit_sim.run(trials_per_k=1_500)
        ratio = mc_baseline.l_error_fraction / analytic_input.p_block_due
        # Loss per trial is heavy-tailed (rare whole-rank events carry
        # most of the mass), so 40 events/bucket only bounds the ratio
        # loosely; benchmarks/test_validation_mc.py tightens it.
        assert 0.1 < ratio < 10.0

    def test_udr_within_noise_of_analytic(self, high_fit_sim, mc_baseline):
        """UDR rides the rare metadata tail, so at this event budget we
        only bound it: positive and not above the analytic value by
        more than noise allows (the full-statistics comparison runs in
        benchmarks/test_validation_mc.py)."""
        analytic_input = high_fit_sim.run(trials_per_k=1_500)
        amap = build_dimm_map(high_fit_sim.config.geometry)
        analytic = compute_udr(
            analytic_input.p_block_due,
            amap.data_bytes,
            p_multi_due=analytic_input.p_multi_due_cross,
        )
        assert 0 <= mc_baseline.udr < analytic.udr * 50

    def test_data_errors_observed(self, mc_baseline):
        assert mc_baseline.l_error_fraction > 0
        assert mc_baseline.by_region.get("data", 0) > 0

    def test_cloning_never_increases_mc_udr(self, high_fit_sim, mc_baseline):
        amap = build_dimm_map(high_fit_sim.config.geometry)
        depths = scheme_depths("src", amap.data_bytes)
        mc_src = monte_carlo_udr(
            high_fit_sim, clone_depths=depths,
            due_events_per_k=40, max_attempts_per_k=6_000, rng_seed=11,
        )
        # Identical trial stream (same seed): cloning can only reduce
        # loss.  (Residual equality happens when the only sampled
        # metadata losses were sidecar-forced, which clones cannot fix.)
        assert mc_src.udr <= mc_baseline.udr


class TestPinnedValue:
    def test_small_budget_campaign_is_pinned(self, high_fit_sim):
        """A seconds-sized campaign reproduces its recorded value
        exactly (same rng stream, pmf and ECC model)."""
        result = monte_carlo_udr(high_fit_sim, due_events_per_k=6,
                                 max_attempts_per_k=600, rng_seed=11)
        assert result.udr == 0.0001766516559221488
        assert result.l_error_fraction == 3.4621125134887416e-06
        assert result.udr_half_width == 0.0003718067543625347
        assert (result.trials_with_due, result.truncated) == (42, 1)
        assert result.by_region == {
            "mac": 4726164, "data": 11422235, "counter": 457628,
            "counter_mac": 57204, "tree": 65377, "shadow": 8192,
        }


class TestMonteCarloCi:
    def test_half_width_present_and_sane(self, mc_baseline):
        assert mc_baseline.udr_half_width >= 0.0
        # The CI must not dwarf the estimate into meaninglessness when
        # events were actually observed.
        if mc_baseline.udr > 0:
            assert mc_baseline.udr_half_width < mc_baseline.udr * 100


class TestEmpiricalVsAnalytic:
    """Per-scheme cross-check: the analytic UDR (moment estimator fed
    the campaign's own clone-survival moments) must land inside every
    registered scheme's empirical confidence interval at a fast FIT
    point — the acceptance gate for the streaming-campaign pipeline."""

    @pytest.fixture(scope="class")
    def report(self):
        import warnings

        from repro.faults import (
            importance_distribution,
            mc_report,
            run_mc_campaign,
        )

        config = FaultSimConfig(fit_per_device=80, trials=6_000, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_mc_campaign(
                config,
                trials=6_000,
                batch_trials=1_000,
                importance=importance_distribution(config.relative_rates),
            )
        return mc_report(campaign)

    def test_all_registered_schemes_covered(self, report):
        from repro.schemes import scheme_names

        assert set(report["schemes"]) == set(scheme_names())

    def test_analytic_inside_empirical_ci(self, report):
        for name, entry in report["schemes"].items():
            assert entry["analytic_in_ci"], (
                f"{name}: analytic {entry['analytic']:.3e} outside "
                f"{entry['udr']:.3e} +- {entry['half_width']:.1e}"
            )

    def test_error_bars_are_positive_when_loss_observed(self, report):
        for entry in report["schemes"].values():
            if entry["udr"] > 0:
                assert entry["half_width"] > 0

    def test_udr_result_propagates_moment_half_widths(self, report):
        analytic = compute_udr(
            report["p_block_due"],
            report["data_bytes"],
            clone_depths=scheme_depths("src", report["data_bytes"]),
            scheme="src",
            p_multi_due={
                int(d): v for d, v in report["p_multi_due_cross"].items()
            },
            p_multi_due_half_width={
                int(d): v
                for d, v in report["p_multi_due_cross_half_width"].items()
            },
        )
        assert analytic.half_width > 0
