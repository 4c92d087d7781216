import math

import pytest

from dagdecode import (
    TimingStats,
    benchmark,
    compare_strategies,
    greedy_decode,
    optimum_match_rate,
    viterbi_decode,
)

from conftest import random_batch


class TestCompareStrategies:
    def test_identical_outputs_tie(self, i2):
        report = compare_strategies([i2], ["greedy", "joint-viterbi"], "joint", beta=0.0)
        assert report.per_strategy_avg_logprob["greedy"] == pytest.approx(
            math.log(0.72), rel=1e-12
        )
        assert report.per_strategy_avg_logprob["joint-viterbi"] == pytest.approx(
            math.log(0.72), rel=1e-12
        )
        assert report.pairwise_win_rates[("greedy", "joint-viterbi")] == 0.0
        assert report.pairwise_win_rates[("joint-viterbi", "greedy")] == 0.0
        assert report.pairwise_tie_rates[("greedy", "joint-viterbi")] == 1.0

    def test_joint_viterbi_never_loses_under_joint_scoring(self):
        instances = random_batch(100, seed0=2000, L=8, V=3)
        report = compare_strategies(
            instances, ["lookahead", "joint-viterbi"], "joint", beta=0.0
        )
        win_jv = report.pairwise_win_rates[("joint-viterbi", "lookahead")]
        win_la = report.pairwise_win_rates[("lookahead", "joint-viterbi")]
        tie = report.pairwise_tie_rates[("joint-viterbi", "lookahead")]
        assert win_la == 0.0
        assert win_jv + tie + win_la == pytest.approx(1.0)
        assert tie == report.pairwise_tie_rates[("lookahead", "joint-viterbi")]

    def test_win_rates_within_bounds(self):
        instances = random_batch(30, seed0=2200, L=6, V=2)
        report = compare_strategies(
            instances, ["greedy", "lookahead", "viterbi"], "marginal", beta=1.0
        )
        for (a, b), rate in report.pairwise_win_rates.items():
            assert 0.0 <= rate <= 1.0
            assert rate + report.pairwise_win_rates[(b, a)] <= 1.0 + 1e-12

    def test_empty_instance_set_rejected(self):
        with pytest.raises(ValueError):
            compare_strategies([], ["greedy"], "joint")

    def test_unknown_score_kind_rejected(self, i2):
        with pytest.raises(ValueError):
            compare_strategies([i2], ["greedy"], "likelihood")

    def test_rerun_is_identical(self):
        instances = random_batch(20, seed0=2400, L=6, V=3)
        first = compare_strategies(instances, ["greedy", "joint-viterbi"], "joint", beta=0.0)
        second = compare_strategies(instances, ["greedy", "joint-viterbi"], "joint", beta=0.0)
        assert first == second

    def test_one_joint_table_per_instance_for_match_rates(self, table_builds):
        # viterbi and joint-viterbi build one table each; match rates share one more.
        instances = random_batch(5, seed0=3000, L=6, V=3)
        compare_strategies(instances, ["greedy", "lookahead", "viterbi", "joint-viterbi"])
        assert len(table_builds) == 3 * len(instances)

    def test_greedy_never_beats_viterbi_on_path_score(self):
        # Same dominance statement as the joint case, read on path scores.
        for inst in random_batch(100, seed0=2500, L=8, V=2):
            assert greedy_decode(inst).path_logprob <= viterbi_decode(inst, beta=0.0).path_logprob


class TestOptimumMatchRate:
    def test_single_path_lattice_always_matches(self, i2):
        for strategy in ("greedy", "lookahead", "viterbi", "joint-viterbi"):
            assert optimum_match_rate([i2], strategy) == 1.0

    def test_joint_viterbi_defines_the_optimum(self):
        instances = random_batch(50, seed0=2600, L=8, V=3)
        assert optimum_match_rate(instances, "joint-viterbi", beta=0.0) == 1.0

    def test_lookahead_rate_pinned(self):
        # Frozen from the first exhaustive-enumeration run over these seeds;
        # the oracle and the per-length table agree on every instance.
        instances = random_batch(200, seed0=9000, L=8, V=3)
        assert optimum_match_rate(instances, "lookahead") == pytest.approx(0.89)


class TestBenchmark:
    def test_smoke_and_ratio(self):
        # Both strategies complete at L=128; the ratio is reported, not bounded.
        instances = random_batch(3, seed0=2800, L=128, V=4)
        timings = benchmark(instances, ["greedy", "joint-viterbi"], repetitions=3)
        assert set(timings) == {"greedy", "joint-viterbi"}
        assert timings["greedy"].ratio_vs_baseline == 1.0
        for stats in timings.values():
            assert isinstance(stats, TimingStats)
            assert stats.mean_seconds > 0.0
            assert stats.std_seconds >= 0.0
            assert stats.ratio_vs_baseline > 0.0

    def test_too_few_repetitions_rejected(self, i2):
        with pytest.raises(ValueError):
            benchmark([i2], ["greedy"], repetitions=1)

    def test_unknown_baseline_rejected(self, i2):
        with pytest.raises(ValueError):
            benchmark([i2], ["greedy"], repetitions=3, baseline="viterbi")
