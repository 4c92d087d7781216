import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dagdecode
from dagdecode import (
    TableMode,
    TimingStats,
    analysis,
    benchmark,
    compare_strategies,
    decode,
    greedy_decode,
    optimum_match_rate,
    scoring,
    viterbi_decode,
)
from dagdecode.decoders import STRATEGIES

from conftest import random_batch, reference_marginal

#: perfbench's scripts, whose ``run.generated`` makes each workload's instances.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def analyze_inputs():
    """perfbench's seed-0 ``analyze`` instances, made by perfbench's own ``generated``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from run import generated

    return generated(dagdecode, 0, 2000, 16, 64, 16)


@pytest.fixture
def marginal_work(monkeypatch) -> dict:
    """Every forward pass (instance id, tokens) and every ``later_hops`` build of the marginal."""
    work = {"passes": [], "hop_builds": 0}
    marginal, later_hops = scoring.marginal_translation_log_prob, scoring.later_hops

    def counted_marginal(instance, tokens):
        work["passes"].append((id(instance), tuple(tokens)))
        return marginal(instance, tokens)

    def counted_hops(log_transitions):
        work["hop_builds"] += 1
        return later_hops(log_transitions)

    monkeypatch.setattr(scoring, "marginal_translation_log_prob", counted_marginal)
    monkeypatch.setattr(scoring, "later_hops", counted_hops)
    return work


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

    @pytest.mark.parametrize(
        "strategies, message",
        [
            (["joint-viterbi", "joint-viterbi"], "duplicate strategies"),
            (["greedy", "beam"], "unknown strategies"),
            ([], "at least one strategy"),
        ],
    )
    def test_bad_strategy_list_rejected(self, i2, table_builds, strategies, message):
        with pytest.raises(ValueError, match=message):
            compare_strategies([i2], strategies)
        with pytest.raises(ValueError, match=message):
            benchmark([i2], strategies, repetitions=3)
        assert table_builds == []

    def test_unknown_score_kind_rejected(self, i2):
        with pytest.raises(ValueError):
            compare_strategies([i2], ["greedy"], "likelihood")

    def test_rerun_is_identical(self):
        instances = random_batch(20, seed0=2400, L=6, V=3)
        first = compare_strategies(instances, ["greedy", "joint-viterbi"], "joint", beta=0.0)
        second = compare_strategies(instances, ["greedy", "joint-viterbi"], "joint", beta=0.0)
        assert first == second

    def test_one_joint_table_per_instance_for_match_rates(self, table_builds):
        # viterbi at beta 1 takes longest-path passes, joint-viterbi builds the
        # JOINT table, and the match rates read that table.
        instances = random_batch(5, seed0=3000, L=6, V=3)
        compare_strategies(instances, ["greedy", "lookahead", "viterbi", "joint-viterbi"])
        assert table_builds == [TableMode.JOINT] * len(instances)
        table_builds.clear()
        optimum_match_rate(instances, "joint-viterbi")
        assert table_builds == [TableMode.JOINT] * len(instances)

    def test_greedy_never_beats_viterbi_on_path_score(self):
        # Same dominance statement as the joint case, read on path scores.
        for inst in random_batch(100, seed0=2500, L=8, V=2):
            assert greedy_decode(inst).path_logprob <= viterbi_decode(inst, beta=0.0).path_logprob


class TestMarginalScores:
    def test_each_distinct_sequence_scored_once(self, marginal_work):
        instances = analyze_inputs()
        report = compare_strategies(instances, STRATEGIES, "marginal", beta=1.0)
        hyps = {name: [decode(inst, name, 1.0) for inst in instances] for name in STRATEGIES}
        distinct = {
            (id(inst), hyp.tokens) for name in STRATEGIES for inst, hyp in zip(instances, hyps[name])
        }
        assert len(distinct) == 44  # of 64 hypotheses
        assert sorted(marginal_work["passes"]) == sorted(distinct)
        # Each pass is one public call, which masks the hops no path takes for itself.
        assert marginal_work["hop_builds"] == len(distinct)
        for name in STRATEGIES:
            expected = np.mean([reference_marginal(i, h.tokens) for i, h in zip(instances, hyps[name])])
            assert repr(report.per_strategy_avg_logprob[name]) == repr(float(expected))

    def test_joint_scores_run_no_forward_pass(self, marginal_work):
        compare_strategies(analyze_inputs(), STRATEGIES, "joint", beta=1.0)
        assert marginal_work == {"passes": [], "hop_builds": 0}


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
            assert stats.median_seconds > 0.0
            assert stats.ratio_vs_baseline > 0.0

    def test_strategies_take_turns_after_one_warm_up(self, monkeypatch, i2, i4):
        calls = []
        monkeypatch.setattr(
            analysis, "decode", lambda inst, name, beta: calls.append((inst.L, name))
        )
        benchmark([i2, i4], ["greedy", "joint-viterbi"], repetitions=3)
        one_round = [(2, "greedy"), (2, "joint-viterbi"), (4, "greedy"), (4, "joint-viterbi")]
        assert calls == one_round * 4  # the warm-up, then 3 timed rounds

    def test_too_few_repetitions_rejected(self, i2):
        with pytest.raises(ValueError):
            benchmark([i2], ["greedy"], repetitions=1)
