"""Cross-strategy comparison: average scores, win rates, and timings.

Scores can be the joint log-probability of each hypothesis or the exact
marginal log-probability of its token sequence. When several strategies
output the same token sequence for an instance, its marginal is computed
once. Two scores within 1e-9 of each other in log space (a probability
ratio within ~1e-9) count as a tie and are reported separately from wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import scoring
from .decoders import (
    DEFAULT_BETA,
    STRATEGIES,
    TABLE_MODES,
    TableMode,
    build_viterbi_table,
    decode,
    table_decode,
)
from .lattice import Instance, later_hops

SCORE_KINDS = ("joint", "marginal")

#: Log-space slack under which two scores count as equal.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class TimingStats:
    """Per-strategy wall-clock summary from a benchmark run."""

    median_seconds: float
    ratio_vs_baseline: float


@dataclass(frozen=True)
class StrategyReport:
    """Aggregate comparison of decoding strategies over an instance set."""

    score_kind: str
    per_strategy_avg_logprob: dict[str, float]
    pairwise_win_rates: dict[tuple[str, str], float]
    pairwise_tie_rates: dict[tuple[str, str], float]
    optimum_match_rate: dict[str, float]


def compare_strategies(
    instances,
    strategies,
    score_kind: str = "joint",
    beta: float = DEFAULT_BETA,
) -> StrategyReport:
    """Decode every instance with every strategy and tabulate the outcome.

    Parameters
    ----------
    instances : sequence of Instance
    strategies : sequence of str
        Distinct names accepted by :func:`dagdecode.decoders.decode`.
    score_kind : "joint" or "marginal"
        Joint scores read the hypothesis directly; marginal scores sum the
        hypothesis tokens' probability over all paths of their length.
    beta : float
        Length penalty passed to the table-based strategies.

    The report is deterministic given the instance order.
    """
    instances = list(instances)
    strategies = check_strategies(strategies)
    if not instances:
        raise ValueError("empty instance set")
    if score_kind not in SCORE_KINDS:
        raise ValueError(f"score_kind must be one of {SCORE_KINDS}, got {score_kind!r}")

    per_instance = [_decode_instance(inst, strategies, beta) for inst in instances]
    optima = [best for _, best in per_instance]
    outputs = {name: [hyps[name] for hyps, _ in per_instance] for name in strategies}
    if score_kind == "joint":
        scores = {name: [hyp.joint_logprob for hyp in outputs[name]] for name in strategies}
    else:
        scores = {name: [] for name in strategies}
        for inst, (hyps, _) in zip(instances, per_instance):
            # Each distinct token sequence is scored once per instance, and
            # all of an instance's forward passes share one mask of its hops.
            marginals, hops = {}, later_hops(inst.log_transitions)
            for name in strategies:
                tokens = hyps[name].tokens
                if tokens not in marginals:
                    marginals[tokens] = scoring.marginal_translation_log_prob(
                        inst, tokens, hops=hops
                    )
                scores[name].append(marginals[tokens])

    avg = {name: float(np.mean(scores[name])) for name in strategies}

    win_rates: dict[tuple[str, str], float] = {}
    tie_rates: dict[tuple[str, str], float] = {}
    n = len(instances)
    for a in strategies:
        for b in strategies:
            if a == b:
                continue
            wins = ties = 0
            for sa, sb in zip(scores[a], scores[b]):
                if _is_tie(sa, sb):
                    ties += 1
                elif sa > sb:
                    wins += 1
            win_rates[(a, b)] = wins / n
            tie_rates[(a, b)] = ties / n

    match = {name: _match_fraction(optima, outputs[name]) for name in strategies}

    return StrategyReport(
        score_kind=score_kind,
        per_strategy_avg_logprob=avg,
        pairwise_win_rates=win_rates,
        pairwise_tie_rates=tie_rates,
        optimum_match_rate=match,
    )


def optimum_match_rate(instances, strategy: str, beta: float = DEFAULT_BETA) -> float:
    """Fraction of instances where a strategy's joint score is optimal
    among all outputs of its own length."""
    return compare_strategies(instances, [strategy], beta=beta).optimum_match_rate[strategy]


def benchmark(
    instances,
    strategies,
    repetitions: int,
    beta: float = DEFAULT_BETA,
) -> dict[str, TimingStats]:
    """Median wall time of one decode per strategy, and its ratio to the first strategy's.

    One untimed warm-up decode of every instance by every strategy precedes
    ``repetitions`` timed rounds (repetitions >= 3). Each decode is timed on
    its own, and the strategies take turns on each instance, so a host stall
    moves a few samples rather than the medians. Timing runs sequentially on
    purpose; do not parallelize it.
    """
    instances = list(instances)
    strategies = check_strategies(strategies)
    if not instances:
        raise ValueError("empty instance set")
    if repetitions < 3:
        raise ValueError(f"repetitions must be >= 3, got {repetitions}")

    for inst in instances:  # warm-up: first calls and the compiled kernels
        for name in strategies:
            decode(inst, name, beta)
    samples: dict[str, list[float]] = {name: [] for name in strategies}
    for _ in range(repetitions):
        for inst in instances:
            for name in strategies:
                start = time.perf_counter()
                decode(inst, name, beta)
                samples[name].append(time.perf_counter() - start)

    medians = {name: float(np.median(v)) for name, v in samples.items()}
    return {
        name: TimingStats(
            median_seconds=medians[name],
            ratio_vs_baseline=medians[name] / medians[strategies[0]],
        )
        for name in strategies
    }


def check_strategies(strategies) -> list[str]:
    """The names as a list; ValueError if one is unknown or named twice, or if there are none."""
    names = list(strategies)
    unknown = [n for n in names if n not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; expected among {list(STRATEGIES)}")
    if not names:
        raise ValueError("need at least one strategy")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(f"duplicate strategies {duplicates}")
    return names


def _is_tie(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= TIE_TOL


def _decode_instance(instance: Instance, strategies, beta: float):
    """Every strategy's hypothesis on one instance, and its best joint log-score per length.

    The scores are the JOINT table's ``alpha``; the joint-viterbi decode's own
    table supplies them when that strategy runs, so the table is built once
    per instance either way.
    """
    hyps = {}
    joint = None
    for name in strategies:
        if TABLE_MODES.get(name) is TableMode.JOINT:
            hyps[name], _, joint = table_decode(instance, TableMode.JOINT, beta)
        else:
            hyps[name] = decode(instance, name, beta)
    if joint is None:
        joint = build_viterbi_table(instance, TableMode.JOINT)
    return hyps, joint.alpha


def _match_fraction(optima, outputs) -> float:
    hits = sum(
        _is_tie(hyp.joint_logprob, float(best[hyp.length - 1]))
        for best, hyp in zip(optima, outputs)
    )
    return hits / len(optima)
