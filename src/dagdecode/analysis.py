"""Cross-strategy comparison: average scores, win rates, and timings.

Scores can be the joint log-probability of each hypothesis or the exact
marginal log-probability of its token sequence. Two scores within 1e-9 of
each other in log space (a probability ratio within ~1e-9) count as a tie
and are reported separately from wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import scoring
from .decoders import DEFAULT_BETA, TableMode, build_viterbi_table, decode
from .lattice import Hypothesis, Instance

SCORE_KINDS = ("joint", "marginal")

#: Log-space slack under which two scores count as equal.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class TimingStats:
    """Per-strategy wall-clock summary from a benchmark run."""

    mean_seconds: float
    std_seconds: float
    ratio_vs_baseline: float


@dataclass(frozen=True)
class StrategyReport:
    """Aggregate comparison of decoding strategies over an instance set."""

    score_kind: str
    per_strategy_avg_logprob: dict[str, float]
    pairwise_win_rates: dict[tuple[str, str], float]
    pairwise_tie_rates: dict[tuple[str, str], float]
    optimum_match_rate: dict[str, float]
    timings: dict[str, TimingStats] | None = None


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
        Names accepted by :func:`dagdecode.decoders.decode`.
    score_kind : "joint" or "marginal"
        Joint scores read the hypothesis directly; marginal scores sum the
        hypothesis tokens' probability over all paths of their length.
    beta : float
        Length penalty passed to the table-based strategies.

    The report is deterministic given the instance order.
    """
    instances = list(instances)
    strategies = list(strategies)
    if not instances:
        raise ValueError("empty instance set")
    if score_kind not in SCORE_KINDS:
        raise ValueError(f"score_kind must be one of {SCORE_KINDS}, got {score_kind!r}")

    outputs = {
        name: [decode(inst, name, beta) for inst in instances] for name in strategies
    }
    scores = {
        name: [
            _score(inst, hyp, score_kind)
            for inst, hyp in zip(instances, outputs[name])
        ]
        for name in strategies
    }

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

    optima = _joint_optima(instances)
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
    instances = list(instances)
    if not instances:
        raise ValueError("empty instance set")
    outputs = [decode(inst, strategy, beta) for inst in instances]
    return _match_fraction(_joint_optima(instances), outputs)


def benchmark(
    instances,
    strategies,
    repetitions: int,
    beta: float = DEFAULT_BETA,
    baseline: str | None = None,
) -> dict[str, TimingStats]:
    """Mean and std of per-instance decode wall time, plus a baseline ratio.

    One untimed warm-up pass per strategy precedes ``repetitions`` timed
    passes (repetitions >= 3). Timing runs sequentially on purpose; do not
    parallelize it.
    """
    instances = list(instances)
    strategies = list(strategies)
    if not instances:
        raise ValueError("empty instance set")
    if repetitions < 3:
        raise ValueError(f"repetitions must be >= 3, got {repetitions}")
    baseline = baseline or strategies[0]
    if baseline not in strategies:
        raise ValueError(f"baseline {baseline!r} not among strategies {strategies}")

    per_instance: dict[str, list[float]] = {}
    for name in strategies:
        for inst in instances:
            decode(inst, name, beta)
        samples = []
        for _ in range(repetitions):
            start = time.perf_counter()
            for inst in instances:
                decode(inst, name, beta)
            elapsed = time.perf_counter() - start
            samples.append(elapsed / len(instances))
        per_instance[name] = samples

    means = {name: float(np.mean(v)) for name, v in per_instance.items()}
    stds = {name: float(np.std(v, ddof=1)) for name, v in per_instance.items()}
    return {
        name: TimingStats(
            mean_seconds=means[name],
            std_seconds=stds[name],
            ratio_vs_baseline=means[name] / means[baseline],
        )
        for name in strategies
    }


def _score(instance: Instance, hyp: Hypothesis, score_kind: str) -> float:
    if score_kind == "joint":
        return hyp.joint_logprob
    return scoring.marginal_translation_log_prob(instance, hyp.tokens)


def _is_tie(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= TIE_TOL


def _joint_optima(instances) -> list[np.ndarray]:
    """Per instance, the best joint log-score per output length (a JOINT table's last column)."""
    return [
        build_viterbi_table(inst, TableMode.JOINT).alpha[:, -1].copy()  # frees the table
        for inst in instances
    ]


def _match_fraction(optima, outputs) -> float:
    hits = sum(
        _is_tie(hyp.joint_logprob, float(best[hyp.length - 1]))
        for best, hyp in zip(optima, outputs)
    )
    return hits / len(optima)
