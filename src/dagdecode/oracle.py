"""Exhaustive enumeration ground truth for small lattices.

Everything here works in linear probability space with naive products and
compensated sums, deliberately sharing no arithmetic with the log-space
decoders it is used to check. Enumeration cost is 2^(L-2) paths, so a hard
cap on L keeps it honest and fast. A reported probability that overflows
to ``+inf`` (unvalidated log-scores near 710) raises InstanceValidationError.
A path whose product is NaN, an overflowing factor times an impossible
(zero) one, counts as probability 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, InstanceValidationError
from .lattice import DecodingPath, Instance, check_tokens

DEFAULT_CAP = 16


@dataclass(frozen=True)
class EnumerationResult:
    """Best path (and probability) per length, the global best, and the count.

    Probabilities are linear-space. Within a length, ties keep the first
    path in enumeration order (lexicographically smallest); across lengths
    the longer path wins a tie, matching the decoders' length selection.
    """

    best_per_length: dict[int, tuple[DecodingPath, float]]
    global_best: tuple[DecodingPath, float]
    path_count: int


def enumerate_paths(instance: Instance, cap: int = DEFAULT_CAP) -> Iterator[DecodingPath]:
    """Yield every endpoint-anchored path: each subset of interior positions.

    Paths come out grouped by increasing length and lexicographically
    within a length. Count is 2^(L-2) for L >= 2, one path for L = 1.
    """
    L = _check_cap(instance, cap)
    if L == 1:
        yield DecodingPath((1,))
        return
    interior = range(2, L)
    for m in range(0, L - 1):
        for combo in combinations(interior, m):
            yield DecodingPath((1, *combo, L))


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_path(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the path probability, per length and globally."""
    trans = _prob_table(instance.log_transitions)
    return _best_over_paths(instance, cap, lambda pos: _hop_product(trans, pos), "path")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_joint(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the joint probability with per-position argmax tokens.

    Fixing each visited position's token to its most probable one is
    lossless for the max: the best token choice factorizes per position.
    """
    trans = _prob_table(instance.log_transitions)
    emis = _prob_table(instance.log_emissions)
    best_token_prob = emis.max(axis=1)

    def score(pos):
        p = _hop_product(trans, pos)
        for t in pos:
            p *= best_token_prob[t - 1]
        return p

    return _best_over_paths(instance, cap, score, "joint")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the result is checked
def brute_force_marginal(instance: Instance, tokens, cap: int = DEFAULT_CAP) -> float:
    """Sum of path * emission probability over all paths of matching length.

    Linear-space with compensated summation (math.fsum). Returns 0.0 when
    no path of that length exists.
    """
    toks = check_tokens(instance, tokens)
    trans = _prob_table(instance.log_transitions)
    emis = _prob_table(instance.log_emissions)
    M = len(toks)
    terms = []
    for path in enumerate_paths(instance, cap):
        if len(path) != M:
            continue
        p = _hop_product(trans, path.positions)
        for t, y in zip(path.positions, toks):
            p *= emis[t - 1, y]
        terms.append(p if p == p else 0.0)  # NaN is inf x 0: an impossible path
    try:
        total = math.fsum(terms)
    except OverflowError:  # finite terms whose sum is not
        total = math.inf
    return _finite_probability(total, "marginal")


def _best_over_paths(instance, cap, score, name: str) -> EnumerationResult:
    best_per_length: dict[int, tuple[DecodingPath, float]] = {}
    count = 0
    for path in enumerate_paths(instance, cap):
        count += 1
        p = score(path.positions)
        if p != p:  # NaN is inf x 0: an impossible path
            p = 0.0
        M = len(path)
        if M not in best_per_length or p > best_per_length[M][1]:
            best_per_length[M] = (path, p)
    global_best = None
    for M in sorted(best_per_length):
        entry = best_per_length[M]
        _finite_probability(entry[1], name)
        if global_best is None or entry[1] >= global_best[1]:
            global_best = entry
    return EnumerationResult(
        best_per_length=best_per_length, global_best=global_best, path_count=count
    )


def _finite_probability(value, name: str):
    """``value``, or InstanceValidationError where it is ``+inf`` or NaN."""
    if not value < math.inf:
        raise InstanceValidationError([f"the {name} probability overflows to +inf"])
    return value


def _hop_product(trans_prob: np.ndarray, positions) -> float:
    p = 1.0
    for a, b in zip(positions, positions[1:]):
        p *= trans_prob[a - 1, b - 1]
    return p


def _prob_table(log_table: np.ndarray) -> np.ndarray:
    return np.exp(log_table)


def _check_cap(instance: Instance, cap: int) -> int:
    if instance.L > cap:
        raise EnumerationCapError(
            f"lattice has {instance.L} positions; enumeration capped at {cap}"
        )
    return instance.L
