"""Exhaustive enumeration ground truth for small lattices.

Everything here works in linear probability space with naive products and
compensated sums, deliberately sharing no arithmetic with the log-space
decoders it is used to check. Enumeration cost is 2^(L-2) paths, so a hard
cap on L keeps it honest. Paths are scored as numpy arrays, a block of at
most ``BLOCK_PATHS`` paths of one length at a time, so memory holds a few
blocks whatever the number of paths. Each path's product takes the same
IEEE operations in the same order as a loop over its positions would: its
hops left to right from 1.0, then its emission factors in position order.
A reported probability that overflows to ``+inf`` (unvalidated log-scores
near 710) raises InstanceValidationError. A path whose product is NaN, an
overflowing factor times an impossible (zero) one, counts as probability 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, InstanceValidationError
from .lattice import DecodingPath, Instance, check_tokens

DEFAULT_CAP = 16

#: Paths per block: a block's arrays hold BLOCK_PATHS x (path length) entries,
#: so memory grows with L, never with the number of paths of a length.
BLOCK_PATHS = 4096


@dataclass(frozen=True)
class EnumerationResult:
    """Best path (and probability) per length, the global best, and the count.

    Probabilities are linear-space ``np.float64``. Within a length, ties keep
    the first path in enumeration order (lexicographically smallest); across
    lengths the longer path wins a tie, matching the decoders' length
    selection.
    """

    best_per_length: dict[int, tuple[DecodingPath, float]]
    global_best: tuple[DecodingPath, float]
    path_count: int


def enumerate_paths(instance: Instance, cap: int = DEFAULT_CAP) -> Iterator[DecodingPath]:
    """Yield every endpoint-anchored path: each subset of interior positions.

    Paths come out grouped by increasing length and lexicographically
    within a length, the order in which the scorers see them. Count is
    2^(L-2) for L >= 2, one path for L = 1.
    """
    L = _check_cap(instance, cap)
    for M in _lengths(L):
        for block in _path_blocks(L, M):
            for row in (block + 1).tolist():
                yield DecodingPath(row)


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_path(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the path probability, per length and globally."""
    return _best_over_paths(instance, cap, lambda M: (), "path")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_joint(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the joint probability with per-position argmax tokens.

    Fixing each visited position's token to its most probable one is
    lossless for the max: the best token choice factorizes per position.
    """
    best_token_prob = _prob_table(instance.log_emissions).max(axis=1)
    return _best_over_paths(instance, cap, lambda M: [best_token_prob] * M, "joint")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the result is checked
def brute_force_marginal(instance: Instance, tokens, cap: int = DEFAULT_CAP) -> float:
    """Sum of path * emission probability over all paths of matching length.

    Linear-space with compensated summation (math.fsum), which is exactly
    rounded, so the order of the terms does not matter. Returns 0.0 when no
    path of that length exists.
    """
    toks = check_tokens(instance, tokens)
    L = _check_cap(instance, cap)
    trans = _prob_table(instance.log_transitions)
    emis = _prob_table(instance.log_emissions)
    factors = [emis[:, y] for y in toks]
    terms = chain.from_iterable(
        _products(block, trans, factors).tolist() for block in _path_blocks(L, len(toks))
    )
    try:
        total = math.fsum(terms)
    except OverflowError:  # finite terms whose sum is not
        total = math.inf
    return _finite_probability(total, "marginal")


def _best_over_paths(instance, cap, factors, name: str) -> EnumerationResult:
    """Each length's first best path, where ``factors(M)`` are its per-position vectors."""
    L = _check_cap(instance, cap)
    trans = _prob_table(instance.log_transitions)
    best_per_length: dict[int, tuple[DecodingPath, float]] = {}
    count = 0
    for M in _lengths(L):
        best, per_position = None, factors(M)
        for block in _path_blocks(L, M):
            count += len(block)
            p = _products(block, trans, per_position)
            i = int(np.argmax(p))  # the first maximum
            if best is None or p[i] > best[1]:
                best = (DecodingPath((block[i] + 1).tolist()), p[i])
        best_per_length[M] = best
    global_best = None
    for M in sorted(best_per_length):
        entry = best_per_length[M]
        _finite_probability(entry[1], name)
        if global_best is None or entry[1] >= global_best[1]:
            global_best = entry
    return EnumerationResult(
        best_per_length=best_per_length, global_best=global_best, path_count=count
    )


def _products(block: np.ndarray, trans: np.ndarray, factors) -> np.ndarray:
    """Each path's linear probability: its hops from 1.0, then ``factors[k]`` at its k-th position.

    One column at a time, so each row takes its loop's IEEE operations in
    order (``1.0 * x`` is exact). NaN, which is inf x 0, an impossible
    path, becomes 0.
    """
    p = np.ones(len(block))
    for k in range(block.shape[1] - 1):
        p *= trans[block[:, k], block[:, k + 1]]
    for k, factor in enumerate(factors):
        p *= factor[block[:, k]]
    p[np.isnan(p)] = 0.0
    return p


def _lengths(L: int) -> range:
    """The path lengths a lattice of L positions has: 1 alone, or 2 to L."""
    return range(min(L, 2), L + 1)


def _path_blocks(L: int, M: int) -> Iterator[np.ndarray]:
    """Every path of M positions, 0-based, as ``(n, M)`` blocks of at most BLOCK_PATHS rows.

    Rows are in lexicographic order across blocks; none come out when no
    path has M positions.
    """
    if L == 1 or M < 2:
        if M == L:
            yield np.zeros((1, 1), dtype=np.intp)
        return
    interior = combinations(range(1, L - 1), M - 2)
    left = math.comb(L - 2, M - 2)
    while left:
        n = min(left, BLOCK_PATHS)
        left -= n
        block = np.empty((n, M), dtype=np.intp)
        block[:, 0] = 0
        block[:, -1] = L - 1
        block[:, 1:-1] = np.fromiter(
            chain.from_iterable(islice(interior, n)), np.intp, n * (M - 2)
        ).reshape(n, M - 2)
        yield block


def _finite_probability(value, name: str):
    """``value``, or InstanceValidationError where it is ``+inf`` or NaN."""
    if not value < math.inf:
        raise InstanceValidationError([f"the {name} probability overflows to +inf"])
    return value


def _prob_table(log_table: np.ndarray) -> np.ndarray:
    return np.exp(log_table)


def _check_cap(instance: Instance, cap: int) -> int:
    if instance.L > cap:
        raise EnumerationCapError(
            f"lattice has {instance.L} positions; enumeration capped at {cap}"
        )
    return instance.L
