"""Exhaustive enumeration ground truth for small lattices.

Everything here works in linear probability space with naive products and
compensated sums, deliberately sharing no arithmetic with the log-space
decoders it is used to check. Enumeration cost is 2^(L-2) paths, so a hard
cap on L keeps it honest. Each path's product takes the same IEEE
operations in the same order as a loop over its positions would: its hops
left to right from 1.0, then its emission factors in position order.

No path's positions are listed. Every path from 1 to L extends a prefix
through the low interior positions 2..s+1 (1-based), s = min(L-2,
floor(log2(BLOCK_PATHS))), so the hop products of those 2^s prefixes are
built once, size by size: each is its parent's (the same prefix without
its last position) times one hop. A block is one set of high interior
positions (above s+1), then L, after each of the 2^s prefixes: one
multiply per path joins a prefix to the block's first high position, and
each further hop is one scalar multiply for the whole block, so memory
holds a few blocks of 2^s <= BLOCK_PATHS products whatever the number of
paths. The emissions follow in position order: at a low position a prefix
skips, the joint search multiplies by 1.0, which is exact; the marginal
builds only the sizes it reads and scores one size at a time, whose k-th
position emits the k-th token.

Within a block the prefixes are kept by size, then lexicographically, so
``np.argmax`` gives each length's first best path there. Across blocks a
later block's path wins on a strictly higher probability, or on an equal
one when its positions come first lexicographically, which is the loop's
first best path. A reported probability that overflows to ``+inf``
(unvalidated log-scores near 710) raises InstanceValidationError. A path
whose product is NaN, an overflowing factor times an impossible (zero)
one, counts as probability 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, InstanceValidationError, ShapeError
from .lattice import DecodingPath, Instance, check_tokens

DEFAULT_CAP = 16

#: Paths per block: a block scores the 2^s <= BLOCK_PATHS prefixes through the
#: low interior positions, so memory grows with neither L nor the number of paths.
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
    within a length. Count is 2^(L-2) for L >= 2, one path for L = 1.
    """
    L = _check_cap(instance, cap)
    if L == 1:
        yield DecodingPath((1,))
        return
    for M in range(2, L + 1):
        for interior in combinations(range(2, L), M - 2):
            yield DecodingPath((1, *interior, L))


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_path(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the path probability, per length and globally."""
    return _best_over_paths(instance, cap, None, "path")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the results are checked
def brute_force_best_joint(instance: Instance, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """Exact max of the joint probability with per-position argmax tokens.

    Fixing each visited position's token to its most probable one is
    lossless for the max: the best token choice factorizes per position.
    """
    best_token_prob = np.exp(instance.log_emissions).max(axis=1)
    return _best_over_paths(instance, cap, best_token_prob, "joint")


@np.errstate(over="ignore", invalid="ignore")  # once per call: the result is checked
def brute_force_marginal(instance: Instance, tokens, cap: int = DEFAULT_CAP) -> float:
    """Sum of path * emission probability over all paths of matching length.

    Linear-space with compensated summation (math.fsum), which is exactly
    rounded, so the order of the terms does not matter. Returns 0.0 when no
    path of that length exists; an empty token sequence raises ShapeError,
    as the log-space marginal does.
    """
    toks = check_tokens(instance, tokens)
    if not len(toks):
        raise ShapeError("token sequence is empty")
    L = _check_cap(instance, cap)
    try:
        total = math.fsum(chain.from_iterable(_marginal_blocks(instance, toks, L)))
    except OverflowError:  # finite terms whose sum is not
        total = math.inf
    return _finite_probability(total, "marginal")


def _marginal_blocks(instance: Instance, toks: np.ndarray, L: int) -> Iterator[list[float]]:
    """Each block's probabilities of the paths of ``len(toks)`` positions emitting ``toks``."""
    trans = np.exp(instance.log_transitions)
    emis = np.exp(instance.log_emissions)
    s = _low_count(L)
    top = min(s, max(len(toks) - 2, 0))
    rows, _, starts, last, _ = _low_sets(s)
    prefix = _prefixes(trans, s, top)
    for c in range(top + 1):
        tails = list(_tails(L, s, len(toks) - 1 - c))
        if not tails:
            continue
        size = slice(starts[c], starts[c + 1])
        low_factors = [emis[rows[c][:, k], toks[1 + k]] for k in range(c)]
        for tail in tails:
            p = _hop_products(prefix[size], last[size], trans, tail)
            p *= emis[0, toks[0]]
            for factor in low_factors:
                p *= factor
            for t, y in zip(tail, toks[1 + c :]):
                p *= emis[t, y]
            p[np.isnan(p)] = 0.0
            yield p.tolist()


def _best_over_paths(instance, cap, factor, name: str) -> EnumerationResult:
    """Each length's first best path; ``factor`` is the joint's per-position one, or None."""
    L = _check_cap(instance, cap)
    trans = np.exp(instance.log_transitions)
    s = _low_count(L)
    rows, _, starts, last, taken = _low_sets(s)
    prefix = _prefixes(trans, s, s)
    if factor is not None:
        low_factors = np.where(taken.T, factor[1 : s + 1, None], 1.0)
    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    count = 0
    for n in range(L - s):
        for tail in _tails(L, s, n):
            p = _hop_products(prefix, last, trans, tail)
            if factor is not None:
                p *= factor[0]
                for row in low_factors:
                    p *= row
                for t in tail:
                    p *= factor[t]
            p[np.isnan(p)] = 0.0
            count += len(p)
            tops = np.maximum.reduceat(p, starts[:-1]).tolist()
            for c, top in enumerate(tops):
                M = 1 + c + len(tail)
                held = best.get(M)
                if held is not None and top < held[0]:
                    continue
                k = int(np.argmax(p[starts[c] : starts[c + 1]]))  # the first maximum
                positions = (0, *rows[c][k].tolist(), *tail)
                if held is None or top > held[0] or positions < held[1]:
                    best[M] = (p[starts[c] + k], positions)
    best_per_length = {
        M: (DecodingPath([t + 1 for t in best[M][1]]), best[M][0]) for M in sorted(best)
    }
    global_best = None
    for entry in best_per_length.values():
        _finite_probability(entry[1], name)
        if global_best is None or entry[1] >= global_best[1]:
            global_best = entry
    return EnumerationResult(
        best_per_length=best_per_length, global_best=global_best, path_count=count
    )


def _low_count(L: int) -> int:
    """s, the number of low interior positions: at most L - 2 and 2^s <= BLOCK_PATHS."""
    return max(0, min(L - 2, BLOCK_PATHS.bit_length() - 1))


@lru_cache(maxsize=None)
def _low_sets(s: int) -> tuple[tuple, np.ndarray, tuple[int, ...], np.ndarray, np.ndarray]:
    """The 2^s subsets of the low positions 1..s (0-based), by size, then lexicographically.

    ``rows[c]`` holds the subsets of size c, one row of positions each, and
    ``starts[c]`` where they begin in the table of all 2^s (``starts[s + 1]``
    its end). Per subset in that table, ``parent`` is the index of the same
    subset without its last position, ``last`` that position (0 for the
    empty subset) and ``taken[:, j - 1]`` whether it takes position j.
    """
    parent, last = np.zeros(1 << s, dtype=np.intp), np.zeros(1 << s, dtype=np.intp)
    taken = np.zeros((1 << s, s), dtype=bool)
    # A byte per position in ``rows`` (s < 64): they are most of what the cache holds.
    rows, starts = [np.zeros((1, 0), dtype=np.int8)], [0, 1]
    for c in range(1, s + 1):
        # Each subset of size c - 1 extends, in order, by each position above its last.
        up, j = np.nonzero(last[starts[c - 1] : starts[c], None] <= np.arange(s))
        size = slice(starts[c], starts[c] + len(up))
        parent[size], last[size] = starts[c - 1] + up, j + 1
        rows.append(np.column_stack([rows[c - 1][up], j + 1]).astype(np.int8))
        taken[size] = taken[parent[size]] | (np.arange(s) == j[:, None])
        starts.append(size.stop)
    for array in (parent, last, taken, *rows):  # shared by every call
        array.flags.writeable = False
    return tuple(rows), parent, tuple(starts), last, taken


def _prefixes(trans: np.ndarray, s: int, top: int) -> np.ndarray:
    """The hop product, from 1.0 left to right, of each prefix 0, low subset, up to size ``top``.

    In ``_low_sets`` order, built size by size: each is its parent's times
    one hop, so the empty prefix's 1.0 gives ``1.0 * hop``, the loop's
    first operation.
    """
    _, parent, starts, last, _ = _low_sets(s)
    products = np.ones(starts[top + 1])
    for c in range(1, top + 1):
        size = slice(starts[c], starts[c + 1])
        up = parent[size]
        products[size] = products[up] * trans[last[up], last[size]]
    return products


def _tails(L: int, s: int, n: int) -> Iterator[tuple[int, ...]]:
    """What follows a prefix on the paths with n more positions: high ones s+1..L-2, then L - 1.

    0-based. On one position the only path is its prefix, whose tail is empty.
    """
    if L == 1:
        if n == 0:
            yield ()
    elif n > 0:
        for high in combinations(range(s + 1, L - 1), n - 1):
            yield (*high, L - 1)


def _hop_products(prefix: np.ndarray, last: np.ndarray, trans: np.ndarray, tail) -> np.ndarray:
    """The hop products of each prefix followed by ``tail``, left to right."""
    if not tail:
        return prefix.copy()
    p = prefix * trans[last, tail[0]]
    for a, b in zip(tail, tail[1:]):
        p *= trans[a, b]
    return p


def _finite_probability(value, name: str):
    """``value``, or InstanceValidationError where it is ``+inf`` or NaN."""
    if not value < math.inf:
        raise InstanceValidationError([f"the {name} probability overflows to +inf"])
    return value


def _check_cap(instance: Instance, cap: int) -> int:
    if instance.L > cap:
        raise EnumerationCapError(
            f"lattice has {instance.L} positions; enumeration capped at {cap}"
        )
    return instance.L
