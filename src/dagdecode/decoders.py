"""Decoding strategies over a lattice instance.

Two sequential baselines (greedy, lookahead) and two dynamic-programming
decoders that are exact per output length: a max-score table over the
transition table alone (PATH mode) or over transitions with each target
position's best emission (``Instance.best_emission``) folded in (JOINT
mode). The table keeps what its readers read: each output length's best
log-score at position L, and the backpointers that recover that path.
Length selection divides each length's log-score by ``length ** beta``
before taking the argmax.

Which algorithm runs: at ``beta`` exactly 0 or 1, ``decode``,
``viterbi_decode`` and ``joint_viterbi_decode`` find the table's answer
with O(L^2) longest-path passes over the DAG (one pass at 0; Dinkelbach's
parametric method for the per-token mean at 1) and no table. The answer is
certified on the last pass; on a near-tie, and wherever the search stops
early (see ``Fallback``), they build the table instead, so results, tie
rules and errors are the table's. Any other ``beta``, and every caller
that reads every length (``table_decode``, ``decode_all_lengths``, the CLI
``decode``, analysis' optimum column), builds the O(L^3) table. A JOINT
weight that overflows never gets here (the instance refuses it); a path
score that overflows to ``+inf`` makes the table raise
``InstanceValidationError`` in either mode.

The whole search of an exact decode, and each table build, is one call of
a small C function (``_cpass``). The search runs, at ``beta = 1``, the walk
that seeds the mean, and then each pass, each path's mean (its hops added
left to right) and the stop rules; only the hypothesis is then scored in
numpy. Each pass does the forward fill, the margin, the backtrace and the
certificate; the table pushes each length's prefix scores forward and
writes the backpointers in their final dtype (``np.min_scalar_type(L)``).
The pass's fill and the table's push are one max-plus loop, run with and
without backpointers. All read the transitions in
place and add the JOINT bonus per column, so none makes an L x L weights
array. ``_cpass`` says how their library is compiled, cached and loaded.
On every ``Instance``'s weights, which hold no NaN, they return what the
numpy search (``_numpy_decode``, built on ``_numpy_pass``) and table
(``_numpy_table``) return. Where the library cannot be compiled or
loaded, the process silently runs the numpy code.

Tie-breaking is fixed everywhere so identical inputs decode identically:
backpointers prefer the smallest predecessor position, length selection
prefers the larger length, and token argmaxes prefer the smallest id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _cpass, scoring
from .errors import (
    DeadEndError,
    InfeasibleLengthError,
    InstanceValidationError,
    UnreachableTerminalError,
)
from .lattice import DecodingPath, Hypothesis, Instance, as_integer, later_hops
from .logmath import LOG_ZERO

STRATEGIES = ("greedy", "lookahead", "viterbi", "joint-viterbi")

DEFAULT_BETA = 1.0


class TableMode(enum.Enum):
    PATH = "path"
    JOINT = "joint"


#: The table each table-based strategy reads.
TABLE_MODES = {"viterbi": TableMode.PATH, "joint-viterbi": TableMode.JOINT}


@dataclass(frozen=True)
class ViterbiTable:
    """Best log-score per output length, and backpointers per prefix.

    ``alpha[i-1]`` is the best log-score of any length-i path from position 1
    to position L (``-inf`` where there is none); ``psi[i-1, t-1]`` is the
    1-based predecessor position on the best length-i prefix path ending at
    position t (0 where there is none), stored in the narrowest unsigned
    dtype that holds L. PATH mode scores transitions only; JOINT mode uses
    the emission-augmented transition table and seeds the start with
    position 1's best emission log-probability.
    """

    alpha: np.ndarray
    psi: np.ndarray

    @property
    def L(self) -> int:
        return self.alpha.shape[0]

    def predecessor(self, length: int, position: int) -> int:
        """1-based backpointer at (prefix length, end position); 0 if none."""
        return int(self.psi[length - 1, position - 1])

    def feasible_lengths(self) -> list[int]:
        """Lengths whose best path actually reaches the terminal position."""
        return [int(i) + 1 for i in np.flatnonzero(np.isfinite(self.alpha))]


@dataclass(frozen=True)
class LengthSelection:
    """Chosen output length and the (raw, penalized) score per feasible length."""

    chosen_M: int
    per_length_scores: dict[int, tuple[float, float]]


def build_viterbi_table(instance: Instance, mode: TableMode) -> ViterbiTable:
    """Fill the best score per length and the backpointers per (length, end position).

    One pass per prefix length; each pass maximizes over predecessors and
    carries only its row of best prefix scores to the next pass, keeping the
    terminal entry as that length's score. Positions earlier than the prefix
    length are unreachable, and only hops to strictly later positions are
    read. The predecessor argmax takes the first (smallest) position on ties.
    A path score that overflows to ``+inf`` raises ``InstanceValidationError``.
    The compiled table of ``_cpass`` runs where it loads; otherwise
    ``_numpy_table`` does, with the same result.
    """
    kernels = _cpass.load()
    alpha, psi, overflow = (kernels.table if kernels else _numpy_table)(
        *_hop_weights(instance, mode)
    )
    if overflow:
        raise InstanceValidationError(
            [f"a path score overflows to +inf within {overflow} positions"]
        )
    return ViterbiTable(alpha=alpha, psi=psi)


def select_length(table: ViterbiTable, beta: float) -> LengthSelection:
    """Pick the output length maximizing ``score / length**beta``.

    Raw scores are already log-space, so ``beta = 0`` reduces to a plain
    argmax over lengths. Lengths that never reach the terminal position are
    excluded; exact ties go to the larger length. A ``length**beta`` too large
    for a float counts as infinite, so those lengths score 0 and the larger
    one wins, as in the ``beta -> inf`` limit.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    per_length: dict[int, tuple[float, float]] = {}
    for length in table.feasible_lengths():
        raw = float(table.alpha[length - 1])
        try:
            penalized = raw / length**beta
        except OverflowError:
            penalized = raw / np.inf
        per_length[length] = (raw, penalized)
    if not per_length:
        raise UnreachableTerminalError("no path of any length reaches the terminal")
    chosen = max(per_length, key=lambda length: (per_length[length][1], length))
    return LengthSelection(chosen_M=chosen, per_length_scores=per_length)


def backtrace(table: ViterbiTable, M: int) -> DecodingPath:
    """Recover the best length-M path by walking backpointers from the end."""
    L = table.L
    M = as_integer(M, InfeasibleLengthError, "path length")
    if not 1 <= M <= L or not np.isfinite(table.alpha[M - 1]):
        raise InfeasibleLengthError(f"no path of length {M} reaches the terminal")
    positions = [L]
    t = L
    for i in range(M, 1, -1):
        t = int(table.psi[i - 1, t - 1])
        positions.append(t)
    positions.reverse()
    return DecodingPath(tuple(positions))


def argmax_hypothesis(instance: Instance, path) -> Hypothesis:
    """Emit the most probable token at each path position and score the result.

    A score that overflows to ``+inf`` raises ``InstanceValidationError``.
    """
    # Scoring checks the path (PathShapeError), so it comes before any indexing.
    with np.errstate(over="ignore", invalid="ignore"):
        path_lp = scoring._hop_sum(instance, path)
        pos = np.asarray(tuple(path), dtype=np.intp) - 1
        emission_lp = float(np.sum(instance.best_emission[pos]))
    for name, value in (("path_logprob", path_lp), ("emission_logprob", emission_lp),
                        ("joint_logprob", path_lp + emission_lp)):
        scoring._finite_score(value, f"hypothesis' {name}")
    return Hypothesis(path, instance.best_token[pos].tolist(), path_lp, emission_lp)


def greedy_decode(instance: Instance) -> Hypothesis:
    """Follow the most probable transition from each position until L."""
    return argmax_hypothesis(instance, _walk(instance.log_transitions, 0.0))


def lookahead_decode(instance: Instance) -> Hypothesis:
    """Step to the (position, token) pair with the best transition * emission.

    The first token is the best emission at position 1 (the start position
    is fixed, so there is no transition to weigh it against). Ties prefer
    the earlier position, then the smaller token id.
    """
    return argmax_hypothesis(instance, _walk(instance.log_transitions, instance.best_emission))


def table_decode(
    instance: Instance, mode: TableMode, beta: float = DEFAULT_BETA
) -> tuple[Hypothesis, LengthSelection, ViterbiTable]:
    """Build the ``mode`` table, select a length by ``beta``, and read its best hypothesis."""
    table = build_viterbi_table(instance, mode)
    selection = select_length(table, beta)
    path = backtrace(table, selection.chosen_M)
    return argmax_hypothesis(instance, path), selection, table


def viterbi_decode(instance: Instance, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Best path, then argmax tokens along it: ``table_decode``'s hypothesis."""
    return _exact_decode(instance, TableMode.PATH, beta)


def joint_viterbi_decode(instance: Instance, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Best (path, tokens) pair over emission-augmented transitions: ``table_decode``'s hypothesis.

    With ``beta = 0`` the result attains the exact joint optimum over all
    lengths; its joint log-probability equals the table score at the chosen
    length.
    """
    return _exact_decode(instance, TableMode.JOINT, beta)


def decode_all_lengths(instance: Instance, table: ViterbiTable) -> list[Hypothesis]:
    """One backtraced hypothesis per feasible output length of ``table``, shortest first."""
    return [
        argmax_hypothesis(instance, backtrace(table, length))
        for length in table.feasible_lengths()
    ]


def decode(instance: Instance, strategy: str, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Dispatch to one of the named strategies."""
    if strategy in TABLE_MODES:
        return _exact_decode(instance, TABLE_MODES[strategy], beta)
    if strategy == "greedy":
        return greedy_decode(instance)
    if strategy == "lookahead":
        return lookahead_decode(instance)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _walk(trans: np.ndarray, bonus) -> tuple[int, ...]:
    """From position 1, step to the successor maximizing ``trans`` + ``bonus`` until L."""
    L = len(trans)
    t = 1
    positions = [1]
    while t < L:
        combined = trans[t - 1] + bonus
        # Only strictly later positions count, so the walk always moves on.
        nxt = t + int(np.argmax(combined[t:]))
        if combined[nxt] == LOG_ZERO:
            raise DeadEndError(f"no outgoing transition from position {t}")
        t = nxt + 1
        positions.append(t)
    return tuple(positions)


def _exact_decode(instance: Instance, mode: TableMode, beta) -> Hypothesis:
    """``table_decode(instance, mode, beta)[0]``, by longest-path passes where they certify it."""
    if beta == 0 or beta == 1:
        path, _, _ = _longest_path_search(instance, mode, beta)
        if path is not None:
            return argmax_hypothesis(instance, DecodingPath(path))
    return table_decode(instance, mode, beta)[0]


class Fallback(enum.IntEnum):
    """Why ``_longest_path_search`` finds no path, so that the table must decode.

    The compiled search's C enum holds the same values.
    """

    NO_PATH = 1  #: a pass finds no path: L is unreachable, or a score overflows
    DEAD_END = 2  #: the walk that seeds the beta = 1 mean dead-ends
    NOT_RISING = 3  #: the mean stops rising before the path repeats
    NOT_CERTIFIED = 4  #: the last pass's path is within rounding of another


def _longest_path_search(instance: Instance, mode: TableMode, beta):
    """``(path, reason, passes)``: the table's best path at ``beta`` 0 or 1, found by passes.

    ``path`` is the tuple of positions, or None with a ``Fallback`` value
    as ``reason`` (``reason`` is None where there is a path); ``passes`` counts
    the longest-path passes run. The one compiled call of ``_cpass`` runs
    the whole search where it loads; otherwise ``_numpy_decode`` does, with
    the same result.
    """
    kernels = _cpass.load()
    return (kernels.decode if kernels else _numpy_decode)(*_hop_weights(instance, mode), beta)


def _hop_weights(instance: Instance, mode: TableMode):
    """``(trans, bonus, start)`` of a ``mode`` table or pass.

    A path scores ``start`` plus, per hop t -> u, ``trans[t, u]``, plus
    ``bonus[u]`` unless ``bonus`` is None (PATH).
    """
    if mode is TableMode.JOINT:
        return instance.log_transitions, instance.best_emission, instance.best_emission[0]
    return instance.log_transitions, None, 0.0


def _mean_score(trans: np.ndarray, bonus, start: float, path: tuple[int, ...]) -> float:
    """A path's score per position: ``start`` plus each hop's weight, added left to right.

    The compiled search sums it the same way. Python floats overflow quietly:
    a sum that overflows gives +inf, or NaN from a -inf start, and no pass
    certifies either.
    """
    total = float(start)
    for t, u in zip(path, path[1:]):
        hop = trans.item(t - 1, u - 1)
        total += hop if bonus is None else hop + bonus.item(u - 1)
    return total / len(path)


@np.errstate(over="ignore", invalid="ignore")  # quiet on overflow, as the compiled table is
def _numpy_table(trans: np.ndarray, bonus, start: float):
    """``build_viterbi_table`` in numpy: the fallback, and the compiled table's reference.

    Paths start from ``start`` and hop t -> u weighs ``trans[t, u]``, plus
    ``bonus[u]`` unless ``bonus`` is None (PATH). Returns ``(alpha, psi,
    overflow)``: ``overflow`` is 0, or the first length whose score is
    ``+inf`` or NaN. An overflowed prefix turns to ``+inf``, then to NaN where
    it meets a ``-inf`` hop, so every longer length is flagged too and
    checking each length's score is exact.
    """
    L = len(trans)
    alpha = np.full(L, LOG_ZERO)
    psi = np.zeros((L, L), dtype=np.min_scalar_type(L))
    # prev[k] is the best length-i prefix score ending at 0-based position i-1+k.
    prev = np.full(L, LOG_ZERO)
    prev[0] = start
    # weights_t[t, t'] scores the hop t' -> t so each pass reduces along axis 1.
    # A copy, not a view: JOINT mode adds to it in place.
    weights_t = later_hops(trans).T.copy()
    if bonus is not None:
        weights_t += bonus[:, None]
    alpha[0] = prev[-1]
    for i in range(1, L):
        # Length i+1 prefixes end at 0-based positions >= i, coming from >= i-1.
        scores = weights_t[i:, i - 1 :] + prev[None, :]
        best = np.argmax(scores, axis=1)
        prev = scores[np.arange(L - i), best]
        alpha[i] = prev[-1]
        psi[i, i:] = np.where(np.isfinite(prev), best + i, 0)
        # Drop this pass's scores before the next pass allocates its own, so
        # that only one (L-i)x(L-i+1) temporary is alive at a time.
        del scores
    overflow = 0
    if not alpha.max() < np.inf:  # one reduction; NaN fails it too
        overflow = int(np.argmax(~(alpha < np.inf))) + 1
    return alpha, psi, overflow


@np.errstate(over="ignore", invalid="ignore")  # quiet on overflow, as the compiled pass is
def _numpy_pass(trans: np.ndarray, bonus, start: float, lam: float):
    """One longest-path pass in numpy, checked, with the compiled pass, through ``_numpy_decode``.

    Hop t -> u weighs ``trans[t, u]``, plus ``bonus[u]`` unless ``bonus`` is
    None (PATH), less ``lam``, and the path starts from ``start``. Returns
    ``(path, certified)``, or ``(None, False)`` if L is unreachable or a
    value overflows.

    Values come first, in one forward pass: from each reachable t in turn,
    relax every later position, adding ``(trans[t, u] + bonus[u]) + (f[t] -
    lam)`` in that order. The backtrace then recomputes each path position's
    candidates with the same arithmetic and takes the smallest predecessor
    that attains the value exactly, as the table's backpointers do.
    ``certified`` holds when at every path position exactly one candidate
    lies within a rounding margin of the best: then no other path of any
    length comes within rounding of this one, so the table, whatever its
    summation order, ranks the same path first. The margin also covers how
    ``lam`` rounds: ``_mean_score`` adds a path's hops left to right, so
    its error is at most about ``eps * (top + L * |lam|)``, where ``top`` is
    the largest finite ``|f|``, far below ``margin / L``.
    """
    L = len(trans)
    f = np.full(L, LOG_ZERO)
    f[0] = start
    for t in range(L - 1):
        ft = f.item(t)
        if ft > LOG_ZERO:
            hops = trans[t, t + 1 :] if bonus is None else trans[t, t + 1 :] + bonus[t + 1 :]
            tail = f[t + 1 :]
            np.maximum(tail, hops + (ft - lam), out=tail)
    if not (f[-1] > LOG_ZERO and (f < np.inf).all()):
        return None, False
    # Worst-case rounding of an L-hop sum, widened by up to L/len for a mean.
    scale = 1.0 + np.abs(f[f > LOG_ZERO]).max() + abs(lam) * L
    margin = 32 * np.finfo(np.float64).eps * (L + 1) ** 2 * scale
    certified = bool(np.isfinite(margin))
    u = L - 1
    path = [L]
    while u > 0:
        hops = trans[:u, u] if bonus is None else trans[:u, u] + bonus[u]
        candidates = hops + (f[:u] - lam)
        best = int(np.argmax(candidates))
        certified = certified and np.count_nonzero(candidates >= f[u] - margin) == 1
        u = best
        path.append(u + 1)
    path.reverse()
    return tuple(path), certified


@np.errstate(over="ignore", invalid="ignore")  # quiet on overflow, as the compiled loop is
def _numpy_decode(trans: np.ndarray, bonus, start: float, beta):
    """``_longest_path_search`` in numpy: the fallback, and the compiled loop's reference.

    A path scores ``start`` plus, per hop t -> u, ``trans[t, u]``, plus
    ``bonus[u]`` unless ``bonus`` is None (PATH): the table's score. At
    ``beta = 0`` one longest-path pass finds the best path. At ``beta = 1``
    the best per-position mean is found by Dinkelbach's method: each pass
    charges every hop ``lam``, ``lam`` starts at the mean of the path the
    greedy (PATH) or lookahead (JOINT) walk follows, and is reset to the
    mean of each pass's path until the path repeats. The path is kept only
    when the last pass certifies it. A path score that overflows gives no
    path either: at ``lam <= 0`` a pass's scores bound every prefix's from
    above, so they overflow too and the pass finds no path; at ``lam > 0``
    the margin's scale overflows, so the pass certifies nothing.
    """
    path, lam, passes = None, 0.0, 0
    if beta == 1:
        try:
            path = _walk(trans, 0.0 if bonus is None else bonus)
        except DeadEndError:
            return None, Fallback.DEAD_END, passes
        lam = _mean_score(trans, bonus, start, path)
    while True:
        previous = path
        path, certified = _numpy_pass(trans, bonus, start, lam)
        passes += 1
        if path is None:
            return None, Fallback.NO_PATH, passes
        if beta == 0 or path == previous:
            break
        mean = _mean_score(trans, bonus, start, path)
        if not mean > lam:
            return None, Fallback.NOT_RISING, passes
        lam = mean
    if not certified:
        return None, Fallback.NOT_CERTIFIED, passes
    return path, None, passes
