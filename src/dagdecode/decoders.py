"""Decoding strategies over a lattice instance.

Two sequential baselines (greedy, lookahead) and two dynamic-programming
decoders that are exact per output length: a max-score table over the
transition table alone (PATH mode) or over transitions with each target
position's best emission folded in (JOINT mode). Length selection divides
each length's log-score by ``length ** beta`` before taking the argmax.

Tie-breaking is fixed everywhere so identical inputs decode identically:
backpointers prefer the smallest predecessor position, length selection
prefers the larger length, and token argmaxes prefer the smallest id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import scoring
from .errors import (
    DeadEndError,
    InfeasibleLengthError,
    UnreachableTerminalError,
)
from .lattice import DecodingPath, Hypothesis, Instance
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
    """Best-prefix log-scores and backpointers, one row per prefix length.

    ``alpha[i-1, t-1]`` is the best log-score of any length-i prefix path
    from position 1 to position t; ``psi[i-1, t-1]`` is the 1-based
    predecessor position achieving it (0 where there is none). PATH mode
    scores transitions only; JOINT mode uses the emission-augmented
    transition table and seeds the start cell with position 1's best
    emission log-probability.
    """

    alpha: np.ndarray
    psi: np.ndarray
    mode: TableMode

    @property
    def L(self) -> int:
        return self.alpha.shape[0]

    def score(self, length: int, position: int) -> float:
        """alpha at a 1-based (prefix length, end position) pair."""
        return float(self.alpha[length - 1, position - 1])

    def predecessor(self, length: int, position: int) -> int:
        """1-based backpointer at (prefix length, end position); 0 if none."""
        return int(self.psi[length - 1, position - 1])

    def feasible_lengths(self) -> list[int]:
        """Lengths whose best path actually reaches the terminal position."""
        terminal = self.alpha[:, self.L - 1]
        return [i + 1 for i in np.flatnonzero(np.isfinite(terminal))]


@dataclass(frozen=True)
class LengthSelection:
    """Chosen output length and the (raw, penalized) score per feasible length."""

    chosen_M: int
    per_length_scores: dict[int, tuple[float, float]]


def build_viterbi_table(instance: Instance, mode: TableMode) -> ViterbiTable:
    """Fill the best-prefix table for every (length, end position) pair.

    One pass per prefix length; each pass maximizes over predecessors in a
    single vectorized step. Positions earlier than the prefix length are
    unreachable and stay ``-inf``. The predecessor argmax takes the first
    (smallest) position on ties.
    """
    L = instance.L
    if mode is TableMode.JOINT:
        best_emission = instance.log_emissions.max(axis=1)
        weights = instance.log_transitions + best_emission[None, :]
        start = float(best_emission[0])
    else:
        weights = instance.log_transitions
        start = 0.0

    alpha = np.full((L, L), LOG_ZERO)
    psi = np.zeros((L, L), dtype=np.int64)
    alpha[0, 0] = start
    # weights_t[t, t'] views the hop t' -> t so each pass reduces along axis 1.
    weights_t = np.ascontiguousarray(weights.T)
    for i in range(1, L):
        # Length i+1 prefixes end at 0-based positions >= i, coming from >= i-1.
        scores = weights_t[i:, i - 1 :] + alpha[i - 1, i - 1 :][None, :]
        best = np.argmax(scores, axis=1)
        values = scores[np.arange(L - i), best]
        alpha[i, i:] = values
        psi[i, i:] = np.where(np.isfinite(values), best + i, 0)
    return ViterbiTable(alpha=alpha, psi=psi, mode=mode)


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
    terminal = table.alpha[:, table.L - 1]
    per_length: dict[int, tuple[float, float]] = {}
    chosen = None
    chosen_score = None
    for idx in np.flatnonzero(np.isfinite(terminal)):
        length = int(idx) + 1
        raw = float(terminal[idx])
        try:
            penalized = raw / length**beta
        except OverflowError:
            penalized = raw / np.inf
        per_length[length] = (raw, penalized)
        if chosen_score is None or penalized >= chosen_score:
            chosen, chosen_score = length, penalized
    if chosen is None:
        raise UnreachableTerminalError("no path of any length reaches the terminal")
    return LengthSelection(chosen_M=chosen, per_length_scores=per_length)


def backtrace(table: ViterbiTable, M: int) -> DecodingPath:
    """Recover the best length-M path by walking backpointers from the end."""
    L = table.L
    if not 1 <= M <= L or not np.isfinite(table.alpha[M - 1, L - 1]):
        raise InfeasibleLengthError(f"no path of length {M} reaches the terminal")
    positions = [L]
    t = L
    for i in range(M, 1, -1):
        t = int(table.psi[i - 1, t - 1])
        positions.append(t)
    positions.reverse()
    return DecodingPath(tuple(positions))


def argmax_hypothesis(instance: Instance, path) -> Hypothesis:
    """Emit the most probable token at each path position and score the result."""
    pos = np.asarray(tuple(path), dtype=np.intp) - 1
    tokens = tuple(int(y) for y in np.argmax(instance.log_emissions[pos], axis=1))
    return _scored_hypothesis(instance, path, tokens)


def greedy_decode(instance: Instance) -> Hypothesis:
    """Follow the most probable transition from each position until L."""
    return _walk(instance, 0.0)


def lookahead_decode(instance: Instance) -> Hypothesis:
    """Step to the (position, token) pair with the best transition * emission.

    The first token is the best emission at position 1 (the start position
    is fixed, so there is no transition to weigh it against). Ties prefer
    the earlier position, then the smaller token id.
    """
    return _walk(instance, instance.log_emissions.max(axis=1))


def table_decode(
    instance: Instance, mode: TableMode, beta: float = DEFAULT_BETA
) -> tuple[Hypothesis, LengthSelection, ViterbiTable]:
    """Build the ``mode`` table, select a length by ``beta``, and read its best hypothesis."""
    table = build_viterbi_table(instance, mode)
    selection = select_length(table, beta)
    path = backtrace(table, selection.chosen_M)
    return argmax_hypothesis(instance, path), selection, table


def viterbi_decode(instance: Instance, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Best path by table, then argmax tokens along it."""
    return table_decode(instance, TableMode.PATH, beta)[0]


def joint_viterbi_decode(instance: Instance, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Best (path, tokens) pair by table over emission-augmented transitions.

    With ``beta = 0`` the result attains the exact joint optimum over all
    lengths; its joint log-probability equals the table score at the chosen
    length.
    """
    return table_decode(instance, TableMode.JOINT, beta)[0]


def decode_all_lengths(instance: Instance, table: ViterbiTable) -> list[Hypothesis]:
    """One backtraced hypothesis per feasible output length of ``table``, shortest first."""
    return [
        argmax_hypothesis(instance, backtrace(table, length))
        for length in table.feasible_lengths()
    ]


def decode(instance: Instance, strategy: str, beta: float = DEFAULT_BETA) -> Hypothesis:
    """Dispatch to one of the named strategies."""
    if strategy in TABLE_MODES:
        return table_decode(instance, TABLE_MODES[strategy], beta)[0]
    if strategy == "greedy":
        return greedy_decode(instance)
    if strategy == "lookahead":
        return lookahead_decode(instance)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _walk(instance: Instance, bonus) -> Hypothesis:
    """From position 1, step to the successor maximizing transition + ``bonus`` until L."""
    L = instance.L
    t = 1
    positions = [1]
    while t < L:
        combined = instance.log_transitions[t - 1] + bonus
        nxt = int(np.argmax(combined))
        if combined[nxt] == LOG_ZERO:
            raise DeadEndError(f"no outgoing transition from position {t}")
        t = nxt + 1
        positions.append(t)
    return argmax_hypothesis(instance, DecodingPath(tuple(positions)))


def _scored_hypothesis(instance: Instance, path, tokens) -> Hypothesis:
    path_lp = scoring.path_log_prob(instance, path)
    emission_lp = scoring.translation_given_path_log_prob(instance, path, tokens)
    return Hypothesis.from_scores(path, tokens, path_lp, emission_lp)
