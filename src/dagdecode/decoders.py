"""Decoding strategies over a lattice instance.

Two sequential baselines (greedy, lookahead) and two dynamic-programming
decoders that are exact per output length: a max-score table over the
transition table alone (PATH mode) or over transitions with each target
position's best emission folded in (JOINT mode). The table keeps what its
readers read: each output length's best log-score at position L, and the
backpointers that recover that path. Length selection divides each
length's log-score by ``length ** beta`` before taking the argmax.

Which algorithm runs: at ``beta`` exactly 0 or 1, ``decode``,
``viterbi_decode`` and ``joint_viterbi_decode`` find the table's answer
with O(L^2) longest-path passes over the DAG (one pass at 0; Dinkelbach's
parametric method for the per-token mean at 1) and no table. The answer is
certified on the last pass; on a near-tie, or where a JOINT weight
overflows to ``+inf``, they build the table instead, so results, tie rules
and errors are the table's. Any other ``beta``, and every caller that reads
every length (``table_decode``, ``decode_all_lengths``, the CLI ``decode``,
analysis' optimum column), builds the O(L^3) table.

Each pass's forward half runs as a small C function (``_cpass``), compiled
with ``cc`` on the first such decode, never at import, and cached in
``$XDG_CACHE_HOME/dagdecode`` (default ``~/.cache/dagdecode``). It fills
the same values bit for bit as the numpy pass. Where it cannot be compiled
or loaded, the process silently keeps the numpy pass. The backtrace and
its certificate are numpy in both cases.

Tie-breaking is fixed everywhere so identical inputs decode identically:
backpointers prefer the smallest predecessor position, length selection
prefers the larger length, and token argmaxes prefer the smallest id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _cpass, scoring
from .errors import DeadEndError, InfeasibleLengthError, UnreachableTerminalError
from .lattice import DecodingPath, Hypothesis, Instance, later_hops
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
    """Fill the backpointers for every (length, end position) pair.

    One pass per prefix length; each pass maximizes over predecessors in a
    single vectorized step and carries only its row of best prefix scores to
    the next pass, keeping the terminal entry as that length's score.
    Positions earlier than the prefix length are unreachable, and only hops
    to strictly later positions are read. The predecessor argmax takes the
    first (smallest) position on ties.
    """
    L = instance.L
    alpha = np.full(L, LOG_ZERO)
    psi = np.zeros((L, L), dtype=np.min_scalar_type(L))
    # prev[k] is the best length-i prefix score ending at 0-based position i-1+k.
    prev = np.full(L, LOG_ZERO)
    prev[0] = 0.0
    # weights_t[t, t'] scores the hop t' -> t so each pass reduces along axis 1.
    # A copy, not a view: JOINT mode adds to it in place.
    weights_t = later_hops(instance).T.copy()
    if mode is TableMode.JOINT:
        best_emission = instance.log_emissions.max(axis=1)
        weights_t += best_emission[:, None]
        prev[0] = best_emission[0]
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
    """Emit the most probable token at each path position and score the result."""
    # Scoring checks the path (PathShapeError), so it comes before any indexing.
    path_lp = scoring.path_log_prob(instance, path)
    pos = np.asarray(tuple(path), dtype=np.intp) - 1
    tokens = tuple(int(y) for y in np.argmax(instance.log_emissions[pos], axis=1))
    emission_lp = scoring.translation_given_path_log_prob(instance, path, tokens)
    return Hypothesis(path, tokens, path_lp, emission_lp)


def greedy_decode(instance: Instance) -> Hypothesis:
    """Follow the most probable transition from each position until L."""
    return argmax_hypothesis(instance, _walk(instance, 0.0))


def lookahead_decode(instance: Instance) -> Hypothesis:
    """Step to the (position, token) pair with the best transition * emission.

    The first token is the best emission at position 1 (the start position
    is fixed, so there is no transition to weigh it against). Ties prefer
    the earlier position, then the smaller token id.
    """
    return argmax_hypothesis(instance, _walk(instance, instance.log_emissions.max(axis=1)))


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


def _walk(instance: Instance, bonus) -> tuple[int, ...]:
    """From position 1, step to the successor maximizing transition + ``bonus`` until L."""
    L = instance.L
    t = 1
    positions = [1]
    while t < L:
        combined = instance.log_transitions[t - 1] + bonus
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
        hyp = _longest_path_decode(instance, mode, beta)
        if hyp is not None:
            return hyp
    return table_decode(instance, mode, beta)[0]


def _longest_path_decode(instance: Instance, mode: TableMode, beta) -> Hypothesis | None:
    """The table's hypothesis at ``beta`` 0 or 1 without the table, or None.

    A path's score is the table's: the start cell plus one ``mode`` weight per
    hop. At ``beta = 0`` one longest-path pass finds the best path. At
    ``beta = 1`` the best per-token mean is found by Dinkelbach's method: each
    pass charges every hop ``lam``, ``lam`` starts at the mean of the path
    the greedy (PATH) or lookahead (JOINT) walk follows, and is reset to the
    mean of each pass's path until the path repeats. None (build the table)
    when the answer cannot be certified: a JOINT weight (a transition plus
    a best emission) that overflows to ``+inf``, an unreachable terminal, a
    walk that dead-ends, a mean that stops rising, or a near-tie on the last
    pass.
    """
    weights, start, bonus = instance.log_transitions, 0.0, 0.0
    if mode is TableMode.JOINT:
        bonus = instance.log_emissions.max(axis=1)
        weights = weights + bonus
        start = bonus[0]
        # The instance holds no NaN or +inf, but a sum of two finite scores can overflow.
        if not weights.max() < np.inf:
            return None
    path, lam = None, 0.0
    if beta == 1:
        try:
            path = _walk(instance, bonus)
        except DeadEndError:
            return None
        lam = _mean_score(weights, start, path)
    while True:
        previous = path
        path, certified = _longest_path(weights, start, lam)
        if beta == 0 or path is None or path == previous:
            break
        mean = _mean_score(weights, start, path)
        if not mean > lam:
            return None
        lam = mean
    if path is None or not certified:
        return None
    return argmax_hypothesis(instance, DecodingPath(path))


def _mean_score(weights: np.ndarray, start: float, path: tuple[int, ...]) -> float:
    """A path's score (start plus hop weights) per position."""
    pos = np.asarray(path, dtype=np.intp) - 1
    return float(start + weights[pos[:-1], pos[1:]].sum()) / len(path)


def _longest_path(weights: np.ndarray, start: float, lam: float):
    """Best path from position 1 to L when every hop costs ``lam``, and its certificate.

    Returns ``(path, certified)``, or ``(None, False)`` if L is unreachable or
    a value overflows. Values come first, in one forward pass (``_forward``,
    compiled or numpy, the same values bit for bit); the backtrace then
    recomputes each path position's candidates with the same arithmetic
    and takes the smallest predecessor that attains the value exactly, as the
    table's backpointers do. ``certified`` holds when at every path position
    exactly one candidate lies within a rounding margin of the best: then no
    other path of any length comes within rounding of this one, so the
    table, whatever its summation order, ranks the same path first.
    """
    L = len(weights)
    f = np.full(L, LOG_ZERO)
    f[0] = start
    _forward(weights, f, lam)
    if not (f[-1] > LOG_ZERO and (f < np.inf).all()):
        return None, False
    # Worst-case rounding of an L-hop sum, widened by up to L/len for a mean.
    scale = 1.0 + np.abs(f[f > LOG_ZERO]).max() + abs(lam) * L
    margin = 32 * np.finfo(np.float64).eps * (L + 1) ** 2 * scale
    certified = bool(np.isfinite(margin))
    u = L - 1
    path = [L]
    while u > 0:
        candidates = weights[:u, u] + (f[:u] - lam)
        best = int(np.argmax(candidates))
        certified = certified and np.count_nonzero(candidates >= f[u] - margin) == 1
        u = best
        path.append(u + 1)
    path.reverse()
    return tuple(path), certified


def _numpy_forward(weights: np.ndarray, f: np.ndarray, lam: float) -> None:
    """The forward pass in place: from each reachable t in turn, relax every later position."""
    for t in range(len(f) - 1):
        ft = f.item(t)
        if ft > LOG_ZERO:
            tail = f[t + 1 :]
            np.maximum(tail, weights[t, t + 1 :] + (ft - lam), out=tail)


def _forward(weights: np.ndarray, f: np.ndarray, lam: float) -> None:
    """The compiled forward pass if it loads (see ``_cpass``), else ``_numpy_forward``."""
    (_cpass.load() or _numpy_forward)(weights, f, lam)
